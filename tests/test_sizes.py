"""One size policy at every public entry.

Every public name that takes a size (a degree, a block coordinate, a number
of variables) checks it with superpartition._check_size before any work: a
value that is not an int in range, a bool included, raises ValueError naming
the parameter, and no cache fills or answers for it.
"""

import inspect
import re

import pytest

from supersym import bases, engine_checks, inner, superpartition, superpoly, transform
from supersym.superpartition import SuperPartition
from supersym.superpoly import SuperPolynomial

BAD = (True, 2.5, -1, "3")
SIZES = {"n", "m", "max_len", "n_max", "nvars", "trunc", "degree", "max_degree", "bidegree"}


def sp(text):
    return SuperPartition.parse(text)


GENERATORS = {f.__name__: f for pair in bases._GENERATORS.values() for f in pair}

# (entry, parameter, call with the value in that parameter's place, values
# beyond BAD); the extra values are the edges each entry had tests for
ENTRIES = [
    ("enumerate_superpartitions", "n", lambda v: superpartition.enumerate_superpartitions(v, 1), ()),
    ("enumerate_superpartitions", "m", lambda v: superpartition.enumerate_superpartitions(3, v), ()),
    ("enumerate_superpartitions", "max_len", lambda v: superpartition.enumerate_superpartitions(3, 1, v), ()),
    ("orders_check", "n_max", superpartition.orders_check, ()),
    ("count_check", "n_max", superpartition.count_check, ()),
    *[(name, "n", lambda v, f=f: f(v, 2), (65536,)) for name, f in GENERATORS.items()],
    *[(name, "nvars", lambda v, f=f: f(2, v), ()) for name, f in GENERATORS.items()],
    ("monomial", "nvars", lambda v: bases.monomial(sp("(1;1)"), v), ()),
    ("multiplicative", "nvars", lambda v: bases.multiplicative("h", sp("(1;1)"), v), ()),
    ("basis_element", "nvars", lambda v: bases.basis_element("p", sp("(1;1)"), v), ()),
    ("basis_element m", "nvars", lambda v: bases.basis_element("m", sp("(1;1)"), v), ()),
    ("generating_check", "trunc", lambda v: bases.generating_check("H", v, 2), (1 << 15,)),
    ("generating_check", "nvars", lambda v: bases.generating_check("H", 2, v), (0,)),
    ("BasisExpansion", "n", lambda v: transform.BasisExpansion("h", v, 0), (-3,)),
    ("BasisExpansion", "m", lambda v: transform.BasisExpansion("h", 2, v), (False,)),
    ("BasisExpansion.from_json_dict", "n",
     lambda v: transform.BasisExpansion.from_json_dict({"basis": "m", "n": v, "m": 0, "terms": []}), ("2",)),
    ("BasisExpansion.from_json_dict", "m",
     lambda v: transform.BasisExpansion.from_json_dict({"basis": "m", "n": 2, "m": v, "terms": []}), ()),
    ("eh_in_p", "n", lambda v: transform.eh_in_p(v, False, "h"), ()),
    ("expand_in_monomials", "bidegree",
     lambda v: engine_checks.expand_in_monomials(bases.monomial(sp("(;2)"), 2), v), ((2,), (2, 0, 0))),
    ("expand_in_monomials", "bidegree n",
     lambda v: engine_checks.expand_in_monomials(bases.monomial(sp("(;2)"), 2), (v, 0)), ()),
    ("expand_in_monomials", "bidegree m",
     lambda v: engine_checks.expand_in_monomials(bases.monomial(sp("(;2)"), 2), (2, v)), ()),
    ("verify_recursions", "n_max", engine_checks.verify_recursions, (0, 2.0, 1 << 15)),
    ("determinant_formulas", "n", lambda v: engine_checks.determinant_formulas(v, "e_in_h"), (0, 1 << 15)),
    ("determinant_formulas etilde_in_p", "n",
     lambda v: engine_checks.determinant_formulas(v, "etilde_in_p"), (2.0,)),
    ("determinant_formulas", "nvars",
     lambda v: engine_checks.determinant_formulas(3, "e_in_h", nvars=v), (0,)),
    ("triangularity", "n_max", engine_checks.triangularity, ()),
    ("dual_bases_check", "n", lambda v: inner.dual_bases_check(v, 0, "h", "m"), ()),
    ("dual_bases_check", "m", lambda v: inner.dual_bases_check(2, v, "h", "m"), ()),
    ("duality_check", "n_max", inner.duality_check, ()),
    ("kernel_check", "nvars", lambda v: inner.kernel_check(v, 2), (0,)),
    ("kernel_check", "degree", lambda v: inner.kernel_check(2, v), (1 << 15,)),
    ("reproducing_check", "nvars", lambda v: inner.reproducing_check(v, 2), (0,)),
    ("reproducing_check", "max_degree", lambda v: inner.reproducing_check(2, v), ()),
    ("SuperPolynomial", "nvars", lambda v: SuperPolynomial(v, {}), (False, 2.0)),
]

ROWS = [
    pytest.param(call, name, value, id=f"{entry}-{name}={value!r}")
    for entry, name, call, extra in ENTRIES
    for value in BAD + extra
]


def cache_sizes():
    caches = [
        superpartition._block, transform._block_index, transform._h_in_p,
        *GENERATORS.values(), bases.multiplicative, engine_checks._monomial_polys,
    ]
    return [f.cache_info().currsize for f in caches]


def test_the_table_covers_every_public_entry_that_takes_a_size():
    # every public name with a parameter named as a size has its rows, so a
    # new entry cannot miss the check unseen
    takes_a_size = set()
    for module in (superpartition, superpoly, bases, transform, inner):  # transform forwards engine_checks
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj) and obj is not superpartition.SparError:  # no signature to read
                if SIZES & set(inspect.signature(obj).parameters):
                    takes_a_size.add(name)
    assert {entry.split()[0].split(".")[0] for entry, *_ in ENTRIES} == takes_a_size
    assert len(takes_a_size) == 24


@pytest.mark.parametrize("call, name, value", ROWS)
def test_a_value_that_is_no_size_raises_naming_its_parameter(call, name, value):
    # warm caches, so that a bad value could alias a cached entry
    bases.complete(1, 2)
    bases.multiplicative("h", sp("(1;1)"), 1)
    transform.eh_in_p(1, False, "h")
    before = cache_sizes()
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be "):
        call(value)
    assert cache_sizes() == before


@pytest.mark.parametrize("name", [*GENERATORS, "multiplicative"])
def test_a_warm_cache_serves_no_bool_or_float_size(name):
    # True == 1 == 1.0 and all hash alike: an untyped cache would hand out
    # the entry of 1 for each of them
    if name == "multiplicative":
        call = lambda n, nvars: bases.multiplicative("h", sp(f"(;{n})"), nvars)
        cases = [((1, True), "nvars"), ((1, 1.0), "nvars")]
    else:
        call = lambda n, nvars: GENERATORS[name](n, nvars)
        cases = [((True, 3), "n"), ((1.0, 3), "n"), ((1, True), "nvars"), ((1, 1.0), "nvars")]
    call(1, 3)
    call(1, 1)
    before = cache_sizes()
    for args, param in cases:
        with pytest.raises(ValueError, match=rf"^{param} must be an int"):
            call(*args)
    assert cache_sizes() == before
