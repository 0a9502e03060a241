"""One exact-number rule at every boundary.

A coefficient that the library returns is an int when it is integral and a
reduced Fraction otherwise, and never zero; a bool or float coefficient, which
is no exact number, raises TypeError where it enters (BasisExpansion and
superpoly._exact), as does an input that is not a library object.  The
results that the pivot and the filling rule build unchecked are fixed points
of the checked constructor.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from supersym.bases import basis_element
from supersym.superpartition import BASIS_NAMES, SuperPartition, _block, enumerate_superpartitions
from supersym.superpoly import SuperPolynomial
from supersym.transform import (
    BasisExpansion,
    change_basis,
    eh_in_p,
    expand_in_monomials,
    format_rational,
    mono_product,
    omega,
    scalar_product,
    z_weight,
)


def sp(text):
    return SuperPartition.parse(text)


def blocks(n_max):
    return [(n, m) for n in range(n_max + 1) for m in range(n_max + 1) if enumerate_superpartitions(n, m)]


def units(n_max):
    return [
        BasisExpansion.unit(b, la)
        for n, m in blocks(n_max) for la in enumerate_superpartitions(n, m) for b in BASIS_NAMES
    ]


class Seen:
    """Checks each value by the rule and counts the two kinds, so that a
    table in which one kind never occurs shows."""

    def __init__(self):
        self.kinds = Counter()

    def value(self, c, where):
        assert c != 0, where
        assert type(c) is (int if c.denominator == 1 else Fraction), (where, c)
        self.kinds[type(c)] += 1

    def expansion(self, x, where):
        for c in x.coeffs.values():
            self.value(c, where)


def test_every_return_path_keeps_integral_values_int():
    seen = Seen()
    for x in units(6):
        seen.expansion(x, x)
        for to in BASIS_NAMES:
            y = change_basis(x, to)
            seen.expansion(y, (x, to))
            back = BasisExpansion.from_json_dict(y.to_json_dict())
            assert back == y and back.coeffs == y.coeffs
            seen.expansion(back, (x, to, "json"))
        seen.expansion(omega(x), (x, "omega"))
        seen.expansion(x.scale(Fraction(2, 4)) + x.scale(Fraction(1, 2)), (x, "scale, add"))
    assert seen.kinds[int] > 0 and seen.kinds[Fraction] > 0

    seen = Seen()
    for n, m in blocks(4):
        labels = enumerate_superpartitions(n, m)
        us = [BasisExpansion.unit(b, la) for la in labels for b in BASIS_NAMES]
        us += [BasisExpansion.unit("p", la).scale(Fraction(1, z_weight(la))) for la in labels]
        for x, y in product(us, us):
            c = scalar_product(x, y)
            if c:
                seen.value(c, (x, y))
    assert seen.kinds[int] > 0 and seen.kinds[Fraction] > 0
    assert type(scalar_product(units(1)[0], units(2)[0])) is int  # two blocks pair to 0

    seen = Seen()
    labels = [la for n, m in blocks(4) for la in enumerate_superpartitions(n, m)]
    for a, b in product(labels, labels):
        if a.degree + b.degree <= 4 and a.fermionic_degree + b.fermionic_degree <= 3:
            seen.expansion(mono_product(a, b), (a, b))
    for n in range(7):
        for fermionic, which in product((False, True), "eh"):
            seen.expansion(eh_in_p(n, fermionic, which), (n, fermionic, which))
    for x in units(3):
        (la,) = x.coeffs
        f = basis_element(x.basis, la, x.n + x.m)
        seen.expansion(expand_in_monomials(f, (x.n, x.m)), (x, "element"))
        f = change_basis(x, "p").to_poly()  # true fractions in the engine's blocks
        seen.expansion(expand_in_monomials(f, (x.n, x.m)), (x, "to_poly"))
    assert seen.kinds[int] > 0 and seen.kinds[Fraction] > 0

    missing = BasisExpansion("m", 2, 1).get(sp("(1;1)"))
    assert missing == 0 and type(missing) is int


def test_a_fraction_with_denominator_one_is_stored_as_its_numerator():
    x = BasisExpansion("m", 2, 1, {sp("(1;1)"): Fraction(6, 3), sp("(0;2)"): Fraction(0), sp("(0;1,1)"): Fraction(1, 3)})
    assert x.coeffs == {sp("(1;1)"): 2, sp("(0;1,1)"): Fraction(1, 3)}
    assert [type(c) for c in x.coeffs.values()] == [int, Fraction]
    assert format_rational(x.get(sp("(1;1)"))) == "2" and format_rational(Fraction(2, 6)) == "1/3"


@pytest.mark.parametrize("value", [0.1, 2.0, True, False], ids=repr)
@pytest.mark.parametrize("boundary", [
    "BasisExpansion", "BasisExpansion.scale", "format_rational", "SuperPolynomial.term",
    "SuperPolynomial.linear_combination", "SuperPolynomial.scale",
])
def test_a_bool_or_float_coefficient_raises_naming_it(boundary, value):
    call = {
        "BasisExpansion": lambda c: BasisExpansion("m", 2, 1, {sp("(1;1)"): c}),
        "BasisExpansion.scale": lambda c: BasisExpansion.unit("m", sp("(1;1)")).scale(c),
        "format_rational": format_rational,
        "SuperPolynomial.term": lambda c: SuperPolynomial.term(2, c, {1: 1}),
        "SuperPolynomial.linear_combination": lambda c: SuperPolynomial.linear_combination(
            2, [(c, SuperPolynomial.one(2))]),
        "SuperPolynomial.scale": lambda c: SuperPolynomial.one(2).scale(c),
    }[boundary]
    with pytest.raises(TypeError, match=rf"^coefficient {value!r} is a {type(value).__name__}: "):
        call(value)


@pytest.mark.parametrize("call, match", [
    (lambda: BasisExpansion("m", 2, 1, {"(1;1)": 1}), "expected SuperPartition labels, got '\\(1;1\\)'"),
    (lambda: change_basis(SuperPolynomial.one(2), "m"), "expected a BasisExpansion, got .*SuperPolynomial"),
    (lambda: omega("m"), "expected a BasisExpansion, got <class 'str'>"),
    (lambda: scalar_product("m", BasisExpansion("m", 0, 0)), "expected a SuperPolynomial, got <class 'str'>"),
    (lambda: BasisExpansion.unit("m", sp("(1;1)")) + 1, "unsupported operand type.*'BasisExpansion' and 'int'"),
    (lambda: mono_product(sp("(1;1)"), "x"), "expected a SuperPartition, got 'x'"),
], ids=["BasisExpansion", "change_basis", "omega", "scalar_product", "BasisExpansion.__add__", "mono_product"])
def test_an_input_that_is_no_library_object_raises_type_error(call, match):
    with pytest.raises(TypeError, match=match):
        call()


def test_pivot_results_are_fixed_points_of_the_checked_constructor():
    # _from_p (so change_basis, omega and eh_in_p) and mono_product build
    # their results unchecked, so each must already be what __init__ makes of it
    def check(y, basis, where):
        assert y.basis == basis, where
        block = set(_block(y.n, y.m))
        assert all(la in block and c != 0 for la, c in y.coeffs.items()), where
        again = BasisExpansion(y.basis, y.n, y.m, y.coeffs)
        assert again == y, where
        typed = [(la, type(c), c) for la, c in y.coeffs.items()]
        assert [(la, type(c), c) for la, c in again.coeffs.items()] == typed, where

    rng = random.Random(30)
    inputs = units(6)
    for n, m in blocks(6):
        labels = enumerate_superpartitions(n, m)
        for b, _ in product(BASIS_NAMES, range(3)):
            picked = rng.sample(labels, min(len(labels), 4))
            coeffs = {la: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for la in picked}
            inputs.append(BasisExpansion(b, n, m, coeffs))
    for x in inputs:
        for to in BASIS_NAMES:
            check(change_basis(x, to), to, (x, to))
        check(omega(x), x.basis, (x, "omega"))
    for n in range(7):
        for fermionic, which in product((False, True), "eh"):
            check(eh_in_p(n, fermionic, which), "p", (n, fermionic, which))
    labels = [la for n, m in blocks(4) for la in enumerate_superpartitions(n, m)]
    products = [mono_product(a, b) for a, b in product(labels, labels) if a.degree + b.degree <= 4]
    for y in products:
        check(y, "m", y)
    assert sum(map(len, (y.coeffs for y in products))) > 0
