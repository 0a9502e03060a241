"""The power-sum pivot of change_basis, held against the polynomial engine."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from supersym import transform
from supersym.superpartition import SuperPartition, enumerate_superpartitions
from supersym.superpoly import SuperPolynomial
from supersym.bases import multiplicative
from supersym.engine_checks import _block_matrix
from supersym.transform import (
    BasisExpansion,
    _p_mul,
    change_basis,
    eh_in_p,
    expand_in_monomials,
)
from supersym.inner import omega, scalar_product


def sp(text):
    return SuperPartition.parse(text)


def unit(basis, text):
    return BasisExpansion.unit(basis, sp(text))


def blocks(n_max):
    for n in range(n_max + 1):
        m = 0
        while m * (m - 1) // 2 <= n:
            yield n, m
            m += 1


# -- the engine oracle ------------------------------------------------------------


def test_pivot_matches_engine_block_matrices():
    columns = 0
    for n, m in blocks(6):
        block = enumerate_superpartitions(n, m)
        for basis in ("e", "h", "p"):
            mat = _block_matrix(basis, n, m)
            for j, la in enumerate(block):
                want = BasisExpansion("m", n, m, {om: mat[i][j] for i, om in enumerate(block)})
                assert change_basis(BasisExpansion.unit(basis, la), "m") == want, (basis, la)
                columns += 1
    assert columns == 558


# -- round trips and the triangular solve -------------------------------------------


def test_monomial_round_trips_through_every_basis():
    for n, m in blocks(7):
        for la in enumerate_superpartitions(n, m):
            x = BasisExpansion.unit("m", la)
            for basis in ("e", "h", "p"):
                assert change_basis(change_basis(x, basis), "m") == x, (basis, la)


@pytest.mark.parametrize("text", ["(5,0;3,2)", "(4,2,0;2,1,1)"])
def test_round_trips_at_degree_ten(text):
    for src, dst in (("h", "m"), ("e", "p")):
        x = unit(src, text)
        y = change_basis(x, dst)
        assert change_basis(y, src) == x
        assert change_basis(change_basis(BasisExpansion.unit(dst, sp(text)), src), dst) == (
            BasisExpansion.unit(dst, sp(text))
        )


def test_solve_raises_on_a_residue(monkeypatch):
    # an entry above its column's pivot breaks back substitution; the
    # residue check must catch it rather than return a wrong answer
    good = transform._e_in_m(3, 1)
    row, la, pivot, rest = good[-1]
    broken = good[:-1] + ((row, la, pivot, rest + ((good[0][0], 1),)),)
    monkeypatch.setattr(transform, "_e_in_m", lambda n, m: broken)
    with pytest.raises(ArithmeticError):
        transform._solve_in_e(3, 1, {row: Fraction(1)})


# -- the p-algebra product -------------------------------------------------------------


@st.composite
def superpartitions(draw, max_part=3, max_len=3):
    a = draw(st.lists(st.integers(0, max_part), unique=True, max_size=max_len))
    s = draw(st.lists(st.integers(1, max_part), max_size=max_len))
    return SuperPartition(tuple(sorted(a, reverse=True)), tuple(sorted(s, reverse=True)))


def p_times(x, y):
    """Product of two sparse p-expansions given as dicts."""
    out = {}
    for la, c in x.items():
        for om, d in y.items():
            sign, lo = _p_mul(la, om)
            if sign:
                out[lo] = out.get(lo, 0) + sign * c * d
    return {k: v for k, v in out.items() if v}


def test_product_labels_are_canonical():
    labels = [x for n in range(5) for m in range(3) for x in enumerate_superpartitions(n, m)]
    for x in labels:
        for y in labels:
            sign, label = _p_mul(x, y)
            if sign:
                checked = SuperPartition(
                    tuple(sorted(x.a + y.a, reverse=True)), tuple(sorted(x.s + y.s, reverse=True))
                )
                assert label == checked and hash(label) == hash(checked)
                assert label.bidegree == checked.bidegree


@given(superpartitions(), superpartitions())
@example(SuperPartition((2,)), SuperPartition((0,)))  # tp_2 tp_0 = -tp_0 tp_2
def test_product_is_graded_commutative(x, y):
    sx, lx = _p_mul(x, y)
    sy, ly = _p_mul(y, x)
    assert lx == ly
    assert sx == (-1) ** (x.fermionic_degree * y.fermionic_degree) * sy


@given(superpartitions(), superpartitions())
def test_product_vanishes_on_a_repeated_fermionic_part(x, y):
    sign, label = _p_mul(x, y)
    if set(x.a) & set(y.a):
        assert (sign, label) == (0, None)
    else:
        assert sign in (1, -1)
        assert label.bidegree == (x.degree + y.degree, x.fermionic_degree + y.fermionic_degree)


@given(superpartitions(), superpartitions(), superpartitions())
def test_product_is_associative(x, y, z):
    one = {x: 1}
    assert p_times(p_times(one, {y: 1}), {z: 1}) == p_times(one, p_times({y: 1}, {z: 1}))


@settings(max_examples=40, deadline=None)
@given(superpartitions(max_part=2, max_len=2), superpartitions(max_part=2, max_len=2))
def test_product_agrees_with_engine(x, y):
    n, m = x.degree + y.degree, x.fermionic_degree + y.fermionic_degree
    assume(n <= 5 and m <= 3)
    nvars = max(n + m, 1)
    engine = expand_in_monomials(
        multiplicative("p", x, nvars) * multiplicative("p", y, nvars), (n, m)
    )
    sign, label = _p_mul(x, y)
    product = BasisExpansion("p", n, m, {label: sign} if sign else {})
    assert change_basis(product, "m") == engine


# -- structure: no polynomials, no shared mutable state --------------------------------


def test_conversions_build_no_polynomial(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a SuperPolynomial was built")

    # start from cold caches, so the per-block data is built under the patch
    for obj in vars(transform).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    for name in ("__init__", "__mul__", "mul_restricted"):
        monkeypatch.setattr(SuperPolynomial, name, refuse)
    x = unit("m", "(3,0;2,1,1)") + unit("m", "(2,1;2,2)").scale(Fraction(-3, 2))
    assert (x.n, x.m) == (7, 2)
    for basis in ("e", "h", "p"):
        assert change_basis(change_basis(x, basis), "m") == x
    assert omega(omega(x)) == x
    assert scalar_product(x, unit("h", "(3,0;2,1,1)")) == 1


def test_returned_expansions_do_not_share_caches():
    x = unit("h", "(2,0;2,1)")
    for to in ("m", "e", "h", "p"):
        first = change_basis(x, to)
        want = dict(first.coeffs)
        for la in list(first.coeffs):
            first.coeffs[la] += 1
        first.coeffs[sp("(5,0;)")] = Fraction(7)
        assert change_basis(x, to).coeffs == want, to
    closed = eh_in_p(3, True, "e")
    want = dict(closed.coeffs)
    closed.coeffs.clear()
    assert eh_in_p(3, True, "e").coeffs == want
    assert change_basis(unit("e", "(3;)"), "p").coeffs == want
