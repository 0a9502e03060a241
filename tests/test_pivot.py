"""The power-sum pivot of change_basis, held against the polynomial engine."""

import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from supersym import engine_checks, inner, transform
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
    z_weight,
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


# -- the matrix-counting oracle -------------------------------------------------------
#
# [m_O] h_L and [m_O] e_L counted as signed superspace matrices by inner._peel:
# neither the engine nor the power-sum algebra.


def test_generators_in_m_match_the_matrix_counts():
    conversions = 0
    for n, m in blocks(7):
        block = enumerate_superpartitions(n, m)
        for basis in ("e", "h"):
            counts = inner._peel(basis, [(n, m, block)])
            for la in block:
                want = BasisExpansion("m", n, m, {om: counts.get((la, om), 0) for om in block})
                assert change_basis(BasisExpansion.unit(basis, la), "m") == want, (basis, la)
                conversions += 1
    assert conversions == 628


@pytest.mark.parametrize("nvars, degree", [(3, 6), (4, 5)])
@pytest.mark.parametrize("basis", ["h", "e"])
def test_one_peel_over_many_blocks_is_the_union_of_single_block_peels(basis, nvars, degree):
    # the peel's memos are shared by every block of one call
    shared = [(n, m, enumerate_superpartitions(n, m, max_len=nvars)) for n, m in blocks(degree) if m <= nvars]
    union = {}
    for block in shared:
        union.update(inner._peel(basis, [block]))
    assert inner._peel(basis, shared) == union


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


def vector(pairs, size):
    """A dense coordinate vector from sparse (index, value) pairs."""
    v = [0] * size
    for i, c in pairs:
        v[i] = c
    return v


def test_solve_raises_on_a_residue():
    # an entry above its column's pivot, the columns out of elimination
    # order, or a pivot that does not divide breaks the solve; it must raise
    # rather than return an answer
    _, order, good = transform._p_in_m(3, 1)
    labels = transform._block_index(3, 1)[0]
    size = len(labels)
    first, last = order[0], order[-1]
    pivot = good[last][0][1]
    above = list(good)
    above[last] = good[last] + ((first, 1),)
    with pytest.raises(ArithmeticError):
        transform._solve(vector([(last, pivot)], size), 1, order, above, labels)
    doubled = list(good)
    doubled[last] = ((last, 2 * pivot), *good[last][1:])
    with pytest.raises(ArithmeticError):
        transform._solve(vector([(last, pivot)], size), 1, order, doubled, labels)
    with pytest.raises(ArithmeticError):
        transform._solve(vector(good[first], size), 1, order[::-1], good, labels)


def test_a_failed_division_names_its_superpartition(monkeypatch):
    # a pivot of the p-in-m table that does not divide: the error names the
    # label of its coordinate, not its index in the block
    scale, order, columns = transform._p_in_m(5, 2)
    labels = transform._block_index(5, 2)[0]
    i = len(labels) // 2
    broken = list(columns)
    broken[i] = ((i, scale + 1), *columns[i][1:])
    monkeypatch.setattr(transform, "_p_in_m", lambda n, m: (scale, order, tuple(broken)))
    with pytest.raises(ArithmeticError, match=r"\(\d+(,\d+)*;(\d+(,\d+)*)?\)") as err:
        change_basis(BasisExpansion.unit("m", labels[i]), "p")
    assert str(labels[i]) in str(err.value) and f" {i} " not in f" {err.value} "


# -- the composite e-in-m oracle ---------------------------------------------------------
#
# The e-in-m matrix, built as omega(h-in-p) times p-in-m and solved by one back
# substitution down its pivot rows: a route from m to e that shares no solve
# with change_basis's two triangular solves on the block's own tables.


def e_in_m(n, m):
    """The e-in-m matrix as (pivot row L', column L, pivot, other entries),
    by decreasing pivot row.  Column L has the pivot +-1 (the sector sign)
    at L' and the rest of its support below L' (criterion 3)."""
    den, _, h_cols = transform._h_in_p_columns(n, m)
    p_in_m = transform._p_in_m(n, m)[2]
    labels = transform._block_index(n, m)[0]
    cols = []
    for la, h_in_p in zip(labels, h_cols):
        in_m = transform._apply(transform._omega_p(vector(h_in_p, len(labels)), n, m), p_in_m)
        col = {om: c for om, c in zip(labels, in_m) if c}
        conj = la.conjugate()
        pivot = transform._exact_div(col.pop(conj, 0), den, "[m_{}] e_{}", conj, la)
        assert pivot in (1, -1), (la, pivot)
        rest = tuple(
            (om, transform._exact_div(c, den, "[m_{}] e_{}", om, la)) for om, c in col.items() if c
        )
        cols.append((conj, la, pivot, rest))
    # lexicographic (star, circled shape) extends the Bruhat-style order,
    # since dominance implies lexicographic order on equal sizes
    cols.sort(key=lambda col: (col[0].star(), col[0].shape_circled()), reverse=True)
    return tuple(cols)


def solve_in_e(table, v):
    """e-coordinates of the element with monomial coordinates v."""
    v = dict(v)
    out = {}
    for row, la, pivot, rest in table:
        c = v.pop(row, 0)
        if c:
            c *= pivot
            out[la] = c
            for om, d in rest:
                v[om] = v.get(om, 0) - c * d
    assert not any(v.values())
    return out


def test_monomials_to_e_match_the_composite_oracle():
    conversions = 0
    for n, m in blocks(10):
        table = e_in_m(n, m)
        for la in enumerate_superpartitions(n, m):
            want = BasisExpansion("e", n, m, solve_in_e(table, {la: 1}))
            assert change_basis(BasisExpansion.unit("m", la), "e") == want, la
            conversions += 1
    assert conversions == 1286


# -- the Fraction h-in-p oracle ----------------------------------------------------------
#
# h_L in power sums multiplied out on Fraction weights 1/z: the build that the
# integer columns of transform._h_in_p_columns replace.


@functools.cache
def h_in_p_fractions(la):
    """h_la in power sums: the closed forms sum p_O / z_O multiplied in the
    p algebra, tilde factors first, the last factor peeled off."""
    if la.s:
        rest, last, fermionic = SuperPartition._canonical(la.a, la.s[:-1]), la.s[-1], False
    elif la.a:
        rest, last, fermionic = SuperPartition._canonical(la.a[:-1], ()), la.a[-1], True
    else:
        return {la: Fraction(1)}
    out = {}
    for om, c in h_in_p_fractions(rest).items():
        for gen in enumerate_superpartitions(last, 1 if fermionic else 0):
            sign, lo = _p_mul((om.a, om.s), (gen.a, gen.s))
            if sign:
                lo = SuperPartition(*lo)
                out[lo] = out.get(lo, 0) + sign * c * Fraction(1, z_weight(gen))
    return {lo: c for lo, c in out.items() if c}


def test_integer_h_in_p_columns_match_the_fraction_build():
    columns = 0
    for n, m in blocks(9):
        den, order, cols = transform._h_in_p_columns(n, m)
        labels = transform._block_index(n, m)[0]
        assert labels == tuple(enumerate_superpartitions(n, m))
        assert len(cols) == len(labels) and sorted(order) == list(range(len(labels)))
        for i, (la, col) in enumerate(zip(labels, cols)):
            assert col[0][0] == i
            assert {labels[j]: Fraction(c, den) for j, c in col} == h_in_p_fractions(la), la
            columns += 1
    assert columns == 822
    for k in range(10):
        for fermionic in (False, True):
            block = enumerate_superpartitions(k, 1 if fermionic else 0)
            want = {g: Fraction(1, z_weight(g)) for g in block}
            assert eh_in_p(k, fermionic, "h").coeffs == want, (k, fermionic)


# -- the counted p-in-m oracle -----------------------------------------------------------
#
# [m_O] p_L as a signed count, sharing nothing with h-in-p (which _p_in_m is the
# transpose of): the coefficient of O's canonical term theta_1..theta_m x^(a;s)
# in p_L picks one variable for each factor, so each row of L puts its whole
# value into one column of O.  The tilde factors take the fermionic columns
# bijectively, at the sign of that bijection; the plain rows go anywhere.


@functools.cache
def fillings(rows, room):
    """The ways to put each of rows, whole, into one column of room (the
    sums the columns still take) so that every column ends full."""
    if not rows:
        return int(not any(room))
    v, rest = rows[0], rows[1:]
    return sum(
        fillings(rest, tuple(sorted(room[:j] + (r - v,) + room[j + 1 :])))
        for j, r in enumerate(room) if r >= v
    )


def counted_p_in_m(la, om):
    """[m_om] p_la: the tilde row i goes into fermionic column sigma(i), at
    the sign of sigma, and the plain rows fill what is left."""
    total = 0
    for sigma in itertools.permutations(range(len(om.a))):
        room = tuple(om.a[j] - v for v, j in zip(la.a, sigma))
        if min(room, default=0) >= 0:
            sign = (-1) ** sum(x > y for i, x in enumerate(sigma) for y in sigma[i + 1 :])
            total += sign * fillings(la.s, tuple(sorted(room + om.s)))
    return total


def test_p_in_m_matches_the_counted_oracle():
    entries = nonzero = 0
    for n, m in blocks(8):
        labels = transform._block_index(n, m)[0]
        columns = transform._p_in_m(n, m)[2]
        for la, col in zip(labels, columns):
            col = dict(col)
            for j, om in enumerate(labels):
                assert col.get(j, 0) == counted_p_in_m(la, om), (la, om)
                entries += 1
            nonzero += len(col)
    assert (entries, nonzero) == (19240, 5228)


# -- the p-algebra product -------------------------------------------------------------


@st.composite
def superpartitions(draw, max_part=3, max_len=3):
    a = draw(st.lists(st.integers(0, max_part), unique=True, max_size=max_len))
    s = draw(st.lists(st.integers(1, max_part), max_size=max_len))
    return SuperPartition(tuple(sorted(a, reverse=True)), tuple(sorted(s, reverse=True)))


def parts(x):
    return x.a, x.s


def p_times(x, y):
    """Product of two sparse p-expansions given as dicts keyed by parts."""
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
            sign, label = _p_mul(parts(x), parts(y))
            if sign:
                checked = SuperPartition(
                    tuple(sorted(x.a + y.a, reverse=True)), tuple(sorted(x.s + y.s, reverse=True))
                )
                made = SuperPartition._canonical(*label)
                assert label == parts(checked) and made == checked and hash(made) == hash(checked)
                assert made.bidegree == checked.bidegree


@given(superpartitions(), superpartitions())
@example(SuperPartition((2,)), SuperPartition((0,)))  # tp_2 tp_0 = -tp_0 tp_2
def test_product_is_graded_commutative(x, y):
    sx, lx = _p_mul(parts(x), parts(y))
    sy, ly = _p_mul(parts(y), parts(x))
    assert lx == ly
    assert sx == (-1) ** (x.fermionic_degree * y.fermionic_degree) * sy


@given(superpartitions(), superpartitions())
def test_product_vanishes_on_a_repeated_fermionic_part(x, y):
    sign, label = _p_mul(parts(x), parts(y))
    if set(x.a) & set(y.a):
        assert (sign, label) == (0, None)
    else:
        assert sign in (1, -1)
        assert SuperPartition(*label).bidegree == (
            x.degree + y.degree, x.fermionic_degree + y.fermionic_degree
        )


@given(superpartitions(), superpartitions(), superpartitions())
def test_product_is_associative(x, y, z):
    one, y, z = {parts(x): 1}, {parts(y): 1}, {parts(z): 1}
    assert p_times(p_times(one, y), z) == p_times(one, p_times(y, z))


@settings(max_examples=40, deadline=None)
@given(superpartitions(max_part=2, max_len=2), superpartitions(max_part=2, max_len=2))
def test_product_agrees_with_engine(x, y):
    n, m = x.degree + y.degree, x.fermionic_degree + y.fermionic_degree
    assume(n <= 5 and m <= 3)
    nvars = max(n + m, 1)
    engine = expand_in_monomials(
        multiplicative("p", x, nvars) * multiplicative("p", y, nvars), (n, m)
    )
    sign, label = _p_mul(parts(x), parts(y))
    product = BasisExpansion("p", n, m, {SuperPartition(*label): sign} if sign else {})
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


def test_the_pivot_caches_hold_one_format():
    # h in p is held once: each label's and prefix's column on block indices,
    # and a block's h table is a tuple of those same column objects
    cached = {
        name for name, obj in vars(transform).items()
        if hasattr(obj, "cache_clear") and obj.__module__ == transform.__name__
    }
    assert cached == {"_block_index", "_h_in_p", "_h_in_p_columns", "_p_in_m"}
    for name in cached:
        getattr(transform, name).cache_clear()
    change_basis(unit("h", "(2,0;2,1)"), "m")
    built = set()
    for a, s in transform._block_index(5, 2)[1]:
        built.update((a, s[:k]) for k in range(len(s) + 1))
        built.update((a[:k], ()) for k in range(len(a)))
    misses = transform._h_in_p.cache_info().misses
    for parts in built:
        col = transform._h_in_p(parts)
        assert type(col) is tuple and col, parts
        assert all(type(e) is tuple and len(e) == 2 and {type(x) for x in e} == {int} for e in col)
    info = transform._h_in_p.cache_info()
    assert (info.misses, info.currsize) == (misses, len(built))
    columns = transform._h_in_p_columns(5, 2)[2]
    for parts, i in transform._block_index(5, 2)[1].items():
        assert columns[i] is transform._h_in_p(parts)


def test_the_engine_oracle_caches_only_the_monomials():
    # _block_matrix is call-local: triangularity reads each matrix once
    assert engine_checks.triangularity(4)["pass"] is True
    cached = {
        name for name, obj in vars(engine_checks).items()
        if hasattr(obj, "cache_info") and obj.__module__ == engine_checks.__name__
    }
    assert cached == {"_monomial_polys"}


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
