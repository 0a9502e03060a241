"""Scalar product, the e-h involution, duality, and kernel checks."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from supersym import bases, inner
from supersym.superpartition import SuperPartition, enumerate_superpartitions
from supersym.superpoly import SuperPolynomial
from supersym.bases import basis_element, powersum
from supersym.transform import BasisExpansion, change_basis
from supersym.inner import (
    dual_bases_check,
    eh_in_p,
    kernel_check,
    omega,
    omega_sign,
    reproducing_check,
    scalar_product,
    z_weight,
)


def sp(text):
    return SuperPartition.parse(text)


def unit(basis, text):
    return BasisExpansion.unit(basis, sp(text))


# -- weights -------------------------------------------------------------------


def test_z_weight_values():
    assert z_weight(sp("(;2)")) == 2
    assert z_weight(sp("(;1,1)")) == 2
    assert z_weight(sp("(;3,2,2,1)")) == 3 * (2 * 2 * 2) * 1
    # depends only on the symmetric side
    assert z_weight(sp("(3,0;2,1)")) == z_weight(sp("(;2,1)"))
    assert z_weight(sp("(1,0;)")) == 1


def test_omega_sign_values():
    assert omega_sign(sp("(3,0;1)")) == -1
    assert omega_sign(sp("(;)")) == 1
    assert omega_sign(sp("(;2)")) == -1
    assert omega_sign(sp("(;1,1)")) == 1
    assert omega_sign(sp("(0;)")) == 1


# -- scalar product ---------------------------------------------------------------


def test_power_sum_norms():
    assert scalar_product(unit("p", "(;2)"), unit("p", "(;2)")) == 2
    assert scalar_product(unit("p", "(1;)"), unit("p", "(1;)")) == 1
    assert scalar_product(unit("p", "(1;)"), unit("p", "(0;1)")) == 0


def test_power_sums_are_orthogonal_with_z_norms():
    for n in range(5):
        for m in range(3):
            if n < m * (m - 1) // 2:
                continue
            block = enumerate_superpartitions(n, m)
            for x in block:
                for y in block:
                    want = z_weight(x) if x == y else 0
                    assert scalar_product(
                        BasisExpansion.unit("p", x), BasisExpansion.unit("p", y)
                    ) == want


def test_scalar_product_accepts_polynomials():
    f = powersum(2, 4)
    assert scalar_product(f, f) == 2


def test_mixed_bidegrees_pair_to_zero():
    assert scalar_product(unit("p", "(;2)"), unit("p", "(;1)")) == 0
    assert scalar_product(unit("p", "(0;1)"), unit("p", "(;1)")) == 0


def random_expansion(rng, basis, n, m):
    block = enumerate_superpartitions(n, m)
    coeffs = {la: Fraction(rng.randrange(-4, 5)) for la in block}
    return BasisExpansion(basis, n, m, coeffs)


def test_symmetry_positivity_isometry():
    rng = random.Random(91)
    for n in range(4):
        for m in range(3):
            if n < m * (m - 1) // 2 or not enumerate_superpartitions(n, m):
                continue
            for _ in range(6):
                f = random_expansion(rng, "m", n, m)
                g = random_expansion(rng, "m", n, m)
                fg = scalar_product(f, g)
                assert fg == scalar_product(g, f)
                assert scalar_product(omega(f), omega(g)) == fg
                if f.coeffs:
                    assert scalar_product(f, f) > 0


# -- involution --------------------------------------------------------------------


def test_omega_on_power_sum_is_a_sign():
    x = omega(unit("p", "(3,0;1)"))
    assert x == unit("p", "(3,0;1)").scale(-1)


def test_omega_squares_to_identity():
    for n in range(4):
        for m in range(3):
            if n < m * (m - 1) // 2:
                continue
            for la in enumerate_superpartitions(n, m):
                for basis in ("e", "h", "m", "p"):
                    x = BasisExpansion.unit(basis, la)
                    assert omega(omega(x)) == x, (basis, la)


def test_omega_swaps_elementary_and_complete_small():
    la = sp("(1,0;2)")
    assert change_basis(omega(unit("e", "(1,0;2)")), "h") == BasisExpansion.unit("h", la)
    assert change_basis(omega(unit("h", "(1,0;2)")), "e") == BasisExpansion.unit("e", la)


# -- closed-form p-expansions ---------------------------------------------------------


def test_complete_in_power_sums_closed_form():
    x = eh_in_p(2, False, "h")
    assert x == BasisExpansion(
        "p", 2, 0, {sp("(;2)"): Fraction(1, 2), sp("(;1,1)"): Fraction(1, 2)}
    )


def test_fermionic_zero_cases():
    assert eh_in_p(0, True, "e") == BasisExpansion.unit("p", sp("(0;)"))
    assert eh_in_p(0, True, "h") == BasisExpansion.unit("p", sp("(0;)"))


def test_closed_forms_match_conversion():
    for n in range(5):
        for fermionic in (False, True):
            for which in ("e", "h"):
                if n == 0 and not fermionic:
                    continue
                la = SuperPartition(a=(n,), s=()) if fermionic else SuperPartition(a=(), s=(n,))
                direct = change_basis(BasisExpansion.unit(which, la), "p")
                closed = eh_in_p(n, fermionic, which)
                assert direct == closed, (n, fermionic, which)


def test_fermionic_complete_weights_are_inverse_z():
    x = eh_in_p(2, True, "h")
    for la, c in x.coeffs.items():
        assert c == Fraction(1, z_weight(la))
    assert set(x.coeffs) == set(enumerate_superpartitions(2, 1))


# -- duality -----------------------------------------------------------------------


def test_dual_bases_examples():
    assert dual_bases_check(3, 1, "h", "m") is True
    assert dual_bases_check(2, 0, "p", "p") is False
    assert dual_bases_check(3, 2, "p", "p/z") is True
    assert dual_bases_check(2, 1, "m", "m") is False


def test_complete_monomial_duality_blocks():
    for n in range(5):
        for m in range(3):
            if n < m * (m - 1) // 2 or not enumerate_superpartitions(n, m):
                continue
            assert dual_bases_check(n, m, "h", "m") is True, (n, m)


@pytest.mark.parametrize("n, m, u, v", [(2, 3, "h", "m"), (0, 9, "p", "p/z")])
def test_dual_bases_check_refuses_an_empty_block(n, m, u, v):
    with pytest.raises(ValueError, match="empty"):
        dual_bases_check(n, m, u, v)


def test_dual_bases_check_validates_names():
    with pytest.raises(ValueError):
        dual_bases_check(2, 0, "h", "q")


# -- kernels -----------------------------------------------------------------------


def test_kernel_degree_zero():
    rep = kernel_check(2, 0)
    assert rep["pass"] is True, rep


def test_kernel_small():
    rep = kernel_check(3, 2)
    assert rep["pass"] is True, rep
    assert rep["first_failure"] is None


def test_kernel_degree_six():
    rep = kernel_check(4, 6)
    assert rep["pass"] is True, rep


def test_reproducing_small():
    rep = reproducing_check(4, 2)
    assert rep["pass"] is True, rep


# -- kernel oracles: the full doubled alphabet and matrix counting -----------------


def full_kernel_product(nvars, degree, inverse):
    """prod_{i,j} (1 - x_i y_j - t_i f_j)^(-1), or prod (1 + x_i y_j + t_i f_j)
    when inverse, as one polynomial in 2N variables to x-degree <= degree."""
    big = 2 * nvars
    xvars = tuple(range(1, nvars + 1))
    out = SuperPolynomial.one(big)
    for i in range(1, nvars + 1):
        for j in range(nvars + 1, big + 1):
            if inverse:
                cell = (
                    SuperPolynomial.one(big)
                    + SuperPolynomial.term(big, 1, {i: 1, j: 1})
                    + SuperPolynomial.term(big, 1, thetas=(i, j))
                )
            else:
                # (1 - u - psi)^(-1) = sum_k u^k + psi sum_k (k + 1) u^k, psi^2 = 0
                cell = SuperPolynomial.zero(big)
                for k in range(degree + 1):
                    cell = cell + SuperPolynomial.term(big, 1, {i: k, j: k})
                    cell = cell + SuperPolynomial.term(big, k + 1, {i: k, j: k}, thetas=(i, j))
            out = out.mul_truncated(cell, degree, vars=xvars)
    return out


def full_sum(nvars, degree, summand):
    """sum over |G| <= degree of w_G x_G(x, t) y_G(y, f) in 2N variables."""
    big = 2 * nvars
    total = SuperPolynomial.zero(big)
    for n, k, _ in inner._canonical_index(nvars, degree):
        for g in enumerate_superpartitions(n, k):
            term = summand(g)
            if term is not None:
                w, xg, yg = term
                total = total + (xg.widen(big) * yg.shift_alphabet(nvars, big)).scale(w)
    return total


def canonical_coefficients(poly, nvars, index):
    """T[(L, O)] read from a 2N-variable polynomial through its public API."""
    table = {}
    for _, k, labels in index:
        thetas = (*range(1, k + 1), *range(nvars + 1, nvars + k + 1))
        for la in labels:
            for om in labels:
                powers = {i + 1: e for i, e in enumerate(la.as_composition())}
                powers.update({nvars + i + 1: e for i, e in enumerate(om.as_composition())})
                c = poly.coefficient(powers, thetas)
                if c:
                    table[la, om] = c
    return table


@pytest.mark.parametrize("nvars, degree", [(3, 3), (2, 4)])
def test_full_alphabet_oracle(nvars, degree):
    index = inner._canonical_index(nvars, degree)
    pp = inner._pp_summand(nvars, with_omega=False)
    pp_omega = inner._pp_summand(nvars, with_omega=True)
    mh = inner._mh_summand(nvars)
    for inverse, sums in ((False, (pp, mh)), (True, (pp_omega,))):
        full = full_kernel_product(nvars, degree, inverse)
        # separate symmetry in each alphabet is what licenses the reduction
        for i in (*range(1, nvars), *range(nvars + 1, 2 * nvars)):
            assert full.apply_exchange(i) == full, (inverse, i)
        table = canonical_coefficients(full, nvars, index)
        assert table == inner._product_table(nvars, degree, index, inverse)
        for summand in sums:
            assert full_sum(nvars, degree, summand) == full
            assert inner._sum_table(index, summand) == table


def _perm_sign(perm):
    inversions = sum(1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i])
    return -1 if inversions % 2 else 1


def _rows(total, bounds, cap):
    """Compositions of total under per-entry bounds (and a common cap)."""
    if not bounds:
        if total == 0:
            yield ()
        return
    for v in range(min(total, bounds[0], cap) + 1):
        for rest in _rows(total - v, bounds[1:], cap):
            yield (v, *rest)


def matrices(alpha, beta, cap):
    """All matrices with entries in 0..cap, row sums alpha and column sums beta."""
    if not alpha:
        if not any(beta):
            yield ()
        return
    for row in _rows(alpha[0], beta, cap):
        rest = tuple(b - v for b, v in zip(beta, row))
        for tail in matrices(alpha[1:], rest, cap):
            yield (row, *tail)


def counted_entry(la, om, nvars, inverse):
    """Kernel coefficient at (L, O) by counting matrices, with no polynomials.

    Choosing the theta pairs t_i f_sigma(i) (i <= k) costs the sign
    (-1)^(k(k-1)/2) sgn(sigma).  Directly, a chosen cell carries b^2 =
    sum (a + 1) u^a and the others b = sum u^a, which sums to a determinant;
    inversely, a chosen cell carries u^0 and the others 1 + u.
    """
    k = la.fermionic_degree
    alpha = la.as_composition() + (0,) * (nvars - la.length)
    beta = om.as_composition() + (0,) * (nvars - om.length)
    sector = -1 if (k * (k - 1) // 2) % 2 else 1
    perms = list(itertools.permutations(range(k)))
    total = 0
    for a in matrices(alpha, beta, 1 if inverse else sum(alpha)):
        for perm in perms:
            if inverse:
                total += _perm_sign(perm) * all(a[i][perm[i]] == 0 for i in range(k))
            else:
                total += _perm_sign(perm) * math.prod(a[i][perm[i]] + 1 for i in range(k))
    return sector * total


@pytest.mark.parametrize("nvars, degree, inverse", [
    (3, 4, False), (3, 4, True), (4, 4, False), (4, 4, True),
    (2, 5, False), (2, 5, True), (3, 6, True),
])
def test_kernel_tables_match_matrix_counts(nvars, degree, inverse):
    index = inner._canonical_index(nvars, degree)
    table = inner._product_table(nvars, degree, index, inverse)
    counted = {}
    for _, _, labels in index:
        for la in labels:
            for om in labels:
                c = counted_entry(la, om, nvars, inverse)
                if c:
                    counted[la, om] = c
    assert table == counted
    summand = inner._pp_summand(nvars, with_omega=inverse)
    assert inner._sum_table(index, summand) == counted


def test_canonical_index_covers_every_block():
    nvars, degree = 3, 5
    index = inner._canonical_index(nvars, degree)
    want = {(n, k) for n in range(degree + 1) for k in range(nvars + 1) if k * (k - 1) // 2 <= n}
    assert {(n, k) for n, k, labels in index if labels} == want
    table = inner._product_table(nvars, degree, index, inverse=False)
    assert {(la.degree, la.fermionic_degree) for la, _ in table} == want


def test_kernel_check_fails_without_omega_signs(monkeypatch):
    monkeypatch.setattr(inner, "omega_sign", lambda sp: 1)
    rep = kernel_check(3, 3)
    assert rep["pass"] is False
    assert rep["first_failure"] == "inverse product differs from the omega-signed p-p sum"


def test_kernel_check_fails_on_a_wrong_z_weight(monkeypatch):
    target = sp("(2;1,1)")
    real = inner.z_weight
    monkeypatch.setattr(inner, "z_weight", lambda g: 2 * real(g) if g == target else real(g))
    rep = kernel_check(2, 4)
    assert rep["pass"] is False
    assert rep["first_failure"] == "product expansion differs from the weighted p-p sum"


def test_kernel_check_fails_on_a_scaled_monomial(monkeypatch):
    target = sp("(1;2)")
    real = bases.monomial
    monkeypatch.setattr(
        bases, "monomial", lambda g, nvars: real(g, nvars).scale(3) if g == target else real(g, nvars)
    )
    rep = kernel_check(2, 3)
    assert rep["pass"] is False
    assert rep["first_failure"] == "product expansion differs from the m-h sum"


# -- the big worked involution example, kept last for cache reuse ---------------------


def test_omega_swaps_e_and_h_on_large_block():
    la = sp("(3,0;4,1)")
    got = change_basis(omega(BasisExpansion.unit("e", la)), "h")
    assert got == BasisExpansion.unit("h", la)
