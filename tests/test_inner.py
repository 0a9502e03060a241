"""Scalar product, the e-h involution, duality, and kernel checks."""

import functools
import importlib
import itertools
import math
import random
from fractions import Fraction
from types import MappingProxyType

import pytest

from supersym import bases, cli, engine_checks, inner
from supersym.superpartition import SuperPartition, _blocks, enumerate_superpartitions
from supersym.superpoly import SuperPolynomial, _FIELD_MASK
from supersym.bases import basis_element, powersum
from supersym.transform import BasisExpansion, _block_index, change_basis
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
    assert scalar_product(f, unit("h", "(;2)")) == 1 and scalar_product(unit("p", "(;2)"), f) == 2
    with pytest.raises(TypeError):
        scalar_product(f, {sp("(;2)"): 1})


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


@pytest.mark.parametrize("n", [2.5, True, -1, "3"])
def test_closed_form_rejects_a_degree_that_is_no_size(n):
    # checked before any block table is read, with BasisExpansion's wording
    before = _block_index.cache_info().currsize
    with pytest.raises(ValueError, match=r"^n must be an int >= 0"):
        eh_in_p(n, False, "h")
    assert _block_index.cache_info().currsize == before


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


@pytest.mark.parametrize("nvars, max_degree", [(1, 3), (2, 3), (2, 4), (3, 4)])
def test_reproducing_blocks_at_and_above_nvars(nvars, max_degree):
    # restriction to nvars variables is a ring map, so blocks (n|m) with
    # n >= nvars reproduce too
    rep = reproducing_check(nvars, max_degree)
    assert rep["pass"] is True, rep


def test_reproducing_check_fails_on_a_scaled_monomial(monkeypatch):
    # (1;1) lies in the block (2|1), at n = nvars
    target = sp("(1;1)")
    real = bases.monomial
    monkeypatch.setattr(
        bases, "monomial", lambda g, nvars: real(g, nvars).scale(3) if g == target else real(g, nvars)
    )
    rep = reproducing_check(2, 2)
    assert rep["pass"] is False
    assert rep["first_failure"] == "kernel pairing with m_(1;1) does not reproduce it"


def test_reproducing_converts_each_monomial_to_p_once(monkeypatch):
    # change_basis is wrapped where inner and transform both look it up:
    # the scalar products read power sums without calling it again
    from supersym import transform

    conversions = []
    real = transform.change_basis

    def counting(x, to):
        conversions.append((x.basis, to))
        return real(x, to)

    monkeypatch.setattr(inner, "change_basis", counting)
    monkeypatch.setattr(transform, "change_basis", counting)
    nvars, max_degree = 4, 4
    assert reproducing_check(nvars, max_degree)["pass"] is True
    labels = sum(
        1 for _, _, block in _blocks(max_degree, max_m=nvars) for g in block if g.length <= nvars
    )
    assert labels == 56 and conversions == [("m", "p")] * labels


def test_scalar_product_of_power_sums_builds_no_expansion(monkeypatch):
    left = unit("p", "(2,0;2,1)").scale(Fraction(3, 4)) + unit("p", "(2,1;1,1)")
    right = unit("p", "(2,0;2,1)").scale(Fraction(-1, 6)) + unit("p", "(3,0;1,1)")
    built = []
    init = BasisExpansion.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BasisExpansion, "__init__", counting_init)
    # z of (2,0;2,1) is 2, so the pairing is 2 * 3/4 * -1/6
    assert scalar_product(left, right) == Fraction(-1, 4)
    assert built == []


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


def full_summand(weight, basis, nvars):
    """weight(G) with whole polynomials in every theta sector: arrowed p_G
    (or m_G when basis is "h") and the multiplicative element; None skips G."""

    def full(g):
        w = weight(g)
        if w is None:
            return None
        x = bases.monomial(g, nvars) if basis == "h" else bases.multiplicative("p", g, nvars)
        return w, x.arrow(), bases.multiplicative(basis, g, nvars)

    return full


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
    pp, pp_omega, mh = inner._sum_tables(nvars, index)
    # the weights 1/z_G, omega_G/z_G and 1; m_G is 0 past N parts
    for inverse, sums in (
        (False, (
            (pp, lambda g: Fraction(1, z_weight(g)), "p"),
            (mh, lambda g: 1 if g.length <= nvars else None, "h"),
        )),
        (True, ((pp_omega, lambda g: Fraction(omega_sign(g), z_weight(g)), "p"),)),
    ):
        full = full_kernel_product(nvars, degree, inverse)
        # separate symmetry in each alphabet is what licenses the reduction
        for i in (*range(1, nvars), *range(nvars + 1, 2 * nvars)):
            assert full.apply_exchange(i) == full, (inverse, i)
        table = canonical_coefficients(full, nvars, index)
        assert table == inner._counted_table(index, inverse)
        for got, weight, basis in sums:
            assert full_sum(nvars, degree, full_summand(weight, basis, nvars)) == full
            assert got == table


def sector_block(basis, g, nvars):
    """The t_1..t_k block of g's product element, k its fermionic degree."""
    return bases.multiplicative(basis, g, nvars).blocks.get((1 << g.fermionic_degree) - 1, {})


def test_sector_product_is_the_sector_block_of_the_full_product():
    # one walk over every label of degree <= 6 at once, so that prefixes are
    # shared across blocks: each read is the sector block at every probe key
    for nvars in range(1, 5):
        for basis in ("p", "h"):
            probes = {}
            for n, k, block in _blocks(6):
                keys = [bases._canonical_key(g) for g in block if g.length <= nvars]
                for g in block:
                    probes[g] = keys + [key for key in sector_block(basis, g, nvars) if key not in keys]
            reads = dict(bases._path_reads(basis, probes.items(), nvars))
            assert reads.keys() == probes.keys()
            for g, probe in probes.items():
                want = sector_block(basis, g, nvars)
                assert reads[g] == [want.get(key, 0) for key in probe], (basis, g, nvars)


def test_canonical_read_is_the_sector_block_of_the_product():
    for nvars in range(1, 5):
        for n, k, block in _blocks(6):
            keys = [bases._canonical_key(g) for g in block if g.length <= nvars]
            for g in block:
                for basis in ("p", "h"):
                    built = sector_block(basis, g, nvars)
                    probe = keys + [key for key in built if key not in keys]
                    want = [built.get(key, 0) for key in probe]
                    assert list(bases._path_reads(basis, [(g, probe)], nvars)) == [(g, want)], (basis, g, nvars)


def test_canonical_read_matches_no_borrowed_key(monkeypatch):
    # t1 x2 is the canonical term of (0;1) = tp_0 p_1, with p_1 = x1 + x2:
    # x2 - x1 borrows from the x2 field and packs as x1^65535, which the
    # prefix tp_0 = t1 (on t1 only) does not hold; x2 - x2 reads its t1
    g, nvars = sp("(0;1)"), 2
    key = bases._canonical_key(g)
    assert [key - kb for kb in bases.powersum(1, nvars).blocks[0]] == [_FIELD_MASK, 0]
    prefixes = []
    real = SuperPolynomial.mul_restricted

    def recorded(f, other, theta_vars):
        prefixes.append(real(f, other, theta_vars))
        return prefixes[-1]

    monkeypatch.setattr(SuperPolynomial, "mul_restricted", recorded)
    assert list(bases._path_reads("p", [(g, [key, 1])], nvars)) == [(g, [1, 1])]
    assert [prefix.blocks for prefix in prefixes] == [{1: {0: 1}}]
    # the key arithmetic needs every exponent below 2^15
    with pytest.raises(ValueError, match=r"^degree must be an int with 0 <= degree <= 32767, got 32768$"):
        kernel_check(1, 1 << 15)
    assert kernel_check(1, 3)["pass"] is True


def test_walk_builds_each_proper_prefix_once(monkeypatch):
    # every distinct proper prefix (a nonempty factor sequence short of a
    # whole label) per (basis, k) is one mul_restricted call; the empty
    # prefix is the constant one and no call
    nvars, degree = 3, 5
    calls = []
    real = SuperPolynomial.mul_restricted
    monkeypatch.setattr(
        SuperPolynomial, "mul_restricted", lambda f, g, theta_vars: calls.append(1) or real(f, g, theta_vars)
    )
    assert kernel_check(nvars, degree)["pass"] is True
    prefixes = set()
    for n, k, labels in inner._canonical_index(nvars, degree):
        reads = [("p", g) for g in enumerate_superpartitions(n, k)] + [("h", la) for la in labels]
        for basis, g in reads:
            parts = g.a + g.s
            prefixes |= {(basis, k, parts[:i]) for i in range(1, len(parts))}
    assert len(calls) == len(prefixes) > 0


def test_kernel_check_leaves_no_bases_cache_grown():
    caches = {name: f for name, f in vars(bases).items() if hasattr(f, "cache_info")}
    assert {"multiplicative", "complete", "powersum_tilde", "_symmetric_keys"} <= caches.keys()
    before = {name: f.cache_info().currsize for name, f in caches.items()}
    assert kernel_check(4, 4)["pass"] is True
    assert {name: f.cache_info().currsize for name, f in caches.items()} == before


def test_kernel_check_builds_no_generator_through_wrappers(monkeypatch):
    # the tracer puts functools.wraps wrappers of the cached generators into
    # bases._GENERATORS; the walk still builds its generators uncached
    generators = [f for pair in bases._GENERATORS.values() for f in pair]
    wrap = lambda f: functools.wraps(f)(lambda *args: f(*args))
    for basis, pair in list(bases._GENERATORS.items()):
        monkeypatch.setitem(bases._GENERATORS, basis, tuple(wrap(f) for f in pair))
    before = [f.cache_info().currsize for f in generators]
    assert kernel_check(3, 4)["pass"] is True
    assert [f.cache_info().currsize for f in generators] == before


def read_only(poly):
    """poly with its blocks and their terms behind read-only views."""
    frozen = object.__new__(SuperPolynomial)
    frozen.nvars = poly.nvars
    frozen.blocks = MappingProxyType({m: MappingProxyType(t) for m, t in poly.blocks.items()})
    return frozen


@pytest.fixture
def read_only_caches(monkeypatch):
    """Every cached generator and product element is handed out read-only,
    so a caller that writes into a shared block raises."""

    def wrap(f):
        return functools.wraps(f)(lambda *args, **kwargs: read_only(f(*args, **kwargs)))

    for plain, tilde in bases._GENERATORS.values():
        for f in (plain, tilde):
            monkeypatch.setattr(bases, f.__name__, wrap(f))
    for basis, (plain, tilde) in list(bases._GENERATORS.items()):
        monkeypatch.setitem(
            bases._GENERATORS, basis, (getattr(bases, plain.__name__), getattr(bases, tilde.__name__))
        )
    monkeypatch.setattr(bases, "multiplicative", wrap(bases.multiplicative))


def test_kernel_checks_write_into_no_cached_block(read_only_caches):
    with pytest.raises(TypeError):
        bases.complete(2, 2).blocks[0][0] = 1
    with pytest.raises(TypeError):
        bases.multiplicative("h", sp("(1;1)"), 2).blocks[1] = {}
    assert kernel_check(3, 4)["pass"] is True
    assert kernel_check(2, 5)["pass"] is True
    assert reproducing_check(3, 3)["pass"] is True


# every verify suite besides the kernel, at the sizes CI runs it
CI_SIZES = {
    "recursions": {"n_max": 3},
    "determinants": {"n_max": 3},
    "generating": {"degree": 3, "nvars": 3},
    "duality": {"n_max": 3},
    "orders": {"n_max": 4},
    "counting": {"n_max": 8},
}


@pytest.mark.parametrize("suite", CI_SIZES)
def test_verify_suites_write_into_no_cached_block(read_only_caches, suite):
    sizes = CI_SIZES[suite]
    module, reads, run = cli._SUITES[suite]
    assert sizes.keys() == reads.keys()
    reports = run(importlib.import_module(f"supersym.{module}"), **sizes)
    assert reports and all(r["pass"] for r in reports), reports


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_sum_tables_hold_integers(nvars):
    for table in inner._sum_tables(nvars, inner._canonical_index(nvars, 6)):
        assert table and all(type(c) is int for c in table.values())


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
    (2, 5, False), (2, 5, True), (3, 6, False), (3, 6, True),
    (4, 5, False), (4, 5, True),
])
def test_kernel_tables_match_matrix_counts(nvars, degree, inverse):
    index = inner._canonical_index(nvars, degree)
    table = inner._counted_table(index, inverse)
    counted = {}
    for _, _, labels in index:
        for la in labels:
            for om in labels:
                c = counted_entry(la, om, nvars, inverse)
                if c:
                    counted[la, om] = c
    assert table == counted
    pp, pp_omega, mh = inner._sum_tables(nvars, index)
    assert (pp_omega if inverse else pp) == counted
    if not inverse:
        assert mh == counted


def test_sum_sides_use_neither_the_peel_nor_the_pivot(monkeypatch):
    from supersym import transform

    nvars, degree = 3, 5
    index = inner._canonical_index(nvars, degree)
    direct, inverse = (inner._counted_table(index, inv) for inv in (False, True))

    def refuse(*args, **kwargs):
        raise AssertionError("a sum side reached the product side's machinery")

    for module in (inner, transform):
        monkeypatch.setattr(module, "_peel", refuse)
        monkeypatch.setattr(module, "change_basis", refuse)
    assert inner._sum_tables(nvars, index) == (direct, inverse, direct)


def test_sum_tables_read_each_element_once(monkeypatch):
    # one p read per G of every block feeds both p-p sums, and the m-h side
    # is one h read per label: [L]m_G = delta_(L, G) needs no read
    nvars, degree = 3, 5
    reads = []
    real = bases._path_reads

    def counting(basis, requests, nv):
        for g, row in real(basis, requests, nv):
            reads.append((basis, g))
            yield g, row

    monkeypatch.setattr(bases, "_path_reads", counting)
    assert kernel_check(nvars, degree)["pass"] is True
    want = []
    for n, k, labels in inner._canonical_index(nvars, degree):
        want += [("p", g) for g in enumerate_superpartitions(n, k)]
        want += [("h", la) for la in labels]
    assert len(set(want)) == len(want) == 182
    assert len(reads) == len(want) and set(reads) == set(want)


def test_canonical_index_covers_every_block():
    nvars, degree = 3, 5
    index = inner._canonical_index(nvars, degree)
    want = {(n, k) for n in range(degree + 1) for k in range(nvars + 1) if k * (k - 1) // 2 <= n}
    assert {(n, k) for n, k, labels in index if labels} == want
    table = inner._counted_table(index, inverse=False)
    assert {(la.degree, la.fermionic_degree) for la, _ in table} == want


def test_canonical_reads_are_the_short_labels_and_their_keys():
    for n, m, block in _blocks(8):
        for nvars in range(n + 2):
            labels = [la for la in block if la.length <= nvars]
            assert bases._canonical_reads(n, m, nvars) == (labels, [bases._canonical_key(la) for la in labels])


def test_read_divisors_are_the_keys_below_some_read_key():
    # against every exponent vector in the box of the degree
    for n, m, nvars in [(3, 0, 3), (3, 1, 4), (4, 2, 4), (4, 0, 2)]:
        keys = bases._canonical_reads(n, m, nvars)[1]
        exponents = [[key >> (16 * i) & 0xFFFF for i in range(nvars)] for key in keys]
        want = {
            sum(e << (16 * i) for i, e in enumerate(vector))
            for vector in itertools.product(range(n + 1), repeat=nvars)
            if any(all(e <= f for e, f in zip(vector, row)) for row in exponents)
        }
        assert bases._read_divisors(keys) == want, (n, m, nvars)
    assert bases._read_divisors([]) == set()


def test_every_engine_reader_reads_the_one_read_set(monkeypatch):
    # drop each block's last label from the read set: every reader follows
    real = bases._canonical_reads

    def short(n, m, nvars):
        labels, keys = real(n, m, nvars)
        return labels[:-1], keys[:-1]

    nvars, degree = 3, 5
    full = inner._canonical_index(nvars, degree)
    matrix = engine_checks._block_matrix("e", 4, 1)
    dropped = real(4, 1, 5)[0][-1]
    summands = [(1, bases.monomial(dropped, 5), SuperPolynomial.one(5))]
    assert not engine_checks._vanishes(summands, 4, 1, 5)
    monkeypatch.setattr(bases, "_canonical_reads", short)
    assert [labels for *_, labels in inner._canonical_index(nvars, degree)] == [labels[:-1] for *_, labels in full]
    shrunk = engine_checks._block_matrix("e", 4, 1)
    assert (len(shrunk), len(shrunk[0])) == (len(matrix) - 1, len(matrix[0]) - 1)
    assert engine_checks._vanishes(summands, 4, 1, 5)


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


@pytest.mark.parametrize("text", ["(;1,1,1,1)", "(0;2,2)", "(1,0;1,1,1)"])
def test_kernel_check_fails_when_a_z_weight_raises_the_lcm(monkeypatch, text):
    # doubling z_G here doubles the lcm of the block's weight denominators
    target = sp(text)
    real = inner.z_weight
    monkeypatch.setattr(inner, "z_weight", lambda g: 2 * real(g) if g == target else real(g))
    rep = kernel_check(2, 5)
    assert rep["pass"] is False
    assert rep["first_failure"] == "product expansion differs from the weighted p-p sum"


def test_kernel_check_fails_on_a_scaled_monomial(monkeypatch):
    # the m-h sum builds no m_G, and its m side is delta by construction:
    # scale the h_G row it reads instead
    target = sp("(1;2)")
    real = bases._path_reads

    def scaled(basis, requests, nvars):
        for g, row in real(basis, requests, nvars):
            yield g, [3 * c for c in row] if (basis, g) == ("h", target) else row

    monkeypatch.setattr(bases, "_path_reads", scaled)
    rep = kernel_check(2, 3)
    assert rep["pass"] is False
    assert rep["first_failure"] == "product expansion differs from the m-h sum"


# -- the big worked involution example, kept last for cache reuse ---------------------


def test_omega_swaps_e_and_h_on_large_block():
    la = sp("(3,0;4,1)")
    got = change_basis(omega(BasisExpansion.unit("e", la)), "h")
    assert got == BasisExpansion.unit("h", la)
