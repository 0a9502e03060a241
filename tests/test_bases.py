"""The four classical families and their generating series."""

import itertools
import math

import pytest

from supersym.superpartition import SuperPartition, enumerate_superpartitions
from supersym.superpoly import SuperPolynomial
from supersym import bases
from supersym.bases import (
    _series,
    basis_element,
    complete,
    complete_tilde,
    default_nvars,
    elementary,
    elementary_tilde,
    generating_check,
    monomial,
    multiplicative,
    powersum,
    powersum_tilde,
)

P = SuperPolynomial


def sp(text):
    return SuperPartition.parse(text)


# -- monomial -----------------------------------------------------------------


def test_monomial_small_cases():
    assert monomial(sp("(;1,1)"), 2) == P.term(2, 1, {1: 1, 2: 1})
    assert monomial(sp("(0;)"), 2) == P.theta(1, 2) + P.theta(2, 2)
    assert monomial(sp("(1,0;)"), 2) == P.term(2, 1, {1: 1}, thetas=(1, 2)) + P.term(
        2, -1, {2: 1}, thetas=(1, 2)
    )


def test_monomial_leading_coefficient_is_one():
    for n in range(5):
        for m in range(3):
            if n < m * (m - 1) // 2:
                continue
            for la in enumerate_superpartitions(n, m):
                f = monomial(la, n + m)
                powers = {i + 1: v for i, v in enumerate(la.as_composition()) if v}
                assert f.coefficient(powers, thetas=tuple(range(1, m + 1))) == 1
                assert f.is_symmetric()


def test_monomial_needs_enough_variables():
    with pytest.raises(ValueError):
        monomial(sp("(;1,1,1)"), 2)
    assert monomial(sp("(;1,1,1)"), 2, strict=False).is_zero()


def _distinct_arrangements(values):
    """Distinct orderings of a multiset, without generating duplicates."""
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1

    def rec(prefix):
        if len(prefix) == len(values):
            yield tuple(prefix)
            return
        for v in sorted(counts, reverse=True):
            if counts[v]:
                counts[v] -= 1
                prefix.append(v)
                yield from rec(prefix)
                prefix.pop()
                counts[v] += 1

    yield from rec([])


def placement_oracle(la, nvars):
    """The monomial element term by term: every arrangement of the
    fermionic parts on a theta set and of the zero-padded symmetric parts
    on the rest, each built by SuperPolynomial.term and summed."""
    m = la.fermionic_degree
    arrangements = list(_distinct_arrangements(la.s + (0,) * (nvars - la.length)))
    blocks = {}
    for pos in itertools.combinations(range(1, nvars + 1), m):
        rest = [v for v in range(1, nvars + 1) if v not in pos]
        for perm in itertools.permutations(pos):
            base = dict(zip(perm, la.a))
            for arr in arrangements:
                powers = dict(base)
                powers.update(zip(rest, arr))
                ((mask, terms),) = P.term(nvars, 1, powers, thetas=perm).blocks.items()
                dst = blocks.setdefault(mask, {})
                for key, c in terms.items():
                    dst[key] = dst.get(key, 0) + c
    return P(nvars, blocks)


def multinomial_count(la, nvars):
    """Distinct placements: nvars! over the symmetric multiplicities and the
    variables left at zero (the fermionic parts are distinct)."""
    if la.length > nvars:
        return 0
    out = math.factorial(nvars) // math.factorial(nvars - la.length)
    for _, run in itertools.groupby(la.s):
        out //= math.factorial(len(tuple(run)))
    return out


def test_monomial_matches_placement_oracle():
    for n in range(7):
        for m in range(4):
            for la in enumerate_superpartitions(n, m):
                for nvars in range(n + m + 2):
                    if la.length > nvars:
                        with pytest.raises(ValueError):
                            monomial(la, nvars)
                        assert monomial(la, nvars, strict=False).is_zero()
                        continue
                    f = monomial(la, nvars)
                    assert f == monomial(la, nvars, strict=False)
                    assert f == placement_oracle(la, nvars), (la, nvars)
                    assert f.num_terms() == multinomial_count(la, nvars), (la, nvars)
                    assert all(abs(c) == 1 for _, _, c in f.iter_terms())
                    if nvars <= n + m:
                        assert f.is_symmetric(), (la, nvars)


def test_placement_tables_are_bounded_and_hold_tuples():
    def tuples_of_ints(x):
        return type(x) is int or type(x) is tuple and all(tuples_of_ints(y) for y in x)

    for la in enumerate_superpartitions(5, 2):
        monomial(la, 7)
        for entry in (bases._symmetric_keys(7 - la.fermionic_degree, la.s), bases._theta_placements(7, la.a)):
            assert type(entry) is tuple and tuples_of_ints(entry), la
    for table in (bases._symmetric_keys, bases._theta_placements):
        info = table.cache_info()
        assert type(info.maxsize) is int and 0 < info.currsize <= info.maxsize


def test_large_placement_tables_are_built_uncached():
    tables = (bases._symmetric_keys, bases._theta_placements)
    # (;1^8) on 16 variables has C(16, 8) = 12,870 symmetric placements and
    # (3,1,0;) 16 * 15 * 14 = 3,360 theta placements, both past the bound;
    # their other tables are small, so they are read first
    for la, other in (("(;1,1,1,1,1,1,1,1)", lambda: bases._theta_placements(16, ())),
                      ("(3,1,0;)", lambda: bases._symmetric_keys(13, ()))):
        other()
        sizes = [t.cache_info().currsize for t in tables]
        f = monomial(sp(la), 16)
        assert [t.cache_info().currsize for t in tables] == sizes, la
        assert f == placement_oracle(sp(la), 16), la
    # a shape within the bound is cached: C(12, 6) = 924 <= 1,024 symmetric placements
    assert bases._TABLE_KEYS == 1024
    bases._symmetric_keys.cache_clear()
    monomial(sp("(;1,1,1,1,1,1)"), 12)
    info = bases._symmetric_keys.cache_info()
    assert info.currsize == 1 and len(bases._symmetric_keys(12, (1,) * 6)) == 924
    assert bases._symmetric_keys.cache_info().hits == info.hits + 1


def test_monomial_rejects_parts_beyond_the_exponent_field():
    with pytest.raises(ValueError):
        monomial(SuperPartition(a=(65536,), s=()), 1)
    with pytest.raises(ValueError):
        monomial(SuperPartition(a=(), s=(65536,)), 2)
    assert monomial(SuperPartition(a=(), s=(65535,)), 1) == P.term(1, 1, {1: 65535})
    # the generators pack x^n into the same field
    for fn, coefficient, thetas in (
        (complete, 1, ()), (complete_tilde, 65536, (1,)), (powersum, 1, ()), (powersum_tilde, 1, (1,)),
    ):
        with pytest.raises(ValueError, match=r"^n must be an int with 0 <= n <= 65535, got 65536$"):
            fn(65536, 1)
        assert fn(65535, 1) == P.term(1, coefficient, {1: 65535}, thetas), fn


def test_default_variable_count():
    assert default_nvars(sp("(2,0;1)")) == 5


# -- single generators ----------------------------------------------------------


def test_elementary_oracles():
    x1, x2, x3 = (P.x(i, 3) for i in (1, 2, 3))
    assert elementary(2, 3) == x1 * x2 + x1 * x3 + x2 * x3
    assert elementary(0, 3) == P.one(3)
    assert elementary_tilde(1, 2) == P.term(2, 1, {2: 1}, thetas=(1,)) + P.term(
        2, 1, {1: 1}, thetas=(2,)
    )
    want = (
        P.term(3, 1, {2: 1, 3: 1}, thetas=(1,))
        + P.term(3, 1, {1: 1, 3: 1}, thetas=(2,))
        + P.term(3, 1, {1: 1, 2: 1}, thetas=(3,))
    )
    assert elementary_tilde(2, 3) == want


def test_complete_oracles():
    assert complete(2, 2) == P.term(2, 1, {1: 2}) + P.term(2, 1, {1: 1, 2: 1}) + P.term(2, 1, {2: 2})
    assert complete(0, 2) == P.one(2)
    assert complete_tilde(0, 3) == monomial(sp("(0;)"), 3)
    two_m1 = monomial(sp("(1;)"), 2).scale(2)
    assert complete_tilde(1, 2) == two_m1 + monomial(sp("(0;1)"), 2)


def test_powersum_oracles():
    assert powersum(0, 3).is_zero()
    assert powersum_tilde(0, 3) == P.theta(1, 3) + P.theta(2, 3) + P.theta(3, 3)
    assert powersum(2, 2) == P.term(2, 1, {1: 2}) + P.term(2, 1, {2: 2})


def test_generators_match_their_monomials():
    # an oracle for the closed forms that shares no code with them: each
    # generator is a sum over monomial elements, zero past their length
    for n in range(9):
        for nv in range(n + 2):
            mono = lambda a, s: monomial(SuperPartition(a, s), nv, strict=False)
            over = lambda pairs: P.linear_combination(nv, pairs)
            assert elementary(n, nv) == mono((), (1,) * n)
            assert elementary_tilde(n, nv) == mono((0,), (1,) * n)
            assert complete(n, nv) == over((1, mono(la.a, la.s)) for la in enumerate_superpartitions(n, 0, nv))
            assert complete_tilde(n, nv) == over(
                (la.a[0] + 1, mono(la.a, la.s)) for la in enumerate_superpartitions(n, 1, nv)
            )
            assert powersum(n, nv) == (mono((), (n,)) if n else P.zero(nv))
            assert powersum_tilde(n, nv) == mono((n,), ())


def test_generators_at_quotient_keys_are_the_whole_generators_kept_there():
    # the identity checks build each generator only in the quotient
    # (bases._quotient), on its ell variables, at the keys of degree k of D
    # and on the sectors inside the mask: per block n <= 6, m <= 1 at N = n + 2, and jointly
    # for the recursions at N = 8
    quotients = [bases._quotient([(n, m)], n + 2) for n in range(7) for m in (0, 1)]
    quotients.append(bases._quotient([(n, m) for n in range(7) for m in (0, 1)], 8))
    for quotient in quotients:
        ell, by_degree, mask = quotient
        divisors = {key for keys in by_degree.values() for key in keys}
        for basis, pair in bases._GENERATORS.items():
            for tilde, whole in enumerate(pair):
                for k in range(9):
                    kept = {mb: {key: c for key, c in terms.items() if key in divisors}
                            for mb, terms in whole(k, ell).blocks.items() if not mb & ~mask}
                    built = bases._generator("t" * tilde + basis, k, quotient)
                    assert built.nvars == ell and built == P(ell, kept), (basis, tilde, k, ell)
                    assert not any(mb & ~mask for mb in built.blocks), (basis, tilde, k, ell)


def test_negative_degree_rejected():
    for fn in (elementary, elementary_tilde, complete, complete_tilde, powersum, powersum_tilde):
        with pytest.raises(ValueError):
            fn(-1, 3)


# -- multiplicative products ------------------------------------------------------


def test_product_elements_are_built_once(monkeypatch):
    # one product per distinct nonempty label or prefix, shared by
    # multiplicative's calls, basis_element and the arrow
    nvars, products = 5, []
    real = P._mul
    monkeypatch.setattr(P, "_mul", lambda f, g, *args: products.append(1) or real(f, g, *args))
    multiplicative.cache_clear()
    labels = [la for n in range(6) for m in range(3) for la in enumerate_superpartitions(n, m)]
    for la in labels:
        multiplicative("p", la, nvars)
    prefixes = {(la.a[:i], ()) for la in labels for i in range(1, len(la.a) + 1)}
    prefixes |= {(la.a, la.s[:i]) for la in labels for i in range(1, len(la.s) + 1)}
    assert len(products) == len(prefixes) == 97  # a one-factor element is one times its factor
    for la in labels:
        assert basis_element("p", la, nvars) is multiplicative("p", la, nvars)
        assert basis_element("p", la, nvars, arrowed=True) == multiplicative("p", la, nvars).arrow()
    assert len(products) == len(prefixes)


def test_product_element_has_one_cache_key():
    la = sp("(2,0;2,1)")
    multiplicative.cache_clear()
    f = multiplicative("h", la, 5)
    size = multiplicative.cache_info().currsize
    with pytest.raises(TypeError):
        multiplicative("h", la, nvars=5)
    assert multiplicative.cache_info().currsize == size
    assert basis_element("h", la, 5, arrowed=True) == f.arrow()
    assert basis_element("h", la, 5) is f
    assert multiplicative.cache_info().currsize == size


def test_product_element_follows_fermionic_order():
    la = sp("(3,0;4,1)")
    nv = 8
    direct = elementary_tilde(3, nv) * elementary_tilde(0, nv) * elementary(4, nv) * elementary(1, nv)
    assert multiplicative("e", la, nv) == direct
    swapped = elementary_tilde(0, nv) * elementary_tilde(3, nv) * elementary(4, nv) * elementary(1, nv)
    assert multiplicative("e", la, nv) == swapped.scale(-1)


def test_empty_product_is_one():
    assert multiplicative("p", sp("(;)"), 3) == P.one(3)


def test_arrowed_product_scales_by_sector_sign():
    la = sp("(2,1,0;)")
    f = multiplicative("h", la, 4)
    assert basis_element("h", la, 4, arrowed=True) == f.scale(-1)


def test_basis_element_dispatch():
    la = sp("(1,0;1)")
    assert basis_element("m", la, 4) == monomial(la, 4)
    assert basis_element("h", la, 4) == multiplicative("h", la, 4)
    assert basis_element("h", la) == multiplicative("h", la, default_nvars(la))
    with pytest.raises(ValueError):
        basis_element("q", la, 4)


def test_constructed_elements_are_symmetric_with_right_bidegree():
    for n in range(4):
        for m in range(3):
            if n < m * (m - 1) // 2:
                continue
            for la in enumerate_superpartitions(n, m):
                for basis in ("m", "e", "h", "p"):
                    f = basis_element(basis, la, n + m + 1)
                    assert f.is_symmetric(), (basis, la)
                    for mask, key, _ in f.iter_terms():
                        bos = sum(f.key_exponent(key, v) for v in range(1, f.nvars + 1))
                        assert (bos, mask.bit_count()) == (n, m)


def int_coefficients(f):
    return all(type(c) is int for _, _, c in f.iter_terms())


def test_integer_products_stay_on_int_coefficients():
    assert int_coefficients(P.one(3))
    for basis in ("e", "h", "p"):
        for la in enumerate_superpartitions(4, 2):
            f = multiplicative(basis, la, 6)
            assert not f.is_zero() and int_coefficients(f), (basis, la)
            assert int_coefficients(basis_element(basis, la, 6, arrowed=True))
    for kind in "EHP":
        f = _series(kind, 3, 3)
        assert not f.is_zero() and int_coefficients(f), kind


# -- generating series -------------------------------------------------------------


@pytest.mark.parametrize("kind", ["E", "H", "P", "HE", "HP", "EP"])
def test_generating_identities(kind):
    rep = generating_check(kind, 3, 4)
    assert rep["pass"] is True, rep
    assert rep["first_failure"] is None


def test_generating_check_bounds_trunc_before_building_a_series(monkeypatch):
    def boom(*args):
        raise AssertionError("a series was built")

    monkeypatch.setattr(bases, "_series", boom)
    with pytest.raises(ValueError, match="32768"):
        generating_check("HP", 2**15, 1)
    with pytest.raises(ValueError, match="-1"):
        generating_check("H", -1, 1)


def test_generating_check_rejects_unknown_kind():
    with pytest.raises(ValueError):
        generating_check("X", 2, 3)


def test_multiplicative_rejects_an_unknown_basis():
    with pytest.raises(ValueError, match=r"^multiplicative basis must be one of e, h, p, not 'q'$"):
        multiplicative("q", SuperPartition.parse("(1;1)"), 2)


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_series_is_its_definition_in_engine_products(nvars):
    # u_i = t x_i + tau t_i with t = x_{N+1} and tau = t_{N+1}, u_i^k by
    # repeated products: E = prod (1 + u_i), H = prod sum_{k <= trunc+1} u_i^k
    # and P = sum_i sum_{1 <= k <= trunc+1} u_i^k, each cut at t-degree trunc
    big = nvars + 1
    u = [P.term(big, 1, {big: 1, i: 1}) + P.term(big, 1, thetas=(big, i)) for i in range(1, nvars + 1)]
    for trunc in range(5):
        powers = [[P.one(big)] for _ in u]
        for ui, row in zip(u, powers):
            while len(row) < trunc + 2:
                row.append(row[-1] * ui)
        e, h = P.one(big), P.one(big)
        for ui, row in zip(u, powers):
            e *= P.one(big) + ui
            h *= P.linear_combination(big, ((1, f) for f in row))
        p = P.linear_combination(big, ((1, f) for row in powers for f in row[1:]))
        for kind, want in zip("EHP", (e, h, p)):
            assert _series(kind, nvars, trunc) == want.truncate(trunc, vars=(big,)), (kind, trunc)
