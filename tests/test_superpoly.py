"""Signed sparse arithmetic in commuting x's and anticommuting t's."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supersym.superpartition import SuperPartition, enumerate_superpartitions
from supersym.superpoly import SuperPolynomial
from supersym.transform import format_rational, parse_rational
from supersym.bases import monomial

P = SuperPolynomial


def test_rational_formatting():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert parse_rational("7") == 7
    assert parse_rational("-5/3") == Fraction(-5, 3)
    assert parse_rational(format_rational(Fraction(22, 7))) == Fraction(22, 7)


def test_theta_constructor_canonicalizes_order():
    # t2 t1 is stored as -t1 t2
    assert P.term(2, 1, thetas=(2, 1)) == P.term(2, -1, thetas=(1, 2))
    # a repeated index kills the term
    assert P.term(2, 1, thetas=(1, 1)).is_zero()
    with pytest.raises(ValueError, match=r"^repeated theta index in \(1, 1\)$"):
        P.x(1, 2).coefficient(thetas=(1, 1))


@pytest.mark.parametrize("call, match", [
    (lambda: P.term(2, 1, {9: 1}), "variable x9 outside 1..2"),
    (lambda: P.term(2, 0, {9: 1}), "variable x9 outside 1..2"),
    (lambda: P.term(2, 1, {1: 1}, thetas=(7, 7)), "variable t7 outside 1..2"),
    (lambda: P.term(2, 0, thetas=(0,)), "variable t0 outside 1..2"),
    (lambda: P.term(2, 0, {1: -1}), "exponent -1 for x1 out of range"),
    (lambda: P.x(1, 2).coefficient({3: 1}, thetas=(1, 1)), "variable x3 outside 1..2"),
], ids=["x9", "x9 zero coefficient", "t7 repeated", "t0 zero coefficient", "negative exponent", "coefficient"])
def test_term_checks_every_index_and_exponent_before_returning_zero(call, match):
    with pytest.raises(ValueError, match=rf"^{match}$"):
        call()


@pytest.mark.parametrize("bad", [0, 3])
@pytest.mark.parametrize("letter, call", [
    ("x", lambda f, v: f.extract_x(v, 0)),
    ("x", lambda f, v: f.euler_scale(v)),
    ("x", lambda f, v: f.negate_vars((v,), ())),
    ("x", lambda f, v: f.truncate(0, vars=(v,))),
    ("x", lambda f, v: f.mul_truncated(f, 1, vars=(v,))),
    ("t", lambda f, v: f.select_theta(v)),
    ("t", lambda f, v: f.extract_theta_left(v)),
    ("t", lambda f, v: f.negate_vars((), (v,))),
    ("t", lambda f, v: f.mul_restricted(f, (v,))),
    ("x", lambda f, v: f.key_exponent(1, v)),
], ids=["extract_x", "euler_scale", "negate_vars x", "truncate", "mul_truncated",
        "select_theta", "extract_theta_left", "negate_vars t", "mul_restricted", "key_exponent"])
def test_term_wise_methods_reject_a_variable_outside_the_ring(letter, call, bad):
    # index 0 and nvars + 1 on x1 + t2 in two variables
    with pytest.raises(ValueError, match=rf"^variable {letter}{bad} outside 1\.\.2$"):
        call(P.x(1, 2) + P.theta(2, 2), bad)


def test_product_oracles():
    t1, t2 = P.theta(1, 3), P.theta(2, 3)
    x1, x2, x3 = (P.x(i, 3) for i in (1, 2, 3))
    assert t2 * t1 == -(t1 * t2)
    assert ((t1 * x1) * (t1 * x2)).is_zero()
    assert ((t1 + t2) * (t1 * t2 * x3)).is_zero()
    f = x1 + t1 * t2
    assert f * f == x1 * x1 + (t1 * t2 * x1).scale(2)


def test_nvars_mismatch_rejected():
    with pytest.raises(ValueError):
        P.x(1, 2) * P.x(1, 3)


def test_arrow_sign_by_sector():
    signs = {0: 1, 1: 1, 2: -1, 3: -1, 4: 1}
    for m, sign in signs.items():
        f = P.term(4, 1, thetas=tuple(range(1, m + 1)))
        assert f.arrow() == f.scale(sign)
        assert f.arrow().arrow() == f


def test_exchange_examples():
    f = P.term(2, 1, {2: 1}, thetas=(1,))  # t1 x2
    assert f.apply_exchange(1) == P.term(2, 1, {1: 1}, thetas=(2,))
    g = P.term(2, 1, thetas=(1, 2))
    assert g.apply_exchange(1) == g.scale(-1)
    m01 = monomial(SuperPartition.parse("(0;1)"), 3)
    assert m01.apply_exchange(1) == m01
    with pytest.raises(ValueError):
        g.apply_exchange(2)


def test_is_symmetric_examples():
    f = P.term(2, 1, {1: 4}, thetas=(1,)) + P.term(2, 1, {2: 4}, thetas=(2,))
    assert f.is_symmetric()
    g = P.term(2, 1, {2: 2}, thetas=(1,)) + P.term(2, 1, {1: 2}, thetas=(2,))
    assert g.is_symmetric()
    assert not P.term(2, 1, {1: 1}, thetas=(1,)).is_symmetric()


def test_coefficient_queries():
    f = P.term(2, -1, thetas=(1, 2))
    assert f.coefficient(thetas=(1, 2)) == -1
    assert f.coefficient(thetas=(2, 1)) == 1
    m11 = monomial(SuperPartition.parse("(;1,1)"), 3)
    assert m11.coefficient({1: 1, 2: 1}) == 1
    m211 = monomial(SuperPartition.parse("(2;1,1)"), 3)
    assert m211.coefficient({1: 2, 2: 1, 3: 1}, thetas=(1,)) == 1
    assert m211.coefficient({1: 9}, thetas=(1,)) == 0


def term_bidegree(poly, mask, key):
    bos = sum(poly.key_exponent(key, v) for v in range(1, poly.nvars + 1))
    return bos, bin(mask).count("1")


def test_product_grading_adds():
    f = P.term(3, 2, {1: 2}, thetas=(1,))
    g = P.term(3, 1, {2: 1, 3: 2}, thetas=(2,))
    h = f * g
    assert not h.is_zero()
    for mask, key, _ in h.iter_terms():
        assert term_bidegree(h, mask, key) == (5, 2)


def random_poly(rng, nvars=3, nterms=3, max_deg=2):
    out = P.zero(nvars)
    for _ in range(nterms):
        powers = {v: rng.randrange(0, max_deg + 1) for v in rng.sample(range(1, nvars + 1), 2)}
        thetas = tuple(sorted(rng.sample(range(1, nvars + 1), rng.randrange(0, 3))))
        out = out + P.term(nvars, rng.randrange(-3, 4), powers, thetas)
    return out


def test_product_is_associative_and_distributive():
    rng = random.Random(20240817)
    for _ in range(60):
        f, g, h = (random_poly(rng) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_fermionic_terms_anticommute():
    rng = random.Random(7)
    for _ in range(40):
        f = random_poly(rng)
        g = random_poly(rng)
        # keep only odd sectors on both sides
        f = P(3, {m: b for m, b in f.blocks.items() if bin(m).count("1") % 2 == 1})
        g = P(3, {m: b for m, b in g.blocks.items() if bin(m).count("1") % 2 == 1})
        assert f * g == -(g * f)
        assert (f * f).is_zero()


def swap_x_vars(poly, u, v):
    """Exchange x_u and x_v only, leaving every theta untouched."""
    out = P.zero(poly.nvars)
    for mask, key, c in poly.iter_terms():
        powers = {w: poly.key_exponent(key, w) for w in range(1, poly.nvars + 1)}
        powers[u], powers[v] = powers[v], powers[u]
        out = out + P.term(poly.nvars, c, {w: e for w, e in powers.items() if e}, poly.mask_vars(mask))
    return out


def test_monomial_theta_coefficients_are_antisymmetric():
    # the x-part attached to t_j1...t_jm flips sign under x_j1 <-> x_j2
    for n in range(5):
        for m in (2, 3):
            if n < m * (m - 1) // 2:
                continue
            for sp in enumerate_superpartitions(n, m):
                f = monomial(sp, n + m)
                for mask in f.blocks:
                    js = f.mask_vars(mask)
                    block = P(f.nvars, {mask: f.blocks[mask]})
                    swapped = swap_x_vars(block, js[0], js[1])
                    assert swapped == block.scale(-1), sp


def test_render_and_term_order():
    f = P.term(3, Fraction(-1, 2), {1: 2, 3: 1}, thetas=(1, 2)) + P.term(3, 3, {2: 1})
    assert f.render() == "3 * x2 + -1/2 * x1^2 * x3 * t1 t2"
    assert P.zero(2).render() == "0"
    assert str(P.one(2)) == "1"


def test_truncate_and_extract():
    f = P.term(2, 1, {1: 2}) + P.term(2, 1, {1: 1}) + P.term(2, 1, {2: 3})
    assert f.truncate(2) == P.term(2, 1, {1: 2}) + P.term(2, 1, {1: 1})
    assert f.extract_x(1, 2) == P.one(2)
    assert f.extract_x(2, 3) == P.one(2)
    assert f.extract_x(1, 5).is_zero()


def test_theta_extraction_sign_counts_smaller_letters():
    f = P.term(3, 1, thetas=(1, 3))
    # removing t3 from t1 t3 passes over t1: sign -1... but left-extraction
    # reads the factor as t3 * (t1) only after moving t3 to the front
    assert f.extract_theta_left(3) == P.term(3, -1, thetas=(1,))
    assert f.extract_theta_left(1) == P.term(3, 1, thetas=(3,))
    assert f.extract_theta_left(2).is_zero()
    assert f.select_theta(3) == f
    assert f.select_theta(2).is_zero()


def test_alphabet_reshaping():
    f = P.term(2, 2, {1: 1, 2: 2}, thetas=(2,))
    wide = f.widen(4)
    assert wide.nvars == 4
    assert wide.coefficient({1: 1, 2: 2}, thetas=(2,)) == 2
    shifted = f.shift_alphabet(2, 4)
    assert shifted == P.term(4, 2, {3: 1, 4: 2}, thetas=(4,))
    neg = f.negate_vars(bos_vars=(2,), ferm_vars=(2,))
    assert neg == f.scale(-1)  # x2^2 keeps sign, t2 flips


def test_shift_alphabet_must_stay_in_the_target_ring():
    # x2 shifted by one is x3, which a 2-variable ring does not have
    with pytest.raises(ValueError):
        P.x(2, 2).shift_alphabet(1, 2)
    with pytest.raises(ValueError):
        P.one(3).shift_alphabet(2, 4)  # even a constant names its ring
    assert P.x(2, 2).shift_alphabet(1, 3) == P.x(3, 3)


def test_construction_copies_the_callers_terms():
    d = {0: {0: 1}}
    p = P(1, d)
    d[0][0] = 0
    d[1] = {0: 5}
    assert p == P.one(1)
    assert not p.is_zero()
    # a copy is made on the path that sweeps out zeros too
    e = {0: {0: 1, 1: 0}}
    q = P(1, e)
    e[0][0] = 7
    assert q == P.one(1)


def test_zero_coefficients_are_dropped_on_construction():
    assert P(2, {0: {0: 0}}) == P.zero(2)
    assert P(2, {0: {0: 0}}).is_zero()
    assert P(2, {1: {}, 0: {5: Fraction(0), 3: 2}}).blocks == {0: {3: 2}}
    assert P(2, {0: {0: 1}, 1: {}}) == P.one(2)


def test_linear_combination_accumulates_and_cancels():
    x1, x2 = P.x(1, 2), P.x(2, 2)
    assert P.linear_combination(2, [(2, x1), (Fraction(-1, 2), x2), (-1, x1)]) == x1 - x2.scale(
        Fraction(1, 2)
    )
    assert P.linear_combination(2, [(1, x1 + x2), (-1, x1 + x2)]).is_zero()
    assert P.linear_combination(2, []).is_zero()
    # an integral Fraction weight leaves int coefficients
    (c,) = P.linear_combination(2, [(Fraction(3), x1)]).blocks[0].values()
    assert type(c) is int
    for f in (x1.scale(Fraction(3)), x1 + x1):
        (c,) = f.blocks[0].values()
        assert type(c) is int
    with pytest.raises(ValueError):
        P.linear_combination(2, [(1, P.x(1, 3))])


BIG = 40000  # two of these overflow a 16-bit exponent field


def test_product_exponent_overflow_raises():
    f = P.term(2, 1, {1: BIG})
    with pytest.raises(ValueError, match="x1"):
        f * f


def test_restricted_product_exponent_overflow_raises():
    f = P.term(2, 1, {2: BIG}, thetas=(1,))
    g = P.term(2, 1, {2: BIG})
    with pytest.raises(ValueError, match="x2"):
        f.mul_restricted(g, (1, 2))


def test_truncated_product_exponent_overflow_raises():
    f = P.term(2, 1, {1: BIG})
    with pytest.raises(ValueError, match="x1"):
        f.mul_truncated(f, 2 * BIG)
    with pytest.raises(ValueError, match="x1"):
        f.mul_truncated(f, 0, vars=(2,))


def test_products_reaching_the_field_maximum_are_exact():
    # both factors use the top bit of a field, so the per-field maxima are
    # compared, and 32768 + 32767 still fits
    f = P.term(3, 1, {1: 32768, 3: 1}) + P.term(3, 1, {2: 1})
    g = P.term(3, 1, {1: 32767}) + P.term(3, 2, {2: 40000})
    want = (
        P.term(3, 1, {1: 65535, 3: 1})
        + P.term(3, 2, {1: 32768, 2: 40000, 3: 1})
        + P.term(3, 1, {1: 32767, 2: 1})
        + P.term(3, 2, {2: 40001})
    )
    assert f * g == want
    assert f.mul_restricted(g, ()) == want
    assert f.mul_truncated(g, 80000) == want


def test_euler_scale_multiplies_by_exponent():
    f = P.term(3, 2, {1: 2, 2: 1})
    assert f.euler_scale(1) == f.scale(2)
    assert f.euler_scale(2) == f
    assert f.euler_scale(3).is_zero()


@st.composite
def small_polys(draw):
    nvars = 3
    out = P.zero(nvars)
    for _ in range(draw(st.integers(1, 3))):
        coeff = draw(st.integers(-4, 4))
        powers = {
            draw(st.integers(1, nvars)): draw(st.integers(0, 2)),
        }
        nth = draw(st.integers(0, 2))
        thetas = tuple(sorted(draw(st.sets(st.integers(1, nvars), min_size=nth, max_size=nth))))
        out = out + P.term(nvars, coeff, powers, thetas)
    return out


@given(small_polys(), small_polys())
@settings(max_examples=120, deadline=None)
def test_truncated_product_agrees_with_full(f, g):
    for d in (0, 1, 2, 3):
        assert f.mul_truncated(g, d) == (f * g).truncate(d)
        for vars in ((1,), (2, 3)):
            assert f.mul_truncated(g, d, vars) == (f * g).truncate(d, vars)


@given(small_polys(), small_polys())
@settings(max_examples=120, deadline=None)
def test_restricted_product_agrees_on_allowed_sectors(f, g):
    full = f * g
    for allowed, allowed_mask in (((1, 2), 0b011), ((), 0), ((1, 3), 0b101)):
        kept = P(3, {m: b for m, b in full.blocks.items() if m | allowed_mask == allowed_mask})
        assert f.mul_restricted(g, allowed) == kept


@given(small_polys())
@settings(max_examples=80, deadline=None)
def test_arrow_is_involution(f):
    assert f.arrow().arrow() == f


# -- the product loop against an independent term-by-term oracle ----------------

ORACLE_VARS = 4


def _powers(poly, key):
    return {v: e for v in range(1, poly.nvars + 1) if (e := poly.key_exponent(key, v))}


def term_product(f, g, keep=lambda powers, thetas: True):
    """f * g built one term pair at a time: each product is a fresh `term` on
    the concatenated theta word, so its sign is `term`'s sort sign."""
    pairs = []
    for ma, ka, ca in f.iter_terms():
        pa = _powers(f, ka)
        for mb, kb, cb in g.iter_terms():
            pb = _powers(g, kb)
            powers = {v: pa.get(v, 0) + pb.get(v, 0) for v in pa.keys() | pb.keys()}
            thetas = f.mask_vars(ma) + g.mask_vars(mb)
            if keep(powers, thetas):
                pairs.append((1, P.term(f.nvars, ca * cb, powers, thetas)))
    return P.linear_combination(f.nvars, pairs)


COEFFS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def oracle_polys(draw):
    """Up to eight terms over a few theta supports, so blocks of one polynomial
    differ in size and pairs of blocks run the loop both ways round; small
    exponents make term products collide and cancel."""
    supports = draw(st.lists(
        st.sets(st.integers(1, ORACLE_VARS), max_size=3).map(sorted), min_size=1, max_size=3,
    ))
    pairs = []
    for _ in range(draw(st.integers(0, 8))):
        powers = draw(st.dictionaries(st.integers(1, ORACLE_VARS), st.integers(0, 2), max_size=3))
        thetas = draw(st.sampled_from(supports))
        pairs.append((1, P.term(ORACLE_VARS, draw(COEFFS), powers, thetas)))
    return P.linear_combination(ORACLE_VARS, pairs)


def _degree_in(powers, vars):
    return sum(powers.get(v, 0) for v in vars)


@given(oracle_polys(), oracle_polys())
@settings(max_examples=100, deadline=None)
def test_products_match_the_term_by_term_oracle(f, g):
    assert f * g == term_product(f, g)
    for theta_vars in ((), (1, 2), (2, 3, 4)):
        assert f.mul_restricted(g, theta_vars) == term_product(
            f, g, lambda powers, thetas: set(thetas) <= set(theta_vars)
        )
    for d in (0, 1, 2, 3, 5):
        assert f.mul_truncated(g, d) == term_product(
            f, g, lambda powers, thetas: _degree_in(powers, range(1, ORACLE_VARS + 1)) <= d
        )
        for vars in ((1,), (2, 4)):
            assert f.mul_truncated(g, d, vars) == term_product(
                f, g, lambda powers, thetas: _degree_in(powers, vars) <= d
            )


def test_oracle_cases_run_the_loop_both_ways_and_cancel():
    x1, x2, t1, t2 = P.x(1, 4), P.x(2, 4), P.theta(1, 4), P.theta(2, 4)
    half = Fraction(1, 2)
    short = (t1 * x1).scale(half)  # a one-term block on {t1}
    long = t2 * (x1 + x2.scale(3) + x1 * x2) + x2  # three terms on {t2}, one on {}
    odd = t1 + t2
    cases = [(short, long), (long, short), (x1 + x2, x1 - x2), (odd, odd), (long, long)]
    for f, g in cases:
        assert f * g == term_product(f, g)
        assert f.mul_truncated(g, 2) == term_product(
            f, g, lambda powers, thetas: _degree_in(powers, range(1, 5)) <= 2
        )
        assert f.mul_truncated(g, 1, (2,)) == term_product(
            f, g, lambda powers, thetas: powers.get(2, 0) <= 1
        )
        assert f.mul_restricted(g, (1,)) == term_product(
            f, g, lambda powers, thetas: set(thetas) <= {1}
        )
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2  # the cross terms cancel
    assert (odd * odd).is_zero()
    # 1/2 t1 x1 times 3 t2 x2, in both orders
    assert (short * long).coefficient({1: 1, 2: 1}, thetas=(1, 2)) == Fraction(3, 2)
    assert (long * short).coefficient({1: 1, 2: 1}, thetas=(1, 2)) == Fraction(-3, 2)


# -- the term-wise methods against term-by-term oracles ----------------------------


def term_map(f, image, nvars=None):
    """f rebuilt one term at a time from iter_terms: image(powers, thetas, c)
    gives the image term's (powers, thetas, c), or None to drop the term.
    Each image is a fresh `term`, so a theta word in any order picks up its
    sort sign there, and the images are summed."""
    nvars = f.nvars if nvars is None else nvars
    pairs = []
    for mask, key, c in f.iter_terms():
        new = image(_powers(f, key), f.mask_vars(mask), c)
        if new is not None:
            pairs.append((1, P.term(nvars, new[2], new[0], new[1])))
    return P.linear_combination(nvars, pairs)


VAR_SETS = st.sets(st.integers(1, ORACLE_VARS)).map(sorted)


@given(oracle_polys(), st.integers(0, 5), VAR_SETS)
@settings(max_examples=100, deadline=None)
def test_truncate_is_a_degree_filter(f, d, vars):
    everything = range(1, ORACLE_VARS + 1)
    assert f.truncate(d) == term_map(f, lambda pw, th, c: (pw, th, c) if _degree_in(pw, everything) <= d else None)
    assert f.truncate(d, vars) == term_map(f, lambda pw, th, c: (pw, th, c) if _degree_in(pw, vars) <= d else None)


@given(oracle_polys(), VAR_SETS, VAR_SETS)
@settings(max_examples=100, deadline=None)
def test_negate_vars_signs_each_term_by_its_negated_letters(f, bos, ferm):
    def image(pw, th, c):
        flips = _degree_in(pw, bos) + len(set(th) & set(ferm))
        return pw, th, (-1) ** flips * c

    assert f.negate_vars(bos, ferm) == term_map(f, image)


@given(oracle_polys(), st.integers(1, ORACLE_VARS))
@settings(max_examples=100, deadline=None)
def test_euler_scale_is_the_exponent_times_the_coefficient(f, v):
    assert f.euler_scale(v) == term_map(f, lambda pw, th, c: (pw, th, pw.get(v, 0) * c))


@given(oracle_polys())
@settings(max_examples=100, deadline=None)
def test_arrow_reverses_each_theta_word(f):
    # reversing the word of m letters is the sector sign (-1)^(m(m-1)/2)
    assert f.arrow() == term_map(f, lambda pw, th, c: (pw, th[::-1], c))


@given(oracle_polys(), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_shift_alphabet_keeps_coefficients_on_shifted_terms(f, offset, room):
    nvars = ORACLE_VARS + offset + room
    shifted = f.shift_alphabet(offset, nvars)
    assert shifted.nvars == nvars
    assert shifted == term_map(
        f,
        lambda pw, th, c: ({v + offset: e for v, e in pw.items()}, [v + offset for v in th], c),
        nvars,
    )


@given(oracle_polys(), st.integers(1, ORACLE_VARS), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_extract_x_times_the_power_is_the_part_with_that_exponent(f, v, e):
    part = term_map(f, lambda pw, th, c: (pw, th, c) if pw.get(v, 0) == e else None)
    assert f.extract_x(v, e) * P.term(ORACLE_VARS, 1, {v: e}) == part


@given(oracle_polys(), st.integers(1, ORACLE_VARS))
@settings(max_examples=100, deadline=None)
def test_theta_times_the_left_extraction_is_the_selected_part(f, v):
    left = f.extract_theta_left(v)
    assert all(not mask >> (v - 1) & 1 for mask, _, _ in left.iter_terms())
    assert P.theta(v, ORACLE_VARS) * left == f.select_theta(v)


@given(oracle_polys(), st.integers(1, ORACLE_VARS - 1))
@settings(max_examples=100, deadline=None)
def test_apply_exchange_is_the_substitution_and_an_involution(f, i):
    swap = {i: i + 1, i + 1: i}
    swapped = f.apply_exchange(i)
    assert swapped == term_map(
        f,
        lambda pw, th, c: ({swap.get(v, v): e for v, e in pw.items()}, [swap.get(v, v) for v in th], c),
    )
    assert swapped.apply_exchange(i) == f
