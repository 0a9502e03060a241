"""Monomial expansions, the signed filling rule, and basis conversions."""

import functools
import json
import math
from fractions import Fraction
from itertools import product

import pytest

from supersym.superpartition import SuperPartition, _block, bruhat_leq, enumerate_superpartitions
from supersym.superpoly import SuperPolynomial
from supersym import bases as bases_module, engine_checks
from supersym.bases import (
    basis_element,
    complete,
    complete_tilde,
    elementary,
    elementary_tilde,
    monomial,
    powersum,
    powersum_tilde,
)
from supersym.transform import (
    DETERMINANT_KINDS,
    BasisExpansion,
    _block_index,
    change_basis,
    determinant_formulas,
    expand_in_monomials,
    mono_product,
    mono_product_fillings,
    triangularity,
    verify_recursions,
)
from supersym.engine_checks import (
    _FIRST_N,
    _RECURSIONS,
    _block_matrix,
    _determinant_cases,
    _generators,
    _omega,
)


def sp(text):
    return SuperPartition.parse(text)


def unit(basis, text):
    return BasisExpansion.unit(basis, sp(text))


# -- BasisExpansion container -------------------------------------------------


def test_expansion_drops_zeros_and_checks_block():
    x = BasisExpansion("m", 2, 0, {sp("(;2)"): Fraction(0), sp("(;1,1)"): Fraction(2)})
    assert list(x.coeffs) == [sp("(;1,1)")]
    with pytest.raises(ValueError):
        BasisExpansion("m", 2, 0, {sp("(;3)"): Fraction(1)})
    with pytest.raises(ValueError):
        BasisExpansion("q", 2, 0, {sp("(;2)"): Fraction(1)})


@pytest.mark.parametrize(
    "n, m, field",
    [(2, -1, "m"), (2.5, 0, "n"), (-3, 0, "n"), (True, 0, "n"), (2, False, "m"), ("2", 0, "n")],
)
def test_expansion_rejects_a_block_that_is_no_pair_of_sizes(n, m, field):
    # from_json_dict takes n and m from outside input; a bad block must fail
    # at construction, before any table is built for it
    before = _block_index.cache_info().currsize
    data = {"basis": "m", "n": n, "m": m, "terms": []}
    with pytest.raises(ValueError, match=rf"^{field} must be an int >= 0"):
        BasisExpansion.from_json_dict(data)
    with pytest.raises(ValueError, match=rf"^{field} must be an int >= 0"):
        BasisExpansion("h", n, m)
    assert _block_index.cache_info().currsize == before


def test_expansion_arithmetic():
    x = unit("m", "(;2)") + unit("m", "(;1,1)").scale(3)
    assert x.get(sp("(;1,1)")) == 3
    assert x.get(sp("(;2)")) == 1
    assert (x + x.scale(-1)).coeffs == {}


def test_expansion_json_round_trip():
    x = BasisExpansion(
        "m", 3, 2, {sp("(2,1;)"): Fraction(-3), sp("(2,0;1)"): Fraction(1, 2)}
    )
    data = x.to_json_dict()
    assert data["basis"] == "m" and data["n"] == 3 and data["m"] == 2
    coeffs = {json.dumps(t["spar"], sort_keys=True): t["coeff"] for t in data["terms"]}
    assert coeffs[json.dumps({"a": [2, 1], "s": []}, sort_keys=True)] == "-3"
    assert coeffs[json.dumps({"a": [2, 0], "s": [1]}, sort_keys=True)] == "1/2"
    assert BasisExpansion.from_json_dict(data) == x


def test_expansion_to_poly_round_trip():
    x = unit("h", "(1,0;1)")
    f = x.to_poly(5)
    assert f == basis_element("h", sp("(1,0;1)"), 5)


# -- monomial expansion ---------------------------------------------------------


def test_expand_oracles():
    got = expand_in_monomials(complete_tilde(1, 4))
    assert got == BasisExpansion(
        "m", 1, 1, {sp("(1;)"): Fraction(2), sp("(0;1)"): Fraction(1)}
    )
    e2t = elementary_tilde(2, 5)
    assert expand_in_monomials(e2t) == BasisExpansion.unit("m", sp("(0;1,1)"))


def test_expand_is_inverse_of_monomial_construction():
    for n in range(4):
        for m in range(3):
            if n < m * (m - 1) // 2:
                continue
            for la in enumerate_superpartitions(n, m):
                x = expand_in_monomials(monomial(la, n + m + 1))
                assert x == BasisExpansion("m", n, m, {la: Fraction(1)})


def test_expand_rejects_asymmetric_input():
    f = SuperPolynomial.term(3, 1, {1: 2})
    with pytest.raises(ValueError):
        expand_in_monomials(f)


def _mixed_symmetric(nvars=4):
    """1/2 m_(1;1) - 3 m_(0;2) + m_(0;1,1): Fraction and int coefficients,
    every term of each monomial in the (2|1) block at four variables."""
    a, b, c = sp("(1;1)"), sp("(0;2)"), sp("(0;1,1)")
    f = SuperPolynomial.linear_combination(nvars, [
        (Fraction(1, 2), monomial(a, nvars)), (-3, monomial(b, nvars)), (1, monomial(c, nvars)),
    ])
    return f, {a: Fraction(1, 2), b: Fraction(-3), c: Fraction(1)}


def test_expand_returns_fraction_coefficients_unchanged():
    f, want = _mixed_symmetric()
    got = expand_in_monomials(f)
    assert got == BasisExpansion("m", 2, 1, want)
    # integral values come back as int, the true fraction as a Fraction
    assert got.coeffs == want
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in got.coeffs.values())
    assert [type(got.get(x)) for x in (sp("(1;1)"), sp("(0;2)"), sp("(0;1,1)"))] == [Fraction, int, int]
    assert got.get(sp("(1;1)")) == Fraction(1, 2)


def _altered(f, mask, key, coeff):
    blocks = {m: dict(t) for m, t in f.blocks.items()}
    blocks.setdefault(mask, {})[key] = coeff
    return SuperPolynomial(f.nvars, blocks)


def test_expand_rejects_each_kind_of_asymmetry():
    f, _ = _mixed_symmetric()
    canonical = {
        ((1 << la.fermionic_degree) - 1, bases_module._canonical_key(la))
        for la in enumerate_superpartitions(2, 1)
    }
    # each non-canonical term of f, with its coefficient altered or dropped
    bad = [
        _altered(f, mask, key, new)
        for mask, key, c in f.iter_terms() if (mask, key) not in canonical
        for new in (c + 1, 0)
    ]
    assert len(bad) == 2 * (f.num_terms() - 3)
    # a term inside the bidegree that f lacks: t2 x2^2, a non-canonical term
    # of m_(2;), which f does not contain
    extra = SuperPolynomial.term(4, 5, {2: 2}, thetas=(2,))
    assert all(k not in f.blocks.get(m, {}) for m, k, _ in extra.iter_terms())
    bad += [
        f + extra,
        f + SuperPolynomial.term(4, 1, {1: 4}, thetas=(2,)),  # bidegree (4|1)
        f + SuperPolynomial.term(4, 1, {1: 1, 2: 1}),  # bidegree (2|0)
    ]
    for g in bad:
        with pytest.raises(ValueError, match="not symmetric"):
            expand_in_monomials(g, (2, 1))


# -- filling rule ------------------------------------------------------------------


def test_filling_counts_from_worked_product():
    a, b = sp("(1,0;1)"), sp("(0;2,1,1)")
    assert mono_product_fillings(a, b, sp("(2,1,0;1,1,1)")) == -3
    assert mono_product_fillings(a, b, sp("(3,1,0;1,1)")) == 1


def test_filling_identity_and_mismatch():
    om = sp("(2,0;1)")
    assert mono_product_fillings(sp("(;)"), om, om) == 1
    assert mono_product_fillings(sp("(;1)"), om, om) == 0


def test_product_with_unit():
    om = sp("(2,1;2)")
    assert mono_product(sp("(;)"), om) == BasisExpansion.unit("m", om)


def test_filling_count_is_the_product_entry():
    a, b = sp("(1,0;1)"), sp("(0;2,1,1)")
    x = mono_product(a, b)
    for g in _block(x.n, x.m) + _block(x.n, x.m + 1) + _block(x.n + 1, x.m):
        assert mono_product_fillings(a, b, g) == x.get(g), g
    assert mono_product_fillings(a, b, sp("(2,1,0;1,1)")) == 0  # (5|3), not (6|3)


def fillings_per_target(a, b, g):
    """The filling rule as one memoised walk per target g: the rows of g
    filled top to bottom, each by at most one row of a and one of b, the
    circled rows by exactly one circled source row, every source row used;
    a circle label placed above an odd number of smaller labels still to
    place flips the sign.  The circled rows of a are labelled 1.., then
    those of b, top to bottom; plain rows carry 0."""
    if (a.degree + b.degree, a.fermionic_degree + b.fermionic_degree) != g.bidegree:
        return 0
    targets = g.circled_rows()
    memo = {}

    def labeled(la, first):
        rows, nxt = [], first
        for v, circ in la.circled_rows():
            rows.append((v, nxt if circ else 0))
            nxt += 1 if circ else 0
        return tuple(sorted(rows, reverse=True))

    def drop(rem, item):
        if item is None:
            return rem
        i = rem.index(item)
        return rem[:i] + rem[i + 1 :]

    def count(idx, rem1, rem2):
        if idx == len(targets):
            return 1 if not rem1 and not rem2 else 0
        state = (idx, rem1, rem2)
        if state not in memo:
            gamma, circ = targets[idx]
            total = 0
            for o1 in {None} | set(rem1):
                v1, l1 = o1 if o1 else (0, 0)
                for o2 in {None} | set(rem2):
                    v2, l2 = o2 if o2 else (0, 0)
                    if v1 + v2 != gamma or (1 if l1 else 0) + (1 if l2 else 0) != (1 if circ else 0):
                        continue
                    nr1, nr2 = drop(rem1, o1), drop(rem2, o2)
                    sub = count(idx + 1, nr1, nr2)
                    lab = l1 or l2
                    if lab and sum(1 for _, x in nr1 + nr2 if 0 < x < lab) & 1:
                        sub = -sub
                    total += sub
            memo[state] = total
        return memo[state]

    return count(0, labeled(a, 1), labeled(b, a.fermionic_degree + 1))


def test_product_matches_the_per_target_walk():
    # every ordered pair of total degree <= 6 and fermionic degree <= 4
    labels = [la for n in range(7) for m in range(5) for la in enumerate_superpartitions(n, m)]
    pairs = [
        (a, b) for a in labels for b in labels
        if a.degree + b.degree <= 6 and a.fermionic_degree + b.fermionic_degree <= 4
    ]
    assert len(pairs) == 2539
    for a, b in pairs:
        x = mono_product(a, b)
        block = _block(x.n, x.m)
        want = {g: fillings_per_target(a, b, g) for g in block}
        assert x.coeffs == {g: c for g, c in want.items() if c}, (a, b)
        # the keys are the block's own labels, the values signed counts, as int
        ids = {id(g) for g in block}
        assert all(id(g) in ids for g in x.coeffs), (a, b)
        assert all(type(c) is int for c in x.coeffs.values()), (a, b)


def test_product_table_contains_worked_entries():
    x = mono_product(sp("(1,0;1)"), sp("(0;2,1,1)"))
    assert x.get(sp("(2,1,0;1,1,1)")) == -3
    assert x.get(sp("(3,1,0;1,1)")) == 1


def test_structure_constants_supersymmetry():
    cases = []
    for na, ma in product(range(3), range(3)):
        if na < ma * (ma - 1) // 2:
            continue
        for nb, mb in product(range(3), range(3)):
            if nb < mb * (mb - 1) // 2:
                continue
            cases.append((na, ma, nb, mb))
    for na, ma, nb, mb in cases:
        for a in enumerate_superpartitions(na, ma):
            for b in enumerate_superpartitions(nb, mb):
                fwd = mono_product(a, b)
                bwd = mono_product(b, a).scale((-1) ** (ma * mb))
                assert fwd == bwd, (a, b)


def test_fillings_match_engine_on_small_blocks():
    for na, ma in ((0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (1, 2)):
        for nb, mb in ((1, 0), (2, 0), (0, 1), (2, 1)):
            for a in enumerate_superpartitions(na, ma):
                for b in enumerate_superpartitions(nb, mb):
                    n, m = na + nb, ma + mb
                    engine = monomial(a, n + m, strict=False) * monomial(b, n + m, strict=False)
                    assert mono_product(a, b) == expand_in_monomials(engine, (n, m)), (a, b)


# -- basis changes ------------------------------------------------------------------


def test_elementary_degree_two_in_power_sums():
    # 2 e_2 = p_1^2 - p_2, so both coefficients carry a half
    x = change_basis(unit("e", "(;2)"), "p")
    assert x == BasisExpansion(
        "p", 2, 0, {sp("(;2)"): Fraction(-1, 2), sp("(;1,1)"): Fraction(1, 2)}
    )


def test_power_sum_square_identity():
    # p_2 = e_1^2 - 2 e_2 complements the previous expansion
    x = change_basis(unit("p", "(;2)"), "e")
    assert x == BasisExpansion(
        "e", 2, 0, {sp("(;2)"): Fraction(-2), sp("(;1,1)"): Fraction(1)}
    )


def test_identity_conversion_is_noop():
    x = unit("h", "(1,0;2)")
    assert change_basis(x, "h") == x


def test_round_trip_all_basis_pairs():
    bases = ("m", "e", "h", "p")
    for n in range(4):
        for m in range(3):
            if n < m * (m - 1) // 2:
                continue
            for la in enumerate_superpartitions(n, m):
                for src, dst in product(bases, bases):
                    x = BasisExpansion.unit(src, la)
                    assert change_basis(change_basis(x, dst), src) == x, (la, src, dst)


def test_conversion_agrees_with_engine_expansion():
    for la in enumerate_superpartitions(3, 1):
        x = change_basis(BasisExpansion.unit("e", la), "m")
        assert x == expand_in_monomials(basis_element("e", la, 5))


# -- recursions, determinants, triangularity -------------------------------------------


def test_recursions_pass():
    rep = verify_recursions(4)
    assert rep["pass"] is True, rep
    assert rep["first_failure"] is None


@pytest.mark.parametrize("which", DETERMINANT_KINDS)
def test_determinants_match_constructions(which):
    for n in range(_FIRST_N[which], 4):
        rep = determinant_formulas(n, which)
        assert rep["pass"] is True, rep


# -- the omega images, held against the statements written out by hand --------------


def families(top, nv):
    """e, te, h, th, p, tp at degrees 0..top, straight from the constructors."""
    gens = (elementary, elementary_tilde, complete, complete_tilde, powersum, powersum_tilde)
    return [[gen(k, nv) for k in range(top + 1)] for gen in gens]


def weighted(pair):
    """The polynomial w * X that a pair (w, X) of _generators stands for."""
    w, poly = pair
    return poly.scale(w)


def restricted(f, quotient):
    """f in the quotient (bases._quotient): its terms at D's keys on the
    sectors inside the mask, in the quotient's ell variables."""
    ell, by_degree, mask = quotient
    divisors = {key for keys in by_degree.values() for key in keys}
    return SuperPolynomial(ell, {
        mb: {k: c for k, c in terms.items() if k in divisors}
        for mb, terms in f.blocks.items() if not mb & ~mask
    })


def image_by_hand(which, n, nv):
    """The image determinant of each kind as written out by hand:
    (first row, entry(i, j), subdiag(l), target)."""
    size = n + 1 - _FIRST_N[which]
    e, te, h, th, p, tp = families(size, nv)
    zero = SuperPolynomial.zero(nv)
    fact = math.factorial(n)
    sign = lambda k: -1 if k % 2 else 1  # (-1)^k, an int also for k < 0

    def band(fam):
        return lambda i, j: fam[j - i + 1] if j - i + 1 >= 0 else zero

    def signed_band(fam):
        return lambda i, j: fam[j - i + 1].scale(sign(j - i)) if j - i + 1 >= 0 else zero

    def weighted(fam):
        return lambda i, j: fam[j - i + 1].scale(n + j - 2 * i + 3) if j - i + 1 >= 0 else zero

    one = lambda l: 1
    return {
        "e_in_h": ([e[j] for j in range(1, n + 1)], band(e), one, h[n]),
        "etilde_in_h": (
            [te[j - 1] for j in range(1, n + 2)], weighted(e), lambda l: n - l + 1,
            th[n].scale(fact),
        ),
        "p_in_e": ([h[j].scale(j) for j in range(1, n + 1)], band(h), one, p[n].scale(sign(n - 1))),
        "ptilde_in_e": ([th[j - 1] for j in range(1, n + 2)], band(h), one, tp[n].scale((-1) ** n)),
        "e_in_p": (
            [p[j].scale((-1) ** (j - 1)) for j in range(1, n + 1)], signed_band(p), lambda l: l,
            h[n].scale(fact),
        ),
        "etilde_in_p": (
            [tp[j - 1].scale((-1) ** (j - 1)) for j in range(1, n + 2)], signed_band(p),
            lambda l: n - l + 1, th[n].scale(fact),
        ),
    }[which]


@pytest.mark.parametrize("which", DETERMINANT_KINDS)
def test_determinant_images_match_the_hand_written_ones(which):
    # compared in the quotient that determinant_formulas builds its generators in
    for n in range(_FIRST_N[which], 5):
        nv = n + 2
        quotient = bases_module._quotient([(n, int("tilde" in which))], nv)
        gen = _generators(quotient)
        poly = lambda term: weighted(gen(term))
        in_quotient = lambda f: restricted(f, quotient)
        (name, size, row1, entry, subdiag, target), = _determinant_cases(which, n)[1:]
        want_row1, want_entry, want_subdiag, want_target = image_by_hand(which, n, nv)
        assert name == "image" and size == len(want_row1)
        assert [poly(a) for a in row1] == [in_quotient(f) for f in want_row1], (n, "row 1")
        for i in range(2, size + 1):
            for j in range(i - 1, size + 1):
                assert poly(entry(i, j)) == in_quotient(want_entry(i, j)), (n, i, j)
        assert [subdiag(l) for l in range(1, size)] == [want_subdiag(l) for l in range(1, size)]
        assert poly(target) == in_quotient(want_target), (n, "target")


def recursion_images_by_hand(n, nv):
    """The r-th summands and the target of the two image recursions as
    written out by hand: n e_n from p and (n+1) te_n."""
    e, te, h, th, p, tp = families(n, nv)
    zero = SuperPolynomial.zero(nv)
    return {
        "n e_n from p convolution": (
            [(p[r] * e[n - r]).scale((-1) ** (r + 1)) if r else zero for r in range(n + 1)],
            e[n].scale(n),
        ),
        "(n+1) te_n convolution": (
            [
                (p[r] * te[n - r] - (tp[r] * e[n - r]).scale(r + 1)).scale((-1) ** (r + 1))
                for r in range(n + 1)
            ],
            te[n].scale(n + 1),
        ),
    }


def test_recursion_images_match_the_hand_written_ones():
    images = [stated for stated in _RECURSIONS if len(stated[0]) == 2]
    assert [names[1] for names, *_ in images] == list(recursion_images_by_hand(1, 3))
    for n in range(5):
        nv = n + 2
        # compared in the quotient that verify_recursions builds its generators in
        quotient = bases_module._quotient([(n, 0), (n, 1)], nv)
        gen = _generators(quotient)
        poly = lambda term: weighted(gen(term))
        in_quotient = lambda f: restricted(f, quotient)
        by_hand = recursion_images_by_hand(n, nv)
        for (_, image), first_n, products, target in images:
            if n < first_n:
                continue
            summands, want_target = by_hand[image]
            for r in range(n + 1):
                got = SuperPolynomial.zero(quotient[0])
                for left, right in products(n, r):
                    got = got + poly(_omega(left)) * poly(_omega(right))
                assert in_quotient(got) == in_quotient(summands[r]), (image, n, r)
            assert poly(_omega(target(n))) == in_quotient(want_target), (image, n)


def flip_where(predicate):
    real = engine_checks.omega_sign
    return lambda label: -real(label) if predicate(label) else real(label)


@pytest.mark.parametrize(
    "flipped, failing",
    [
        (lambda label: label.a, {"ptilde_in_e", "etilde_in_p"}),
        (lambda label: label.s, {"p_in_e", "e_in_p", "etilde_in_p"}),
    ],
    ids=["tilde power sums", "plain power sums"],
)
def test_a_wrong_omega_sign_fails_the_image_checks(monkeypatch, flipped, failing):
    monkeypatch.setattr(engine_checks, "omega_sign", flip_where(flipped))
    failed = set()
    for which in DETERMINANT_KINDS:
        for n in range(_FIRST_N[which], 5):
            failure = determinant_formulas(n, which)["first_failure"]
            if failure is not None:
                assert failure == f"{which} image determinant differs at n={n}, N={n + 2}"
                failed.add(which)
    assert failed == failing


def test_a_wrong_omega_sign_fails_the_image_recursions(monkeypatch):
    monkeypatch.setattr(engine_checks, "omega_sign", lambda label: 1)
    assert verify_recursions(3)["first_failure"] == "n=1: (n+1) te_n convolution fails at N=5"
    monkeypatch.setattr(engine_checks, "omega_sign", flip_where(lambda label: label.s))
    assert verify_recursions(3)["first_failure"] == "n=1: n e_n from p convolution fails at N=5"


def test_determinant_kind_validation():
    with pytest.raises(ValueError):
        determinant_formulas(2, "nonsense")


@pytest.mark.parametrize(
    "call, argument",
    [
        (lambda: determinant_formulas(3, "e_in_h", nvars=0), "nvars"),
        (lambda: determinant_formulas(3, "e_in_h", nvars=2.5), "nvars"),
        (lambda: determinant_formulas(3, "e_in_h", nvars=True), "nvars"),
        (lambda: determinant_formulas(True, "e_in_h"), "n"),
        (lambda: determinant_formulas(2.0, "etilde_in_p"), "n"),
        (lambda: verify_recursions(True), "n_max"),
        (lambda: verify_recursions(2.0), "n_max"),
    ],
    ids=["nvars=0", "nvars=2.5", "nvars=True", "n=True", "n=2.0", "n_max=True", "n_max=2.0"],
)
def test_identity_checks_reject_sizes_that_are_not_ints_in_range(call, argument):
    # with no variable no label is read, so nvars=0 would pass having checked nothing;
    # a bool would run as 0 or 1
    with pytest.raises(ValueError, match=rf"^{argument} must be an int"):
        call()


def test_one_variable_is_a_real_determinant_check(monkeypatch):
    # (3) is the one label read with one variable
    assert determinant_formulas(3, "e_in_h", nvars=1)["pass"] is True
    monkeypatch.setitem(bases_module._FORMS, *scaled("complete", 3)[1])
    assert determinant_formulas(3, "e_in_h", nvars=1)["pass"] is False


# -- canonical reads against the whole-polynomial comparison ----------------------------


def unpruned(nv):
    """The map from a generator term (w, family, k) to w X_k, built whole in
    nv variables, uncached, from the closed form that bases._FORMS holds now."""
    return lambda term: bases_module._generator(term[1], term[2], nv).scale(term[0])


def built_recursions(n_max):
    """(failure message, whether it holds) per recursion sum in the order
    verify_recursions reads them, each side built whole from the unpruned
    generators with * and linear_combination and compared: the oracle that
    verify_recursions' canonical reads in the quotient are held against."""
    nv, out = n_max + 2, []
    poly = unpruned(nv)
    for n in range(n_max + 1):
        for names, first_n, products, target in _RECURSIONS:
            for name, to in zip(names, (lambda term: term, _omega)) if n >= first_n else ():
                total = SuperPolynomial.linear_combination(nv, [
                    (1, poly(to(left)) * poly(to(right)))
                    for r in range(n + 1) for left, right in products(n, r)
                ])
                out.append((f"n={n}: {name} fails at N={nv}", total == poly(to(target(n)))))
    return out


def built_minors(n, which, nv):
    """(name, minors 0..size, target) per case of a determinant kind, each
    minor built whole from the unpruned generators with * and
    linear_combination by the leading-minor recursion."""
    poly, out = unpruned(nv), []
    for name, size, row1, entry, subdiag, target in _determinant_cases(which, n):
        minors = [SuperPolynomial.one(nv)]
        for k in range(1, size + 1):
            summands, sdp = [], 1
            for i in range(k, 0, -1):
                a_ik = poly(row1[k - 1] if i == 1 else entry(i, k))
                summands.append((sdp if (k - i) % 2 == 0 else -sdp, a_ik * minors[i - 1]))
                if i > 1:
                    sdp *= subdiag(i - 1)
            minors.append(SuperPolynomial.linear_combination(nv, summands))
        out.append((name, minors, poly(target)))
    return out


def built_determinants(n, which, nv):
    """(failure message, whether it holds) per case of a determinant kind,
    each determinant built whole (built_minors) and compared with its target."""
    return [
        (f"{which} {name} determinant differs at n={n}, N={nv}", minors[-1] == target)
        for name, minors, target in built_minors(n, which, nv)
    ]


def first_failure(verdicts):
    return next((message for message, holds in verdicts if not holds), None)


# the family of each generator constructor, as bases._FORMS names it
FAMILIES = {
    "elementary": "e", "elementary_tilde": "te", "complete": "h",
    "complete_tilde": "th", "powersum": "p", "powersum_tilde": "tp",
}


def scaled(name, k, factor=2):
    """(name, the bases._FORMS item with the closed form of the generator
    bases.name scaled at degree k, k)."""
    family = FAMILIES[name]
    real = bases_module._FORMS[family]
    return name, (family, lambda i, v: real(i, v) * factor if len(v) == k else real(i, v)), k


# one generator scaled at a time, so that some identities fail
SCALINGS = [None] + [
    scaled(name, k)
    for name in ("elementary", "elementary_tilde", "complete", "complete_tilde", "powersum", "powersum_tilde")
    for k in (1, 2)
]


@pytest.mark.parametrize("scaling", SCALINGS, ids=lambda s: "none" if s is None else f"{s[0]}{s[2]}")
def test_canonical_reads_give_the_whole_polynomial_verdicts(monkeypatch, scaling):
    """Every identity read at the canonical terms, in the quotient of its
    reads, gets the verdict of the sum built whole from the unpruned
    generators, per identity and in both the primal and the image; and
    the reports name the oracle's first failure."""
    if scaling is not None:
        monkeypatch.setitem(bases_module._FORMS, *scaling[1])
    real = engine_checks._vanishes
    reads = []

    def recorded(summands, n, m, nvars):
        reads.append(real(summands, n, m, nvars))
        return True  # read on, so that every identity is compared

    monkeypatch.setattr(engine_checks, "_vanishes", recorded)
    verify_recursions(4)
    built = built_recursions(4)
    for which in DETERMINANT_KINDS:
        for n in range(_FIRST_N[which], 5):
            determinant_formulas(n, which)
            built += built_determinants(n, which, n + 2)
    # 27 recursion sums (four identities, two with an image) and 27 determinants, each twice
    assert len(reads) == len(built) == 4 + 2 * 4 + 5 + 2 * 5 + 2 * (4 + 5 + 4 + 5 + 4 + 5)
    assert reads == [holds for _, holds in built], built
    # every scaling breaks some identity, so the agreement is not vacuous
    assert all(reads) == (scaling is None)
    monkeypatch.setattr(engine_checks, "_vanishes", real)
    for n_max in range(1, 5):
        assert verify_recursions(n_max)["first_failure"] == first_failure(built_recursions(n_max))
    for which in DETERMINANT_KINDS:
        for n in range(_FIRST_N[which], 5):
            assert determinant_formulas(n, which)["first_failure"] == first_failure(built_determinants(n, which, n + 2))


def with_term(name, k, var):
    """The bases._FORMS item with the closed form of the generator bases.name
    plus x_var^k at degree k (times t_var for a tilde family)."""
    family = FAMILIES[name]
    real = bases_module._FORMS[family]
    return family, lambda i, v: real(i, v) + (len(v) == v.count(var - 1) == k and i in (None, var - 1))


def with_built_term(families, k, hits):
    """bases._generator with each degree-k build of the families, in its
    ring's nvars variables (ell for a quotient), widened by one and plus x_v^k
    (times t_v for a tilde family), v = nvars + 1: added after the build, so
    the term reaches whatever the build feeds.  Each such build's nvars is
    appended to hits."""
    real = bases_module._generator

    def fake(fam, n, ring):
        built = real(fam, n, ring)
        assert built.nvars == (ring[0] if isinstance(ring, tuple) else ring)
        if fam not in families or n != k:
            return built
        hits.append(built.nvars)
        v = built.nvars + 1
        return built.widen(v) + SuperPolynomial.term(v, 1, {v: n}, thetas=(v,) if fam[0] == "t" else ())

    return fake


def identity_reads(monkeypatch):
    """Every coefficient read (_product_read) by verify_recursions(4) and by
    each determinant kind with n <= 4, and the first failures reported."""
    real, reads = engine_checks._product_read, []
    monkeypatch.setattr(engine_checks, "_product_read", lambda *args: reads.append(real(*args)) or reads[-1])
    reports = [verify_recursions(4)] + [
        determinant_formulas(n, which) for which in DETERMINANT_KINDS for n in range(_FIRST_N[which], 5)
    ]
    monkeypatch.setattr(engine_checks, "_product_read", real)
    return reads, [rep["first_failure"] for rep in reports]


@pytest.mark.parametrize("name", ["elementary", "complete_tilde", "powersum"])
def test_a_term_outside_the_quotient_changes_no_read(monkeypatch, name):
    """A term that divides no read key, here one added to each built
    generator on x_{ell+1}, past every label read (ell the quotient's longest
    label), reaches no read: reading into the quotient drops it.  The same
    term on x_1 in the closed form, inside the quotient, flips a verdict, so
    the test is not vacuous."""
    want = identity_reads(monkeypatch)
    assert set(want[1]) == {None}
    with monkeypatch.context() as mp:
        hits = []
        mp.setattr(bases_module, "_generator", with_built_term({FAMILIES[name]}, 2, hits))
        assert identity_reads(mp) == want
        assert hits
    with monkeypatch.context() as mp:
        mp.setitem(bases_module._FORMS, *with_term(name, 2, 1))
        assert set(identity_reads(mp)[1]) != {None}


def test_determinant_factors_lie_in_the_quotient_of_their_reads(monkeypatch):
    # every generator and minor that reaches a read divides a canonical key
    # of the block, on the sectors inside t_1..t_m: each is built or read in
    # the quotient, and nothing filters after a build
    real, seen = engine_checks._vanishes, []
    monkeypatch.setattr(engine_checks, "_vanishes", lambda *args: seen.append(args) or real(*args))
    for which in DETERMINANT_KINDS:
        for n in range(_FIRST_N[which], 6):
            assert determinant_formulas(n, which, nvars=7)["pass"] is True
    assert len(seen) == 2 * (5 + 6 + 5 + 6 + 5 + 6)
    for summands, n, m, nvars in seen:
        keys = bases_module._canonical_reads(n, m, nvars)[1]
        for _, f, g in summands:
            for mask, terms in [*f.blocks.items(), *g.blocks.items()]:
                assert not mask >> m, (n, m, mask)
                assert all(any(all((d >> o & 0xFFFF) <= (k >> o & 0xFFFF) for o in range(0, 16 * nvars, 16))
                               for k in keys) for d in terms), (n, m)


def test_minors_read_into_the_quotient_are_the_whole_minors_kept_there(monkeypatch):
    # each minor below the last level, read (_read_into) for every kind with
    # n <= 6, against the same minor built whole and then restricted
    real, read, compared = engine_checks._read_into, [], 0
    monkeypatch.setattr(engine_checks, "_read_into", lambda *args: read.append((args[1], real(*args))) or read[-1][1])
    for which in DETERMINANT_KINDS:
        for n in range(_FIRST_N[which], 7):
            del read[:]
            assert determinant_formulas(n, which)["pass"] is True
            whole = [minor for _, minors, _ in built_minors(n, which, n + 2) for minor in minors[1:-1]]
            assert len(read) == len(whole), (which, n)
            for (quotient, got), minor in zip(read, whole):
                assert got == restricted(minor, quotient), (which, n)
                compared += not got.is_zero()
    # 2 cases per n, size - 1 minors each: none of them vanishes in the quotient
    assert compared == 2 * sum(n - _FIRST_N[which] for which in DETERMINANT_KINDS for n in range(_FIRST_N[which], 7))


def test_a_read_into_the_quotient_is_exact_for_inhomogeneous_summands():
    # mixed degrees and sectors on both sides, a term outside D included
    quotient = bases_module._quotient([(3, 0), (3, 1), (4, 1)], 5)
    ell = quotient[0]
    e, te, h, th, p, tp = families(4, ell)
    outside = SuperPolynomial.term(ell, 5, {1: 9})
    summands = [
        (1, e[1] + th[2] + SuperPolynomial.one(ell), h[2] + tp[1] + p[3]),
        (-3, te[0] + outside + h[1], e[2] + th[1] + SuperPolynomial.one(ell)),
        (2, tp[2] + p[1], te[1] + h[0] + outside),
    ]
    whole = SuperPolynomial.linear_combination(ell, [(c, a * b) for c, a, b in summands])
    got = engine_checks._read_into(summands, quotient)
    assert got == restricted(whole, quotient)
    assert {mb for mb in got.blocks} == {0, 1} and len({k % 0xFFFF for k in got.blocks[0]}) > 1


@pytest.mark.parametrize("wrapped", [False, True], ids=["plain", "behind wrappers"])
def test_identity_checks_leave_the_generator_caches_cold(monkeypatch, wrapped):
    # each check builds its generators for the call alone, below the caches
    # and below functools.wraps wrappers such as a tracer puts in bases._GENERATORS
    caches = [f for pair in bases_module._GENERATORS.values() for f in pair] + [bases_module.multiplicative]
    for f in caches:
        f.cache_clear()
    if wrapped:
        wrap = lambda f: functools.wraps(f)(lambda *args: f(*args))
        for basis, pair in list(bases_module._GENERATORS.items()):
            monkeypatch.setitem(bases_module._GENERATORS, basis, tuple(wrap(f) for f in pair))
    assert verify_recursions(6)["pass"] is True
    for which in DETERMINANT_KINDS:
        for n in range(_FIRST_N[which], 6):
            assert determinant_formulas(n, which, nvars=7)["pass"] is True
    assert [f.cache_info().currsize for f in caches] == [0] * 7


@pytest.mark.parametrize("gen", [elementary, elementary_tilde, complete, complete_tilde, powersum, powersum_tilde])
def test_generators_are_symmetric(gen):
    # the premise of the canonical reads: sums of their products are symmetric
    for k in range(7):
        assert gen(k, 8).is_symmetric(), (gen.__name__, k)


def test_recursions_build_no_product_and_no_sum(monkeypatch):
    # the generators are built within the call; building them multiplies nothing either
    def boom(*args, **kwargs):
        raise AssertionError("a polynomial product or sum was built")

    monkeypatch.setattr(SuperPolynomial, "_mul", boom)
    monkeypatch.setattr(SuperPolynomial, "linear_combination", classmethod(boom))
    assert verify_recursions(4)["pass"] is True


def test_degrees_past_the_exponent_field_raise():
    # the canonical reads need every exponent below 2^15; nothing is built first
    with pytest.raises(ValueError, match=r"^n_max must be an int with 1 <= n_max <= 32767, got 32768$"):
        verify_recursions(1 << 15)
    for which in DETERMINANT_KINDS:
        with pytest.raises(ValueError, match=r"^n must be an int with [01] <= n <= 32767, got 32768$"):
            determinant_formulas(1 << 15, which)


def test_triangular_expansion_of_arrowed_elementary():
    rep = triangularity(4)
    assert rep["pass"] is True, rep
    assert rep["first_failure"] is None
    assert isinstance(rep["nonneg_surmise_holds"], bool)


def test_arrowed_elementary_leading_term_by_hand():
    # direct spot check on one block: coefficient of m_{la'} is 1 and the
    # rest of the support sits strictly below it
    la = sp("(1,0;2)")
    f = basis_element("e", la, 6, arrowed=True)
    x = expand_in_monomials(f)
    conj = la.conjugate()
    assert x.get(conj) == 1
    for om, c in x.coeffs.items():
        assert c.denominator == 1
        if om != conj:
            assert bruhat_leq(om, conj) and om != conj
