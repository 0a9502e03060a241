"""Monomial expansions, the signed filling rule, and basis conversions."""

import json
from fractions import Fraction
from itertools import product

import pytest

from supersym.superpartition import SuperPartition, bruhat_leq, enumerate_superpartitions
from supersym.superpoly import SuperPolynomial
from supersym.bases import basis_element, complete_tilde, elementary_tilde, monomial
from supersym.transform import (
    DETERMINANT_KINDS,
    BasisExpansion,
    change_basis,
    determinant_formulas,
    expand_in_monomials,
    mono_product,
    mono_product_fillings,
    _block_matrix,
    _det_fraction,
    triangularity,
    verify_recursions,
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
    start = 0 if which.startswith(("etilde", "ptilde")) else 1
    for n in range(start, 4):
        rep = determinant_formulas(n, which)
        assert rep["pass"] is True, rep


def test_determinant_kind_validation():
    with pytest.raises(ValueError):
        determinant_formulas(2, "nonsense")


def test_triangular_expansion_of_arrowed_elementary():
    rep = triangularity(4)
    assert rep["pass"] is True, rep
    assert rep["first_failure"] is None
    assert isinstance(rep["nonneg_surmise_holds"], bool)


def test_determinant_of_integer_matrices_is_exact():
    # the engine's block matrices hold int entries; elimination must not
    # fall back to float division
    det = _det_fraction(((3, 1), (1, 1)))
    assert det == 2 and type(det) is Fraction
    det = _det_fraction(_block_matrix("p", 4, 1))
    assert type(det) is Fraction and det != 0


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
