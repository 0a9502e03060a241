"""Acceptance gate: ten exact end-to-end checks, each printing one line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every comparison is exact rational arithmetic; the timed criteria
assert their budgets.
"""

import time
from fractions import Fraction
from itertools import product

from supersym.superpartition import (
    SuperPartition,
    bruhat_leq,
    count_check,
    dominance_leq,
    enumerate_superpartitions,
    orders_check,
)
from supersym.bases import generating_check, monomial
from supersym.transform import (
    DETERMINANT_KINDS,
    BasisExpansion,
    change_basis,
    determinant_formulas,
    expand_in_monomials,
    mono_product,
    mono_product_fillings,
    triangularity,
    verify_recursions,
)
from supersym.engine_checks import _FIRST_N
from supersym.inner import dual_bases_check, kernel_check, omega, reproducing_check, scalar_product

import random


def sp(text):
    return SuperPartition.parse(text)


def _finish(num, label, t0, ok, budget=None):
    dt = time.monotonic() - t0
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} ({dt:.2f}s)")
    assert ok, f"criterion {num} ({label}) failed"
    if budget is not None:
        assert dt < budget, f"criterion {num} took {dt:.1f}s, budget {budget}s"


def blocks(n_max, m_max):
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            if n >= m * (m - 1) // 2 and enumerate_superpartitions(n, m):
                yield n, m


def test_criterion_01_worked_examples():
    t0 = time.monotonic()
    ok = sp("(5,2,1,0;6,5,5,2,2,1)").star() == (6, 5, 5, 5, 2, 2, 2, 1, 1)

    big = sp("(3,1,0;4,3,2,1)")
    d = big.circled_diagram()
    ok = ok and d.rows == (4, 3, 3, 2, 1, 1, 0) and d.circled == frozenset({1, 4, 6})
    ok = ok and big.shape_circled() == (4, 4, 3, 2, 2, 1, 1)
    ok = ok and big.conjugate() == sp("(6,4,1;3)")

    got = [x.to_text() for x in enumerate_superpartitions(3, 2)]
    ok = ok and sorted(got) == sorted(["(3,0;)", "(2,1;)", "(2,0;1)", "(1,0;2)", "(1,0;1,1)"])

    a, b = sp("(1,0;1)"), sp("(0;2,1,1)")
    ok = ok and mono_product_fillings(a, b, sp("(2,1,0;1,1,1)")) == -3
    ok = ok and mono_product_fillings(a, b, sp("(3,1,0;1,1)")) == 1

    # 2 e_2 = p_1^2 - p_2 (sanity at one variable: 0 = x^2 - x^2), so the
    # p-expansion of e_2 carries a half on both coefficients
    e2 = change_basis(BasisExpansion.unit("e", sp("(;2)")), "p")
    ok = ok and e2 == BasisExpansion(
        "p", 2, 0, {sp("(;2)"): Fraction(-1, 2), sp("(;1,1)"): Fraction(1, 2)}
    )

    u, v = sp("(4,3,0;5,3,2,1)"), sp("(5,2,1;4,3,3)")
    ok = ok and not bruhat_leq(u, v) and not bruhat_leq(v, u)
    ok = ok and dominance_leq(u, v)

    _finish(1, "worked examples reproduce exactly", t0, ok, budget=1.0)


def test_criterion_02_filling_rule_matches_engine():
    t0 = time.monotonic()
    ok = True
    pairs = 0
    for na, ma in blocks(5, 3):
        for nb, mb in blocks(5, 3):
            n, m = na + nb, ma + mb
            if n > 5 or m > 3:
                continue
            nvars = n + m
            for a in enumerate_superpartitions(na, ma):
                fa = monomial(a, nvars, strict=False)
                for b in enumerate_superpartitions(nb, mb):
                    fb = monomial(b, nvars, strict=False)
                    rule = mono_product(a, b)
                    engine = expand_in_monomials(fa * fb, (n, m))
                    pairs += 1
                    if rule != engine:
                        ok = False
    ok = ok and pairs > 1000
    _finish(2, f"filling rule equals engine expansion on {pairs} pairs", t0, ok, budget=120.0)


def test_criterion_03_triangularity():
    t0 = time.monotonic()
    rep = triangularity(6)
    _finish(3, "arrowed e-expansions are unitriangular in the order", t0, rep["pass"], budget=120.0)


def test_criterion_04_recursions():
    t0 = time.monotonic()
    rep = verify_recursions(6)
    _finish(4, "all six convolution recursions hold for n <= 6", t0, rep["pass"])


def test_criterion_05_determinants():
    t0 = time.monotonic()
    ok = True
    for which in DETERMINANT_KINDS:
        for n in range(_FIRST_N[which], 7):
            rep = determinant_formulas(n, which, nvars=8)
            if not rep["pass"]:
                ok = False
    _finish(5, "determinant formulas and their images hold at N=8", t0, ok)


def test_criterion_06_generating_series():
    t0 = time.monotonic()
    ok = True
    for kind in ("E", "H", "P", "HE", "HP", "EP"):
        rep = generating_check(kind, 4, 5)
        if not rep["pass"]:
            ok = False
    _finish(6, "E/H/P series, product and differential relations", t0, ok)


def test_criterion_07_duality_and_involution():
    t0 = time.monotonic()
    ok = True
    rng = random.Random(12)
    for n, m in blocks(5, 3):
        if not dual_bases_check(n, m, "p", "p/z"):
            ok = False
        if not dual_bases_check(n, m, "h", "m"):
            ok = False
        block = enumerate_superpartitions(n, m)
        for la in block:
            x = BasisExpansion.unit("e", la)
            if omega(omega(x)) != x:
                ok = False
        f = BasisExpansion("m", n, m, {la: Fraction(rng.randrange(-3, 4)) for la in block})
        g = BasisExpansion("m", n, m, {la: Fraction(rng.randrange(-3, 4)) for la in block})
        if scalar_product(omega(f), omega(g)) != scalar_product(f, g):
            ok = False
    _finish(7, "orthogonality, duality, and the involution isometry", t0, ok)


def test_criterion_08_cauchy_kernels():
    t0 = time.monotonic()
    ok = kernel_check(5, 4)["pass"] and reproducing_check(5, 3)["pass"]
    _finish(8, "kernel expansions match the product to degree 4 at N=5", t0, ok, budget=300.0)


def test_criterion_09_counting():
    t0 = time.monotonic()
    rep = count_check(12)
    _finish(9, "enumeration matches the two-parameter q-series to n=12", t0, rep["pass"], budget=10.0)


def test_criterion_10_order_properties():
    t0 = time.monotonic()
    rep = orders_check(6)
    _finish(10, "anti-conjugation and order implication, exhaustive to n=6", t0, rep["pass"])
