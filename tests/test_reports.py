"""The verification reports: one shape, exact failure messages, no silent passes.

Each failure case breaks one ingredient of a check the way a real defect
would, then pins the whole report, so a refactor of the checks cannot change
a message, a key or the order of the params.
"""

import json
import re
from fractions import Fraction

import pytest

from supersym import bases, engine_checks, inner, superpartition
from supersym.bases import generating_check
from supersym.cli import main
from supersym.engine_checks import determinant_formulas, triangularity, verify_recursions
from supersym.inner import kernel_check, reproducing_check
from supersym.superpartition import SuperPartition, count_check, orders_check


def sp(text):
    return SuperPartition.parse(text)


def scaled_at(module, name, k, factor):
    """Replace generator module.name by one whose degree-k element is scaled."""
    real = getattr(module, name)
    return lambda n, nvars: real(n, nvars).scale(factor) if n == k else real(n, nvars)


def scaled_form(family, k, factor):
    """Replace the closed form of a generator family by one scaled at degree k."""
    real = bases._FORMS[family]
    return lambda i, v: real(i, v) * factor if len(v) == k else real(i, v)


def duality_via_cli(n_max):
    def call(capsys):
        rc = main(["verify", "--suite", "duality", "--n-max", str(n_max), "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1 and out["pass"] is False and len(out["reports"]) == 1
        return out["reports"][0]

    return call


def _orders(mp):
    mp.setattr(superpartition, "dominance_leq", lambda x, y: x == y)


def _bruhat_antisymmetry(mp):
    # (3;1,1) is listed before (2;3) and lies below it in both orders, so the
    # refinement check passes on that pair before antisymmetry is asked
    real = superpartition.bruhat_leq
    mp.setattr(superpartition, "bruhat_leq", lambda x, y: real(x, y) or (x, y) == (sp("(2;3)"), sp("(3;1,1)")))


def _dominance_antisymmetry(mp):
    mp.setattr(superpartition, "dominance_leq", lambda x, y: True)


def _conjugation(mp):
    mp.setattr(SuperPartition, "conjugate", lambda self: self)


def _counting(mp):
    real = superpartition._series_coefficients

    def bumped(n_max):
        coeffs = dict(real(n_max))
        coeffs[1, 1, 3] += 1
        return coeffs

    mp.setattr(superpartition, "_series_coefficients", bumped)


def _generating_h(mp):
    mp.setitem(bases._GENERATORS, "h", (bases.complete, scaled_at(bases, "complete_tilde", 1, 2)))


def _generating_h_bosonic(mp):
    mp.setitem(bases._GENERATORS, "h", (scaled_at(bases, "complete", 1, 2), bases.complete_tilde))


def _generating_hp(mp):
    real = bases._series
    mp.setattr(bases, "_series", lambda kind, nvars, trunc: real(kind, nvars, trunc).scale(2 if kind == "P" else 1))


def _recursions(mp):
    mp.setitem(bases._FORMS, "th", scaled_form("th", 2, 2))


def _determinant(mp):
    mp.setitem(bases._FORMS, "h", scaled_form("h", 2, 3))


def _coefficients_of(target, edit, basis="e"):
    """_block_matrix with the column (of basis, e by default) of the label
    target, as a map from each label of its block to its coefficient,
    passed through edit."""
    real, target, edited = engine_checks._block_matrix, sp(target), basis

    def patched(basis, n, m):
        mat = real(basis, n, m)
        if (basis, (n, m)) != (edited, target.bidegree):
            return mat
        block = superpartition.enumerate_superpartitions(n, m)
        j = block.index(target)
        column = edit({cand: row[j] for cand, row in zip(block, mat)})
        return tuple(row[:j] + (column[cand],) + row[j + 1:] for cand, row in zip(block, mat))

    return patched


def _triangularity_fraction(mp):
    halve = lambda col: {cand: Fraction(c, 2) for cand, c in col.items()}
    mp.setattr(engine_checks, "_block_matrix", _coefficients_of("(1,0;1)", halve))


def _triangularity_leading(mp):
    double = lambda col: {cand: 2 * c for cand, c in col.items()}
    mp.setattr(engine_checks, "_block_matrix", _coefficients_of("(1;1)", double))


def _triangularity_leading_zero(mp):
    # with a zero leading coefficient the e matrix would be singular
    zero = lambda col: {**col, sp("(0;2)"): 0}
    mp.setattr(engine_checks, "_block_matrix", _coefficients_of("(1;1)", zero))


def _triangularity_support(mp):
    extra = lambda col: {**col, sp("(;3)"): Fraction(-1)}
    mp.setattr(engine_checks, "_block_matrix", _coefficients_of("(;2,1)", extra))


def _triangularity_singular(mp):
    zero = lambda col: {**col, sp("(1;1)"): 0}
    mp.setattr(engine_checks, "_block_matrix", _coefficients_of("(1;1)", zero, "p"))


def _triangularity_p_support(mp):
    lower = lambda col: {**col, sp("(2;)"): 0, sp("(0;1,1)"): col[sp("(2;)")]}
    mp.setattr(engine_checks, "_block_matrix", _coefficients_of("(1;1)", lower, "p"))


def _reproducing(mp):
    real = inner.z_weight
    mp.setattr(inner, "z_weight", lambda g: 2 * real(g) if g == sp("(1;)") else real(g))


def _duality(mp):
    mp.setattr(inner, "dual_bases_check", lambda n, m, u, v: (n, m, u) != (3, 1, "p"))


def _duality_hm(mp):
    mp.setattr(inner, "dual_bases_check", lambda n, m, u, v: (n, m, u) != (2, 1, "h"))


def _kernel(mp):
    mp.setattr(inner, "omega_sign", lambda g: 1)


def _kernel_skip(mp):
    mp.setattr(inner, "_gale_ryser", lambda la, om: False)


def report(check, params, failure, **extra):
    return {"check": check, "params": params, "pass": False, "first_failure": failure, **extra}


FAILURES = {
    "orders": (
        _orders, lambda c: orders_check(3),
        report("orders", {"n_max": 3}, "(0;1) <= (1;) in bruhat but not in dominance"),
    ),
    "orders-bruhat-antisymmetry": (
        _bruhat_antisymmetry, lambda c: orders_check(5),
        report("orders", {"n_max": 5}, "bruhat antisymmetry fails on (3;1,1), (2;3)"),
    ),
    "orders-dominance-antisymmetry": (
        _dominance_antisymmetry, lambda c: orders_check(3),
        report("orders", {"n_max": 3}, "dominance antisymmetry fails on (1;), (0;1)"),
    ),
    "orders-conjugation": (
        _conjugation, lambda c: orders_check(3),
        report("orders", {"n_max": 3}, "conjugation does not reverse bruhat on (1;), (0;1)"),
    ),
    "counting": (
        _counting, lambda c: count_check(4),
        report("counting", {"n_max": 4}, "n=3 m=1 p=1: enumeration gives 4, series gives 5"),
    ),
    "generating-H": (
        _generating_h, lambda c: generating_check("H", 2, 2),
        report(
            "generating-H", {"kind": "H", "trunc": 2, "nvars": 2},
            "fermionic t^1 coefficient differs",
        ),
    ),
    "generating-H-bosonic": (
        _generating_h_bosonic, lambda c: generating_check("H", 2, 2),
        report(
            "generating-H", {"kind": "H", "trunc": 2, "nvars": 2},
            "bosonic t^1 coefficient differs",
        ),
    ),
    "generating-HP": (
        _generating_hp, lambda c: generating_check("HP", 2, 2),
        report(
            "generating-HP", {"kind": "HP", "trunc": 2, "nvars": 2},
            "H P != (t d/dt + tau d/dtau) H",
        ),
    ),
    "recursions": (
        _recursions, lambda c: verify_recursions(3),
        report(
            "recursions", {"n_max": 3, "nvars": 5},
            "n=2: alternating mixed e-h convolution fails at N=5",
        ),
    ),
    "determinant": (
        _determinant, lambda c: determinant_formulas(2, "p_in_e"),
        report(
            "determinant-p_in_e", {"n": 2, "nvars": 4},
            "p_in_e image determinant differs at n=2, N=4",
        ),
    ),
    "triangularity-fraction": (
        _triangularity_fraction, lambda c: triangularity(3),
        report(
            "triangularity", {"n_max": 3},
            "e_(1,0;1): non-integer coefficient 1/2 on (2,0;)", nonneg_surmise_holds=True,
        ),
    ),
    "triangularity-leading": (
        _triangularity_leading, lambda c: triangularity(3),
        report(
            "triangularity", {"n_max": 3},
            "e_(1;1): coefficient on (0;2) is 2, not 1", nonneg_surmise_holds=True,
        ),
    ),
    "triangularity-leading-zero": (
        _triangularity_leading_zero, lambda c: triangularity(3),
        report(
            "triangularity", {"n_max": 3},
            "e_(1;1): coefficient on (0;2) is 0, not 1", nonneg_surmise_holds=True,
        ),
    ),
    "triangularity-support": (
        _triangularity_support, lambda c: triangularity(3),
        report(
            "triangularity", {"n_max": 3},
            "e_(;2,1): support (;3) not strictly below (;2,1)", nonneg_surmise_holds=False,
        ),
    ),
    "triangularity-singular": (
        _triangularity_singular, lambda c: triangularity(3),
        report(
            "triangularity", {"n_max": 3},
            "p_(1;1): coefficient on (1;1) is 0, not positive", nonneg_surmise_holds=True,
        ),
    ),
    "triangularity-p-support": (
        _triangularity_p_support, lambda c: triangularity(3),
        report(
            "triangularity", {"n_max": 3},
            "p_(1;1): support (0;1,1) not above (1;1)", nonneg_surmise_holds=True,
        ),
    ),
    "reproducing": (
        _reproducing, lambda c: reproducing_check(2, 3),
        report(
            "kernel-reproducing", {"nvars": 2, "max_degree": 3},
            "kernel pairing with m_(1;) does not reproduce it",
        ),
    ),
    "duality": (
        _duality, duality_via_cli(4),
        report("duality", {"n_max": 4}, "p-p/z duality fails on block (3|1)"),
    ),
    "duality-h-m": (
        _duality_hm, lambda c: inner.duality_check(3),
        report("duality", {"n_max": 3}, "h-m duality fails on block (2|1)"),
    ),
    "kernel": (
        _kernel, lambda c: kernel_check(2, 2),
        report(
            "kernel", {"nvars": 2, "degree": 2},
            "inverse product differs from the omega-signed p-p sum",
        ),
    ),
    "kernel-skip": (
        _kernel_skip, lambda c: kernel_check(2, 2),
        report(
            "kernel", {"nvars": 2, "degree": 2},
            "inverse product differs from the omega-signed p-p sum",
        ),
    ),
}


@pytest.mark.parametrize("case", list(FAILURES))
def test_failure_report(case, monkeypatch, capsys):
    patch, call, want = FAILURES[case]
    patch(monkeypatch)
    rep = call(capsys)
    assert list(rep) == list(want)
    assert list(rep["params"]) == list(want["params"])
    assert rep == want


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: triangularity(-1), "n_max must be an int >= 0, got -1"),
        (lambda: reproducing_check(3, -1), "max_degree must be an int >= 0, got -1"),
        (lambda: reproducing_check(0, 2), "nvars must be an int >= 1, got 0"),
    ],
    ids=["triangularity(-1)", "reproducing_check(3, -1)", "reproducing_check(0, 2)"],
)
def test_a_range_with_nothing_to_check_raises(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
