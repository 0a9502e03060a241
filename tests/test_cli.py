"""Command-line behavior: output forms, exit codes, round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import supersym
from supersym.cli import main
from supersym.superpartition import SuperPartition


@pytest.fixture(autouse=True)
def _no_format_from_shell(monkeypatch):
    """Keep a ``SUPERSYM_FORMAT`` exported by the caller out of the tests."""
    monkeypatch.delenv("SUPERSYM_FORMAT", raising=False)


def child_env(**overrides):
    """Environment for a ``python -m supersym.cli`` child process.

    Starts from ``os.environ`` and puts the directory holding the imported
    ``supersym`` first on ``PYTHONPATH``, so the child runs the same code as
    this process whether the package is installed or not.
    """
    env = dict(os.environ, **overrides)
    src = str(Path(supersym.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_conj(capsys):
    rc, out, _ = run(capsys, "conj", "(3,1,0;4,3,2,1)")
    assert rc == 0
    assert out.strip() == "(6,4,1;3)"


def test_list_order_and_round_trip(capsys):
    rc, out, _ = run(capsys, "list", "--n", "3", "--m", "2")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines == ["(3,0;)", "(2,1;)", "(2,0;1)", "(1,0;2)", "(1,0;1,1)"]
    for line in lines:
        assert SuperPartition.parse(line).to_text() == line


def test_list_json(capsys):
    rc, out, _ = run(capsys, "list", "--n", "0", "--m", "1", "--format", "json")
    data = json.loads(out)
    assert rc == 0
    assert data["superpartitions"] == [{"a": [0], "s": []}]


def test_order_reports_both_orders(capsys):
    rc, out, _ = run(capsys, "order", "(4,3,0;5,3,2,1)", "(5,2,1;4,3,3)")
    assert rc == 0
    assert "bruhat: (4,3,0;5,3,2,1) incomparable (5,2,1;4,3,3)" in out
    assert "dominance: (4,3,0;5,3,2,1) <= (5,2,1;4,3,3)" in out


def test_order_equal_input(capsys):
    rc, out, _ = run(capsys, "order", "(;2)", "(;2)")
    assert rc == 0
    assert out.count(" = ") == 2


def test_order_bidegree_mismatch_is_usage_error(capsys):
    rc, _, err = run(capsys, "order", "(;2)", "(;3)")
    assert rc == 2
    assert "bidegree" in err


def test_build_prints_header_and_polynomial(capsys):
    rc, out, _ = run(capsys, "build", "--basis", "m", "(0;)", "--nvars", "2")
    assert rc == 0
    assert out.splitlines() == ["# nvars=2", "1 * t1 + 1 * t2"]


def test_build_default_nvars_in_header(capsys):
    rc, out, _ = run(capsys, "build", "--basis", "e", "(;2)")
    assert rc == 0
    assert out.splitlines()[0] == "# nvars=2"


def test_build_arrow_flag(capsys):
    rc, plain, _ = run(capsys, "build", "--basis", "p", "(1,0;)", "--nvars", "2")
    rc2, arrowed, _ = run(capsys, "build", "--basis", "p", "(1,0;)", "--nvars", "2", "--arrow")
    assert rc == rc2 == 0
    p = plain.splitlines()[1]
    a = arrowed.splitlines()[1]
    assert p != a and p.replace("-", "") == a.replace("-", "")


def test_mult_contains_worked_coefficient(capsys):
    rc, out, _ = run(capsys, "mult", "--basis", "m", "(1,0;1)", "(0;2,1,1)")
    assert rc == 0
    assert "(2,1,0;1,1,1)  -3" in out.splitlines()


def test_mult_rejects_other_bases(capsys):
    rc, _, err = run(capsys, "mult", "--basis", "e", "(;1)", "(;1)")
    assert rc == 2
    assert "basis m" in err


def test_convert_text_and_json(capsys):
    rc, out, _ = run(capsys, "convert", "--from", "e", "--to", "p", "(;2)")
    assert rc == 0
    assert "(;2)  -1/2" in out and "(;1,1)  1/2" in out

    rc, out, _ = run(capsys, "convert", "--from", "e", "--to", "p", "(;2)", "--format", "json")
    data = json.loads(out)
    assert data["basis"] == "p"
    coeffs = {tuple(t["spar"]["s"]): t["coeff"] for t in data["terms"]}
    assert coeffs == {(2,): "-1/2", (1, 1): "1/2"}


def test_inner_value(capsys):
    rc, out, _ = run(capsys, "inner", "p:(;2)", "p:(;2)")
    assert rc == 0
    assert out.strip() == "2"


def test_inner_expression_syntax_errors(capsys):
    rc, _, err = run(capsys, "inner", "p(;2)", "p:(;2)")
    assert rc == 2
    assert "basis:spar" in err


def test_omega_applies_sign(capsys):
    rc, out, _ = run(capsys, "omega", "--basis", "p", "(3,0;1)")
    assert rc == 0
    assert "(3,0;1)  -1" in out


def test_malformed_superpartition_names_token(capsys):
    rc, _, err = run(capsys, "conj", "(2,x;1)")
    assert rc == 2
    assert "x" in err


def test_verify_orders_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "orders", "--n-max", "3")
    assert rc == 0
    assert out.startswith("[PASS]")


def test_verify_zero_sizes_are_not_replaced_by_defaults(capsys):
    rc, _, err = run(capsys, "verify", "--suite", "recursions", "--n-max", "0")
    assert rc == 2
    assert "n_max" in err
    rc, _, err = run(capsys, "verify", "--suite", "kernel", "--nvars", "0")
    assert rc == 2
    assert "nvars" in err
    rc, out, _ = run(capsys, "verify", "--suite", "orders", "--n-max", "0", "--format", "json")
    assert rc == 0
    assert json.loads(out)["reports"][0]["params"] == {"n_max": 0}


def test_verify_counting_json(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "counting", "--n-max", "6", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["reports"][0]["check"] == "counting"


def test_verify_kernel_small(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "kernel", "--nvars", "3", "--degree", "2")
    assert rc == 0
    assert "[PASS]" in out


def test_verify_generating(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "generating", "--nvars", "4", "--degree", "3")
    assert rc == 0
    assert out.count("[PASS]") == 6


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "supersym.cli", "conj", "(2,0;)"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(1,0;1)"


def test_format_environment_default():
    proc = subprocess.run(
        [sys.executable, "-m", "supersym.cli", "conj", "(2,0;)"],
        capture_output=True,
        text=True,
        env=child_env(SUPERSYM_FORMAT="json"),
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["conjugate"] == {"a": [1, 0], "s": [1]}
