"""Command-line behavior: output forms, exit codes, round trips."""

import ast
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


def test_list_negative_max_len_exits_2(capsys):
    rc, out, err = run(capsys, "list", "--n", "3", "--m", "1", "--max-len", "-1")
    assert rc == 2
    assert out == ""
    assert err == "error: max_len must be an int >= 0, got -1\n"


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


@pytest.mark.parametrize("basis, text, nvars", [("p", "(;65536)", "2"), ("h", "(;70000)", "1")])
def test_build_past_the_exponent_field_exits_2(capsys, basis, text, nvars):
    # x^65536 does not fit its 16-bit field and would wrap into the next variable
    rc, out, err = run(capsys, "build", "--basis", basis, text, "--nvars", nvars)
    assert rc == 2 and out == ""
    assert err.startswith("error: n must be an int with 0 <= n <= 65535, got ")


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


@pytest.mark.parametrize(
    "argv",
    [
        ["convert", "--from", "h", "--to", "m", "(1,0;1)"],
        ["mult", "--basis", "m", "(1;)", "(0;1)"],
        ["omega", "--basis", "e", "(1;1)"],
    ],
)
def test_text_output_builds_no_json_payload(capsys, monkeypatch, argv):
    from supersym.transform import BasisExpansion

    def refuse(self):
        raise AssertionError("JSON payload built for text output")

    monkeypatch.setattr(BasisExpansion, "to_json_dict", refuse)
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and out.startswith("# basis=")


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


@pytest.mark.parametrize("argv, line", [
    (("conj", "(1,2;)"), "error: fermionic parts not strictly decreasing: (1, 2)"),
    (("inner", "p:(;2)", "h:(;a)"), "error: bad part 'a' in '(;a)'"),
    (("convert", "--from", "h", "--to", "m", "(;1_0)"), "error: bad part '1_0' in '(;1_0)'"),
    (("build", "--basis", "m", "(;1,1,1)", "--nvars", "2"),
     "error: monomial for (;1,1,1) needs at least 3 variables, got 2"),
])
def test_usage_errors_print_one_line_and_exit_2(capsys, argv, line):
    # main turns every ValueError (a SparError is one) into this line and 2
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", line + "\n")


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


def test_verify_suites_that_would_check_nothing_are_usage_errors(capsys):
    for suite in ("determinants", "duality"):
        rc, out, err = run(capsys, "verify", "--suite", suite, "--n-max", "-1")
        assert rc == 2, suite
        assert out == ""
        assert "n_max" in err


@pytest.mark.parametrize(
    "argv, unread",
    [
        (["orders", "--n-max", "2", "--degree", "9", "--nvars", "99"], "--nvars, --degree"),
        (["orders", "--n-max", "2", "--degree", "3"], "--degree"),
        (["kernel", "--n-max", "3"], "--n-max"),
        (["generating", "--n-max", "2", "--degree", "2"], "--n-max"),
        (["determinants", "--nvars", "3"], "--nvars"),
        (["counting", "--n-max", "3", "--degree", "0"], "--degree"),
    ],
)
def test_verify_an_option_the_suite_does_not_read_is_a_usage_error(capsys, argv, unread):
    rc, out, err = run(capsys, "verify", "--suite", *argv)
    assert rc == 2
    assert out == ""
    assert err.strip() == f"error: suite {argv[0]} does not read {unread}"


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


def test_verify_generating_past_the_exponent_field_exits_2(capsys):
    # HP multiplies two series of t-degree trunc, which must fit a 16-bit field
    rc, out, err = run(capsys, "verify", "--suite", "generating", "--degree", "32768", "--nvars", "1")
    assert rc == 2 and out == ""
    assert "32768" in err


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


# -- cold start: each subcommand loads only the modules it runs --------------------


def loaded_modules(code):
    """Modules that running ``code`` in a fresh interpreter adds to sys.modules."""
    probe = f"import sys\nbefore = set(sys.modules)\n{code}\n" + (
        "sys.stderr.write(repr(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stderr.splitlines()[-1]))


def cli_code(argv):
    """``python -m supersym.cli *argv`` inside the probe, asserting exit 0."""
    return (
        f"import runpy\nsys.argv = {['supersym', *argv]!r}\ntry:\n"
        "    runpy.run_module('supersym.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n    assert exc.code == 0, exc.code"
    )


LIGHT = {"supersym", "supersym.superpartition"}
PIVOT = LIGHT | {"supersym.transform"}
ENGINE = LIGHT | {"supersym.superpoly", "supersym.bases"}
ENGINE_CHECKS, INNER = "supersym.engine_checks", "supersym.inner"


@pytest.mark.parametrize(
    "argv, want",
    [
        (["conj", "(2,0;)"], LIGHT),
        (["order", "(2,1;)", "(3,0;)"], LIGHT),
        (["list", "--n", "3", "--m", "1", "--format", "json"], LIGHT),
        (["verify", "--suite", "orders", "--n-max", "2"], LIGHT),
        (["convert", "--from", "h", "--to", "m", "(2,0;1)"], PIVOT),
        (["mult", "--basis", "m", "(1,0;1)", "(0;2)"], PIVOT),
        (["inner", "p:(;2)", "h:(;2)"], PIVOT),
        (["omega", "--basis", "e", "(1,0;1)"], PIVOT),
        (["build", "--basis", "m", "(1;1)"], ENGINE),
        (["verify", "--suite", "generating", "--degree", "1", "--nvars", "1"], ENGINE),
        (["verify", "--suite", "determinants", "--n-max", "1"], PIVOT | ENGINE | {ENGINE_CHECKS}),
        (["verify", "--suite", "kernel", "--nvars", "1", "--degree", "1"], PIVOT | ENGINE | {INNER}),
    ],
)
def test_subcommand_loads_only_what_it_runs(argv, want):
    loaded = loaded_modules(cli_code(argv))
    assert {m for m in loaded if m.startswith("supersym")} == want
    assert "dataclasses" not in loaded
    if "json" not in argv:
        assert "json" not in loaded
    if want == LIGHT:  # superpartition._exact loads fractions on its first non-int
        assert "fractions" not in loaded


def test_importing_the_package_or_the_pivot_loads_no_engine():
    loaded = loaded_modules("import supersym; supersym.__version__")
    assert {m for m in loaded if m.startswith("supersym")} == {"supersym"}
    loaded = loaded_modules("import supersym; supersym.SuperPartition")
    assert {m for m in loaded if m.startswith("supersym")} == LIGHT
    loaded = loaded_modules("import supersym.transform")
    assert {m for m in loaded if m.startswith("supersym")} == PIVOT
