"""The benchmark's own tests, on the tiny size profile.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads as W  # noqa: E402
import worker  # noqa: E402
from supersym import inner, transform  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def _worker(workload, seed, **flags):
    argv = ["--workload", workload, "--seed", str(seed), "--size", "tiny",
            "--spawn", repr(time.monotonic())]
    for key, value in flags.items():
        argv += [f"--{key}", str(value)]
    return worker.main(argv)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_workload_reports_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_a_wrong_conversion_is_counted_as_failed(monkeypatch):
    real = transform.change_basis

    def off_by_one(x, to):
        y = real(x, to)
        if to != "h" or not y.coeffs:
            return y
        coeffs = dict(y.coeffs)
        first = min(coeffs, key=str)
        coeffs[first] += 1
        return transform.BasisExpansion(y.basis, y.n, y.m, coeffs)

    monkeypatch.setattr(transform, "change_basis", off_by_one)
    monkeypatch.setattr(inner, "change_basis", off_by_one)
    record = _worker("convert", 3)
    assert 0 < record["failed"] < record["attempted"]


def test_the_engine_oracle_catches_a_self_consistent_wrong_answer():
    lib = W.Library()
    ops = W.bind(W.make_specs("convert", 3, "tiny"), lib)
    outputs = [op.run() for op in ops]
    wrong = []
    for op, out in zip(ops, outputs):
        if op.spec[0] == "change":  # a doubled result that still round-trips
            y = out[0].scale(2)
            out = (y, transform.change_basis(y, op.spec[1]).scale(Fraction(1, 2)))
        wrong.append(out)
    errors = W.oracle(ops, wrong, 3, "tiny", lib)
    changed = [i for i in errors if ops[i].spec[0] == "change"]
    assert changed and all("engine disagrees" in errors[i] for i in changed)
    assert W.oracle(ops, outputs, 3, "tiny", lib) == {}


def test_a_wrong_cli_output_is_counted_as_failed():
    lib = W.Library()
    ops = W.bind(W.make_specs("cli", 3, "tiny"), lib, lambda argv: (0, "wrong\n"))
    errors = {}
    worker.check_ops(ops, [op.run() for op in ops], errors)
    assert len(errors) == len(ops)


def test_same_seed_gives_same_inputs_and_same_digest():
    for workload in W.WORKLOADS:
        assert W.make_specs(workload, 5, "tiny") == W.make_specs(workload, 5, "tiny")
    assert W.make_specs("convert", 5, "tiny") != W.make_specs("convert", 6, "tiny")
    assert W.make_specs("cli", 5) != W.make_specs("cli", 6)
    first, second = _worker("convert", 5), _worker("convert", 5)
    assert first["failed"] == second["failed"] == 0
    assert first["digest"] == second["digest"]
    assert _worker("convert", 6)["digest"] != first["digest"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "convert", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
