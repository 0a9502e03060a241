"""The supersym benchmark: one workload, timed end to end, or traced by layer.

    python3 perfbench/run.py --workload convert --seed 1 --seconds 15 --trace 0

Run from a checkout of the repository; the library is imported from `src/`.
A timed run (`--trace 0`) starts one fresh worker process per pass, one after
another (a closed loop with one client), until `--seconds` have passed, and
reports medians over the passes.  A traced run (`--trace 1`) makes one
untraced pass and one pass with every layer's public functions wrapped, and
reports per-layer numbers.  Every output is checked (see workloads.py); the
last line of stdout is the JSON result, and the exit status is 1 when any
check fails.  Workloads, metrics and predictions: perfbench/design.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# op_tail_ms is the highest percentile with at least ten samples beyond it
# in one run's pooled operations; kernel has too few, so it reports the max.
TAIL_PERCENTILE = {"convert": 99, "identities": 99, "cli": 90, "kernel": 100}
WORKER_TIMEOUT_S = 170
# Set-up is short and noisy, so a timed run also starts this many workers
# that only set up, and reports the median over them and the passes.
SETUP_REPEATS = 5


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("SUPERSYM_FORMAT", None)  # CLI output must not depend on the caller
    return env


def _run_worker(args, env, trace: int = 0, oracle: int = 0, setup_only: int = 0) -> dict:
    """One pass in a fresh interpreter; a crash or timeout is a failed pass."""
    spawn = time.monotonic()
    proc = subprocess.Popen(
        [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size, "--trace", str(trace), "--oracle", str(oracle),
            "--setup-only", str(setup_only), "--spawn", repr(spawn),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"crash": f"worker timed out after {WORKER_TIMEOUT_S} s"}
    lines = out.splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"crash": f"worker exited {proc.returncode}: {err.strip()[-2000:]}"}


def _percentile(values: list[float], q: int) -> float:
    if q >= 100:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, passes: list[dict], setups: list[float]) -> dict[str, float]:
    lat_ms = [s * 1000 for p in passes for s in p["latencies_s"]]
    return {
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": _percentile(lat_ms, TAIL_PERCENTILE[workload]),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads as W
    from tracer import PER_LAYER, layer_metrics

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(W.SIZES), default="full",
                        help="tiny: small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "supersym" / "__init__.py").is_file():
        print(f"error: no src/supersym under {ROOT}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import supersym  # noqa: F401  -- compiles the package once, before any timing

    env = _worker_env()
    n_ops = len(W.make_specs(args.workload, args.seed, args.size))
    setups = []
    if args.trace:
        passes = [_run_worker(args, env, oracle=1), _run_worker(args, env, trace=1)]
    else:
        setups = [_run_worker(args, env, setup_only=1) for _ in range(SETUP_REPEATS)]
        passes = [p for p in setups if "crash" in p]
        start = time.monotonic()
        while not passes or time.monotonic() - start < args.seconds:
            passes.append(_run_worker(args, env, oracle=int(not passes)))
            if "crash" in passes[-1]:
                break

    crashes = [p["crash"] for p in passes if "crash" in p]
    problems = list(crashes)
    good = [p for p in passes if "crash" not in p]
    attempted = sum(p["attempted"] for p in good) + n_ops * len(crashes)
    failed = sum(p["failed"] for p in good) + n_ops * len(crashes)
    for p in good:
        problems += p["errors"]
    digests = {p["digest"] for p in good}
    pinned = W.pinned_digest(args.workload, args.seed, args.size)
    if len(digests) > 1 or (pinned and digests and digests != {pinned}):
        failed += 1
        problems.append(f"output digest {sorted(digests)} != pinned {pinned}")

    if crashes or not good:
        metrics = {}
    elif args.trace:
        plain, traced = good
        values = layer_metrics(traced["trace"], traced["wall_s"] - plain["wall_s"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        values = end_to_end(args.workload, good, [p["setup_s"] for p in setups])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    raw_walls = " ".join(f"{p['raw_wall_s']:.3f}" for p in good)
    print(f"{args.workload} seed={args.seed} passes={len(passes)} ops={attempted} "
          f"failed={failed} tail=p{TAIL_PERCENTILE[args.workload]} raw_wall_s={raw_walls}",
          file=sys.stderr)
    for line in problems[:10]:
        print(f"  {line}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
