"""Record a BENCH_<label>.json trajectory file: two revisions, measured in pairs.

    python3 tools/bench_pairs.py --label L --workload cli --seed 1 --pairs 10
    python3 tools/bench_pairs.py --label L --cold-cli 21

Both revisions (`--base`, default HEAD~1, and `--head`, default HEAD) are
exported with `git archive` into a temporary directory, so only committed
files are measured and nothing is written into the checkout but the result.
A workload run is `perfbench/run.py --workload W --seed S --seconds 15
--trace 0` inside each export; pair i runs the base first when i is even and
the head first when it is odd.  `--cold-cli N` times N fresh
`python -m supersym.cli` calls per subcommand and side, first with no
bytecode cache and then after compiling the export's sources (the .pyc files
stay in the temporary directory), and records each call's peak RSS from
`os.wait4`.

Each call adds its results to BENCH_<label>.json at the repository root
under its own key (`<workload>/seed<S>` or `cli_cold_ms`), keeping earlier
keys; the file must name the same two commits.
"""

from __future__ import annotations

import argparse
import compileall
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# one call per subcommand, on inputs of the size the cli workload uses, a
# cold m -> e conversion on the 365-element block (12|2), cold h -> m
# conversions on the middle elements of the blocks (10|2), (13|2) and (16|2)
# (170, 525 and 1,422 elements), and the kernel suite at the sizes the CI
# runs it
COLD_CLI = (
    ("list", "--n", "6", "--m", "2"),
    ("conj", "(3,1,0;4,3,2,1)"),
    ("order", "(4,3,0;5,3,2,1)", "(5,2,1;4,3,3)"),
    ("build", "--basis", "e", "(2,0;2)"),
    ("mult", "--basis", "m", "(1,0;1)", "(0;2,1,1)"),
    ("convert", "--from", "h", "--to", "m", "(3,0;4,1)"),
    ("convert", "--from", "m", "--to", "e", "(3,0;5,4)"),
    ("inner", "h:(2,0;2,1)", "m:(2,0;2,1)"),
    ("omega", "--basis", "e", "(3,0;2,1)"),
    ("verify", "--suite", "kernel", "--nvars", "3", "--degree", "3"),
    ("convert", "--from", "h", "--to", "m", "(4,2;3,1)"),
    ("convert", "--from", "h", "--to", "m", "(5,0;3,1,1,1,1,1)"),
    ("convert", "--from", "h", "--to", "m", "(1,0;6,5,3,1)"),
    ("verify", "--suite", "kernel", "--nvars", "6", "--degree", "6"),
    ("verify", "--suite", "kernel", "--nvars", "5", "--degree", "8"),
)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _export(sha: str, dest: Path) -> Path:
    tar = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _run_workload(tree: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "15", "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    result["stderr"] = proc.stderr.strip().splitlines()
    return result


def record_pairs(trees: dict[str, Path], workload: str, seed: int, pairs: int) -> dict:
    spec = json.loads((trees["base"] / "BENCHMARK.json").read_text())
    runs = []
    for i in range(pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        runs.append({side: _run_workload(trees[side], workload, seed) for side in order})
        runs[-1]["first"] = order[0]
        print(f"{workload}/seed{seed} pair {i + 1}/{pairs}: " + ", ".join(
            f"{side} wall_s={runs[-1][side]['metrics'].get('wall_s', {}).get('value')}"
            for side in order), file=sys.stderr)
    summary = {}
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = {
            side: [r[side]["metrics"][name]["value"] for r in runs if r[side]["metrics"]]
            for side in ("base", "head")
        }
        wins = sum(
            sign * (r["head"]["metrics"][name]["value"] - r["base"]["metrics"][name]["value"]) < 0
            for r in runs if r["base"]["metrics"] and r["head"]["metrics"]
        )
        summary[name] = {side: _spread(v) for side, v in values.items() if len(v) > 1}
        summary[name]["head_wins"] = wins
    return {
        "pairs": pairs,
        "all_correct": all(r[s]["correct"] for r in runs for s in ("base", "head")),
        "summary": summary,
        "runs": runs,
    }


def _cold_call(tree: Path, argv) -> tuple[float, float]:
    """Wall milliseconds and peak RSS in MB of one fresh CLI call."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("SUPERSYM_FORMAT", None)
    cmd = [sys.executable, "-m", "supersym.cli", *argv]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = (time.perf_counter() - t0) * 1000
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return elapsed, usage.ru_maxrss / 1024


def record_cold_cli(trees: dict[str, Path], calls: int) -> dict:
    def timings() -> dict:
        out = {}
        for argv in COLD_CLI:
            samples = {"base": [], "head": []}
            for i in range(calls):
                for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                    samples[side].append(_cold_call(trees[side], argv))
            out[" ".join(argv)] = {side: _spread([ms for ms, _ in v]) for side, v in samples.items()}
            out[" ".join(argv)]["peak_rss_mb"] = {
                side: _spread([mb for _, mb in v]) for side, v in samples.items()
            }
        return out

    bare = []
    for _ in range(calls):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        bare.append((time.perf_counter() - t0) * 1000)
    result = {"calls": calls, "python_c_pass": _spread(bare), "no_pyc": timings()}
    for tree in trees.values():
        compileall.compile_dir(str(tree / "src"), quiet=1)
    result["pyc"] = timings()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--head", default="HEAD")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--cold-cli", type=int, default=0, metavar="CALLS")
    args = parser.parse_args(argv)
    if not args.workload and not args.cold_cli:
        parser.error("give --workload, --cold-cli, or both")

    shas = {"base": _git("rev-parse", args.base), "head": _git("rev-parse", args.head)}
    path = ROOT / f"BENCH_{args.label}.json"
    record = json.loads(path.read_text()) if path.exists() else {
        "label": args.label,
        "shas": shas,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "command": "perfbench/run.py --workload W --seed S --seconds 15 --trace 0",
        "results": {},
    }
    if record["shas"] != shas:
        raise SystemExit(f"error: {path.name} records {record['shas']}, not {shas}")

    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: _export(sha, Path(tmp) / side) for side, sha in shas.items()}
        if args.workload:
            key = f"{args.workload}/seed{args.seed}"
            record["results"][key] = record_pairs(trees, args.workload, args.seed, args.pairs)
        if args.cold_cli:
            record["results"]["cli_cold_ms"] = record_cold_cli(trees, args.cold_cli)
    path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
