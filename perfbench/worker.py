"""One pass of one workload in a fresh interpreter: set up, time, check.

    python3 perfbench/worker.py --workload convert --seed 1 --spawn <t> \
        [--size full] [--trace 0|1] [--oracle 0|1] [--setup-only 0|1]

`--spawn` is the parent's `time.monotonic()` just before it started this
process, so `setup_s` covers interpreter start, `import supersym` and input
generation.  Prints one JSON record as its last line of stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _children_rusage() -> tuple[float, int]:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss


def _traced_cli_runner(env: dict, traces: list):
    """CLI calls through cli_trace.py, which records spans in the child."""
    from cli_trace import MARKER

    def run(argv):
        spawn = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "cli_trace.py"), repr(spawn), *argv],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
        )
        lines = proc.stderr.splitlines()
        if lines and lines[-1].startswith(MARKER):
            traces.append(json.loads(lines[-1][len(MARKER):]))
        return proc.returncode, proc.stdout

    return run


def run_ops(ops, clock) -> tuple[list, list[float], dict[int, str]]:
    """The timed loop: outputs, per-operation reference seconds, and the
    operations that raised."""
    outputs, latencies, errors = [], [], {}
    for i, op in enumerate(ops):
        clock.between_ops()
        ts = clock.now()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            out = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        latencies.append(clock.now() - ts)
        outputs.append(out)
    return outputs, latencies, errors


def check_ops(ops, outputs, errors: dict[int, str]) -> None:
    """Untimed self-checks; adds each wrong output to `errors`."""
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if i in errors:
            continue
        try:
            msg = op.check(out)
        except Exception as exc:
            msg = f"check raised {type(exc).__name__}: {exc}"
        if msg:
            errors[i] = msg


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawn", type=float, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--oracle", type=int, default=1)
    parser.add_argument("--setup-only", type=int, default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads as W
    from vclock import VClock

    lib = W.Library()
    specs = W.make_specs(args.workload, args.seed, args.size)
    cli_traces: list[dict] = []
    env = dict(os.environ)
    in_children = args.workload == "cli"
    if not in_children:
        runner = None
    elif args.trace:
        runner = _traced_cli_runner(env, cli_traces)
    else:
        runner = lambda a: W.run_cli(a, env, ROOT)
    ops = W.bind(specs, lib, runner)
    setup_raw = time.monotonic() - args.spawn

    clock = VClock(timer=not in_children)
    clock.start()
    setup_s = setup_raw * clock.factor
    if args.setup_only:
        clock.stop()
        return {"setup_s": setup_s}

    tracer = None
    if args.trace and not in_children:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    gc.collect()
    child0 = _children_rusage()
    cpu0, probe0, raw0 = time.process_time(), clock.probe_s, time.perf_counter()
    t0 = clock.now()
    outputs, latencies, errors = run_ops(ops, clock)
    wall_s = clock.now() - t0
    raw_wall = time.perf_counter() - raw0 - (clock.probe_s - probe0)
    clock.stop()
    if in_children:
        child1 = _children_rusage()
        raw_cpu, rss_kb = child1[0] - child0[0], child1[1]
    else:
        raw_cpu = time.process_time() - cpu0 - (clock.probe_s - probe0)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    raw = None
    if tracer is not None:
        raw = tracer.raw()
    elif cli_traces:
        from tracer import merge_raw

        raw = merge_raw(cli_traces)

    check_ops(ops, outputs, errors)
    if args.oracle and args.workload == "convert":
        for i, msg in W.oracle(ops, outputs, args.seed, args.size, lib).items():
            errors.setdefault(i, msg)

    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": raw_cpu * wall_s / raw_wall,
        "raw_wall_s": raw_wall,
        "peak_rss_mb": rss_kb / 1024,
        "latencies_s": latencies,
        "attempted": len(ops),
        "failed": len(errors),
        "errors": [f"{ops[i].spec}: {msg}" for i, msg in sorted(errors.items())[:5]],
        "digest": W.digest(ops, outputs, errors),
        "trace": raw,
    }


if __name__ == "__main__":
    print(json.dumps(main()))
