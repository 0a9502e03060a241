"""Traced CLI call: install the span wrappers, then run supersym.cli.main.

    python3 perfbench/cli_trace.py <spawn> <cli arguments...>

`<spawn>` is the caller's `time.monotonic()` just before it started this
process.  The CLI's own stdout and exit status are passed through; the span
aggregates go to stderr as the last line, after MARKER.  Untraced runs call
`python3 -m supersym.cli` directly and never load this file.
"""

import json
import sys
import time

MARKER = "PERFBENCH_TRACE "


def main() -> int:
    spawn, argv = float(sys.argv[1]), sys.argv[2:]
    import supersym.cli

    entered = time.monotonic()
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        code = supersym.cli.main(argv)
    finally:
        main_s = time.perf_counter() - t0
        raw = tracer.raw()
        raw["calls"].update({"cli.startup": 1, "cli.main": 1})
        raw["total"].update({"cli.startup": entered - spawn, "cli.main": main_s})
        sys.stdout.flush()
        print(MARKER + json.dumps(raw), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
