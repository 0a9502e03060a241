"""Run one supersym CLI command in this process and bound its peak RSS.

    PYTHONPATH=src python tools/peak_rss.py [--label L] BOUND_MB ARGV...

ARGV is passed to `supersym.cli.main` as it is, so the command's output goes
to stdout.  The process's peak RSS is printed to stderr as `peak RSS <MB> MB`
(`L peak RSS <MB> MB` with a label).  The exit status is the command's own,
or 1 when the command passed but the peak exceeded BOUND_MB.
"""

from __future__ import annotations

import resource
import sys

from supersym.cli import main as cli_main


def main(args: list[str]) -> int:
    label = ""
    if args[:1] == ["--label"]:
        label, args = f"{args[1]} ", args[2:]
    bound, argv = float(args[0]), args[1:]
    status = cli_main(argv)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{label}peak RSS {peak_mb:.0f} MB", file=sys.stderr)
    return status or int(peak_mb > bound)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
