"""A clock in reference seconds: wall time corrected for the host's speed.

On a shared virtual machine the speed of a single-threaded Python process
moves in steps of up to 2x that last seconds (measured while building this
benchmark: a fixed loop took 0.034-0.063 s from one second to the next),
which no median over a run of a few seconds removes.  So every timing the
benchmark reports is read from this clock: a fixed probe loop in the
library's own instruction mix, timed every PROBE_INTERVAL_S, gives the
current speed, and each stretch of wall time since the last probe is scaled
by PROBE_REF_S / (probe duration, median of the last five).  Time spent
probing is left out.

PROBE_REF_S and the probe loop are part of the benchmark's definition:
changing either changes every reported number.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

PROBE_REF_S = 0.00024
PROBE_INTERVAL_S = 0.05


def _probe_loop() -> int:
    # the library's two hot mixes: dict updates with small-int arithmetic
    # (polynomial products), and Fraction arithmetic (basis-change mat-vecs)
    table: dict[int, int] = {}
    acc = 0
    for i in range(700):
        k = (i * 7919) & 255
        v = table.get(k, 0) + i
        table[k] = v
        acc += v & 7
    total = Fraction(0)
    for i in range(1, 25):
        total += Fraction(i, i + 3)
    return acc + total.numerator


class VClock:
    """Reference-speed clock.  With `timer`, a SIGALRM handler probes every
    PROBE_INTERVAL_S, also inside long operations; without it (when the
    work runs in child processes, which a probe in this process would slow
    down), call `between_ops()` between operations instead."""

    def __init__(self, timer: bool):
        self._timer = timer
        self._recent: list[float] = []
        # (reference seconds at `last`, perf_counter of `last`, factor),
        # replaced as one object so a probe never leaves it half-updated
        self._state = (0.0, perf_counter(), 1.0)
        self.probe_s = 0.0

    @property
    def factor(self) -> float:
        """Reference seconds per wall second, from the latest probes."""
        return self._state[2]

    def start(self) -> None:
        for _ in range(5):
            self._probe()
        if self._timer:
            signal.signal(signal.SIGALRM, lambda *_: self._probe())
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        if self._timer:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def between_ops(self) -> None:
        if perf_counter() - self._state[1] >= PROBE_INTERVAL_S:
            self._probe()

    def now(self) -> float:
        ref, last, factor = self._state
        return ref + (perf_counter() - last) * factor

    def _probe(self) -> None:
        t0 = perf_counter()
        ref, last, factor = self._state
        ref += (t0 - last) * factor
        _probe_loop()
        dt = perf_counter() - t0
        self._recent = (self._recent + [dt])[-5:]
        self.probe_s += dt
        self._state = (ref, perf_counter(), PROBE_REF_S / statistics.median(self._recent))
