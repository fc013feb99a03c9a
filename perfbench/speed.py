"""Times at a fixed reference speed of the CPU.

The CPU speed of a small shared host drifts by 20-40% over seconds to
minutes, and a pure-Python loop drifts as much in CPU time as in wall time, so
neither clock alone gives steady figures.  Here a fixed calibration loop runs
every ``INTERVAL_S`` while the work is timed, from a SIGALRM handler; the
handler runs in the main thread between bytecodes, so its samples interleave
with the work they measure.  Their time is taken out of the work's time, and
the rest is scaled by ``REFERENCE_S`` over their mean.  The loop does not use
spiraldet, so only a change to the work moves the scaled time.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Seconds of one calibration at the reference speed, about that of one core
#: of a 2-core KVM guest running CPython 3.11.
REFERENCE_S = 0.008
#: Seconds between two calibrations while work is timed.
INTERVAL_S = 0.1

_BIG = 7 ** 3000


def calibrate() -> float:
    """Seconds of a fixed loop of tuple-keyed dict updates and big-integer
    arithmetic, the kind of work spiraldet does."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(8000):
        key = (i % 613, i // 613, i % 7)
        table[key] = table.get(key, 0) + 3 * i
    total = sum(table.values())
    for i in range(20):
        total += _BIG * (_BIG + i) // (_BIG - i)
    return time.perf_counter() - start


def at_reference(seconds: float, calibrations: list[float]) -> float:
    """``seconds`` of work scaled to the reference speed measured around it."""
    return seconds * REFERENCE_S / statistics.mean(calibrations)


def timed(fn) -> tuple[float, float]:
    """Run ``fn()``; return its wall seconds and its seconds at the reference speed.

    Neither includes the calibrations made while it ran.
    """
    samples: list[float] = []
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(calibrate()))
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    spent = wall - sum(samples)
    return spent, at_reference(spent, samples or [calibrate()])
