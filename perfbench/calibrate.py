"""Machine-speed calibration for timings taken on a shared host.

On a shared host the speed a process gets drifts by a third or more within a
minute, and raw times carry that drift into every metric. The benchmark
therefore times a fixed pure-Python loop (tuple keys into a dict, then a
sort: the kind of work pflab does) before and after each timed step, and
scales the step's time by ``REFERENCE_S`` over the mean of the two loop
times. A timing then reads as seconds at one fixed machine speed, the speed
at which the loop takes ``REFERENCE_S``. The loop does not touch pflab, so no
change to pflab moves it.
"""

from __future__ import annotations

from time import perf_counter

ITERATIONS = 20_000
REFERENCE_S = 0.015


def loop_seconds() -> float:
    t0 = perf_counter()
    table = {}
    for i in range(ITERATIONS):
        key = (i, i >> 3, i & 7)
        table[key] = table.get((i - 1, (i - 1) >> 3, (i - 1) & 7), 0) + 1
    sorted(table.items())
    return perf_counter() - t0


def factor(loop_before: float, loop_after: float) -> float:
    """Multiplier taking a time measured between two loop timings to reference speed."""
    return REFERENCE_S / ((loop_before + loop_after) / 2)
