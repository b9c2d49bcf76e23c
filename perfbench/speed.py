"""The machine's current speed, from a fixed reference loop.

The benchmark runs on a shared host whose speed swings by up to 2x over
minutes, and a process's CPU time swings with its wall time, so a raw
wall time measures the host as much as the program. The worker therefore
reads `host_speed` before and after every stretch of about SEGMENT_S
seconds of measured work, between two operations, and scales that
stretch's wall time by REFERENCE_S over the mean of the two readings. The
result is the time the stretch would have taken on a host whose reading is
REFERENCE_S. Both readings lie within a fraction of a second of the work,
so swings over seconds and minutes cancel; operations of a few seconds
(contours) are scaled by readings a few seconds apart.

The loop does the kinds of work the package does: mpmath real and complex
arithmetic and elementary functions at 120 digits, big-integer products
and plain interpreter work. It imports nothing from touchard, so a change
to the package cannot move it.
"""
from __future__ import annotations

import statistics
import time

from mpmath import mp, mpc, mpf

# About the median reading between operations on the reference machine: a
# 2-vCPU Intel Xeon virtual machine, Python 3.11.7, mpmath 1.3.0 on its
# pure-Python backend. It is fixed: changing it rescales every time figure.
REFERENCE_S = 0.0085
# Measured work between two readings of `host_speed`.
SEGMENT_S = 0.25
# A reading is the median of LOOP_RUNS runs of `loop` or more. The reading
# after a stretch lasts about READ_SHARE of the stretch: the speed swings
# within a second, and a reading as short as 25 ms after an operation of
# a few seconds catches the speed of a moment, not of the operation.
LOOP_RUNS = 3
READ_SHARE = 0.1

_BIG = 3 ** 3000


def loop() -> float:
    """Wall time of one run of the fixed reference loop."""
    start = time.perf_counter()
    with mp.workdps(120):
        x = mpf(1) / 3
        z = mpc(x, 1 - x)
        acc = mpf(0)
        for i in range(1, 49):
            acc += mp.exp(x / i) * mp.log(x + i)
            z = z * z / abs(z) + mpc(0, x)
            acc += mp.sqrt(abs(z) + i)
    prod = 0
    for i in range(24):
        prod += _BIG * (_BIG + i)
    counts = {}
    for i in range(3000):
        counts[i % 101] = counts.get(i % 101, 0) + i
    return time.perf_counter() - start


def host_speed(stretch_s: float = 0.0) -> float:
    """The host's current speed: the median time of `loop` over a reading
    sized for a stretch of `stretch_s` seconds of measured work."""
    runs = max(LOOP_RUNS, round(READ_SHARE * stretch_s / REFERENCE_S))
    return statistics.median(loop() for _ in range(runs))
