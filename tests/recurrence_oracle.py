"""Binomial-recurrence oracle for the exact sums.

T_{k+1}(z) = z * sum_j C(k,j) T_j(z) builds T_n(z) without a single
Stirling number, so it checks the row sums along a structurally independent
path. It carries no rounding bound of its own: it doubles the precision
until two successive evaluations agree.
"""
import math

from mpmath import mp, mpf


def touchard_recurrence(n: int, z, digits: int):
    """T_n(z) as an mpf, agreeing to digits - 10 significant digits between
    the last two precisions tried, at most 8 doublings. O(n^2) per precision."""

    def eval_at(dps):
        with mp.workdps(dps):
            t = [mpf(1)]
            for k in range(n):
                acc = mpf(0)
                for j in range(k + 1):
                    acc += math.comb(k, j) * t[j]
                t.append(z * acc)
            return t[n]

    d = digits
    prev = eval_at(d)
    for _ in range(8):
        d *= 2
        cur = eval_at(d)
        with mp.workdps(d):
            scale = max(abs(prev), abs(cur))
            if abs(prev - cur) <= mpf(10) ** -(digits - 10) * scale:
                return cur
        prev = cur
    raise AssertionError(f"touchard_recurrence(n={n}): no agreement to "
                         f"{digits - 10} digits up to {d} digits")
