"""Exact reference evaluation of the scaled exponential polynomials T_n(z)/n!.

T_n(z) = sum_k S(n,k) z^k with S(n,k) the Stirling numbers of the second
kind; the sum is divided by the exact integer n! last.

build_triangle(keep) makes one rolling pass of
S(n,k) = k S(n-1,k) + S(n-1,k-1) in Python ints up to max(keep) and keeps
only the rows named in keep: row n costs O(n^2) integer operations but only
two rows are alive at a time. Rows outside [0, N_MAX_LIMIT] are refused.

A sum is one Horner pass at working precision d. The standard rounding
bound for Horner's rule (Higham, Accuracy and Stability of Numerical
Algorithms, sec. 5.1)

    |fl(T_n(z)) - T_n(z)| <= gamma_2n T_n(|z|),   gamma_m = m u / (1 - m u),

is checked at run time with u <= 10^-d: the value is accepted when
4(n+1) 10^-d T_n(|z|) <= 10^-(digits+10) |T_n(z)|, so it carries
digits + 10 correct significant digits before the final rounding. The
error scale T_n(|z|) = sum_k S(n,k) |z|^k is summed alongside from the
logarithms of its terms in floats; their error of about 1e-11 is far inside
the factor of two by which 4(n+1) exceeds the 2n+1 roundings of the pass and
the division by n!. For negative z the sum alternates and loses
log10(T_n(|z|)/|T_n(z)|) digits. When the check fails the pass reruns at a
precision sized from that measured loss, or at twice the precision when the
loss swamped the pass and could not be measured, at most MAX_ESCALATIONS
times. cancellation_digits reports log10 of the largest term over |T_n(z)|,
rounded up.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import CapacityError, PrecisionExhaustedError
from .numkernel import BigReal, PrecisionContext, raw, wrap_real

# Largest row index a triangle may hold. `touchard eval --n 4000` takes 15 s
# and 42 MiB at 120 digits, and time grows like n^2.7 (README, "Size limit").
N_MAX_LIMIT = 4000
# Reruns a certified sum may make before PrecisionExhaustedError.
MAX_ESCALATIONS = 8


@dataclass(frozen=True)
class StirlingTriangle:
    """The rows of S(n,k) that were kept, by row index n."""

    rows: Mapping[int, tuple[int, ...]]

    def row(self, n: int) -> tuple[int, ...]:
        if n not in self.rows:
            raise CapacityError(f"row {n} not held by the triangle "
                                f"({len(self.rows)} rows kept)")
        return self.rows[n]


@dataclass(frozen=True)
class ExactValue:
    value: BigReal
    cancellation_digits: int
    verified: bool


def build_triangle(keep: Iterable[int]) -> StirlingTriangle:
    """The rows named in keep, from one rolling pass up to the largest."""
    wanted = frozenset(keep)
    outside = sorted(n for n in wanted if not 0 <= n <= N_MAX_LIMIT)
    if outside:
        raise CapacityError(f"rows {outside} outside [0, {N_MAX_LIMIT}]")
    rows = {}
    row = [1]
    for n in range(max(wanted, default=-1) + 1):
        if n:
            # S(n,n) = 1: only the all-singletons partition
            row = [0, *[k * a + b for k, a, b in zip(range(1, n), row[1:], row)], 1]
        if n in wanted:
            rows[n] = tuple(row)
    return StirlingTriangle(rows=rows)


def _certified_sum(row: tuple[int, ...], zv: mpf, ctx: PrecisionContext):
    """(T_n(z), max_k |S(n,k) z^k|, dps) with T_n(z) certified at dps.

    Reruns at most MAX_ESCALATIONS times; an exact zero is accepted when
    two rounds in a row give it.
    """
    n = len(row) - 1
    target = ctx.digits + 10
    slack = math.log10(4 * (n + 1))  # the rounding bound's 4(n+1) factor
    d = target + math.ceil(slack)
    if zv == 0:
        return mpf(row[0]), mpf(row[0]), d
    with mp.workdps(20):
        lz = float(mp.log(abs(zv)))
    # natural logs of the terms S(n,k) |z|^k, and log10 T_n(|z|)
    logs = {k: math.log(s) + k * lz for k, s in enumerate(row) if s}
    top = max(logs.values())
    log_scale = (top + math.log(math.fsum(math.exp(v - top)
                                          for v in logs.values()))) / math.log(10)
    prev = None
    for rerun in range(MAX_ESCALATIONS + 1):
        with mp.workdps(d):
            total = mpf(0)
            for s in reversed(row):
                total = total * zv + s
            loss = log_scale - float(mp.log10(abs(total))) if total else math.inf
            if loss + slack + target <= d or total == prev == 0:
                # the largest term, from the candidates within float rounding
                biggest = max(row[k] * abs(zv) ** k for k, v in logs.items()
                              if v >= top - 1e-6)
                return total, biggest, d
        if rerun == MAX_ESCALATIONS:
            break
        prev = total
        # a loss this close to d was not measured, only bounded below
        d = (math.ceil(target + slack + loss) + 1 if slack + loss <= d - 1
             else 2 * d)
    raise PrecisionExhaustedError(
        f"scaled_touchard(n={n}): sum not certified to {target} digits after "
        f"{MAX_ESCALATIONS} reruns (last working precision {d})",
        last_two=(prev, total))


def _cancellation(total, biggest, dps: int) -> int:
    with mp.workdps(dps):
        if biggest == 0:
            return 0
        if total == 0:
            # every digit of the largest term cancelled
            return int(mp.floor(mp.log10(biggest))) + dps
        c = mp.log10(biggest / abs(total))
        return max(0, int(mp.ceil(c)))


def scaled_touchard(n: int, z: BigReal, triangle: StirlingTriangle,
                    ctx: PrecisionContext) -> ExactValue:
    """T_n(z)/n!, dividing by the exact integer factorial last."""
    total, biggest, dps = _certified_sum(triangle.row(n), raw(z), ctx)
    with mp.workdps(dps):
        scaled = total / math.factorial(n)
    return ExactValue(value=wrap_real(scaled, ctx),
                      cancellation_digits=_cancellation(total, biggest, dps),
                      verified=True)

