"""Workload definitions: the operations of one pass, made from the seed.

An operation is a JSON-able list whose first item names the call:

    ["table1"]                        cli.cmd_table1() with the paper's cells
    ["table2"]                        cli.cmd_table2() with the paper's cells
    ["eval", n, xi]                   cli.cmd_eval(n, xi)
    ["theorem2", n, xi]               uniform.theorem2_eval(n, xi, ctx)
    ["leading_order", n, xi]          poincare.leading_order(n, 1/(e xi), ctx)
    ["theorem1", n, order]            coalescence.theorem1_eval(n, order, ctx) at xi = 1
    ["contours", xi, max_len]         cli.cmd_contours(xi, max_len=max_len)

This module does not import touchard: the checker builds the same list to
know what each output should be.
"""
from __future__ import annotations

import random

DEFAULT_SEED = 1

# |mu e - 1| = |1/xi - 1| <= POINCARE_BAND is refused by the leading-order form
POINCARE_BAND = 0.05
# cmd_eval adds the coalescence series when |xi - 1| < THEOREM1_WINDOW
THEOREM1_WINDOW = 0.02

# eval-ladder: one xi per regime. The intervals keep, for every seed, the
# same methods running (no interval straddles the Poincare band or the
# theorem-1 window) and the Airy route fixed (|n^(2/3) zeta| < 34.4, the
# Maclaurin side of the 120-digit switchover, for every n of the ladder).
EVAL_N = (100, 300, 1000)
EVAL_XI = (
    (0.88, 0.92),    # conjugate pair, outside the band
    (0.96, 0.975),   # conjugate pair, inside the band
    None,            # xi = 1, the double saddle
    (1.025, 1.04),   # real pair, inside the band
    (1.08, 1.15),    # real pair, outside the band
)

# asymptotic-sweep: 16 intervals plus xi = 1 over [0.5, 3]. No interval
# straddles the Airy switchover |n^(2/3) zeta| = 34.4 for any n below, so
# the route of every call is the same for every seed: Maclaurin for
# n = 100 below xi = 2.6, both asymptotic routes for n = 10^4 outside
# 0.945 < xi < 1.06 and for n = 10^6 outside 0.997 < xi < 1.003.
SWEEP_N = (100, 10 ** 4, 10 ** 6)
SWEEP_XI = (
    (0.50, 0.55), (0.60, 0.65), (0.70, 0.75), (0.80, 0.84), (0.86, 0.90),
    (0.91, 0.93), (0.955, 0.965), (0.975, 0.99),
    None,
    (1.01, 1.025), (1.03, 1.045), (1.08, 1.12), (1.20, 1.30), (1.40, 1.60),
    (1.80, 2.00), (2.20, 2.40), (2.70, 3.00),
)
SWEEP_THEOREM1_ORDER = 6

CONTOUR_XI = ("0.8", "1", "1.8")

WORKLOADS = ("paper-tables", "eval-ladder", "asymptotic-sweep", "contours")

# One cheap operation per workload, run untimed before anything is timed;
# set-up time is import plus this operation.
WARMUP = {
    "paper-tables": ["table1"],
    "eval-ladder": ["eval", 100, "1"],
    "asymptotic-sweep": ["theorem2", 10 ** 4, "1.5"],
    "contours": ["contours", "1", "0.1"],
}


def _draw(rng: random.Random, intervals) -> list[str]:
    return ["1" if iv is None else f"{rng.uniform(*iv):.4f}" for iv in intervals]


def outside_band(xi: str) -> bool:
    return abs(1 / float(xi) - 1) > POINCARE_BAND


def operations(workload: str, seed: int) -> list[list]:
    """The operations of one pass of `workload`, in order."""
    rng = random.Random(seed)
    if workload == "paper-tables":
        return [["table1"], ["table2"]]
    if workload == "eval-ladder":
        xis = _draw(rng, EVAL_XI)
        return [["eval", n, xi] for n in EVAL_N for xi in xis]
    if workload == "asymptotic-sweep":
        xis = _draw(rng, SWEEP_XI)
        ops = []
        for n in SWEEP_N:
            for xi in xis:
                ops.append(["theorem2", n, xi])
                if outside_band(xi):
                    ops.append(["leading_order", n, xi])
            ops.append(["theorem1", n, SWEEP_THEOREM1_ORDER])
        return ops
    if workload == "contours":
        return [["contours", xi, None] for xi in CONTOUR_XI]
    raise ValueError(f"unknown workload {workload!r}")
