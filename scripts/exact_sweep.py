#!/usr/bin/env python3
"""Write the exact-layer sweep: scaled_touchard at 600 seeded points.

Each point draws n uniformly from 1..1200, x log-uniformly from
[1e-300, 1e300] (even points) or as n e (1 + u) with u uniform in
[-0.5, 0.5] (odd points), and the digits from 30, 40 and 120. Into
--outdir goes exact_sweep.txt with one line per point: the point, then the
value string and `cancellation_digits`, or the exit code of the
TouchardError it raised. Two trees agree when `diff` finds nothing between
their files, e.g.

    PYTHONPATH=src python scripts/exact_sweep.py --outdir /tmp/after
"""
import argparse
import math
import pathlib
import random

from touchard import TouchardError, mk_context, real_from, scaled_touchard

POINTS = 600
DIGITS = (30, 40, 120)


def points(seed: int) -> list[tuple[int, str, int]]:
    """(n, x as a 17-digit string, digits) of each point, in order."""
    rng = random.Random(seed)
    out = []
    for i in range(POINTS):
        n = rng.randint(1, 1200)
        if i % 2:
            x = n * math.e * (1 + rng.uniform(-0.5, 0.5))
        else:
            x = 10 ** rng.uniform(-300, 300)
        out.append((n, f"{x:.16e}", rng.choice(DIGITS)))
    return out


def line(n: int, x: str, digits: int) -> str:
    ctx = mk_context(digits)
    try:
        got = scaled_touchard(n, real_from("-" + x, ctx), ctx)
    except TouchardError as exc:
        return f"n={n} x={x} digits={digits}: exit {exc.exit_code}\n"
    return (f"n={n} x={x} digits={digits}: {got.value.to_str()} "
            f"{got.cancellation_digits}\n")


def sweep(pts, path: pathlib.Path) -> None:
    path.write_text("".join(line(*pt) for pt in pts))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    sweep(points(args.seed), outdir / "exact_sweep.txt")
    print(f"wrote {POINTS} points into {outdir / 'exact_sweep.txt'}")


if __name__ == "__main__":
    main()
