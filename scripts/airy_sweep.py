#!/usr/bin/env python3
"""Write the Airy sweep: Ai and Ai' at 408 seeded points.

Each of the 400 drawn points takes the digits from 30, 40, 120 and 300, and
z uniformly from [-2 Z(d), 2 Z(d)], Z(d) = airy.maclaurin_limit(d) the
largest |z| of the Maclaurin route, so that half of them fall on either
route; the last 8 are the edges z = +-Z(d) at each digits. Into --outdir
goes airy_sweep.txt with one line per point: the point, then the Ai and Ai'
strings, or the exit code of the TouchardError it raised. Two trees agree
when `diff` finds nothing between their files, e.g.

    PYTHONPATH=src python scripts/airy_sweep.py --outdir /tmp/after
"""
import argparse
import math
import pathlib
import random

from touchard import TouchardError, airy, mk_context, real_from

POINTS = 400
DIGITS = (30, 40, 120, 300)


def edge(digits: int) -> float:
    """Z(d) as airy.maclaurin_limit defines it, restated here so that the
    sweep also runs on a tree that takes every z through mpmath.airyai."""
    return (0.75 * (digits + 10) * math.log(10)) ** (2 / 3)


def points(seed: int) -> list[tuple[str, int]]:
    """(z as a 17-digit string, digits) of each point, in order."""
    rng = random.Random(seed)
    out = []
    for _ in range(POINTS):
        digits = rng.choice(DIGITS)
        z = 2 * edge(digits) * rng.uniform(-1, 1)
        out.append((f"{z:.16e}", digits))
    for digits in DIGITS:
        out += [(f"{s * edge(digits):.16e}", digits) for s in (-1, 1)]
    return out


def line(z: str, digits: int) -> str:
    ctx = mk_context(digits)
    try:
        got = airy(real_from(z, ctx), ctx)
    except TouchardError as exc:
        return f"z={z} digits={digits}: exit {exc.exit_code}\n"
    return f"z={z} digits={digits}: {got.ai.to_str()} {got.ai_prime.to_str()}\n"


def sweep(pts, path: pathlib.Path) -> None:
    path.write_text("".join(line(*pt) for pt in pts))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    pts = points(args.seed)
    sweep(pts, outdir / "airy_sweep.txt")
    print(f"wrote {len(pts)} points into {outdir / 'airy_sweep.txt'}")


if __name__ == "__main__":
    main()
