#!/usr/bin/env python3
"""Write the contour sweep: `contours` JSON at 16 xi and 40, 120, 300 digits.

The xi run from the small end of the tracing frame (1e-5) to its large end
(7.7), with five points within 1e-2 of the double saddle at xi = 1. Into
--outdir goes one contours_xi<XI>_d<D>.json per (xi, digits). Two trees
agree when `diff -r` finds nothing between their directories, e.g.

    PYTHONPATH=src python scripts/contour_sweep.py --outdir /tmp/after
"""
import argparse
import pathlib

from touchard.cli import main as cli_main

SWEEP_XI = ("1e-5", "0.01", "0.1", "0.3", "0.5", "0.8", "0.9", "0.99",
            "0.999999", "1", "1.000001", "1.01", "1.1", "1.8", "3", "7.7")
DIGITS = (40, 120, 300)


def sweep(points, outdir: pathlib.Path) -> list[pathlib.Path]:
    """Write the JSON of each (xi, digits) in points; return the paths."""
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for xi, digits in points:
        path = outdir / f"contours_xi{xi}_d{digits}.json"
        code = cli_main(["contours", "--xi", xi, "--digits", str(digits),
                         "--out", str(path)])
        if code:
            raise SystemExit(f"contours --xi {xi} --digits {digits}: "
                             f"exit {code}")
        paths.append(path)
    return paths


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args(argv)
    paths = sweep([(xi, d) for xi in SWEEP_XI for d in DIGITS],
                  pathlib.Path(args.outdir))
    print(f"wrote {len(paths)} files into {args.outdir}")


if __name__ == "__main__":
    main()
