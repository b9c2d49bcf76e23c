#!/usr/bin/env python3
"""Write the parity set: the outputs a change to a route must leave alone.

Into --outdir go table1.csv and table2.csv, one eval_n<N>_xi<XI>.json per
point of EVAL_POINTS, one contours_xi<XI>.json per xi of CONTOUR_XI, and
refusals.txt with the exit code of each command in REFUSALS. Two trees
agree when `diff -r` finds nothing between their directories, e.g.

    PYTHONPATH=src python scripts/parity_set.py --outdir /tmp/after
"""
import argparse
import contextlib
import io
import pathlib

from touchard.cli import main as cli_main
from touchard.stirling import N_MAX_LIMIT

EVAL_POINTS = (("300", "0.97"), ("100", "1"), ("1000", "1.1"), ("100", "0.9"),
               ("300", "1.03"), ("100", "0.5"), ("100", "3"), ("81", "1.01"),
               ("100", "0.02"), ("100", "1e-40"))
CONTOUR_XI = ("0.8", "1", "1.8", "3")
REFUSALS = (["eval", "--n", "100", "--xi", "0"],
            ["eval", "--n", "100", "--xi", "-1"],
            ["eval", "--n", str(N_MAX_LIMIT + 2), "--xi", "1"])


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--digits", default=None)
    args = ap.parse_args(argv)
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    digits = [] if args.digits is None else ["--digits", args.digits]

    def run(cmd, name) -> None:
        cli_main(cmd + digits + ["--out", str(outdir / name)])

    for table in ("table1", "table2"):
        run([table], f"{table}.csv")
    for n, xi in EVAL_POINTS:
        run(["eval", "--n", n, "--xi", xi], f"eval_n{n}_xi{xi}.json")
    for xi in CONTOUR_XI:
        run(["contours", "--xi", xi], f"contours_xi{xi}.json")
    lines = []
    for cmd in REFUSALS:
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(cmd + digits)
        lines.append(f"{' '.join(cmd)}: exit {code}\n")
    (outdir / "refusals.txt").write_text("".join(lines))
    print(f"wrote {len(EVAL_POINTS) + len(CONTOUR_XI) + 3} files into {outdir}")


if __name__ == "__main__":
    main()
