#!/usr/bin/env python3
"""Write the parity set: the outputs a change to a route must leave alone.

Into --outdir go table1.csv and table2.csv, one eval_n<N>_xi<XI>.json per
point of EVAL_POINTS, one contours_xi<XI>.json per xi of CONTOUR_XI,
refusals.txt with the exit code of each command in REFUSALS, and
theorem2.txt with theorem2_eval and leading_order at each (n, xi) of
THEOREM2_N x THEOREM2_XI, xi given as text as the CLI passes it, so that a
change in the precision text is read at shows there. Two trees agree when
`diff -r` finds nothing between their directories, e.g.

    PYTHONPATH=src python scripts/parity_set.py --outdir /tmp/after
"""
import argparse
import contextlib
import io
import pathlib

from touchard import (N_MAX_LIMIT, TouchardError, leading_order, mk_context,
                      mu_from_xi, theorem2_eval)
from touchard.cli import main as cli_main

EVAL_POINTS = (("300", "0.97"), ("100", "1"), ("1000", "1.1"), ("100", "0.9"),
               ("300", "1.03"), ("100", "0.5"), ("100", "3"), ("81", "1.01"),
               ("100", "0.02"), ("100", "1e-40"))
CONTOUR_XI = ("0.8", "1", "1.8", "3")
REFUSALS = (["eval", "--n", "100", "--xi", "0"],
            ["eval", "--n", "100", "--xi", "-1"],
            ["eval", "--n", str(N_MAX_LIMIT + 2), "--xi", "1"],
            ["eval", "--n", "100", "--xi", "nan"],
            ["table2", "--xi", "inf"],
            ["contours", "--xi", "abc"])
THEOREM2_N = (100, 10 ** 4, 10 ** 6)
THEOREM2_XI = ("0.5", "0.9", "0.97", "0.9999", "1", "1.0001", "1.01", "1.1",
               "1.5", "3")


def theorem2_lines(digits) -> list[str]:
    """theorem2_eval and leading_order at text xi, one line per call."""
    ctx = mk_context(digits)
    lines = []
    for n in THEOREM2_N:
        for xi in THEOREM2_XI:
            for name, call in (
                    ("theorem2", lambda: theorem2_eval(n, xi, ctx)),
                    ("poincare", lambda: leading_order(
                        n, mu_from_xi(xi, ctx), ctx).value)):
                try:
                    got = call().to_str()
                except TouchardError as exc:
                    got = f"{type(exc).__name__}, exit {exc.exit_code}"
                lines.append(f"{name} n={n} xi={xi}: {got}\n")
    return lines


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
    (outdir / "theorem2.txt").write_text("".join(theorem2_lines(
        None if args.digits is None else int(args.digits))))
    print(f"wrote {len(EVAL_POINTS) + len(CONTOUR_XI) + 4} files into {outdir}")


if __name__ == "__main__":
    main()
