#!/usr/bin/env python3
"""Write the parity set: every output two trees must agree on.

    PYTHONPATH=src python scripts/parity_set.py --outdir DIR

writes, in about 20 s,

    DIR/d40/, DIR/d120/, DIR/d300/
        table1.csv and table2.csv; one eval_n<N>_xi<XI>.json per point of
        EVAL_POINTS; refusals.txt, the exit code of each command in
        REFUSALS; theorem2.txt, theorem2_eval and leading_order at each
        (n, xi) of THEOREM2_N x THEOREM2_XI, xi given as text as the CLI
        passes it, so that a change in the precision text is read at shows
        there (1 + 1e-46 and 1 - 1e-126 lie within 10^-(d+5) of 1 at
        d = 40 and 120, a window the uniform route once took as xi = 1),
        and theorem1_eval at each n, up to n = 10^9, so that a change in
        the width n asks for shows there too; all at the digits the
        directory names.
    DIR/exact_seed1.txt
        scaled_touchard at the EXACT_POINTS points drawn from seed 1: n
        uniform in 1..1200, x log-uniform in [1e-300, 1e300] (even points)
        or n e (1 + u) with u uniform in [-0.5, 0.5] (odd points), digits
        from EXACT_DIGITS; one line per point with the value string and
        `cancellation_digits`, or the exit code of the TouchardError raised.
    DIR/airy_seed1.txt, airy_seed2.txt, airy_seed3.txt
        Ai and Ai' at the AIRY_POINTS points drawn from each seed: digits
        from AIRY_DIGITS, z uniform in [-2 E(d), 2 E(d)] with E(d) = edge(d),
        then the 8 edges z = +-E(d); one line per point with the Ai and Ai'
        strings, or the exit code of the TouchardError raised.
    DIR/contours/
        one contours_xi<XI>_d<D>.json per xi of CONTOUR_XI, from the small
        end of the tracing frame (1e-5) to its large end (7.7) with seven
        points within 1e-2 of the double saddle at xi = 1, two of them at
        1 +- 1e-26, a pair that contour_set traces as one double saddle at
        its midpoint, and per D of DIGITS.

Two trees agree when `diff -r` finds nothing between their directories.
"""
import argparse
import contextlib
import io
import math
import pathlib
import random

from touchard import (N_MAX_LIMIT, TouchardError, airy, leading_order,
                      mk_context, mu_from_xi, real_from, scaled_touchard,
                      theorem1_eval, theorem2_eval, wrap_real)
from touchard.cli import main as cli_main

DIGITS = (40, 120, 300)
EVAL_POINTS = (("300", "0.97"), ("100", "1"), ("1000", "1.1"), ("100", "0.9"),
               ("300", "1.03"), ("100", "0.5"), ("100", "3"), ("81", "1.01"),
               ("100", "0.02"), ("100", "1e-40"))
REFUSALS = (["eval", "--n", "100", "--xi", "0"],
            ["eval", "--n", "100", "--xi", "-1"],
            ["eval", "--n", str(N_MAX_LIMIT + 2), "--xi", "1"],
            ["eval", "--n", "100", "--xi", "nan"],
            ["table2", "--xi", "inf"],
            ["contours", "--xi", "abc"])
THEOREM2_N = (100, 10 ** 4, 10 ** 6, 10 ** 9)
THEOREM2_XI = ("0.5", "0.9", "0.97", "0.9999", "0." + "9" * 126, "1",
               "1." + "0" * 45 + "1", "1.0001", "1.01", "1.1", "1.5", "3")
EXACT_SEEDS = (1,)
EXACT_POINTS = 600
EXACT_DIGITS = (30, 40, 120)
AIRY_SEEDS = (1, 2, 3)
AIRY_POINTS = 400
AIRY_DIGITS = (30, 40, 120, 300)
CONTOUR_XI = ("1e-5", "0.01", "0.1", "0.3", "0.5", "0.8", "0.9", "0.99",
              "0.999999", "0.99999999999999999999999999", "1",
              "1.00000000000000000000000001", "1.000001", "1.01", "1.1", "1.8",
              "3", "7.7")


def theorem2_lines(digits: int) -> list[str]:
    """theorem2_eval and leading_order at text xi, and theorem1_eval at
    order 6, as `eval` takes it, one line per call."""
    ctx = mk_context(digits)
    lines = []
    for n in THEOREM2_N:
        calls = [(f"theorem1 n={n}", lambda: theorem1_eval(n, 6, ctx))]
        for xi in THEOREM2_XI:
            calls += [(f"theorem2 n={n} xi={xi}",
                       lambda xi=xi: theorem2_eval(n, xi, ctx)),
                      (f"poincare n={n} xi={xi}",
                       lambda xi=xi: leading_order(
                           n, mu_from_xi(xi, ctx), ctx).value)]
        for name, call in calls:
            try:
                got = call().to_str()
            except TouchardError as exc:
                got = f"{type(exc).__name__}, exit {exc.exit_code}"
            lines.append(f"{name}: {got}\n")
    return lines


def digit_set(outdir: pathlib.Path, digits: int) -> list[pathlib.Path]:
    """Write the tables, evals, refusals and theorem2 lines at `digits`
    into outdir; return the paths."""
    outdir.mkdir(parents=True, exist_ok=True)
    d = ["--digits", str(digits)]
    runs = [([table], f"{table}.csv") for table in ("table1", "table2")]
    runs += [(["eval", "--n", n, "--xi", xi], f"eval_n{n}_xi{xi}.json")
             for n, xi in EVAL_POINTS]
    for cmd, name in runs:
        cli_main(cmd + d + ["--out", str(outdir / name)])
    lines = []
    for cmd in REFUSALS:
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(cmd + d)
        lines.append(f"{' '.join(cmd)}: exit {code}\n")
    (outdir / "refusals.txt").write_text("".join(lines))
    (outdir / "theorem2.txt").write_text("".join(theorem2_lines(digits)))
    return [outdir / name for _, name in runs] + [outdir / "refusals.txt",
                                                  outdir / "theorem2.txt"]


def exact_points(seed: int) -> list[tuple[int, str, int]]:
    """(n, x as a 17-digit string, digits) of each exact point, in order."""
    rng = random.Random(seed)
    out = []
    for i in range(EXACT_POINTS):
        n = rng.randint(1, 1200)
        if i % 2:
            x = n * math.e * (1 + rng.uniform(-0.5, 0.5))
        else:
            x = 10 ** rng.uniform(-300, 300)
        out.append((n, f"{x:.16e}", rng.choice(EXACT_DIGITS)))
    return out


def exact_line(n: int, x: str, digits: int) -> str:
    ctx = mk_context(digits)
    try:
        got = scaled_touchard(n, real_from(x, ctx), ctx)
    except TouchardError as exc:
        return f"n={n} x={x} digits={digits}: exit {exc.exit_code}\n"
    return (f"n={n} x={x} digits={digits}: {got.value.to_str()} "
            f"{got.cancellation_digits}\n")


def edge(digits: int) -> float:
    """((3/4)(d + 10) ln 10)^(2/3), the limit airy.maclaurin_limit gave for
    z < 0 before one limit served both signs, restated here so that the
    points stay where they are when the package moves its switchover."""
    return (0.75 * (digits + 10) * math.log(10)) ** (2 / 3)


def airy_points(seed: int) -> list[tuple[str, int]]:
    """(z as a 17-digit string, digits) of each Airy point, in order."""
    rng = random.Random(seed)
    out = []
    for _ in range(AIRY_POINTS):
        digits = rng.choice(AIRY_DIGITS)
        z = 2 * edge(digits) * rng.uniform(-1, 1)
        out.append((f"{z:.16e}", digits))
    for digits in AIRY_DIGITS:
        out += [(f"{s * edge(digits):.16e}", digits) for s in (-1, 1)]
    return out


def airy_line(z: str, digits: int) -> str:
    ctx = mk_context(digits)
    try:
        got = airy(real_from(z, ctx), ctx)
    except TouchardError as exc:
        return f"z={z} digits={digits}: exit {exc.exit_code}\n"
    ai, aip = (wrap_real(v, ctx).to_str() for v in (got.ai, got.ai_prime))
    return f"z={z} digits={digits}: {ai} {aip}\n"


def contour_file(outdir: pathlib.Path, xi: str, digits: int) -> pathlib.Path:
    """Write the `contours` JSON at (xi, digits) into outdir; return the path."""
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"contours_xi{xi}_d{digits}.json"
    code = cli_main(["contours", "--xi", xi, "--digits", str(digits),
                     "--out", str(path)])
    if code:
        raise SystemExit(f"contours --xi {xi} --digits {digits}: exit {code}")
    return path


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--outdir", required=True)
    outdir = pathlib.Path(ap.parse_args(argv).outdir)
    paths = [p for d in DIGITS for p in digit_set(outdir / f"d{d}", d)]
    for name, seeds, points, line in (
            ("exact", EXACT_SEEDS, exact_points, exact_line),
            ("airy", AIRY_SEEDS, airy_points, airy_line)):
        for seed in seeds:
            path = outdir / f"{name}_seed{seed}.txt"
            path.write_text("".join(line(*pt) for pt in points(seed)))
            paths.append(path)
    paths += [contour_file(outdir / "contours", xi, d)
              for xi in CONTOUR_XI for d in DIGITS]
    print(f"wrote {len(paths)} files into {outdir}")


if __name__ == "__main__":
    main()
