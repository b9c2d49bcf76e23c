#!/usr/bin/env python3
"""Error-decay study for the two asymptotic routes.

Part 1: leading-order (Poincare) relative error for a doubling n ladder at
fixed mu, printing n, rel_err and n*rel_err. With the unit leading
coefficient correct, n*rel_err should flatten to a constant (exactly the
c0=1 falsification argument, here observable by eye).

Part 2: coalescence-series truncation sweep at x = n e, printing the
relative error against the exact value for each truncation order. Orders
with index = 2 (mod 3) contribute nothing and are skipped.
"""
import argparse

from mpmath import mp

from touchard import (leading_order, mk_context, real_from, scaled_value,
                      theorem1_eval, working_digits, wrap_real)


def poincare_sweep(mu_str: str, n_values, ctx) -> None:
    mu = real_from(mu_str, ctx)
    print(f"# poincare, mu = {mu_str}")
    print("n,rel_err,n_times_rel_err")
    for n in n_values:
        with mp.workdps(working_digits(ctx, 1)):
            x = wrap_real(n / mu.value, ctx)
        exact = scaled_value(n - 1, x, ctx)
        approx = leading_order(n, mu, ctx)
        with mp.workdps(ctx.digits):
            rel = abs(approx.value.value / exact.value - 1)
        print(f"{n},{mp.nstr(rel, 6)},{mp.nstr(n * rel, 6)}")


def truncation_sweep(n: int, max_order: int, ctx) -> None:
    with mp.workdps(working_digits(ctx, 1)):
        x = wrap_real(n * mp.e, ctx)
    exact = scaled_value(n - 1, x, ctx)
    print(f"# coalescence series truncation, n = {n}")
    print("order,rel_err")
    for m in range(max_order + 1):
        if m % 3 == 2:
            continue
        approx = theorem1_eval(n, m, ctx)
        with mp.workdps(ctx.digits):
            rel = abs(approx.value / exact.value - 1)
        print(f"{m},{mp.nstr(rel, 6)}")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mu", default="0.2")
    ap.add_argument("--n-ladder", type=int, nargs="+",
                    default=[50, 100, 200, 400])
    ap.add_argument("--n", type=int, default=121)
    ap.add_argument("--max-order", type=int, default=12)
    ap.add_argument("--digits", type=int, default=None)
    args = ap.parse_args(argv)
    ctx = mk_context(args.digits)
    poincare_sweep(args.mu, args.n_ladder, ctx)
    print()
    truncation_sweep(args.n, args.max_order, ctx)


if __name__ == "__main__":
    main()
