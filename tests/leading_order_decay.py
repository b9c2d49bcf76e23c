"""Decay check that falsifies the leading order's unit coefficient if wrong.

With c_0 = 1 correct, the relative error of poincare.leading_order at
mu = 0.2 decays like 1/n, so the halving ratios err(2n)/err(n) at
n = 50, 100, 200 land in [0.3, 0.7]. A wrong constant would leave the error
flat instead.
"""
from mpmath import mp, mpf

from touchard import (leading_order, mk_context, real_from, scaled_touchard,
                      wrap_real)
from touchard.numkernel import raw

LADDER = (50, 100, 200)


def halving_ratios(ctx=None):
    """(err(100)/err(50), err(200)/err(100)) at mu = 0.2, 60 digits by default."""
    ctx = mk_context(60) if ctx is None else ctx
    mu = real_from("0.2", ctx)
    errs = []
    with mp.workdps(ctx.digits + 10):
        for n in LADDER:
            x = wrap_real(mpf(n) / raw(mu), ctx)
            exact = scaled_touchard(n - 1, x, ctx)
            approx = leading_order(n, mu, ctx)
            errs.append(abs(raw(approx.value) / raw(exact.value) - 1))
        return (float(errs[1] / errs[0]), float(errs[2] / errs[1]))
