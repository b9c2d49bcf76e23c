"""Non-uniform leading-order approximations away from mu = 1/e.

For mu = n/x bounded away from 1/e the contributing saddles stay simple and
an ordinary steepest-descent expansion applies. With x = n/mu, c_0 = 1 and
t0 the saddle W_0(-mu), both regimes take the one term

    L = e^(x + n/t0) / (sqrt(2 pi (1 + t0)) t0^(n-1) sqrt(n)).

Below the band (0 < mu < 1/e) t0 is the real saddle of smaller modulus, in
(-1, 0), and T^_{n-1}(-x) ~ L, which must be real. Above it (mu > 1/e) t0
is the upper saddle of the conjugate pair, which adds the conjugate term,
so T^_{n-1}(-x) ~ 2 Re L: twice its real part for the conjugate pair.

Powers of the negative or complex saddle are taken through the branched
logarithm (argument in [0, 2 pi)), which is what makes L real below the
band, with the expected sign (-1)^(n-1). As n/t0 = -x e^t0, x + n/t0 is
taken as -x expm1(t0), which does not cancel however small t0 is; all runs
at numkernel.working_digits(ctx, n) and only the value is rounded to ctx.
Accuracy degrades like O(1/n) relative error and blows up as mu e -> 1; the
band |mu e - 1| <= 0.05 is refused.
"""
from __future__ import annotations

import enum
from typing import NamedTuple

from mpmath import mp, mpc, mpf

from .errors import RegimeError
from .numkernel import (BigReal, PrecisionContext, _require_real,
                        log_branched_raw, read_int, read_real, working_digits,
                        wrap_real)
from .saddle import solve_saddle

EXCLUSION_HALF_WIDTH = mpf("0.05")


class PoincareRegime(enum.Enum):
    BELOW = "below"
    ABOVE = "above"


class PoincareResult(NamedTuple):
    value: BigReal
    regime: PoincareRegime
    t0_used: mpc


def leading_order(n: int, mu, ctx: PrecisionContext) -> PoincareResult:
    """Leading-order T^_{n-1}(-n/mu) for mu outside the coalescence band."""
    digits = working_digits(ctx, read_int(n, 10))
    muv = read_real(mu, digits)
    with mp.workdps(digits):
        if abs(muv * mp.e - 1) <= EXCLUSION_HALF_WIDTH:
            raise RegimeError(
                f"mu e = {mp.nstr(muv * mp.e, 8)} lies inside the exclusion "
                f"band |mu e - 1| <= {mp.nstr(EXCLUSION_HALF_WIDTH, 2)}; "
                "use the uniform approximation there")
        t0 = solve_saddle(muv, 0, digits)[0]
        x = n / muv
        term = mp.exp(-x * mp.expm1(t0) - (n - 1) * log_branched_raw(t0))
        term = term / mp.sqrt(2 * mp.pi * (1 + t0) * n)
        if muv * mp.e < 1:  # xi > 1: the real pair
            regime = PoincareRegime.BELOW
            value = _require_real(  # Im: (n - 1) pi's rounding, n 10^-digits
                term, working_digits(ctx, 1), "below-band value")
        else:
            regime = PoincareRegime.ABOVE
            value = 2 * mp.re(term)
    return PoincareResult(value=wrap_real(value, ctx), regime=regime,
                          t0_used=t0)
