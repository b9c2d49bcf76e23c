"""Non-uniform leading-order approximations away from mu = 1/e.

For mu = n/x bounded away from 1/e the contributing saddles stay simple and
an ordinary steepest-descent expansion applies. With x = n/mu and c_0 = 1:

    0 < mu < 1/e (t0 the real saddle of smaller modulus, in (-1, 0)):
        T^_{n-1}(-x) ~ e^(x + n/t0) / (sqrt(2 pi (1 + t0)) t0^(n-1) sqrt(n))

    mu > 1/e (t0 the upper conjugate saddle):
        T^_{n-1}(-x) ~ Re[ sqrt(2) e^(x + n/t0)
                           / (sqrt(pi (1 + t0)) t0^(n-1)) ] / sqrt(n)

Powers of the negative or complex saddle are taken through the branched
logarithm (argument in [0, 2 pi)), which is what makes the first form real
with the expected sign (-1)^(n-1). Accuracy degrades like O(1/n) relative
error and blows up as mu e -> 1; the band |mu e - 1| <= 0.05 is refused.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import BranchError, DomainError, RegimeError
from .numkernel import (BigComplex, BigReal, PrecisionContext,
                        log_branched_raw, raw, real_from, wrap_complex,
                        wrap_real)
from .saddle import SaddleKind, solve_saddles

EXCLUSION_HALF_WIDTH = mpf("0.05")


class PoincareRegime(enum.Enum):
    BELOW = "below"
    ABOVE = "above"


@dataclass(frozen=True)
class PoincareResult:
    value: BigReal
    regime: PoincareRegime
    t0_used: BigComplex


def leading_order(n: int, mu, ctx: PrecisionContext) -> PoincareResult:
    """Leading-order T^_{n-1}(-n/mu) for mu outside the coalescence band."""
    if n < 10:
        raise DomainError(f"n must be >= 10 for the leading-order form, got {n}")
    muv = raw(real_from(mu, ctx))
    with mp.workdps(ctx.digits + 10):
        if abs(muv * mp.e - 1) <= EXCLUSION_HALF_WIDTH:
            raise RegimeError(
                f"mu e = {mp.nstr(muv * mp.e, 8)} lies inside the exclusion "
                f"band |mu e - 1| <= {mp.nstr(EXCLUSION_HALF_WIDTH, 2)}; "
                "use the uniform approximation there")
        saddles = solve_saddles(muv, ctx)
        t0 = raw(saddles.t0)
        x = mpf(n) / muv
        power = mp.exp(-(n - 1) * log_branched_raw(t0))
        if saddles.kind is SaddleKind.REAL_PAIR:
            regime = PoincareRegime.BELOW
            val = mp.exp(x + n / t0) * power / mp.sqrt(2 * mp.pi * (1 + t0))
            val = val / mp.sqrt(mpf(n))
            tol = mpf(10) ** (-(ctx.digits - 10)) * max(mpf(1), abs(val))
            if abs(mp.im(val)) > tol:
                raise BranchError(
                    f"below-band value has imaginary residue "
                    f"{mp.nstr(mp.im(val), 3)}")
            value = mp.re(val)
        else:
            regime = PoincareRegime.ABOVE
            val = (mp.sqrt(2) * mp.exp(x + n / t0) * power
                   / mp.sqrt(mp.pi * (1 + t0)))
            value = mp.re(val) / mp.sqrt(mpf(n))
        return PoincareResult(value=wrap_real(value, ctx), regime=regime,
                              t0_used=wrap_complex(t0, ctx))

