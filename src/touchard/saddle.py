"""Saddles of the phase psi(t; mu) = -e^t/mu - log t.

Saddles solve t e^t = -mu, so they are Lambert W values of -mu. mu = n/x
is the phase's one parameter; a caller that holds xi = x/(n e) instead
converts it with mu_from_xi, the one place that does. solve_saddles takes mu
alone and classifies the pair by xi = 1/(e mu), recomputed at digits + 15:
the real pair W_0(-mu), W_-1(-mu) for xi > 1, and otherwise the conjugate
pair W_0(-mu) and its conjugate, W_0 taking the upper one below -1/e
(Corless et al., Adv. Comput. Math. 5, 1996). Both come from
mpmath.lambertw at digits + 15, and the rounded values are certified by
their residual |t e^t + mu|, however near xi = 1 they lie. The pair
coalesces into the double root t = -1 at xi = 1; solve_saddles never
returns SaddleKind.DOUBLE, which uniform_ingredients and contour_set build
under their own rules.

At a saddle psi reduces to 1/t - log t and psi'' to (1 + t)/t^2. The
logarithm is the branched one from numkernel (arg in [0, 2pi)), so
psi(-1; 1/e) = -1 - i pi and Im(psi(t) + psi(conj t)) = -2 pi off the axis.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .errors import DomainError, SolverError
from .numkernel import (BigComplex, BigReal, PrecisionContext, log_branched_raw,
                        mk_context, raw, real_from, wrap_complex, wrap_real)


class SaddleKind(enum.Enum):
    REAL_PAIR = "real_pair"
    DOUBLE = "double"
    CONJUGATE_PAIR = "conjugate_pair"


@dataclass(frozen=True)
class SaddlePair:
    kind: SaddleKind
    t0: BigComplex
    t1: BigComplex
    residual0: BigReal
    residual1: BigReal


# ---------------------------------------------------------------------------
# phase function at a saddle

def psi_reduced_raw(tv: mpc) -> mpc:
    """1/t - log t; equals psi(t; mu) whenever t e^t = -mu."""
    tv = mpc(tv)
    if tv == 0:
        raise DomainError("psi is singular at t = 0")
    if tv.imag == 0 and tv.real >= 0:
        raise DomainError(f"t = {tv} lies on the branch cut [0, inf)")
    return 1 / tv - log_branched_raw(tv)


def psi2_at_saddle_raw(tv: mpc) -> mpc:
    """(1 + t)/t^2; equals psi''(t; mu) whenever t e^t = -mu."""
    return (1 + mpc(tv)) / mpc(tv) ** 2


# ---------------------------------------------------------------------------
# saddle solver

def mu_from_xi(xi, ctx: PrecisionContext) -> BigReal:
    """mu = 1/(e xi), with xi read and mu computed at digits + 10, then
    rounded to ctx."""
    wide = mk_context(ctx.digits + 10)
    xv = raw(real_from(xi, wide))
    if not xv > 0:
        raise DomainError(f"xi must be positive, got {mp.nstr(xv, 8)}")
    with mp.workdps(wide.digits):
        return wrap_real(1 / (mp.e * xv), ctx)


def solve_saddles(mu, ctx: PrecisionContext) -> SaddlePair:
    """The saddle pair of psi(t; mu), classified by xi = 1/(e mu)."""
    mu = raw(real_from(mu, ctx))
    if not mu > 0:
        raise DomainError(f"mu must be positive, got {mp.nstr(mu, 8)}")
    with mp.workdps(ctx.digits + 15):
        xi = 1 / (mp.e * mu)
        res_bound = mpf(10) ** (-(ctx.digits - 10)) * mu
        # W_0(-mu) is the smaller real saddle above -1/e and the upper one
        # of the conjugate pair below it
        t0 = mpc(mp.lambertw(-mu, 0))
        if xi > 1:
            t1 = mpc(mp.lambertw(-mu, -1))
            kind = SaddleKind.REAL_PAIR
        else:
            t1 = mp.conj(t0)
            kind = SaddleKind.CONJUGATE_PAIR

        # certify the rounded values actually returned, not the iterates
        t0w, t1w = wrap_complex(t0, ctx), wrap_complex(t1, ctx)
        r0, r1 = (abs(t * mp.exp(t) + mu) for t in (t0w.value, t1w.value))
        if not (r0 <= res_bound and r1 <= res_bound):
            raise SolverError(
                f"saddle residuals ({mp.nstr(r0, 3)}, {mp.nstr(r1, 3)}) exceed "
                f"{mp.nstr(res_bound, 3)} at xi={mp.nstr(xi, 8)}")
        return SaddlePair(kind, t0w, t1w, wrap_real(r0, ctx), wrap_real(r1, ctx))
