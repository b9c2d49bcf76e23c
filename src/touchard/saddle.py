"""Saddles of the phase psi(t; mu) = -e^t/mu - log t.

Saddles solve t e^t = -mu, so they are Lambert W values of -mu. mu = n/x
is the phase's one parameter; a caller that holds xi = x/(n e) instead
converts it with mu_at or mu_from_xi (rounded to ctx), the one place that
does. solve_saddles takes mu alone and classifies the pair by xi = 1/(e mu):
the real pair W_0(-mu), W_-1(-mu) for xi > 1, and otherwise the conjugate
pair W_0(-mu) and its conjugate, W_0 taking the upper one below -1/e
(Corless et al., Adv. Comput. Math. 5, 1996). Each W is an mpc at the
caller's working digits: mpmath's double-precision W, which picks the
branch, is polished by one Halley step per level at rising precision. Where
-mu is not a normal double or |1 - 1/xi| < 5e-5 (|1 + W| below about 0.01),
that seed is poor and mpmath.lambertw runs instead. Each saddle is certified
by its residual |t e^t + mu|, however near xi = 1 it lies. The pair
coalesces into the double root t = -1 at xi = 1; solve_saddles never
returns SaddleKind.DOUBLE, which uniform_ingredients and contour_set build
under their own rules.

At a saddle psi reduces to 1/t - log t and psi'' to (1 + t)/t^2. The
logarithm is the branched one from numkernel (arg in [0, 2pi)), so
psi(-1; 1/e) = -1 - i pi and Im(psi(t) + psi(conj t)) = -2 pi off the axis.
"""
from __future__ import annotations

import enum
import math
import sys
from typing import NamedTuple

from mpmath import fp, mp, mpc, mpf

from .errors import DomainError, InvalidPrecisionError, SolverError
from .numkernel import (_GUARD, MAX_WIDTH, MIN_DIGITS, BigReal,
                        PrecisionContext, log_branched_raw, read_int,
                        read_real, working_digits, wrap_real)


class SaddleKind(enum.Enum):
    REAL_PAIR = "real_pair"
    DOUBLE = "double"
    CONJUGATE_PAIR = "conjugate_pair"


class SaddlePair(NamedTuple):
    kind: SaddleKind
    t0: mpc
    t1: mpc
    residual0: mpf
    residual1: mpf


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

def mu_at(xi, digits: int) -> mpf:
    """mu = 1/(e xi), with xi read and mu computed at digits."""
    xv = read_real(xi, digits)
    if not xv > 0:
        raise DomainError(f"xi must be positive, got {mp.nstr(xv, 8)}")
    with mp.workdps(digits):
        return 1 / (mp.e * xv)


def mu_from_xi(xi, ctx: PrecisionContext) -> BigReal:
    """mu = 1/(e xi) at working_digits(ctx, 1), rounded to ctx."""
    return wrap_real(mu_at(xi, working_digits(ctx, 1)), ctx)


def _lambertw(z: mpf, k: int):
    """W_k(z) at the working precision, rounded with +w."""
    zf = float(z)
    if not (sys.float_info.min <= abs(zf) <= sys.float_info.max
            and abs(1 + math.e * zf) >= 5e-5):
        return mp.lambertw(z, k)
    w = mp.convert(fp.lambertw(zf, k))
    # a Halley step triples the digits it is given, less about 3.5 lost
    # near the branch point; the seed holds at least 14 there
    levels = [mp.dps + 5]
    while levels[-1] > 40:
        levels.append(levels[-1] // 3 + 5)
    for dps in reversed(levels):
        with mp.workdps(dps):
            ew = mp.exp(w)
            f = w * ew - z
            w = w - f / (w * ew + ew - (w + 2) * f / (2 * w + 2))
    return +w


def solve_saddle(mu, k: int, digits: int) -> tuple[mpc, mpf]:
    """W_k(-mu) at digits, certified by its residual |t e^t + mu|
    <= 10^-(digits - _GUARD) mu, which is returned with it; digits lies in
    [MIN_DIGITS, MAX_WIDTH]."""
    read_int(digits, MIN_DIGITS, MAX_WIDTH, "digits", InvalidPrecisionError)
    mu = read_real(mu, digits)
    if not mu > 0:
        raise DomainError(f"mu must be positive, got {mp.nstr(mu, 8)}")
    with mp.workdps(digits):
        t = mpc(_lambertw(-mu, k))
        r = abs(t * mp.exp(t) + mu)
        bound = mpf(10) ** (-(digits - _GUARD)) * mu
        if not r <= bound:
            raise SolverError(
                f"saddle residual {mp.nstr(r, 3)} on branch {k} exceeds "
                f"{mp.nstr(bound, 3)} at xi={mp.nstr(1 / (mp.e * mu), 8)}")
        return t, r


def solve_saddles(mu, digits: int) -> SaddlePair:
    """The saddle pair of psi(t; mu) at digits, classified by xi = 1/(e mu)."""
    # W_0(-mu) is the smaller real saddle above -1/e and the upper one of
    # the conjugate pair below it
    t0, r0 = solve_saddle(mu, 0, digits)
    with mp.workdps(digits):
        if 1 / (mp.e * read_real(mu, digits)) > 1:
            t1, r1 = solve_saddle(mu, -1, digits)
            return SaddlePair(SaddleKind.REAL_PAIR, t0, t1, r0, r1)
        # conj(t0) has the same residual
        return SaddlePair(SaddleKind.CONJUGATE_PAIR, t0, mp.conj(t0), r0, r0)
