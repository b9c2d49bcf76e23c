"""Uniform Airy approximation across the saddle coalescence.

The cubic change of variable psi(t) = u^3/3 - zeta u + beta sends the two
saddles to u = +/- zeta^{1/2} and is pinned by

    beta = (psi(t0) + psi(t1))/2,
    (2/3) zeta^{3/2}    = (psi(t1) - psi(t0))/2          (xi > 1),
    (2/3) (-zeta)^{3/2} = i (psi(t1) - psi(t0))/2        (xi < 1),

using psi(t) = 1/t - log t at a saddle. Both right-hand sides are real and
positive; zeta carries the sign of xi - 1. The two-term approximation is

    T^_{n-1}(-x) ~ (-1)^(n-1) e^(x + n Re beta)
        * { A0 n^{-1/3} Ai(n^{2/3} zeta) - B0 n^{-2/3} Ai'(n^{2/3} zeta) }.

Amplitudes: with g(u) = dt/du and psi''(t_j) = (1 + t_j)/t_j^2,

    xi > 1:  g(+zeta^{1/2}) = (2 zeta^{1/2}/psi''(t0))^{1/2},
             g(-zeta^{1/2}) = (-2 zeta^{1/2}/psi''(t1))^{1/2},
             A0 = (g(+) + g(-))/2,  B0 = (g(+) - g(-))/(2 zeta^{1/2});
    xi < 1:  r = (i/psi''(t0))^{1/2} with t0 the upper saddle and the
             principal square root,
             A0 = sqrt(2) |zeta|^{1/4} Re r,  B0 = sqrt(2) |zeta|^{-1/4} Im r.

At xi = 1 everything has a finite limit: A0 = 2^{1/3},
B0 = -(5/6) 2^{2/3}, Re beta = -1; the evaluator switches to those closed
forms inside the snap window |xi - 1| <= 10^-(digits+5), where they differ
from the true values by about 120 |xi - 1|, below the context's last digit.

Outside it psi(t1) - psi(t0) ~ |xi - 1|^{3/2} cancels
1.5 log10(1/|xi - 1|) digits of zeta, and g(+) - g(-) another
0.5 log10(1/|xi - 1|) of B0. uniform_ingredients therefore works at
ctx.digits + max(0, ceil(2 log10(1/|xi - 1|)) - 5) digits and rounds every
field back to ctx; for |xi - 1| >= 0.01 that widens by nothing. The widened
context's own coalescence tolerance lies far inside |xi - 1|, so
solve_saddles there returns the two distinct saddles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .airy import airy
from .errors import BranchError, DomainError
from .numkernel import (BigComplex, BigReal, PrecisionContext, mk_context,
                        raw, real_from, wrap_complex, wrap_real)
from .saddle import (SaddleKind, SaddlePair, mu_from_xi, psi2_at_saddle_raw,
                     psi_reduced_raw, solve_saddles)


@dataclass(frozen=True)
class UniformIngredients:
    xi: BigReal
    zeta: BigReal
    beta: BigComplex
    A0: BigReal
    B0: BigReal
    saddles: SaddlePair


def _require_real(v: mpc, scale, digits: int, what: str) -> mpf:
    tol = mpf(10) ** (-(digits - 10)) * max(mpf(1), abs(scale))
    if abs(mp.im(v)) > tol:
        raise BranchError(f"{what} has imaginary residue {mp.nstr(mp.im(v), 3)}")
    return mp.re(v)


def compute_zeta_beta(saddles: SaddlePair, ctx: PrecisionContext):
    """(zeta, beta) from a classified saddle pair."""
    with mp.workdps(ctx.digits + 10):
        if saddles.kind is SaddleKind.DOUBLE:
            beta = mpc(-1) - 1j * mp.pi
            return wrap_real(mpf(0), ctx), wrap_complex(beta, ctx)
        p0 = psi_reduced_raw(raw(saddles.t0))
        p1 = psi_reduced_raw(raw(saddles.t1))
        beta = (p0 + p1) / 2
        if saddles.kind is SaddleKind.REAL_PAIR:
            rhs = (p1 - p0) / 2
        else:
            # t0 is the upper-half saddle; i*(p1 - p0)/2 = Im p0 + pi > 0
            rhs = 1j * (p1 - p0) / 2
        rr = _require_real(rhs, rhs, ctx.digits, "zeta^{3/2} right-hand side")
        if rr <= 0:
            raise BranchError(
                f"zeta right-hand side must be positive, got {mp.nstr(rr, 5)}")
        mag = (mpf(3) / 2 * rr) ** (mpf(2) / 3)
        zeta = mag if saddles.kind is SaddleKind.REAL_PAIR else -mag
        return wrap_real(zeta, ctx), wrap_complex(beta, ctx)


def compute_A0_B0(saddles: SaddlePair, zeta: BigReal, ctx: PrecisionContext):
    """Amplitudes (A0, B0); square-root branches fixed by continuity at xi=1."""
    zv = raw(zeta)
    with mp.workdps(ctx.digits + 10):
        if saddles.kind is SaddleKind.DOUBLE or zv == 0:
            raise DomainError(
                "inside the coalescence tolerance; use coalescence_limit_values")
        if saddles.kind is SaddleKind.REAL_PAIR:
            c0 = psi2_at_saddle_raw(raw(saddles.t0))
            c1 = psi2_at_saddle_raw(raw(saddles.t1))
            d0 = _require_real(c0, c0, ctx.digits, "psi''(t0)")
            d1 = _require_real(c1, c1, ctx.digits, "psi''(t1)")
            if d0 <= 0 or d1 >= 0:
                raise BranchError(
                    f"real-pair curvature signs wrong: psi''(t0)={mp.nstr(d0, 5)}, "
                    f"psi''(t1)={mp.nstr(d1, 5)}")
            sq = mp.sqrt(zv)
            gp = mp.sqrt(2 * sq / d0)
            gm = mp.sqrt(-2 * sq / d1)
            a0 = (gp + gm) / 2
            b0 = (gp - gm) / (2 * sq)
        else:
            c0 = psi2_at_saddle_raw(raw(saddles.t0))
            r = mp.sqrt(1j / c0)
            q = abs(zv) ** mpf("0.25")
            a0 = mp.sqrt(2) * q * mp.re(r)
            b0 = mp.sqrt(2) / q * mp.im(r)
        return wrap_real(a0, ctx), wrap_real(b0, ctx)


def coalescence_limit_values(ctx: PrecisionContext):
    """(A0, B0) at xi = 1, from the cubic map's derivatives at u = 0.

    With g(u) = dt/du: A0 = g(0) = (2/psi'''(-1))^{1/3} and
    B0 = g'(0) = t''(0) = -(psi''''(-1)/(6 psi'''(-1))) (2/psi'''(-1))^{2/3}.
    Here psi'''(-1) = 1 and psi''''(-1) = 5.
    """
    with mp.workdps(ctx.digits + 10):
        p3, p4 = mpf(1), mpf(5)
        tp = (2 / p3) ** (mpf(1) / 3)
        tpp = -(p4 / (6 * p3)) * (2 / p3) ** (mpf(2) / 3)
    return wrap_real(tp, ctx), wrap_real(tpp, ctx)


def _extra_digits(xi, ctx: PrecisionContext) -> int:
    """Digits that zeta and B0 cancel near xi = 1 (module docstring).

    Zero inside the snap window, where the closed forms take over. log10
    comes from the mpf's binary mantissa and exponent, because |xi - 1| can
    lie below the smallest double.
    """
    with mp.workdps(ctx.digits + 10):
        gap = abs(mpf(raw(xi)) - 1)
        if gap <= mpf(10) ** -(ctx.digits + 5):
            return 0
    log10_gap = math.log10(gap.man) + gap.exp * math.log10(2)
    return max(0, math.ceil(-2 * log10_gap) - 5)


def _round_to(v, ctx: PrecisionContext):
    wrap = wrap_complex if isinstance(v, BigComplex) else wrap_real
    return wrap(v.value, ctx)


def uniform_ingredients(xi, ctx: PrecisionContext) -> UniformIngredients:
    """zeta, beta, A0, B0 and the saddles, computed wide and rounded to ctx."""
    extra = _extra_digits(xi, ctx)
    wide = mk_context(ctx.digits + extra)
    saddles = solve_saddles(mu_from_xi(xi, wide), wide)
    zeta, beta = compute_zeta_beta(saddles, wide)
    if saddles.kind is SaddleKind.DOUBLE:
        a0, b0 = coalescence_limit_values(wide)
    else:
        a0, b0 = compute_A0_B0(saddles, zeta, wide)
    if extra:
        saddles = SaddlePair(saddles.kind, *(_round_to(v, ctx) for v in (
            saddles.t0, saddles.t1, saddles.residual0, saddles.residual1)))
        zeta, beta, a0, b0 = (_round_to(v, ctx) for v in (zeta, beta, a0, b0))
    return UniformIngredients(xi=real_from(xi, ctx), zeta=zeta, beta=beta,
                              A0=a0, B0=b0, saddles=saddles)


def theorem2_eval(n: int, xi, ctx: PrecisionContext,
                  ingredients: UniformIngredients | None = None) -> BigReal:
    """Two-term uniform approximation of T^_{n-1}(-x), x = n e xi."""
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    ing = uniform_ingredients(xi, ctx) if ingredients is None else ingredients
    with mp.workdps(ctx.digits + 10):
        xiv = ing.xi.value
        x = n * mp.e * xiv
        nn = mpf(n)
        arg = nn ** (mpf(2) / 3) * ing.zeta.value
        av = airy(wrap_real(arg, ctx), ctx)
        brace = (ing.A0.value * av.ai.value / nn ** (mpf(1) / 3)
                 - ing.B0.value * av.ai_prime.value / nn ** (mpf(2) / 3))
        value = (-1) ** (n - 1) * mp.exp(x + nn * mp.re(ing.beta.value)) * brace
    return wrap_real(value, ctx)

