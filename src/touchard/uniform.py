"""Uniform Airy approximation across the saddle coalescence.

The cubic change of variable psi(t) = u^3/3 - zeta u + beta (Chester,
Friedman and Ursell, 1957) sends the saddles t0, t1 to u = +/- zeta^{1/2}:

    beta = (psi(t0) + psi(t1))/2,   (2/3) zeta^{3/2} = (psi(t1) - psi(t0))/2,

with psi(t) = 1/t - log t at a saddle. zeta has the sign of xi - 1; below
xi = 1, zeta^{1/2} = i |zeta|^{1/2} and t0 is the upper saddle, so
(2/3) |zeta|^{3/2}, which is (psi(t1) - psi(t0))/2 times 1 above xi = 1
and times i below it, must come out real and positive.
With g(u) = dt/du, psi''(t_j) = (1 + t_j)/t_j^2 and principal square roots,
one formula gives the amplitudes of both pairs, and they must be real:

    g(+/- zeta^{1/2}) = (+/- 2 zeta^{1/2}/psi''(t_{0,1}))^{1/2},
    A0 = (g(+) + g(-))/2,   B0 = (g(+) - g(-))/(2 zeta^{1/2}),
    T^_{n-1}(-x) ~ (-1)^(n-1) e^(x + n Re beta)
        * { A0 n^{-1/3} Ai(n^{2/3} zeta) - B0 n^{-2/3} Ai'(n^{2/3} zeta) }.

At xi = 1, zeta = 0 and beta = -1 - i pi, and the cubic map's derivatives
at u = 0, with psi'''(-1) = 1 and psi''''(-1) = 5, give

    A0 = g(0)  = (2/psi'''(-1))^{1/3} = 2^{1/3},
    B0 = g'(0) = -(psi''''(-1)/(6 psi'''(-1))) (2/psi'''(-1))^{2/3}
               = -(5/6) 2^{2/3}.

uniform_ingredients takes these closed forms, with the double saddle
t0 = t1 = -1, inside the window |xi - 1| <= 10^-(digits+5), where they
differ from the true values by about 120 |xi - 1|, below the context's last
digit; it is the one place the uniform route decides that xi is 1.

Outside it psi(t1) - psi(t0) ~ |xi - 1|^{3/2} cancels
1.5 log10(1/|xi - 1|) digits of zeta, and g(+) - g(-) another
0.5 log10(1/|xi - 1|) of B0. uniform_ingredients therefore works at
ctx.digits + max(0, ceil(2 log10(1/|xi - 1|)) - 5) digits, where
solve_saddles returns the two distinct saddles, and rounds every field back
to ctx; for |xi - 1| >= 0.01 that widens by nothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .airy import airy
from .errors import BranchError, DomainError
from .numkernel import (BigComplex, BigReal, PrecisionContext, _require_real,
                        mk_context, raw, real_from, wrap_complex, wrap_real)
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


def _cubic_map(saddles: SaddlePair, ctx: PrecisionContext):
    """(zeta, beta, A0, B0) at ctx from a classified saddle pair."""
    with mp.workdps(ctx.digits + 10):
        if saddles.kind is SaddleKind.DOUBLE:
            zeta = wrap_real(mpf(0), ctx)
            beta = mpc(-1) - 1j * mp.pi
            a0 = mpf(2) ** (mpf(1) / 3)
            b0 = -(mpf(5) / 6) * mpf(2) ** (mpf(2) / 3)
        else:
            t0, t1 = raw(saddles.t0), raw(saddles.t1)
            p0, p1 = psi_reduced_raw(t0), psi_reduced_raw(t1)
            beta = (p0 + p1) / 2
            above = saddles.kind is SaddleKind.REAL_PAIR
            unit = 1 if above else 1j  # zeta^{1/2} / |zeta|^{1/2}
            rr = _require_real(unit * (p1 - p0) / 2, ctx.digits,
                               "zeta^{3/2} right-hand side")
            if not rr > 0:
                raise BranchError(
                    f"zeta right-hand side must be positive, got {mp.nstr(rr, 5)}")
            mag = (mpf(3) / 2 * rr) ** (mpf(2) / 3)
            zeta = wrap_real(mag if above else -mag, ctx)
            sq = unit * mp.sqrt(abs(zeta.value))
            gp = mp.sqrt(2 * sq / psi2_at_saddle_raw(t0))
            gm = mp.sqrt(-2 * sq / psi2_at_saddle_raw(t1))
            a0 = _require_real((gp + gm) / 2, ctx.digits, "A0")
            b0 = _require_real((gp - gm) / (2 * sq), ctx.digits, "B0")
        return zeta, wrap_complex(beta, ctx), wrap_real(a0, ctx), wrap_real(b0, ctx)


def _extra_digits(xi, ctx: PrecisionContext) -> int | None:
    """Digits that zeta and B0 cancel near xi = 1 (module docstring).

    None inside the window, where the closed forms take over. log10
    comes from the mpf's binary mantissa and exponent, because |xi - 1| can
    lie below the smallest double.
    """
    with mp.workdps(ctx.digits + 10):
        gap = abs(raw(real_from(xi, mk_context(ctx.digits + 10))) - 1)
        if gap <= mpf(10) ** -(ctx.digits + 5):
            return None
    log10_gap = math.log10(gap.man) + gap.exp * math.log10(2)
    return max(0, math.ceil(-2 * log10_gap) - 5)


def uniform_ingredients(xi, ctx: PrecisionContext) -> UniformIngredients:
    """zeta, beta, A0, B0 and the saddles, computed wide and rounded to ctx."""
    xi_br = real_from(xi, ctx)
    extra = _extra_digits(xi, ctx)
    wide = mk_context(ctx.digits + (extra or 0))
    mu = mu_from_xi(xi, wide)
    if extra is None:  # the double saddle, with its residual |mu - 1/e|
        with mp.workdps(ctx.digits + 15):
            r = wrap_real(abs(raw(mu) - 1 / mp.e), ctx)
        t = wrap_complex(mpc(-1), ctx)
        saddles = SaddlePair(SaddleKind.DOUBLE, t, t, r, r)
    else:
        saddles = solve_saddles(mu, wide)
    zeta, beta, a0, b0 = _cubic_map(saddles, wide)
    if extra:
        t0, t1, beta = (wrap_complex(v.value, ctx)
                        for v in (saddles.t0, saddles.t1, beta))
        r0, r1, zeta, a0, b0 = (wrap_real(v.value, ctx) for v in (
            saddles.residual0, saddles.residual1, zeta, a0, b0))
        saddles = SaddlePair(saddles.kind, t0, t1, r0, r1)
    return UniformIngredients(xi=xi_br, zeta=zeta, beta=beta,
                              A0=a0, B0=b0, saddles=saddles)


def theorem2_eval(n: int, xi, ctx: PrecisionContext,
                  ingredients: UniformIngredients | None = None) -> BigReal:
    """Two-term uniform approximation of T^_{n-1}(-x), x = n e xi."""
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    ing = uniform_ingredients(xi, ctx) if ingredients is None else ingredients
    with mp.workdps(ctx.digits + 10):
        x = n * mp.e * ing.xi.value
        nn = mpf(n)
        arg = nn ** (mpf(2) / 3) * ing.zeta.value
        av = airy(wrap_real(arg, ctx), ctx)
        brace = (ing.A0.value * av.ai.value / nn ** (mpf(1) / 3)
                 - ing.B0.value * av.ai_prime.value / nn ** (mpf(2) / 3))
        value = (-1) ** (n - 1) * mp.exp(x + nn * mp.re(ing.beta.value)) * brace
    return wrap_real(value, ctx)

