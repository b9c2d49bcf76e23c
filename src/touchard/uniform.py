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
t0 = t1 = -1, only when xi reads as exactly 1 at its working width; it is
the one place the uniform route decides that xi is 1. The map is smooth
across the coalescence, so every other xi, however near 1, takes the pair
that solve_saddles returns.

Near xi = 1, psi(t1) - psi(t0) ~ |xi - 1|^{3/2} cancels
1.5 log10(1/|xi - 1|) digits of zeta, and g(+) - g(-) another
0.5 log10(1/|xi - 1|) of B0. uniform_ingredients therefore keeps every
field, the saddles included, as mpf/mpc at working_digits(ctx, n) for the
largest n it serves plus max(0, ceil(2 log10(1/|xi - 1|)) - 5) digits; for
|xi - 1| >= 0.01 that adds nothing. The sum meets the same MAX_WIDTH
ceiling as working_digits, before any solving: an mpf xi is read as held,
so one exactly near 1 could otherwise ask for any width. The ingredients
record the width before the extra; theorem2_eval takes them in place of
xi, so that they cannot disagree with it, and refuses them for an n that
asks for more.
x + n Re beta cancels under a digit (it is near x/2 for large xi), and
theorem2_eval rounds only its value; the Airy values it multiplies are
plain mpf at the width airy works at.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from mpmath import mp, mpc, mpf

from .airy import airy
from .errors import BranchError, DomainError
from .numkernel import (BigReal, PrecisionContext, _require_real,
                        capped_width, read_int, read_real, working_digits,
                        wrap_real)
from .saddle import (SaddleKind, SaddlePair, mu_at, psi2_at_saddle_raw,
                     psi_reduced_raw, solve_saddles)


class UniformIngredients(NamedTuple):
    xi: mpf
    zeta: mpf
    beta: mpc
    A0: mpf
    B0: mpf
    saddles: SaddlePair
    digits: int  # working_digits(ctx, n) for the n they were solved for


def _cubic_map(saddles: SaddlePair, digits: int):
    """(zeta, beta, A0, B0) at digits from a classified saddle pair."""
    with mp.workdps(digits):
        if saddles.kind is SaddleKind.DOUBLE:
            c = mp.cbrt(2)
            return mpf(0), mpc(-1) - 1j * mp.pi, c, -(mpf(5) / 6) * c * c
        t0, t1 = saddles.t0, saddles.t1
        p0, p1 = psi_reduced_raw(t0), psi_reduced_raw(t1)
        above = saddles.kind is SaddleKind.REAL_PAIR
        unit = 1 if above else 1j  # zeta^{1/2} / |zeta|^{1/2}
        rr = _require_real(unit * (p1 - p0) / 2, digits,
                           "zeta^{3/2} right-hand side")
        if not rr > 0:
            raise BranchError(
                f"zeta right-hand side must be positive, got {mp.nstr(rr, 5)}")
        sq = unit * mp.cbrt(3 * rr / 2)  # zeta^{1/2}, so that zeta = sq^2
        gp = mp.sqrt(2 * sq / psi2_at_saddle_raw(t0))
        gm = mp.sqrt(-2 * sq / psi2_at_saddle_raw(t1))
        return (mp.re(sq * sq), (p0 + p1) / 2,
                _require_real((gp + gm) / 2, digits, "A0"),
                _require_real((gp - gm) / (2 * sq), digits, "B0"))


def _extra_digits(gap: mpf) -> int:
    """Digits that zeta and B0 cancel at xi = 1 + gap != 1 (module
    docstring). log10 comes from the mpf's binary mantissa and exponent,
    because |xi - 1| can lie below the smallest double."""
    log10_gap = math.log10(abs(gap.man)) + gap.exp * math.log10(2)
    return max(0, math.ceil(-2 * log10_gap) - 5)


def uniform_ingredients(xi, ctx: PrecisionContext, n: int) -> UniformIngredients:
    """zeta, beta, A0, B0 and the saddles, at the width that theorem2_eval
    needs for every n' <= n."""
    width = working_digits(ctx, n)
    xv = read_real(xi, width)
    gap = mp.fsub(xv, 1, exact=True)
    if gap:
        digits = capped_width(width + _extra_digits(gap))
        saddles = solve_saddles(mu_at(xv, digits), digits)
    else:  # the double saddle, of residual |mu - 1/e| = 0 at xi = 1
        digits = width
        saddles = SaddlePair(SaddleKind.DOUBLE, mpc(-1), mpc(-1), mpf(0), mpf(0))
    zeta, beta, a0, b0 = _cubic_map(saddles, digits)
    return UniformIngredients(xi=xv, zeta=zeta, beta=beta, A0=a0, B0=b0,
                              saddles=saddles, digits=width)


def theorem2_eval(n: int, xi, ctx: PrecisionContext) -> BigReal:
    """Two-term uniform approximation of T^_{n-1}(-x), x = n e xi; xi may be
    given as its UniformIngredients for this n or a larger one."""
    read_int(n, 2)
    ing = (xi if isinstance(xi, UniformIngredients)
           else uniform_ingredients(xi, ctx, n))
    width = working_digits(ctx, n)
    if ing.digits < width:
        raise DomainError(f"ingredients solved at {ing.digits} digits, "
                          f"n = {n} needs {width}")
    with mp.workdps(width):
        nn = mpf(n)
        x = nn * mp.e * ing.xi
        c = mp.cbrt(nn)
        av = airy(c * c * ing.zeta, ctx)
        brace = (ing.A0 * av.ai - ing.B0 * av.ai_prime / c) / c
        value = (-1) ** (n - 1) * mp.exp(x + nn * mp.re(ing.beta)) * brace
    return wrap_real(value, ctx)
