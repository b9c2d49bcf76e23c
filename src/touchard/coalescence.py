"""Double-saddle series at mu = 1/e, with exact rational coefficients.

About t = -1 the phase expands as

    psi(t) - psi(-1) = sum_{j>=3} f_j tau^j,   f_j = 1/j - 1/j!,   tau = t + 1,

with the orders 1 and 2 killed by the double saddle. Setting
w = psi(t) - psi(-1) and v = (6w)^{1/3} gives v^3 = tau^3 g(tau) with
g(tau) = 6 sum_j f_{j+3} tau^j and g(0) = 1, so v = tau g(tau)^{1/3}.
Lagrange inversion (Flajolet and Sedgewick, Analytic Combinatorics,
Thm A.2) inverts this in closed form: tau(v) = sum_m a_m v^{m+1} with
(m+1) a_m = [tau^m] g(tau)^{-(m+1)/3}. Term-wise integration of e^{-n w}
against d tau across the two contour branches w = e^{-/+ i pi} u turns
each a_m into a descending-power contribution with coefficient

    B_m = (-1)^m (m+1) a_m = (-1)^m [tau^m] g(tau)^{-(m+1)/3};

the branch factors combine into sin(pi(m+1)/3), which kills every
m = 2 (mod 3). The power of g comes from J.C.P. Miller's recurrence
(Knuth, TAOCP vol. 2, sec. 4.7), all in Fractions.

The evaluator computes at numkernel.working_digits(ctx, n), as x - n spends
log10 n digits, and rounds only the value to ctx: for x = n e,

    (-1)^(n-1) e^(x-n)/(3 pi) * sum_m (-1)^m B_m Gamma((m+1)/3)
        * sin(pi(m+1)/3) / (n/6)^((m+1)/3).

Only m = 0, 1 (mod 3) contribute, so every Gamma is Gamma(1/3) or
Gamma(2/3) = 2 pi/(3^(1/2) Gamma(1/3)) times factors from
Gamma(z + 1) = z Gamma(z). Gamma(1/3) = 1/(3^(1/3) c2) comes from the
constant c2 = -Ai'(0) that airy keeps from the AGM; mpmath.gamma would
build its Taylor coefficients afresh at each new working width.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

from mpmath import mp, mpf

from .airy import _ai0
from .errors import OrderError, SeriesConsistencyError
from .numkernel import (BigReal, PrecisionContext, read_int, working_digits,
                        wrap_real)

DEFAULT_ORDER = 12
# Largest series order. `touchard bm --max 150` takes 10.5 s and 20 MiB,
# and time grows about like m^3.4 (README, "Size limit").
MAX_ORDER = 150

# reference values for the first coefficients, a build-stopping cross-check
_BM_CHECK = {
    0: Fraction(1),
    1: Fraction(5, 6),
    3: Fraction(1463, 6480),
    4: Fraction(126827, 1088640),
    6: Fraction(4732223, 167961600),
}


def check_order(order: int) -> None:
    read_int(order, 0, MAX_ORDER, "series order", OrderError)


@functools.lru_cache(maxsize=None)
def _lagrange_coeff(m: int) -> Fraction:
    """[tau^m] g(tau)^alpha with alpha = -(m+1)/3, so that B_m = (-1)^m times it.

    Miller's recurrence for h = g^alpha: h_0 = 1 and
    h_i = (1/i) sum_{j=1..i} ((alpha + 1) j - i) g_j h_{i-j}, with the
    factor written over 3 so that it stays an integer: 3(alpha + 1) = 2 - m.
    Cached per m, so tables of different orders share their work.
    """
    g = [6 * (Fraction(1, j + 3) - Fraction(1, math.factorial(j + 3)))
         for j in range(m + 1)]
    h = [Fraction(1)]
    for i in range(1, m + 1):
        h.append(sum(((2 - m) * j - 3 * i) * g[j] * h[i - j]
                     for j in range(1, i + 1)) / (3 * i))
    return h[m]


@functools.lru_cache(maxsize=None)
def default_bm(order: int = DEFAULT_ORDER) -> tuple[Fraction, ...]:
    """B_0..B_order by Lagrange inversion, cross-checked against _BM_CHECK."""
    check_order(order)
    B = tuple((-1) ** m * _lagrange_coeff(m) for m in range(order + 1))
    for m, want in _BM_CHECK.items():
        if m <= order and B[m] != want:
            raise SeriesConsistencyError(
                f"B_{m} = {B[m]} disagrees with the reference value {want}")
    return B


def _sin_third(m: int) -> int:
    """sin(pi(m+1)/3) as chi * sqrt(3)/2 with chi in {-1, 0, +1}."""
    r = (m + 1) % 6
    if r in (1, 2):
        return 1
    if r in (4, 5):
        return -1
    return 0


def theorem1_eval(n: int, order: int, ctx: PrecisionContext) -> BigReal:
    """Descending-powers approximation of T^_{n-1}(-x) at exact coalescence x = n e."""
    read_int(n, 2, error=OrderError)
    check_order(order)
    with mp.workdps(working_digits(ctx, n)):
        bm = default_bm(max(order, DEFAULT_ORDER))
        x = n * mp.e
        c = mp.cbrt(mpf(n) / 6)
        rt3_half = mp.sqrt(3) / 2
        g13 = 1 / (mp.cbrt(3) * _ai0(mp.prec)[1])
        gamma = [g13, mp.pi / (rt3_half * g13)]  # Gamma((m+1)/3) by m mod 3
        total = mpf(0)
        for m in range(order + 1):
            chi = _sin_third(m)
            if chi == 0:
                continue
            bmv = mpf(bm[m].numerator) / bm[m].denominator
            total += (-1) ** m * chi * bmv * gamma[m % 3] / c ** (m + 1)
            gamma[m % 3] *= mpf(m + 1) / 3
        value = (-1) ** (n - 1) * mp.exp(x - n) * rt3_half / (3 * mp.pi) * total
    return wrap_real(value, ctx)
