"""Exact reference evaluation of the scaled exponential polynomials T_n(-x)/n!.

T_n(z) = sum_k S(n,k) z^k with S(n,k) the Stirling numbers of the second
kind. The explicit formula k! S(n,k) = sum_j (-1)^(k-j) C(k,j) j^n (Graham,
Knuth and Patashnik, Concrete Mathematics, ch. 6), summed over k with the
two sums swapped, gives for z = -x <= 0

    T_n(-x) = sum_{j=1..n} (-1)^j j^n t_j E_{n-j},
    t_j = x^j/j!,   E_m = sum_{i<=m} t_i,

n terms and no Stirling number. The sum divides by the exact integer n! last.

Every t_j, E_m and j^n is positive, so the sum runs in Python ints at p bits:
x = man 2^exp is taken exactly from the mpf; t_j is a p-bit mantissa and an
exponent, two floors per step; E_m is the running sum of the t_i, a
mantissa of p + 2 bits and an exponent, each addition floored onto the
grid of the larger operand; j^n is an exact pow cut to p bits; u_j = j^n t_j
is cut to p bits; and each term u_j E_{n-j} is rounded down onto a common
grid of 2^g. Every floor only lowers a positive quantity, and no int is
wider than about 2p bits or the n log2 n bits of j^n, whatever the size
of x. t_j comes out low by under 4j 2^-p of itself; an addition to E loses
under 2^-p of the partial sum, which is at most E_m, so E_m is low by under
5m 2^-p; and each cut loses under 2 2^-p. Each term is therefore low by at
most delta = (5n + 3) 2^-p of itself plus one grid unit. With S the
alternating sum and A the sum of the grid terms,

    |T_n(-x) - S 2^g| <= (2 delta (A + n + 1) + n + 2) 2^g,

and the value is accepted when that bound is at most 10^-(digits+10) |S 2^g|,
so it carries digits + 10 correct significant digits before the final
rounding. p and g come from a predicted loss: log10 sum_j j^n t_j E_{n-j}
from float logarithms, and log10 |T_n(-x)| from the saddle point
t0 = W_0(-(n+1)/x) of the Cauchy integral, taken with mpmath's lambertw in
floats and lowered by _ENVELOPE_MARGIN digits. The prediction only sizes
the pass; the bound decides. When it fails, the pass reruns with both
logarithms measured from the failed pass, at most MAX_ESCALATIONS times; a
sum swamped by its bound is taken at the size of that bound, and the next
pass expects at least twice the failed one's loss, so that p and g both
move even when the first pass underrates the loss by thousands of digits.
With x = man 2^exp, T_n(-x) is an integer multiple of 2^(n min(exp, 0)),
so a sum whose bound falls below that grain with only zero inside is
exactly zero (T_2(-1), for one).

cancellation_digits is the least c >= 0 with max_k S(n,k) x^k <= 10^c
|T_n(-x)|. T_n has only real zeros (Harper, 1967), so S(n,k) x^k is
log-concave in k (Newton) and its mode lies within 1 of its mean
T_{n+1}(x)/T_n(x) - x (Darroch, 1964), which Dobinski's series gives in
floats before the sum. The sum's pass adds up the explicit formula for
k! S(m,k) at the top of the window [floor(mean) - 1, ceil(mean) + 1] from
the j^n it makes anyway, and an exact descent gives the rest of the window.
A maximum on an inner edge of the window raises InternalConsistencyError.
The terms rise to the mode and fall after it, so the alternating sums of
the rise and of the fall have opposite signs and neither exceeds the largest
term: for n >= 2, |T_n(-x)| < max term, and c >= 1 even where one term
dominates to within the working precision.

build_triangle and StirlingTriangle are the Stirling rows of the previous
exact layer; nothing in the package calls them, and rows past _ROW_LIMIT,
where their O(n^2.7) build was last measured, are refused.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from mpmath import fp, mp, mpc, mpf

from .errors import (CapacityError, DomainError, InternalConsistencyError,
                     PrecisionExhaustedError)
from .numkernel import BigReal, PrecisionContext, raw, wrap_real

# Largest n of an exact value. `touchard eval --n 7000` takes 12-16 s and
# 36-40 MiB at 120 digits, and time grows like n^2.9 (README, "Size limit").
N_MAX_LIMIT = 7000
# Largest row build_triangle makes: row 4000 took 15 s and 42 MiB, the same
# budget as N_MAX_LIMIT.
_ROW_LIMIT = 4000
# Reruns a certified sum may make before PrecisionExhaustedError.
MAX_ESCALATIONS = 8
# Digits below the saddle envelope at which the first pass expects |T|: the
# envelope leaves out the cosine for xi < 1 and the Airy scale near xi = 1.
_ENVELOPE_MARGIN = 3
_LOG10_2 = math.log10(2)


@dataclass(frozen=True)
class StirlingTriangle:
    """The rows of S(n,k) that were kept, by row index n."""

    rows: Mapping[int, tuple[int, ...]]

    def row(self, n: int) -> tuple[int, ...]:
        if n not in self.rows:
            raise CapacityError(f"row {n} not held by the triangle "
                                f"({len(self.rows)} rows kept)")
        return self.rows[n]


@dataclass(frozen=True)
class ExactValue:
    value: BigReal
    cancellation_digits: int
    verified: bool


def build_triangle(keep: Iterable[int]) -> StirlingTriangle:
    """The rows named in keep, from one rolling pass up to the largest."""
    wanted = frozenset(keep)
    outside = sorted(n for n in wanted if not 0 <= n <= _ROW_LIMIT)
    if outside:
        raise CapacityError(f"rows {outside} outside [0, {_ROW_LIMIT}]")
    rows = {}
    row = [1]
    for n in range(max(wanted, default=-1) + 1):
        if n:
            # S(n,n) = 1: only the all-singletons partition
            row = [0, *[k * a + b for k, a, b in zip(range(1, n), row[1:], row)], 1]
        if n in wanted:
            rows[n] = tuple(row)
    return StirlingTriangle(rows=rows)


# ---------------------------------------------------------------------------
# the fixed-point sum

def _top(v: int, bits: int) -> tuple[int, int]:
    """(v >> s, s) with s >= 0 the least shift that leaves at most `bits` bits."""
    s = v.bit_length() - bits
    return (v >> s, s) if s > 0 else (v, 0)


def _shift(v: int, s: int) -> int:
    """floor(v 2^s)."""
    return v << s if s >= 0 else v >> -s


def _grid_sum(n: int, man: int, exp: int, p: int, g: int, top: int,
              width: int) -> tuple[int, int, list[int]]:
    """(S, A, D): sum_j (-1)^j R_j and sum_j R_j over j = 1..n, where R_j is
    j^n t_j E_{n-j} at x = man 2^exp rounded down to units of 2^g, and the
    exact D[i] = top! S(n + i, top) for i < width.

    One pass over k makes t_k, E_k, u_k = k^n t_k and, for k <= top, the
    explicit formula's term (-1)^(top-k) C(top, k) k^n, times k once for
    each further i. The term of j pairs u_j with E_{n-j}, so both are held
    for 2k < n and each later k closes the terms of k and of n - k: one list
    of about n/2 pairs of p-bit ints.
    """
    half = (n + 1) // 2
    held = []
    tm, te = 1 << (p - 1), 1 - p  # t_k = tm 2^te, tm of p bits
    em, ee = 0, te                # E_k = em 2^ee
    s = a = 0
    sums = [0] * width
    binom = 1  # C(top, k)
    for k in range(n + 1):
        if k:
            kb = k.bit_length()
            tm, cut = _top((tm * man << kb) // k, p)
            te += exp - kb + cut
        # E_k = E_(k-1) + t_k, both floored onto the grid that leaves the
        # larger p + 2 bits
        b = max(ee + em.bit_length(), te + p) - p - 2
        em, ee = _shift(em, ee - b) + _shift(tm, te - b), b
        power = k ** n
        if k <= top:
            v = -binom * power if (top - k) & 1 else binom * power
            for i in range(width):
                sums[i] += v
                v *= k
            binom = binom * (top - k) // (k + 1)
        jm, je = _top(power, p)
        um, ue = _top(jm * tm, p)
        ue += je + te
        if k < half:
            held.append((um, ue, em, ee))
            continue
        m = n - k
        hum, hue, hem, hee = held[m] if m < half else (um, ue, em, ee)
        r = _shift(um * hem, ue + hee - g)  # term k: u_k E_{n-k}
        a += r
        s += -r if k & 1 else r
        if 0 < m < half:
            r = _shift(hum * em, hue + ee - g)  # term n - k: u_{n-k} E_k
            a += r
            s += -r if m & 1 else r
    return s, a, sums


def _log10_term_sum(n: int, lx: float) -> float:
    """log10 sum_{j=1..n} j^n t_j E_{n-j} from float logarithms; lx = ln x."""
    log_e = [0.0] * n  # ln E_m for m < n, by log-sum-exp of the ln t_i
    lt = acc = 0.0
    for m in range(1, n):
        lt += lx - math.log(m)
        hi, lo = (lt, acc) if lt > acc else (acc, lt)
        acc = hi + math.log1p(math.exp(lo - hi))
        log_e[m] = acc
    logs = [n * math.log(j) + j * lx - math.lgamma(j + 1) + log_e[n - j]
            for j in range(1, n + 1)]
    top = max(logs)
    total = math.fsum([math.exp(v - top) for v in logs])
    return (top + math.log(total)) / math.log(10)


def _log10_envelope(n: int, x: mpf) -> float:
    """log10 of the saddle-point size of |T_n(-x)|.

    T_n(-x)/n! = (1/2 pi i) oint exp(x + f(t)) dt with f(t) = -x e^t
    - (n+1) log t, whose saddle t0 = W_0(-(n+1)/x) gives the exponent
    x + Re f(t0) = Re(-x expm1(t0)) - (n+1) log|t0|; expm1 keeps it
    accurate when x is large against n. With x e^t0 = -(n+1)/t0,
    f''(t0) = (n+1)(1 + t0)/t0^2, and the Gaussian prefactor
    |t0|/sqrt(2 pi (n+1) |1 + t0|) is taken when it is below 1. Once x is
    far above n it is about sqrt(n)/x, a loss of log10 x digits that the
    exponent alone would miss. Near the coalescence t0 = -1 the Gaussian
    form fails; there the factor is about n^(-1/3), and 1 stands in for it.

    The exponent is stationary in t0, so t0 need not be exact: mpmath's
    float-context lambertw, 10 to 40 times faster than its mpf one, serves
    wherever -(n+1)/x is a float. It fails at exactly -1/e, and a relative
    nudge of 1e-12 moves t0 off it by 1.4e-6 and the exponent by nothing.
    """
    with mp.workdps(15):
        y = -(n + 1) / x
        t0 = (mpc(fp.lambertw(float(y) * (1 + 1e-12))) if 1e-300 < -y < 1e300
              else mp.lambertw(y))
        gauss = mp.log(abs(t0)) - mp.log(2 * mp.pi * (n + 1) * abs(1 + t0)) / 2
        v = (mp.re(-x * mp.expm1(t0)) - (n + 1) * mp.log(abs(t0))
             + mp.loggamma(n + 1) + min(gauss, 0))
        return float(v / mp.ln10)


def _certified_sum(n: int, x: mpf, lx: float, ctx: PrecisionContext,
                   top: int, width: int) -> tuple[int, int, list[int]]:
    """(S, g, D) with T_n(-x) = S 2^g to digits + 10 significant digits, for
    x > 0, lx = ln x and n >= 1; D is _grid_sum's exact top! S(n + i, top)."""
    target = ctx.digits + 10
    man, exp = x.man_exp
    log_sum = _log10_term_sum(n, lx)
    log_t = min(log_sum, _log10_envelope(n, x) - _ENVELOPE_MARGIN)
    # T_n(-x) is an integer multiple of 2^grain, since every x^k, k <= n, is
    grain = n * min(exp, 0)
    prev = None
    for rerun in range(MAX_ESCALATIONS + 1):
        p = math.ceil((target + log_sum - log_t) / _LOG10_2
                      + math.log2(5 * n + 3)) + 2
        g = math.floor((log_t - target) / _LOG10_2 - math.log2(n + 2)) - 2
        s, a, sums = _grid_sum(n, man, exp, p, g, top, width)
        bound = ((5 * n + 3) * (a + n + 1) >> (p - 1)) + n + 3
        if bound * 10 ** target <= abs(s):
            return s, g, sums
        if grain >= g and abs(s) + bound < 1 << (grain - g):
            return 0, g, sums  # nothing but zero lies within the bound
        if rerun == MAX_ESCALATIONS:
            break
        prev = s, g
        loss = log_sum - log_t
        # |T| >= |s| - bound once |s| >= 2 bound; below that only |T| <= 2 bound
        log_sum = math.log10(a + n + 1) + g * _LOG10_2
        log_t = math.log10(max(abs(s) - bound, bound)) + g * _LOG10_2
        if abs(s) < 2 * bound:
            log_t = min(log_t, log_sum - 2 * loss)
    with mp.workdps(target):
        last_two = (prev and mp.ldexp(*prev), mp.ldexp(s, g))
    raise PrecisionExhaustedError(
        f"scaled_touchard(n={n}): sum not certified to {target} digits after "
        f"{MAX_ESCALATIONS} reruns (last working precision {p} bits)",
        last_two=last_two)


# ---------------------------------------------------------------------------
# the largest Stirling term

def _mode_mean(n: int, x: mpf, lx: float) -> float:
    """The mean of k under the weights S(n,k) x^k, in floats.

    It is T_{n+1}(x)/T_n(x) - x, and by Dobinski's formula
    T_n(x) = e^-x sum_j j^n x^j/j!, so it is the mean of j under
    w_j = j^n x^j/j!, less x. ln w_j is concave in j, and its peak, the
    first j with w_{j+1} < w_j, lies in [1, x + n]: a bisection finds it,
    and the sum runs outward from there until the weights fall below e^-40
    of the peak. From x = C(n,2) up the mode is n, since
    S(n,n-1) x^(n-1) <= S(n,n) x^n there, and n is returned.
    """
    if x >= n * (n - 1) // 2:
        return float(n)
    lo, hi = 1, int(x) + n
    while lo < hi:
        mid = (lo + hi) // 2
        if n * math.log1p(1 / mid) + lx < math.log(mid + 1):
            hi = mid
        else:
            lo = mid + 1

    def log_w(j: int) -> float:
        return n * math.log(j) + j * lx - math.lgamma(j + 1)

    top = log_w(lo)
    s0 = s1 = 0.0
    for j, step in ((lo, 1), (lo - 1, -1)):
        while j >= 1 and (lw := log_w(j) - top) > -40:
            w = math.exp(lw)
            s0 += w
            s1 += j * w
            j += step
    return s1 / s0 - float(x)


def _largest_term(n: int, x: mpf, lo: int, hi: int, sums: list[int]) -> mpf:
    """max_k S(n,k) x^k over k = lo .. hi at the working precision, from
    sums[i] = hi! S(n + i, hi). With D_k(m) = k! S(m, k), the recurrence
    S(m+1, k) = k S(m, k) + S(m, k-1) gives D_{k-1}(m) = D_k(m+1)/k - D_k(m),
    an exact division."""
    terms = {}
    for k in range(hi, lo - 1, -1):
        terms[k] = sums[0] * x ** k / math.factorial(k)
        sums = [b // k - a for a, b in zip(sums, sums[1:])]
    best = max(terms, key=terms.get)
    if best == lo > 1 or best == hi < n:
        raise InternalConsistencyError(
            f"largest Stirling term of n = {n} at k = {best}, on an inner "
            f"edge of the window [{lo}, {hi}]: the float mean missed the mode")
    return terms[best]


# ---------------------------------------------------------------------------
# public entry point

def scaled_touchard(n: int, z: BigReal, ctx: PrecisionContext) -> ExactValue:
    """T_n(z)/n! for finite z <= 0, dividing by the exact integer factorial last."""
    if not 0 <= n <= N_MAX_LIMIT:
        raise CapacityError(f"n = {n} outside [0, {N_MAX_LIMIT}]")
    zv = raw(z)
    if not mp.isfinite(zv) or zv > 0:
        raise DomainError(f"scaled_touchard needs a finite z <= 0, "
                          f"got {mp.nstr(zv, 8)}")
    if n == 0 or zv == 0:
        return ExactValue(value=wrap_real(int(n == 0), ctx),
                          cancellation_digits=0, verified=True)
    x = mp.fneg(zv, exact=True)
    with mp.workdps(20):
        lx = float(mp.log(x))
    mean = _mode_mean(n, x, lx)
    lo = min(n, max(1, math.floor(mean) - 1))
    hi = max(lo, min(n, math.ceil(mean) + 1))
    s, g, sums = _certified_sum(n, x, lx, ctx, hi, hi - lo + 1)
    with mp.workdps(ctx.digits + 10):
        biggest = _largest_term(n, x, lo, hi, sums)
        total = mp.ldexp(s, g)
        if s == 0:
            # every digit of the largest term down to the grid cancelled
            cancel = int(mp.floor(mp.log10(biggest))) - math.floor(g * _LOG10_2)
        else:
            # |T| < the largest term from n = 2 on (module docstring)
            cancel = max(int(n > 1),
                         int(mp.ceil(mp.log10(biggest / abs(total)))))
        scaled = total / math.factorial(n)
    return ExactValue(value=wrap_real(scaled, ctx), cancellation_digits=cancel,
                      verified=True)
