"""Exact reference evaluation of the scaled exponential polynomials T_n(-x)/n!.

T_n(z) = sum_k S(n,k) z^k with S(n,k) the Stirling numbers of the second
kind. The explicit formula k! S(n,k) = sum_j (-1)^(k-j) C(k,j) j^n (Graham,
Knuth and Patashnik, Concrete Mathematics, ch. 6), summed over k with the
two sums swapped, gives for x >= 0

    T_n(-x) = sum_{j=1..n} (-1)^j j^n t_j E_{n-j},
    t_j = x^j/j!,   E_m = sum_{i<=m} t_i,

n terms and no Stirling number. The sum divides by the exact integer n! last.
scaled_touchard takes x itself, as numkernel.read_real reads it: an mpf or a
BigReal as held, so that no caller negates it and the sum is exact at x's
binary value.

The sum runs in Python ints at p bits in fixedpoint.grid_sum, each term
rounded down onto a grid of 2^g; with S the alternating sum and A the sum
of the grid terms, every term is low by at most 9n 2^-p of itself plus one
grid unit (fixedpoint's docstring counts the floors), so

    |T_n(-x) - S 2^g| <= fixedpoint.counted_bound(9n, n + 1, p, A) 2^g,

and the value is accepted when that bound is at most 10^-w |S 2^g|,
w = numkernel.working_digits(ctx, 1), so it carries w correct significant
digits before the final rounding. p and g come from a predicted loss:
log10 sum_j j^n t_j E_{n-j} from float logarithms, and log10 |T_n(-x)|
from the saddle point t0 = W_0(-(n+1)/x) of the Cauchy integral, taken
in floats and lowered by _ENVELOPE_MARGIN digits. Both take x only as
ln x = ln(man) + exp ln 2: with L = ln(n+1) - ln x, t0 e^t0 = -e^L gives
-x expm1(t0) = (n+1)(1 - e^-t0)/t0 and ln|t0| = L - Re t0, so neither
needs x itself, which may lie far past the doubles' range.
The prediction only sizes the pass, and one that is not finite raises
InternalConsistencyError; the bound decides. When it fails, the pass
reruns with both logarithms measured from the failed pass, at most
MAX_ESCALATIONS times; a sum swamped by its bound is taken at the size of
that bound, and the next pass expects at least twice the failed one's
loss, so that p and g both move even when the first pass underrates the
loss by thousands of digits. With x = man 2^exp, T_n(-x) is an integer
multiple of 2^(n min(exp, 0)), so a sum whose bound falls below that grain
with only zero inside is exactly zero (T_2(-1), for one).

cancellation_digits is the least c >= 0 with max_k S(n,k) x^k <= 10^c
|T_n(-x)|. T_n has only real zeros (Harper, 1967), so S(n,k) x^k is
log-concave in k (Newton) and its mode lies within 1 of its mean
T_{n+1}(x)/T_n(x) - x (Darroch, 1964), which Dobinski's series gives in
floats: the largest term lies in the window [floor(mean) - 1,
ceil(mean) + 1], and one found on an inner edge of it raises
InternalConsistencyError. k! S(n,k)/n! = [t^n] (e^t - 1)^k has
non-negative coefficients, so a trapezoid sum on the circle through its
saddle (Moser and Wyman, Duke Math. J. 25, 1958; Bornemann, Found. Comput.
Math. 11, 2011, for the rule) does not cancel: _log_stirling_window takes
the window's ln(k! S(n,k)/n!) in doubles from one such sum, each within a
margin that counts its aliasing and its rounding, and |T_n(-x)| comes from
the certified value. The count is taken from these unless the ratio's
log10 lies within the margin of an integer, or another k's term within it
of the largest; then the window's k! S(n,k) come exactly from the explicit
formula in Python ints, one j ** n for each j up to the window's top, and
the count from them at w digits. That fallback took 11.8 s at
n = N_MAX_LIMIT with the window's top at n (2-vCPU x86-64 VM). A window
whose top k is at most _EXACT_TOP takes the exact integers without the
estimate, since there its few powers cost less than the estimate's
(n - lo)/2 or more nodes: 163 of the parity set's 600 exact points. Far
below n the circle through the middle k's saddle also passes too far from
the others' to decide such a window.
The terms rise to the mode and fall after it, so the alternating sums of
the rise and of the fall have opposite signs and neither exceeds the largest
term: for n >= 2, |T_n(-x)| < max term, and c >= 1 even where one term
dominates to within the working precision.

build_triangle and StirlingTriangle are the Stirling rows of the previous
exact layer; nothing in the package calls them, and rows past _ROW_LIMIT,
where their O(n^2.7) build was last measured, are refused. They stay since
perfbench/tracer.py names build_triangle in WRAPPED and COUNTS (--trace 1).
"""
from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Mapping
from typing import NamedTuple

from mpmath import fp, mp, mpf

from . import fixedpoint
from .errors import (CapacityError, DomainError, InternalConsistencyError,
                     PrecisionExhaustedError)
from .numkernel import (BigReal, PrecisionContext, read_int, read_real,
                        working_digits, wrap_real)

# Largest n of an exact value. `touchard eval --n 7000` takes 3.5-4.1 s and
# 36-38 MiB at 120 digits; memory sets the cap, as --n 8000 takes 43 MiB
# against a 42 MiB budget (README, "Size limit").
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
_U = 2.0 ** -53  # the unit roundoff of a double
# Windows whose top k is at most this take _exact_window without the
# estimate: there its hi powers cost less than the estimate's N/2 + 1 nodes,
# N > n - lo. Estimate against exact window, ms (2-vCPU x86-64 VM): 2.9
# against 0.01 at n = 1000, hi = 3; 3.2 against 0.34 at n = 1000, hi = 33;
# 15 against 0.04, 3.3 and 9.0 at n = 7000, hi = 3, 33 and 65.
_EXACT_TOP = 32


class StirlingTriangle(NamedTuple):
    """The rows of S(n,k) that were kept, by row index n."""

    rows: Mapping[int, tuple[int, ...]]

    def row(self, n: int) -> tuple[int, ...]:
        if n not in self.rows:
            raise CapacityError(f"row {n} not held by the triangle "
                                f"({len(self.rows)} rows kept)")
        return self.rows[n]


class ExactValue(NamedTuple):
    value: BigReal  # certified: scaled_touchard raises where it cannot be
    cancellation_digits: int


def build_triangle(keep: Iterable[int]) -> StirlingTriangle:
    """The rows named in keep, from one rolling pass up to the largest."""
    wanted = frozenset(read_int(n, 0, _ROW_LIMIT, "row", CapacityError)
                       for n in keep)
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
# sizing and certifying the pass

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


def _log10_envelope(n: int, lx: float) -> float:
    """log10 of the saddle-point size of |T_n(-x)|, from lx = ln x.

    T_n(-x)/n! = (1/2 pi i) oint exp(x + f(t)) dt with f(t) = -x e^t
    - (n+1) log t, whose saddle t0 = W_0(-e^L), L = ln(n+1) - ln x, gives
    the exponent x + Re f(t0) = Re(-x expm1(t0)) - (n+1) log|t0|. Since
    t0 e^t0 = -e^L, x e^t0 = -(n+1)/t0, so that

        -x expm1(t0) = (n+1) (1 - e^-t0)/t0,   log|t0| = L - Re t0,

    and neither holds x: the exponent is (n+1) (Re((1 - e^-t0)/t0) - L
    + Re t0). f''(t0) = (n+1)(1 + t0)/t0^2, and the Gaussian prefactor
    |t0|/sqrt(2 pi (n+1) |1 + t0|) is taken when it is below 1. Once x is
    far above n it is about sqrt(n)/x, a loss of log10 x digits that the
    exponent alone would miss. Near the coalescence t0 = -1 the Gaussian
    form fails; there the factor is about n^(-1/3), and 1 stands in for it.

    The exponent is stationary in t0, so t0 need not be exact: for
    |L| < 690 mpmath's float-context lambertw, 10 to 40 times faster than
    its mpf one, gives t0, beyond it the mpf one, and the rest is taken in
    doubles. lambertw fails at exactly -1/e, and a relative nudge of 1e-12
    moves t0 off it by 1.4e-6 and the exponent by nothing. t0 is complex
    with |t0| >= 1 for L > -1, where 1 - e^-t0 does not cancel, and real in
    (-1, 0) below, where expm1 keeps it; t0 underflows to 0 past
    L = -745, where (1 - e^-t0)/t0 is 1.
    """
    L = math.log(n + 1) - lx
    if abs(L) < 690:
        t0 = complex(fp.lambertw(-math.exp(L) * (1 + 1e-12)))
    else:
        with mp.workdps(15):
            t0 = complex(mp.lambertw(-mp.exp(L)))
    a = t0.real
    if t0.imag:
        q = ((1 - cmath.exp(-t0)) / t0).real
    else:
        q = -math.expm1(-a) / a if a else 1.0
    gauss = L - a - math.log(2 * math.pi * (n + 1) * abs(1 + t0)) / 2
    v = (n + 1) * (q - L + a) + math.lgamma(n + 1) + min(gauss, 0)
    return v / math.log(10)


def _require_finite(predictor: str, *sizes: float) -> None:
    """Refuse sizes from `predictor` that are not finite: they size no pass."""
    if not all(map(math.isfinite, sizes)):
        raise InternalConsistencyError(
            f"{predictor} predicted {', '.join(map(str, sizes))}, not finite")


def _certified_sum(n: int, x: mpf, lx: float,
                   ctx: PrecisionContext) -> tuple[int, int]:
    """(S, g) with T_n(-x) = S 2^g to working_digits(ctx, 1) significant
    digits, for x > 0, lx = ln x and n >= 1.

    One fixedpoint.grid_sum pass at the p that the predicted loss asks for,
    rerun with the sizes it measured until the sum is certified.
    PrecisionExhaustedError names the target digits and the last p.
    """
    target = working_digits(ctx, 1)
    scale = 10 ** target
    man, exp = x.man_exp
    log_sum = _log10_term_sum(n, lx)
    _require_finite("_log10_term_sum", log_sum)
    # the envelope first, so that min keeps a NaN; +inf leaves log_sum
    log_t = min(_log10_envelope(n, lx) - _ENVELOPE_MARGIN, log_sum)
    _require_finite("_log10_envelope", log_t)
    # T_n(-x) is an integer multiple of 2^grain, since every x^k, k <= n, is
    grain = n * min(exp, 0)
    for _ in range(MAX_ESCALATIONS + 1):
        p = math.ceil((target + log_sum - log_t) / _LOG10_2
                      + math.log2(9 * n)) + 2
        g = math.floor((log_t - target) / _LOG10_2 - math.log2(n + 2)) - 2
        s, a = fixedpoint.grid_sum(n, man, exp, p, g)
        bound = fixedpoint.counted_bound(9 * n, n + 1, p, a)
        if bound * scale <= abs(s):
            return s, g
        if grain >= g and abs(s) + bound < 1 << (grain - g):
            return 0, g  # nothing but zero lies within the bound
        # what the next pass expects: log10 of the terms' sum, a on the grid,
        # and of the value, s within bound. |T| >= |s| - bound once
        # |s| >= 2 bound; below that only |T| <= 2 bound, and the next pass
        # expects at least twice the loss that this one did
        loss = log_sum - log_t
        log_sum = math.log10(a + n + 1) + g * _LOG10_2
        log_t = math.log10(max(abs(s) - bound, bound)) + g * _LOG10_2
        if abs(s) < 2 * bound:
            log_t = min(log_t, log_sum - 2 * loss)
    raise PrecisionExhaustedError(
        f"scaled_touchard(n={n}): the value sum not certified to {target} "
        f"digits after {MAX_ESCALATIONS} reruns (last working precision "
        f"{p} bits)")


# ---------------------------------------------------------------------------
# the largest Stirling term

def _mode_mean(n: int, x: mpf, lx: float) -> float:
    """The mean of k under the weights S(n,k) x^k, in floats.

    The mean is T_{n+1}(x)/T_n(x) - x, and by Dobinski's formula
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
    # ln w_j = n ln j + j lx - ln j!, inline: this loop runs about 20 sqrt(x)
    # times
    log, lgamma = math.log, math.lgamma
    top = n * log(lo) + lo * lx - lgamma(lo + 1)
    s0 = s1 = 0.0
    for j, step in ((lo, 1), (lo - 1, -1)):
        while j >= 1 and (
                lw := n * log(j) + j * lx - lgamma(j + 1) - top) > -40:
            w = math.exp(lw)
            s0 += w
            s1 += j * w
            j += step
    return s1 / s0 - float(x)


def _saddle(mu: float) -> float:
    """The t > 0 with t e^t/(e^t - 1) = mu, for mu > 1.

    F(t) = t + mu expm1(-t) is convex, with F(0) = 0 and F'(0) < 0, and
    t e^t/(e^t - 1) = t/2 + (t/2) coth(t/2) >= max(t, 1 + t/2) puts its
    positive root at or below min(mu, 2 (mu - 1)). Newton's method falls to
    it from there without overshooting; six steps took it to within 1e-15
    of itself over mu = 1 + 1e-5 ... 1e4. Any t near the root serves.
    """
    t = min(mu, 2 * (mu - 1))
    for _ in range(6):
        t -= (t + mu * math.expm1(-t)) / (1 - mu * math.exp(-t))
    return t


def _log_stirling_window(n: int, lo: int,
                         hi: int) -> dict[int, tuple[float, float]]:
    """{k: (v, m)} for k = lo .. hi, with |ln(k! S(n,k)/n!) - v| <= m, from one
    trapezoid sum on |t| = rho in doubles; m is inf where it says nothing.

    a_m = k! S(m,k)/m! = [t^m] (e^t - 1)^k >= 0, zero for m < k, and the
    mean of (e^t - 1)^k t^-n over N equally spaced points of |t| = rho is
    sum_l a_(n+lN) rho^(lN): a_n and its aliases. N > n - lo leaves no
    alias below n. Since the a_m are not negative, |(e^t - 1)^k| <=
    (e^R - 1)^k on |t| = R and a_m <= (e^R - 1)^k R^-m, so the aliases
    above n sum to at most B = (e^R - 1)^k R^-n q/(1 - q), q = (rho/R)^N,
    for every R > rho. rho and R solve t e^t/(e^t - 1) = n/kc and
    (n + N)/kc, kc the middle of the window, where the terms near t = rho
    keep one sign; N doubles from 16 until it exceeds n - lo and B at kc is
    under 2^-40 of (e^rho - 1)^kc rho^-n.

    Each node t_j = rho e^(2 pi i j/N) makes h_j = ln(e^t - 1) once,
    through the complex expm1 e^(a+ib) - 1 = expm1(a) cos b - 2 sin(b/2)^2
    + i e^a sin b, which does not cancel near t = 0, taken at -t where
    Re t > 0 so that nothing overflows, and k takes exp(k (h_j - h_0))
    e^(-2 pi i (n j mod N)/N), h_0 = ln(e^rho - 1): the next k is the
    previous k times e^t - 1. The terms of j and N - j are conjugate. The
    rounding bound takes each libm call as within 2 ulp and counts per node
    the error of e^t - 1's parts, of t_j through |h'| <= (1 + |e^(+-t)|)
    /|e^(+-t) - 1|, of the log and of k (h_j - h_0), relative to the term,
    and N/2 + 1 ulp of the sum's size for adding the nodes. With E the mean
    and dE the bound, a_n lies in [E - dE - 2B, E + dE] over
    (e^rho - 1)^k rho^-n, and m is the log of the ratio of its ends, which
    covers either end's distance from E, plus the rounding of
    k h_0 - n ln rho + ln E.
    """
    kc = min((lo + hi) / 2, n - 0.5)
    rho = _saddle(n / kc)
    h0, lr = rho + math.log(-math.expm1(-rho)), math.log(rho)

    def alias(k: float) -> float:
        """ln B over (e^rho - 1)^k rho^-n."""
        big = _saddle((n + N) / kc)
        lq = math.log(big / rho)
        return (k * (big + math.log(-math.expm1(-big)) - h0) - (n + N) * lq
                - math.log(-math.expm1(-N * lq)))

    N = 16
    while N <= n - lo or alias(kc) > -40 * math.log(2):
        N *= 2
    acc = {k: [0.0, 0.0] for k in range(lo, hi + 1)}  # sum, error bound
    for j in range(N // 2 + 1):
        t = cmath.rect(rho, 2 * math.pi * j / N)
        # z = e^(+-t) - 1, the sign that keeps |e^(+-t)| <= 1
        a, b = (-t.real, -t.imag) if t.real > 0 else (t.real, t.imag)
        em, ea, sb, c2 = (math.expm1(a), math.exp(a), math.sin(b),
                          2 * math.sin(b / 2) ** 2)
        z = complex(em * math.cos(b) - c2, ea * sb)
        d = (t + cmath.log(-z) if t.real > 0 else cmath.log(z)) - h0
        # the error of k d in ulp, over k, as the docstring counts it
        ed = (8 * (abs(em) + c2 + ea * abs(sb) + 8 * rho * (1 + ea)) / abs(z)
              + 18 * abs(d) + 16 * abs(h0) + 8 * rho + 64)
        phase = 2 * math.pi * (n * j % N) / N
        weight = 1 if j in (0, N // 2) else 2
        for k, kept in acc.items():
            size = weight * math.exp(k * d.real)
            kept[0] += size * math.cos(k * d.imag - phase)
            kept[1] += size * math.expm1((k * ed + N + 16) * _U)
    for k, (total, err) in acc.items():  # N times E and dE; then (v, m)
        low = total - err - 2 * N * math.exp(min(alias(k), 0))
        le = math.log(total / N) if low > 0 else 0.0
        m = math.log((total + err) / low) if low > 0 else math.inf
        acc[k] = (k * h0 - n * lr + le,
                  m + 4 * _U * (abs(k * h0) + abs(n * lr) + abs(le) + 1))
    return acc


def _exact_window(n: int, lo: int, hi: int) -> dict[int, int]:
    """{k: k! S(n,k)} for k = lo .. hi by the explicit formula
    k! S(n,k) = sum_j (-1)^(k-j) C(k,j) j^n, one j ** n for each j."""
    window = dict.fromkeys(range(lo, hi + 1), 0)
    signed = {k: (-1) ** k for k in window}  # (-1)^(k-j) C(k,j) at j = 0
    for j in range(1, hi + 1):
        power = j ** n
        for k in window:  # C(k, j) = 0 for j > k
            signed[k] = -signed[k] * (k - j + 1) // j
            window[k] += signed[k] * power
    return window


def _cancellation_digits(n: int, x: mpf, lx: float, s: int, g: int,
                         ctx: PrecisionContext) -> int:
    """cancellation_digits of T_n(-x) = S 2^g, lx = ln x, the largest
    Stirling term lying in the window [lo, hi] of k within 1 of the floor
    and ceiling of _mode_mean (module docstring).

    With S != 0 the count is max(n > 1, ceil(l)), l = log10 of the largest
    term over |S 2^g|; with S = 0 it is floor(l) - floor(g log10 2), l =
    log10 of the largest term. From _log_stirling_window, l is known in
    doubles within a counted margin, each double's magnitude times 16 ulp
    more. The count is taken from it where the largest term's k stands
    clear of the others' and the count is the same across the margin; else,
    and for every window whose top k is at most _EXACT_TOP, from the
    window's exact integers at the working precision.
    """
    mean = _mode_mean(n, x, lx)
    _require_finite("_mode_mean", mean)
    lo = min(n, max(1, math.floor(mean) - 1))
    hi = max(lo, min(n, math.ceil(mean) + 1))
    man, exp = x.man_exp
    shift, log_s = (g, math.log(abs(s))) if s else (0, 0.0)

    def count(l) -> int:
        return (max(int(n > 1), int(mp.ceil(l))) if s else
                int(mp.floor(l)) - math.floor(g * _LOG10_2))

    decided = False
    if hi > _EXACT_TOP:
        est = {}  # k: (ln of the term, its margin)
        for k, (v, m) in _log_stirling_window(n, lo, hi).items():
            parts = (v, math.lgamma(n + 1), -math.lgamma(k + 1),
                     k * math.log(man), (k * exp - shift) * math.log(2),
                     -log_s)
            est[k] = math.fsum(parts), m + 16 * _U * sum(map(abs, parts))
        best = max(est, key=est.get)
        top, gap = est[best]
        low, high = (top - gap) / math.log(10), (top + gap) / math.log(10)
        decided = (all(top - gap > v + m for k, (v, m) in est.items()
                       if k != best)
                   and math.isfinite(gap) and count(low) == count(high))
    if not decided:
        with mp.workdps(working_digits(ctx, 1)):
            terms = {k: d * x ** k / math.factorial(k)
                     for k, d in _exact_window(n, lo, hi).items()}
            best = max(terms, key=terms.get)
            high = mp.log10(terms[best] / (abs(mp.ldexp(s, g)) if s else 1))
    if best == lo > 1 or best == hi < n:
        raise InternalConsistencyError(
            f"largest Stirling term of n = {n} at k = {best}, on an inner "
            f"edge of the window [{lo}, {hi}]: the float mean missed the mode")
    return count(high)


# ---------------------------------------------------------------------------
# public entry point

def scaled_touchard(n: int, x, ctx: PrecisionContext) -> ExactValue:
    """T_n(-x)/n! for finite x >= 0, dividing by the exact integer factorial
    last. x is read by read_real at working_digits(ctx, 1): an mpf or a
    BigReal as held, so the sum is exact at x's binary value."""
    read_int(n, 0, N_MAX_LIMIT, "n", CapacityError)
    x = read_real(x, working_digits(ctx, 1))
    if x < 0:
        raise DomainError(f"scaled_touchard needs x >= 0, got {mp.nstr(x, 8)}")
    if n == 0 or x == 0:
        return ExactValue(value=wrap_real(int(n == 0), ctx),
                          cancellation_digits=0)
    lx = math.log(x.man) + x.exp * math.log(2)
    s, g = _certified_sum(n, x, lx, ctx)
    cancel = _cancellation_digits(n, x, lx, s, g, ctx)
    with mp.workdps(working_digits(ctx, 1)):
        scaled = mp.ldexp(s, g) / math.factorial(n)
    return ExactValue(value=wrap_real(scaled, ctx), cancellation_digits=cancel)
