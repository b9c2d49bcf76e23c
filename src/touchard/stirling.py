"""Exact reference evaluation of the scaled exponential polynomials T_n(-x)/n!.

T_n(z) = sum_k S(n,k) z^k with S(n,k) the Stirling numbers of the second
kind. The explicit formula k! S(n,k) = sum_j (-1)^(k-j) C(k,j) j^n (Graham,
Knuth and Patashnik, Concrete Mathematics, ch. 6), summed over k with the
two sums swapped, gives for z = -x <= 0

    T_n(-x) = sum_{j=1..n} (-1)^j j^n t_j E_{n-j},
    t_j = x^j/j!,   E_m = sum_{i<=m} t_i,

n terms and no Stirling number. The sum divides by the exact integer n! last.

The sum runs in Python ints at p bits in fixedpoint.grid_sum, each term
rounded down onto a grid of 2^g; with S the alternating sum and A the sum
of the grid terms, every term is low by at most delta = 9n 2^-p of itself
plus one grid unit (fixedpoint's docstring counts the floors), so

    |T_n(-x) - S 2^g| <= (2 delta (A + n + 1) + n + 2) 2^g,

and the value is accepted when that bound is at most 10^-w |S 2^g|,
w = numkernel.working_digits(ctx, 1), so it carries w correct significant
digits before the final rounding. p and g come from a predicted loss:
log10 sum_j j^n t_j E_{n-j} from float logarithms, and log10 |T_n(-x)|
from the saddle point t0 = W_0(-(n+1)/x) of the Cauchy integral, taken
with mpmath's lambertw in floats and lowered by _ENVELOPE_MARGIN digits.
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
floats before the sum, together with T_n(x). The same pass sums the
explicit formula for D_top(m) = top! S(m, top), top = ceil(mean) + 1, over
the same cut powers with exact binomials, each term floored onto a grid of
2^g2; a descent in the grid ints gives D_k(n) = k! S(n,k) for the rest of
the window [floor(mean) - 1, top]. Each D carries a counted bound of the
same kind, a cut power being low by at most (4 Omega(k) - 2) 2^-p <= delta
of itself, and is accepted at w digits. The explicit sum cancels
on its own terms, about 0.43 n digits where top = n, so the pass works at
the larger of the p that the value and the largest term ask for, the
latter from log10 sum_k C(top,k) k^n against k! S(n,k) <= min(k^n,
k! T_n(x)/x^k). A pass reruns until both sums are certified, each failed
one resized from what it measured. A maximum on an inner edge of the
window raises InternalConsistencyError.
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

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from mpmath import fp, mp, mpf

from . import fixedpoint
from .errors import (CapacityError, DomainError, InternalConsistencyError,
                     PrecisionExhaustedError)
from .numkernel import (BigReal, PrecisionContext, raw, working_digits,
                        wrap_real)

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
# The first pass expects each k! S(n,k) of the window as far below its bound.
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
    value: BigReal  # certified: scaled_touchard raises where it cannot be
    cancellation_digits: int


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


def _log10_explicit_sum(n: int, top: int) -> float:
    """log10 of top times the largest C(top, k) k^n, k = 1..top, a bound on
    their sum from float logarithms.

    ln C(top, k) + n ln k is concave in k, so the largest term is the first
    whose successor is no larger: a bisection finds it.
    """
    lo, hi = 1, top
    while lo < hi:
        mid = (lo + hi) // 2
        if math.log((top - mid) / (mid + 1)) + n * math.log1p(1 / mid) > 0:
            lo = mid + 1
        else:
            hi = mid
    k = lo
    log_c = math.lgamma(top + 1) - math.lgamma(k + 1) - math.lgamma(top - k + 1)
    return (log_c + n * math.log(k) + math.log(top)) / math.log(10)


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

    The exponent is stationary in t0, so t0 need not be exact: wherever
    -(n+1)/x is a float, mpmath's float-context lambertw, 10 to 40 times
    faster than its mpf one, gives t0, and the rest is taken in floats, with
    Re expm1(a + ib) = expm1(a) cos b - 2 sin(b/2)^2. lambertw fails at
    exactly -1/e, and a relative nudge of 1e-12 moves t0 off it by 1.4e-6
    and the exponent by nothing. Past the float range mpf at 15 digits
    does the same.
    """
    with mp.workdps(15):
        y = -(n + 1) / x
        if 1e-300 < -y < 1e300:
            t0 = complex(fp.lambertw(float(y) * (1 + 1e-12)))
            rex = (math.expm1(t0.real) * math.cos(t0.imag)
                   - 2 * math.sin(t0.imag / 2) ** 2)
            gauss = (math.log(abs(t0))
                     - math.log(2 * math.pi * (n + 1) * abs(1 + t0)) / 2)
            v = (-float(x) * rex - (n + 1) * math.log(abs(t0))
                 + math.lgamma(n + 1) + min(gauss, 0))
            return v / math.log(10)
        t0 = mp.lambertw(y)
        gauss = mp.log(abs(t0)) - mp.log(2 * mp.pi * (n + 1) * abs(1 + t0)) / 2
        v = (mp.re(-x * mp.expm1(t0)) - (n + 1) * mp.log(abs(t0))
             + mp.loggamma(n + 1) + min(gauss, 0))
        return float(v / mp.ln10)


def _require_finite(predictor: str, *sizes: float) -> None:
    """Refuse sizes from `predictor` that are not finite: they size no pass."""
    if not all(map(math.isfinite, sizes)):
        raise InternalConsistencyError(
            f"{predictor} predicted {', '.join(map(str, sizes))}, not finite")


def _remeasured(log_sum: float, log_t: float, terms: int, a: int, s: int,
                bound: int, g: int) -> tuple[float, float]:
    """What the next pass expects of a sum that failed: log10 of the sum of
    its `terms` terms, a on the grid of 2^g, and log10 of its value, s
    within bound. |T| >= |s| - bound once |s| >= 2 bound; below that only
    |T| <= 2 bound, and the next pass expects at least twice the loss that
    this one did."""
    loss = log_sum - log_t
    log_sum = math.log10(a + terms + 1) + g * _LOG10_2
    log_t = math.log10(max(abs(s) - bound, bound)) + g * _LOG10_2
    if abs(s) < 2 * bound:
        log_t = min(log_t, log_sum - 2 * loss)
    return log_sum, log_t


def _certified_sum(n: int, x: mpf, lx: float, log_tx: float,
                   ctx: PrecisionContext, lo: int,
                   hi: int) -> tuple[int, int, dict[int, int], int]:
    """(S, g, D, g2) with T_n(-x) = S 2^g and D[k] 2^g2 = k! S(n, k) for
    k = lo .. hi, each to working_digits(ctx, 1) significant digits, for x > 0,
    lx = ln x, log_tx = ln T_n(x) and n >= 1.

    Both sums come from one fixedpoint.grid_sum pass at the larger of the
    two p that their predicted losses ask for, and a pass reruns until both
    are certified, each rerun sizing a failed sum from what that pass
    measured. PrecisionExhaustedError names the sums that failed, the target
    digits and the last p.
    """
    target = working_digits(ctx, 1)
    scale = 10 ** target
    man, exp = x.man_exp
    log_sum = _log10_term_sum(n, lx)
    _require_finite("_log10_term_sum", log_sum)
    # the envelope first, so that min keeps a NaN; +inf leaves log_sum
    log_t = min(_log10_envelope(n, x) - _ENVELOPE_MARGIN, log_sum)
    _require_finite("_log10_envelope", log_t)
    log_b = _log10_explicit_sum(n, hi)
    _require_finite("_log10_explicit_sum", log_b)
    # k! S(n,k) counts the maps of n elements onto k, so it is at most k^n,
    # and it is at most k! T_n(x)/x^k, within about 1.5 digits near the mode
    log_d = min(min(n * math.log(k), log_tx + math.lgamma(k + 1) - k * lx)
                for k in range(lo, hi + 1)) / math.log(10) - _ENVELOPE_MARGIN
    width = hi - lo + 1
    # T_n(-x) is an integer multiple of 2^grain, since every x^k, k <= n, is
    grain = n * min(exp, 0)
    value = window = None
    for _ in range(MAX_ESCALATIONS + 1):
        # the largest term's p and g2 leave room for the descent to lo,
        # which can double a bound width - 1 times
        p = max(math.ceil((target + log_sum - log_t) / _LOG10_2
                          + math.log2(9 * n)) + 2,
                math.ceil((target + log_b - log_d) / _LOG10_2
                          + math.log2(9 * n)) + width + 1)
        g = math.floor((log_t - target) / _LOG10_2 - math.log2(n + 2)) - 2
        g2 = (math.floor((log_d - target) / _LOG10_2 - math.log2(hi + 2))
              - width - 1)
        s, a, sums, absums = fixedpoint.grid_sum(n, man, exp, p, g, hi,
                                                 width, g2)
        if value is None:
            bound = fixedpoint.bound(n, p, n, a)
            if bound * scale <= abs(s):
                value = s, g
            elif grain >= g and abs(s) + bound < 1 << (grain - g):
                value = 0, g  # nothing but zero lies within the bound
            else:
                log_sum, log_t = _remeasured(log_sum, log_t, n, a, s, bound, g)
        if window is None:
            found = fixedpoint.descend(
                sums, [fixedpoint.bound(n, p, hi, b) for b in absums], lo, hi)
            if all(e * scale <= abs(d) for d, e in found.values()):
                window = {k: d for k, (d, _) in found.items()}, g2
            else:
                # the D with the fewest certified bits sizes the rerun
                d, e = min(found.values(), key=lambda de:
                           abs(de[0]).bit_length() - de[1].bit_length())
                log_b, log_d = _remeasured(log_b, log_d, hi, absums[0], d, e,
                                           g2)
        if value and window:
            return *value, *window
    failed = [what for what, done in (("the value sum", value),
                                      ("the largest-term sum", window))
              if done is None]
    raise PrecisionExhaustedError(
        f"scaled_touchard(n={n}): {' and '.join(failed)} not certified to "
        f"{target} digits after {MAX_ESCALATIONS} reruns (last working "
        f"precision {p} bits)")


# ---------------------------------------------------------------------------
# the largest Stirling term

def _mode_mean(n: int, x: mpf, lx: float) -> tuple[float, float]:
    """The mean of k under the weights S(n,k) x^k, and ln T_n(x), in floats.

    The mean is T_{n+1}(x)/T_n(x) - x, and by Dobinski's formula
    T_n(x) = e^-x sum_j j^n x^j/j!, so it is the mean of j under
    w_j = j^n x^j/j!, less x. ln w_j is concave in j, and its peak, the
    first j with w_{j+1} < w_j, lies in [1, x + n]: a bisection finds it,
    and the sum runs outward from there until the weights fall below e^-40
    of the peak. From x = C(n,2) up the mode is n, since
    S(n,n-1) x^(n-1) <= S(n,n) x^n there, and n is returned with n ln x,
    which ln T_n(x) exceeds by at most C(n,2)/x <= 1, as
    S(n, n-d) <= C(n,2)^d/d!.
    """
    if x >= n * (n - 1) // 2:
        return float(n), n * lx
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
    return s1 / s0 - float(x), top + math.log(s0) - float(x)


def _largest_term(n: int, x: mpf, window: dict[int, int], g2: int) -> mpf:
    """max_k S(n,k) x^k at the working precision over the window's k, from
    window[k] 2^g2 = k! S(n, k)."""
    lo, hi = min(window), max(window)
    terms = {}
    power = x ** lo
    for k in range(lo, hi + 1):
        terms[k] = mp.ldexp(window[k], g2) * power / math.factorial(k)
        power *= x
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
                          cancellation_digits=0)
    x = mp.fneg(zv, exact=True)
    with mp.workdps(20):
        lx = float(mp.log(x))
    mean, log_tx = _mode_mean(n, x, lx)
    _require_finite("_mode_mean", mean, log_tx)
    lo = min(n, max(1, math.floor(mean) - 1))
    hi = max(lo, min(n, math.ceil(mean) + 1))
    s, g, window, g2 = _certified_sum(n, x, lx, log_tx, ctx, lo, hi)
    with mp.workdps(working_digits(ctx, 1)):
        biggest = _largest_term(n, x, window, g2)
        total = mp.ldexp(s, g)
        if s == 0:
            # every digit of the largest term down to the grid cancelled
            cancel = int(mp.floor(mp.log10(biggest))) - math.floor(g * _LOG10_2)
        else:
            # |T| < the largest term from n = 2 on (module docstring)
            cancel = max(int(n > 1),
                         int(mp.ceil(mp.log10(biggest / abs(total)))))
        scaled = total / math.factorial(n)
    return ExactValue(value=wrap_real(scaled, ctx), cancellation_digits=cancel)
