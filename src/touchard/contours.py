"""Steepest-descent and steepest-ascent contours of the phase.

Level curves of Im psi through the saddles, traced with the unit-speed flow
dt/ds = -conj(psi'(t))/|psi'(t)| (descent; + for ascent), so that
d(psi)/ds = -|psi'| is real and Im psi is a first integral. Each step is
classical RK4 followed by a Newton projection back onto the level set,
t <- t + i (c - Im psi(t)) / psi'(t). A step is retried at half the size
when it makes no headway, when the projection cannot land it, or when
Re psi moves against the flow. Steps ramp up geometrically from a 1e-8
launch offset so the first recorded motion resolves the local steepest
directions to well under 1e-6 radians.

The loop runs in doubles, in u = t - s from the path's saddle s, on
Im(psi(s+u) - psi(s)) = 0. As s e^s = -mu,

    psi(s+u) - psi(s) = expm1(u)/s - log1p(u/s) = sum_{k>=2} a_k u^k,
    a_k = 1/(k! s) + (-1/s)^k / k,   a_2 = (s+1)/(2 s^2),

the order-1 terms cancelling exactly. Near s (see _TERMS) the loop sums
this series, with s + 1 from the saddle at the context's digits, so a_2 is
0 at the double saddle (xi = 1), where -e^t/mu - log t in doubles would
lose psi' (about 1e-16 at the launch offset) to cancellation; further out
it takes that global formula minus psi(s). The level c = Im psi(s), s + 1,
the launch direction and the other saddle come from mpmath at LEVEL_DIGITS
= 50, so the points, s + u as stepped, depend on the context's digits only
through s, from mu at those digits: at xi = 1 - 1e-16, a pair 2.8e-8 apart,
mu's rounding to 30 digits moves s by 4e-24 and points next to it by an ulp.
The projection holds Im psi to max(1e-12, 16 eps |e^t/mu|), which doubles
can meet near Re t = 8.4. The drift is max |Im psi - c| on the exact points
at 30 digits (|Im psi| < 1e4 in the frame leaves 17 orders of margin), as
-e^x sin(y)/mu - arg(x + iy) with arg in [0, 2 pi). Pass 1 takes each in
doubles, v, within a counted bound b, and low = max(-inf, v - b), which a
NaN never tops. Every other drift is under low, which the drift of the
point that set it reaches, so pass 2 recomputes at 30 digits only the
points whose v + b is not under low, and the real axis, where Im psi is 0
or -pi, once a side. A drift not under 1e-8 raises StepError.

Paths stop past the frame -8.5 <= Re t <= 8.4, |Im t| <= 7.5 (generous
around the Im t = +/- pi asymptotes), |t| >= 0.05 (around the logarithmic
singularity), edges included, on reaching another saddle, or at the
arclength cap. _outside states the frame once: it names the edge a point
lies past. A saddle past one would give paths of two points, so
contour_set refuses it and names that edge: the inner saddle
|t0| ~ 1/(e xi) enters the origin disc above xi = 7.735, and the
conjugate pair passes Re t = 8.4 below xi = 9.34e-6.
A pair closer than LAUNCH_OFFSET, each in the other's launch circle, is
traced as one double saddle at its midpoint (xi = 1 and 1 +- 10^-k,
k >= 17): contour_set's one rule for the double saddle.
A step whose chord passes within h of the other saddle and takes Re psi
past that saddle's value is halved rather than taken, so a coarse step
cannot jump the saddle a path should stop at and run on along its paths.
"""
from __future__ import annotations

import cmath
import math
from itertools import chain
from typing import NamedTuple

from mpmath import mp, mpc, mpf

from .errors import DomainError, StepError
from .numkernel import (MIN_DIGITS, BigReal, PrecisionContext,
                        log_branched_raw, raw, read_real, real_from,
                        working_digits)
from .saddle import SaddleKind, mu_from_xi, solve_saddles

RE_MAX = 8.4
RE_MIN = -8.5
IM_MAX = 7.5
R_MIN = 0.05
LAUNCH_OFFSET = 1e-8
LEVEL_DIGITS = 50
RAMP = 1.3
DRIFT_BUDGET = mpf("1e-8")
_PROJ_TOL = 1e-12
# The series serves on |u| <= min(|s|, 1)/16. At the double saddle, where
# |psi'(-1+u)| = |sum_{j>=2} (1 - 1/j!) u^j| >= |u|^2 (1/2 - 1/15), the terms
# past a_16 add up to under 2^-54 |psi'| inside, and the global formula's
# rounding, about 2 eps, stays under 2^-41 |psi'| outside. At any saddle those
# terms add up to under 2^-63/|s|, below that rounding of about 2 eps/|s|.
_TERMS = 16
_SADDLE_FIELD_TOL = 1e-6  # |psi'| under this, far enough along, stops a path
# Largest max_len/step a contour set may ask for: time and memory grow like
# 1/step. At the default max_len = 40 this is step = 0.000625, where `touchard
# contours --xi 0.8` takes 2.5-3.8 s and 86 MiB (README, "Size limit").
MAX_LEN_OVER_STEP = 64000


class ContourPolyline(NamedTuple):
    saddle: mpc  # rounded to the context
    kind: str  # "descent" or "ascent"
    points: tuple[complex, ...]  # points[0] is the saddle, rounded to a double
    im_psi_drift: mpf  # at 30 digits, printed at 4
    launch_theta: float
    stop_reason: str


class ContourSet(NamedTuple):
    xi: BigReal
    mu: BigReal
    saddle_kind: SaddleKind
    polylines: tuple[ContourPolyline, ...]


class _Flow:
    """The flow on Im(psi(s+u) - psi(s)) = 0 in doubles, in u = t - s."""

    def __init__(self, s, psi_s, inv_mu, sign):
        """About the saddle s, from mpmath values of s, psi(s) and 1/mu."""
        self.s, self.psi_s = complex(s), complex(psi_s)
        self.inv_mu, self.sign = float(inv_mu), sign  # sign -1 for descent
        self.edge = min(abs(self.s), 1) / 16  # the series' reach in |u|
        inv = complex(1 / s)
        a = [complex(s + 1) * inv * inv / 2] + [
            inv / math.factorial(k) + (-inv) ** k / k
            for k in range(3, _TERMS + 1)]
        self.a = a[::-1]  # a_K .. a_2 for Horner, K = _TERMS
        self.b = [k * ak for k, ak in zip(range(_TERMS, 1, -1), self.a)]

    def phase(self, u):
        """(psi(s+u) - psi(s), psi'(s+u), the tolerance on Im of the first)."""
        if abs(u) <= self.edge:
            p = d = 0
            for a, b in zip(self.a, self.b):
                p, d = p * u + a, d * u + b
            return p * u * u, d * u, _PROJ_TOL
        t = self.s + u
        et, log = cmath.exp(t) * self.inv_mu, cmath.log(t)
        if log.imag < 0:  # the branch of log_branched_raw
            log += 2j * cmath.pi
        return (-et - log - self.psi_s, -et - 1 / t,
                max(_PROJ_TOL, 16 * 2.0 ** -52 * abs(et)))

    def dpsi(self, u):
        if abs(u) <= self.edge:
            d = 0
            for b in self.b:
                d = d * u + b
            return d * u
        t = self.s + u
        return -cmath.exp(t) * self.inv_mu - 1 / t

    def direction(self, d):
        if d == 0:
            raise StepError("flow evaluated exactly at a stationary point")
        return self.sign * d.conjugate() / abs(d)

    def project(self, u, h):
        """Newton steps onto the level: (u, psi(s+u) - psi(s)), or None."""
        for _ in range(8):
            p, d, tol = self.phase(u)
            if abs(p.imag) <= tol:
                return u, p
            if d == 0:
                return None
            delta = -1j * p.imag / d
            if abs(delta) > h / 2:
                return None
            u = u + delta
        return None


def _psi(t, inv_mu):
    """psi(t) = -e^t/mu - log t in mpmath, at the ambient precision."""
    return -mp.exp(t) * inv_mu - log_branched_raw(t)


def _im_psi(t: complex, inv_mu):
    """Im psi at the exact value of t = x + iy, at the ambient precision:
    -e^x sin(y) inv_mu - arg, with arg = atan2(y, x) moved into [0, 2 pi) as
    log_branched_raw takes it. exp, sin and atan2 each land within an ulp;
    2 pi, the shift, the two products and the difference each round once."""
    arg = mp.atan2(t.imag, t.real)
    arg += 2 * mp.pi if arg < 0 else 0
    return -mp.exp(t.real) * mp.sin(t.imag) * inv_mu - arg


def _estimates(pts, inv_mu: float, c: float):
    """(t, v, b) per t of pts off the real axis or NaN: v = |Im psi(t) - c| in
    doubles, within b of _im_psi's at the ambient mp.prec bits, each term on
    |e^x sin y / mu| + arg + |c|: 16 eps for the doubles' rounding, and
    2^(4 - prec) for the roundings of _im_psi, of inv_mu to prec bits and of
    the difference from c, fewer than 16 of 2^-prec each."""
    rel = 16 * 2.0 ** -52 + 2.0 ** (4 - mp.prec)
    for t in pts:
        if t.imag or cmath.isnan(t):
            a = math.exp(t.real) * math.sin(t.imag) * inv_mu
            arg = math.atan2(t.imag, t.real)
            arg += 2 * math.pi if arg < 0 else 0.0
            yield t, abs(a + arg + c), rel * (abs(a) + arg + abs(c))


def _outside(t) -> str | None:
    """The edge of the tracing frame that t lies past, as a stop reason, or
    None for t in the frame, edges included."""
    return ("re_max" if t.real > RE_MAX else "re_min" if t.real < RE_MIN
            else "im_max" if abs(t.imag) > IM_MAX
            else "origin" if abs(t) < R_MIN else None)


def _passes(t, t_new, s, h) -> bool:
    """Whether the chord from t to t_new passes s between its ends, within h."""
    d, w = t_new - t, s - t
    u = (w * d.conjugate()).real / abs(d) ** 2
    return 0 < u < 1 and abs(w - u * d) < h


def _trace(saddle_t, theta, kind, inv_mu, other, step,
           max_len) -> ContourPolyline:
    sign = -1 if kind == "descent" else 1
    max_iters = int(max_len / step) * 8 + 600
    step, max_len = float(step), float(max_len)
    with mp.workdps(LEVEL_DIGITS):
        psi_s = _psi(saddle_t, inv_mu)
        flow, c = _Flow(saddle_t, psi_s, inv_mu, sign), psi_s.imag
        u = complex(LAUNCH_OFFSET * mp.expjpi(theta / mp.pi))
        if other is not None:
            re_other = float(mp.re(_psi(other, inv_mu) - psi_s))
            other = complex(other - saddle_t)
    u, p = flow.project(u, LAUNCH_OFFSET) or (u, flow.phase(u)[0])
    s = flow.s
    pts, re_psi = [s, s + u], p.real
    h = arclen = LAUNCH_OFFSET
    for _ in range(max_iters):
        d0, t = flow.dpsi(u), s + u
        stop = ("max_len" if arclen >= max_len else _outside(t) or (
            "saddle" if arclen > 0.3 and abs(d0) < _SADDLE_FIELD_TOL
            else None))
        if stop:
            break
        k1 = flow.direction(d0)
        k2 = flow.direction(flow.dpsi(u + h / 2 * k1))
        k3 = flow.direction(flow.dpsi(u + h / 2 * k2))
        k4 = flow.direction(flow.dpsi(u + h * k3))
        u_new = u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        headway = abs(u_new - u) >= h / 2
        proj = flow.project(u_new, h)
        if proj is None and headway:
            h = h / 2
            if h < step * 2.0 ** -24:
                raise StepError(
                    "step too large to hold the Im psi drift; retry "
                    "with a smaller --step")
            continue
        if (not headway or sign * (proj[1].real - re_psi) < 0
                or (other is not None
                    and sign * (proj[1].real - re_other) > 0
                    and _passes(u, proj[0], other, h))):
            # overshot, closing on a saddle where the field reverses, or
            # jumped the other saddle onto a path that leaves it
            h = h / 2
            if h < 1e-9:
                stop = "saddle"
                break
            continue
        u, re_psi = proj[0], proj[1].real
        pts.append(s + u)
        arclen += h
        h = min(h * RAMP, step)
    else:
        stop = "iteration_cap"

    # on the real axis Im psi is 0 (t > 0) or -pi (t < 0) at 30 digits; c
    # keeps its LEVEL_DIGITS value, so a drift there shows pi's rounding
    axis = {t.real > 0: t for t in pts if not (t.imag or cmath.isnan(t))}
    with mp.workdps(MIN_DIGITS):
        est = list(_estimates(pts, float(inv_mu), float(c)))
        low = max(chain([-math.inf], (v - b for _, v, b in est)))
        kept = (t for t, v, b in est if not v + b < low)
        inv_mu = +inv_mu
        drift = max((abs(_im_psi(t, inv_mu) - c)
                     for t in chain(axis.values(), kept)),
                    key=lambda d: d if d == d else mp.inf)  # NaN on top
    if not drift < DRIFT_BUDGET:
        raise StepError(
            f"Im psi drift {mp.nstr(drift, 3)} exceeds the 1e-8 budget; "
            "retry with a smaller --step")
    return ContourPolyline(
        saddle=saddle_t, kind=kind, points=tuple(pts),
        im_psi_drift=drift, launch_theta=float(theta),
        stop_reason=stop)


def launch_plan(kind: SaddleKind, t0, t1):
    """(saddle value, kind, theta) launches for the saddles t0, t1 of kind."""
    # theta at the launch's own digits, so that a theta of pi on a real axis
    # path turns into an exact -1 there
    with mp.workdps(LEVEL_DIGITS):
        if kind is SaddleKind.DOUBLE:
            s, third = t0, mp.pi / 3
            return [(s, "descent", th) for th in (third, -third, mp.pi)] + [
                (s, "ascent", th) for th in (mpf(0), 2 * third, -2 * third)]
        plan = []
        for sv in (t0, t1):
            # a = arg psi''(s) in (-pi, pi] puts each ray and its opposite
            # in (-pi, pi]
            a = mp.arg((1 + sv) / sv ** 2)
            for kind, th in (("descent", (mp.pi - a) / 2), ("ascent", -a / 2)):
                plan += [(sv, kind, th),
                         (sv, kind, th - mp.pi if th > 0 else th + mp.pi)]
        return plan


def contour_set(xi, ctx: PrecisionContext, step=None,
                max_len=None) -> ContourSet:
    """Trace every principal steepest path through the saddles at this xi."""
    mu = mu_from_xi(xi, ctx)
    wide = working_digits(ctx, 1)
    step = read_real("0.05" if step is None else step, wide)
    max_len = read_real(40 if max_len is None else max_len, wide)
    with mp.workdps(wide):
        if not step > 0:
            raise DomainError(f"step must be positive, got {mp.nstr(step, 5)}")
        if not max_len > step:
            raise DomainError("max_len must exceed the step size")
        if max_len / step > MAX_LEN_OVER_STEP:
            raise DomainError(
                f"max_len/step = {mp.nstr(max_len / step, 5)} exceeds the "
                f"limit {MAX_LEN_OVER_STEP}; use a larger --step or a smaller "
                "--max-len")
        inv_mu = 1 / raw(mu)
    saddles = solve_saddles(mu, wide)
    with mp.workdps(ctx.digits):
        t0, t1, kind = +saddles.t0, +saddles.t1, saddles.kind
        if abs(t0 - t1) < LAUNCH_OFFSET:  # a near pair (module docstring)
            kind, t0 = SaddleKind.DOUBLE, (t0 + t1) / 2
            t1 = t0
    for sv in (t0, t1):
        if edge := _outside(sv):
            raise DomainError(
                f"the saddle t = {mp.nstr(sv, 5)} lies outside the tracing "
                f"frame ({edge}), so its paths would stop at once; "
                "contours need xi in about [9.34e-6, 7.735]")
    lines = tuple(_trace(sv, th, path, inv_mu,
                         None if t0 == t1 else t1 if sv == t0 else t0,
                         step, max_len)
                  for sv, path, th in launch_plan(kind, t0, t1))
    return ContourSet(xi=real_from(xi, ctx), mu=mu, saddle_kind=kind,
                      polylines=lines)
