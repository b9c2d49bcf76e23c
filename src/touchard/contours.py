"""Steepest-descent and steepest-ascent contours of the phase.

Level curves of Im psi through the saddles, traced with the unit-speed flow

    dt/ds = -conj(psi'(t)) / |psi'(t)|   (descent; + for ascent)

so that d(psi)/ds = -|psi'| is real and Im psi is a first integral. Each
step is classical RK4 followed by a one-dimensional Newton projection back
onto the level set,

    t <- t + i conj(psi'(t)) (c - Im psi(t)) / |psi'(t)|^2.

A step is retried at half the size when it makes no headway, when the
projection cannot land it, or when Re psi moves against the flow. Steps
ramp up geometrically from a 1e-8 launch offset so the first recorded
motion resolves the local steepest directions to well under 1e-6 radians.

One step loop serves two number types. It starts on mpc at LAUNCH_DIGITS
= 50, whatever the context's digits, because at the double saddle |psi'| is
about 1e-16 at the launch offset, which doubles would lose to cancellation;
about 32 digits give the direction to double accuracy. Once |psi'| >= 1e-6
the same loop goes on over Python complex. Every point a path emits is a
double, so its points do not depend on the context's digits. A polyline's
points are Python complex: point 0 is the saddle rounded to a double, and
the rest are the doubles the loop stepped to. The projection tolerance
max(1e-12, 16 eps |e^t/mu|), with eps the type's machine epsilon, is one
doubles can meet near Re t = 8.4. Im psi is re-computed on the exact value
of every emitted point at 30 digits (|Im psi| < 1e4 in the frame leaves 17
orders of margin), in real arithmetic:

    Im psi(x + iy) = -e^x sin(y) / mu - arg(x + iy),   arg in [0, 2 pi);

a drift over 1e-8 raises StepError.

Paths stop at the frame Re t in (-8.5, 8.4), |Im t| <= 7.5 (generous around
the Im t = +/- pi asymptotes), at |t| < 0.05 near the logarithmic
singularity, on reaching another saddle, or at the arclength cap. A saddle
outside that frame would give paths of two points, so contour_set refuses
it: the inner saddle |t0| ~ 1/(e xi) enters the origin disc above
xi = 7.735, and the conjugate pair passes Re t = 8.4 below xi = 9.34e-6.
There are at most two saddles, at known places, so a step whose chord
passes within h of the other one and takes Re psi past that saddle's value
is halved rather than taken: a coarse step would otherwise jump the saddle
the path should stop at and run on along the saddle's own descent or
ascent path.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

from mpmath import mp, mpf
from mpmath.libmp import (dps_to_prec, from_float, mpf_add, mpf_atan2,
                          mpf_exp, mpf_mul, mpf_neg, mpf_pi, mpf_shift,
                          mpf_sin)

from .errors import DomainError, StepError
from .numkernel import (MIN_DIGITS, BigComplex, BigReal, PrecisionContext,
                        log_branched_raw, raw, real_from, wrap_complex,
                        wrap_real)
from .saddle import SaddleKind, SaddlePair, mu_from_xi, solve_saddles

RE_MAX = 8.4
RE_MIN = -8.5
IM_MAX = 7.5
R_MIN = 0.05
LAUNCH_OFFSET = 1e-8
LAUNCH_DIGITS = 50
RAMP = 1.3
DRIFT_BUDGET = mpf("1e-8")
_PROJ_TOL = 1e-12
# |psi'| under this is a saddle's neighbourhood: there a path stops, and
# a launch stays in mpmath until it has left it
_SADDLE_FIELD_TOL = 1e-6
# Largest max_len/step a contour set may ask for: time and memory grow like
# 1/step. At the default max_len = 40 this is step = 0.000625, where
# `touchard contours --xi 0.8` takes 6.5-6.8 s and 86 MiB (README, "Size
# limit").
MAX_LEN_OVER_STEP = 64000


@dataclass(frozen=True)
class ContourPolyline:
    saddle: BigComplex
    kind: str  # "descent" or "ascent"
    points: tuple[complex, ...]  # points[0] is the saddle, rounded to a double
    im_psi_drift: BigReal
    launch_theta: float
    stop_reason: str


@dataclass(frozen=True)
class ContourSet:
    xi: BigReal
    mu: BigReal
    saddle_kind: SaddleKind
    polylines: tuple[ContourPolyline, ...]


def _log_branched_double(z: complex) -> complex:
    """log_branched_raw over Python complex."""
    w = cmath.log(z)
    return w + 2j * cmath.pi if w.imag < 0 else w


@dataclass(frozen=True)
class _Flow:
    """The flow on Im psi = c over mpc or complex, which share + * / abs
    .real .imag .conjugate(); exp, log and machine epsilon are the type's."""

    c: object
    inv_mu: object
    sign: int  # -1 descent, +1 ascent
    exp: object
    log: object
    eps: object

    def psi(self, t):
        return -self.exp(t) * self.inv_mu - self.log(t)

    def dpsi(self, t):
        return -self.exp(t) * self.inv_mu - 1 / t

    def direction(self, d):
        a = abs(d)
        if a == 0:
            raise StepError("flow evaluated exactly at a stationary point")
        return self.sign * d.conjugate() / a

    def project(self, t, h):
        """Newton steps onto Im psi = c: (t, psi(t)), or None to shrink h."""
        for _ in range(8):
            et = self.exp(t) * self.inv_mu
            p = -et - self.log(t)
            miss = self.c - p.imag
            if abs(miss) <= max(_PROJ_TOL, 16 * self.eps * abs(et)):
                return t, p
            d = -et - 1 / t
            ad2 = abs(d) ** 2
            if ad2 == 0:
                return None
            delta = 1j * d.conjugate() * miss / ad2
            if abs(delta) > h / 2:
                return None
            t = t + delta
        return None


def _im_psi(t: complex, inv_mu, prec):
    """Im psi at the exact value of t = x + iy as an mpf tuple, inv_mu an mpf
    tuple, rounded to prec bits: -e^x sin(y) inv_mu - arg, with
    arg = atan2(y, x) moved into [0, 2 pi) as log_branched_raw takes it."""
    x, y = from_float(t.real), from_float(t.imag)
    arg = mpf_atan2(y, x, prec, "n")
    if arg[0]:  # negative
        arg = mpf_add(arg, mpf_shift(mpf_pi(prec, "n"), 1), prec, "n")
    e_sin = mpf_mul(mpf_exp(x, prec, "n"), mpf_sin(y, prec, "n"), prec, "n")
    return mpf_neg(mpf_add(mpf_mul(e_sin, inv_mu, prec, "n"), arg, prec, "n"))


def _passes(t, t_new, s, h) -> bool:
    """Whether the chord from t to t_new passes s between its ends, within h."""
    d, w = t_new - t, s - t
    u = (w * d.conjugate()).real / abs(d) ** 2
    return 0 < u < 1 and abs(w - u * d) < h


def _trace(saddle_t, theta, kind, inv_mu, other, ctx: PrecisionContext,
           step, max_len) -> ContourPolyline:
    sign = -1 if kind == "descent" else 1
    max_iters = int(max_len / step) * 8 + 600
    step, max_len = float(step), float(max_len)
    with mp.workdps(LAUNCH_DIGITS):
        c = mp.im(-mp.exp(saddle_t) * inv_mu - log_branched_raw(saddle_t))
        precise = flow = _Flow(c, inv_mu, sign, mp.exp, log_branched_raw,
                               mp.eps)
        t = saddle_t + LAUNCH_OFFSET * mp.expjpi(theta / mp.pi)
        t, p = flow.project(t, LAUNCH_OFFSET) or (t, flow.psi(t))
        pts, re_psi = [complex(saddle_t), complex(t)], p.real
        if other is not None:
            re_other = float(flow.psi(other).real)
        h = arclen = LAUNCH_OFFSET
        for _ in range(max_iters):
            d0 = flow.dpsi(t)
            if flow is precise and abs(d0) >= _SADDLE_FIELD_TOL:
                flow = _Flow(float(c), float(inv_mu), sign, cmath.exp,
                             _log_branched_double, 2.0 ** -52)
                t, d0, re_psi = complex(t), complex(d0), float(re_psi)
            stop = ("max_len" if arclen >= max_len
                    else "re_max" if t.real > RE_MAX
                    else "re_min" if t.real < RE_MIN
                    else "im_max" if abs(t.imag) > IM_MAX
                    else "origin" if abs(t) < R_MIN
                    else "saddle" if arclen > 0.3 and abs(d0) < _SADDLE_FIELD_TOL
                    else None)
            if stop:
                break
            k1 = flow.direction(d0)
            k2 = flow.direction(flow.dpsi(t + h / 2 * k1))
            k3 = flow.direction(flow.dpsi(t + h / 2 * k2))
            k4 = flow.direction(flow.dpsi(t + h * k3))
            t_new = t + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            headway = abs(t_new - t) >= h / 2
            proj = flow.project(t_new, h)
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
                        and _passes(t, proj[0], other, h))):
                # overshot, closing on a saddle where the field reverses, or
                # jumped the other saddle onto a path that leaves it
                h = h / 2
                if h < 1e-9:
                    stop = "saddle"
                    break
                continue
            t, re_psi = proj[0], proj[1].real
            pts.append(complex(t))
            arclen += h
            h = min(h * RAMP, step)
        else:
            stop = "iteration_cap"

    prec = dps_to_prec(MIN_DIGITS)
    # c keeps its LAUNCH_DIGITS value, so a drift still shows the 30-digit
    # rounding of arg t = pi on a real axis path
    with mp.workdps(MIN_DIGITS):
        inv_mu = (+inv_mu)._mpf_
        drift = max(abs(mp.make_mpf(_im_psi(p, inv_mu, prec)) - c)
                    for p in pts)
    if drift >= DRIFT_BUDGET:
        raise StepError(
            f"Im psi drift {mp.nstr(drift, 3)} exceeds the 1e-8 budget; "
            "retry with a smaller --step")
    return ContourPolyline(
        saddle=wrap_complex(saddle_t, ctx), kind=kind,
        points=tuple(pts),
        im_psi_drift=wrap_real(drift, ctx),
        launch_theta=float(theta), stop_reason=stop)


def _norm_theta(th):
    # map into (-pi, pi] for stable reporting
    while th > mp.pi:
        th -= 2 * mp.pi
    while th <= -mp.pi:
        th += 2 * mp.pi
    return th


def launch_plan(saddles: SaddlePair, ctx: PrecisionContext):
    """(saddle value, kind, theta) launches for the current regime."""
    # theta at no fewer digits than the launch, so that a theta of pi on a
    # real axis path turns into an exact -1 there at every ctx.digits
    with mp.workdps(max(ctx.digits + 10, LAUNCH_DIGITS)):
        plan = []
        if saddles.kind is SaddleKind.DOUBLE:
            s = raw(saddles.t0)
            for th in (mp.pi / 3, -mp.pi / 3, mp.pi):
                plan.append((s, "descent", th))
            for th in (mpf(0), 2 * mp.pi / 3, -2 * mp.pi / 3):
                plan.append((s, "ascent", th))
            return plan
        for sv in (raw(saddles.t0), raw(saddles.t1)):
            a = mp.arg((1 + sv) / sv ** 2)
            d1 = _norm_theta((mp.pi - a) / 2)
            u1 = _norm_theta(-a / 2)
            plan.append((sv, "descent", d1))
            plan.append((sv, "descent", _norm_theta(d1 - mp.pi)))
            plan.append((sv, "ascent", u1))
            plan.append((sv, "ascent", _norm_theta(u1 + mp.pi)))
        return plan


def contour_set(xi, ctx: PrecisionContext, step=None,
                max_len=None) -> ContourSet:
    """Trace every principal steepest path through the saddles at this xi."""
    mu = mu_from_xi(xi, ctx)
    with mp.workdps(ctx.digits + 10):
        step = mpf("0.05") if step is None else mpf(step)
        max_len = mpf(40) if max_len is None else mpf(max_len)
        if step <= 0:
            raise DomainError(f"step must be positive, got {mp.nstr(step, 5)}")
        if max_len <= step:
            raise DomainError("max_len must exceed the step size")
        if max_len / step > MAX_LEN_OVER_STEP:
            raise DomainError(
                f"max_len/step = {mp.nstr(max_len / step, 5)} exceeds the "
                f"limit {MAX_LEN_OVER_STEP}; use a larger --step or a smaller "
                "--max-len")
        inv_mu = 1 / raw(mu)
    saddles = solve_saddles(mu, ctx)
    t0, t1 = raw(saddles.t0), raw(saddles.t1)
    for sv in (t0, t1):
        outside = (f"|t| < R_MIN = {R_MIN}" if abs(sv) < R_MIN
                   else f"Re t <= RE_MIN = {RE_MIN}" if sv.real <= RE_MIN
                   else f"Re t >= RE_MAX = {RE_MAX}" if sv.real >= RE_MAX
                   else f"|Im t| > IM_MAX = {IM_MAX}" if abs(sv.imag) > IM_MAX
                   else None)
        if outside:
            raise DomainError(
                f"the saddle t = {mp.nstr(sv, 5)} lies outside the tracing "
                f"frame ({outside}), so its paths would stop at once; "
                "contours need xi in about [9.34e-6, 7.735]")
    lines = tuple(_trace(sv, th, kind, inv_mu,
                         None if t0 == t1 else complex(t1 if sv == t0 else t0),
                         ctx, step, max_len)
                  for sv, kind, th in launch_plan(saddles, ctx))
    return ContourSet(xi=real_from(xi, ctx), mu=mu, saddle_kind=saddles.kind,
                      polylines=lines)
