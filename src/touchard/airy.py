"""Airy Ai and Ai' on the real line at arbitrary precision, by two
certified passes in Python ints.

For |z| <= Z(d) = ((3/4)(b + 35) ln 2)^(2/3), d the context's digits and b
the bits in mpmath of w = numkernel.working_digits(ctx, 1) = d + 10 digits,
both come from one pass over the Maclaurin series,

    Ai = c1 f - c2 g,   Ai' = c1 f' - c2 g',   c1 = Ai(0),  c2 = -Ai'(0),
    f = 1 + w Sf,  f' = z^2 Sf',  g = z Sg,  g' = Sg',  w = z^3,
    Sf = sum_{k>=1} F_k,  Sf' = sum_{k>=1} 3k F_k,
    Sg = sum_{k>=0} G_k,  Sg' = sum_{k>=0} (3k+1) G_k,
    F_1 = 1/6,  F_k = F_(k-1) w/((3k-1) 3k),
    G_0 = 1,    G_k = G_(k-1) w/(3k (3k+1)),

so that no term is divided by z (DLMF 9.4.1-9.4.2). Past Z(d) they come
from one pass over the asymptotic expansions in zeta = (2/3) |z|^(3/2)
(DLMF 9.7.5-9.7.6 for z > 0, 9.7.9-9.7.10 for z < 0),

    z > 0:  Ai = e^-zeta Su / (2 sqrt(pi) z^(1/4)),
            Ai' = -z^(1/4) e^-zeta Sv / (2 sqrt(pi)),
    z < 0:  Ai = (c Eu + s Ou) / (sqrt(pi) |z|^(1/4)),
            Ai' = |z|^(1/4) (s Ev - c Ov) / sqrt(pi),
    c = cos(zeta - pi/4),  s = sin(zeta - pi/4),
    t_0 = 1,  t_k = t_(k-1) (6k-5)(6k-3)(6k-1) / ((2k-1) 216 k zeta),
    w_0 = 1,  w_k = (6k+1) t_k / (6k-1),

where t_k = u_k zeta^-k and w_k = |v_k| zeta^-k; Su sums (-1)^k t_k and
Sv = 1 - sum_{k>=1} (-1)^k w_k; Eu, Ou and Ev, Ov split the same sums into
even and odd k, with the sign (-1)^(k//2) in place of (-1)^k. The terms
fall while (6k+1)(6k+5) < 72 (k+1) zeta, to about e^-(2 zeta) at
k = 2 zeta. At Z(d), 2 zeta = (4/3) Z(d)^(3/2) = (b + 35) ln 2: Z(d) is
where the smallest term reaches about 2^-(b+35), 35 bits below 10^-w,
so past Z(d) the series holds w digits with room for its roundings. On
z < 0 the Maclaurin pass is also the faster route up to Z(d), so one limit
serves both signs. AiryValue.method names each call's route.

z is taken as held if an mpf or a BigReal, text at w digits. AiryValue
keeps Ai and Ai' as plain mpf, as their pass leaves them, good to w digits,
for theorem2_eval to multiply; wrap_real rounds them to the context for
printing.

Both passes run on a grid of 2^-p, and fixedpoint.counted_bound(c, units,
p, A) counts what their floors can miss: c 2^-p of each term and `units`
grid units in all, over terms of absolute sum A.

The Maclaurin pass takes z = man 2^exp exactly, cuts |z|^3 to p bits, and
floors each F_k and G_k as |F_k| or |G_k|, one floor a step, the sign
(-1)^k (of G_k) or (-1)^(k-1) (of F_k) applied when it is summed. A cut or
a floor only lowers a positive quantity. The exact terms rise to their
largest and fall after it, so the floors of the steps before k amount to
under k + 1 units together with under 6 (k + 1) 2^-p of the term, and the
cut |z|^3 to under 2k 2^-p of it: term k is low by at most (8k + 6) 2^-p
of itself plus k + 1 units. The pass stops at the first k where both new
terms are 0 and the ratios of all later terms are at most 1/4, so the rest
of each series, the weighted ones included, is at most twice its first
dropped term. A sum of terms up to K with absolute sum A and weights up to
W = 3K + 1 then misses its exact value by at most
W counted_bound(8K + 7, (K + 3)^2, p, A) units, which also takes in the
roundings of the combination at p + 4 bits, with c2 = 1/(3^(1/3)
Gamma(1/3)) and c1 = 3^(1/2)/(6 pi c2) from Gamma(1/3)^3 = 2^(4/3) pi^2 /
(3^(1/4) agm(1, cos 15 deg)) (the singular value K(sin 15 deg) of the
complete elliptic integral), kept at the most bits asked for; theorem1_eval
takes Gamma(1/3) = 1/(3^(1/3) c2) from it too. mpmath.gamma(1/3) in its
place prints the same Ai and Ai', but builds its Taylor coefficients afresh
at each new precision: 13-16 ms at 470 bits, a tenth of a fresh process's
first `eval`, and 1.6 s at 2130 bits (2-vCPU VM, mpmath 1.3.0).

The asymptotic pass takes zeta at p + 8 + log2 zeta bits from mpmath's
sqrt, within 2^-(p+6) of itself, and divides by its mantissa and exponent
exactly: each t_k is floored once a step, and each w_k once from t_k. It
stops at the first K where t_K is 0 or is the smallest term,
(6K+1)(6K+5) > 72 (K+1) zeta. The terms fall before K, so a floor lowers
each later term by under one unit: t_k is low by under k units and w_k off
by under 2k + 1, and zeta's rounding puts both off by under k 2^-(p+5) of
themselves more; the sums of either kind miss by at most
counted_bound(K, K^2, p, A), A the absolute sum of the w_k >= t_k. DLMF
9.7(iv): for real z each series' remainder after its last kept term is at
most its first neglected term (from n >= 1 for the v series, which every
pass keeps). That is t_K or t_(K+1) <= 2 t_K, times (6k+1)/(6k-1) <= 7/5
for the v series: under 3 (t_K + K) units. z < 0 adds the misses of two
halves, |c|, |s| <= 1, and e^-zeta, cos, sin, |z|^(1/4), sqrt(pi) and the
products at p + 4 bits add under 8 units.

p carries w digits, _SLACK digits more, and for the Maclaurin pass the
digits its sums cancel, predicted as (4/3) z^(3/2)/ln 10 for z > 0 (the
largest term over Ai) and (2/3) |z|^(3/2)/ln 10 for z < 0, where Ai and Ai'
oscillate; the asymptotic sums do not cancel. A pass is accepted when its
bound is at most 10^-w of |Ai| and of |Ai'|; near a zero of either it is
not, and it reruns with p raised by the digits it fell short, at most
MAX_RERUNS times, then raises PrecisionExhaustedError, at once if a
shortfall is NaN; its message names the pass, the target digits and the
last p. Near a zero on z < 0 the asymptotic pass may stop at its smallest
term, 6 t_K units of its bound, above 10^-w of |Ai| or |Ai'|: no p lowers
that. The pass tells it from t_K in floats, since on a grid too coarse for
t_K it reads 0, and the Maclaurin pass then serves |z| <= _FALLBACK Z(d),
starting at p raised by the digits the series fell short (2.5 ms warm
for the first zero past -Z(120), one pass of each, 2-vCPU x86-64 VM);
past that airy raises PrecisionExhaustedError. There the smallest term is
under 2^-(2.8 (b + 35)), so only a z held to about three times w digits
next to a zero reaches it.
"""
from __future__ import annotations

import enum
import itertools
import math
from typing import NamedTuple

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec

from .errors import DomainError, PrecisionExhaustedError
from .fixedpoint import _shift, _top, counted_bound
from .numkernel import _GUARD, PrecisionContext, read_real, working_digits

ABS_Z_LIMIT = 10 ** 6
# Reruns a pass may make before PrecisionExhaustedError.
MAX_RERUNS = 3
_SLACK = 10  # digits p carries past w and the predicted loss
_FALLBACK = 2  # near a zero the Maclaurin pass serves |z| up to 2 Z(d)


class AiryMethod(enum.Enum):
    ASYMPTOTIC = "asymptotic"
    MACLAURIN = "maclaurin"


class AiryValue(NamedTuple):
    ai: mpmath.mpf  # as the route leaves it, good to w digits
    ai_prime: mpmath.mpf
    method: AiryMethod


def maclaurin_limit(digits: int) -> float:
    """Z(d): the Maclaurin pass serves |z| <= Z(d) at d digits, the
    asymptotic pass larger |z|."""
    return (0.75 * (dps_to_prec(digits + _GUARD) + 35) * math.log(2)) ** (2 / 3)


def _loss_digits(z: float) -> float:
    """Digits the Maclaurin sums are predicted to cancel at z."""
    return (4 / 3 if z > 0 else 2 / 3) * abs(z) ** 1.5 / math.log(10)


_AI0 = []  # [bits, c1, c2] at the most bits asked for so far


def _ai0(bits: int):
    """(Ai(0), -Ai'(0)) to at least `bits` bits, computed on first use."""
    if not _AI0 or _AI0[0] < bits:
        with mp.workprec(bits + 10):
            g3 = 2 * mp.cbrt(2) * mp.pi ** 2 / (
                mp.root(3, 4) * mp.agm(1, (mp.sqrt(6) + mp.sqrt(2)) / 4))
            c2 = 1 / mp.cbrt(3 * g3)
            _AI0[:] = bits, mp.sqrt(3) / (6 * mp.pi * c2), c2
    return _AI0[1], _AI0[2]


def _sums(man: int, exp: int, neg: bool, absz: float, p: int):
    """(Sf, Sf', Sg, Sg', K, A_F, A_G) on the grid 2^-p for z = +-man 2^exp."""
    m3, cut = _top(man ** 3, p)
    e3 = 3 * exp + cut
    u4 = 4 * absz ** 3 * (1 + 1e-9)  # above 4 |z|^3
    f, g = (1 << p) // 6, 1 << p  # F_1 and G_0
    sf, sfp, sg, sgp = f, 3 * f, g, g
    af, ag = f, g
    for k in itertools.count(1):
        # G_k and F_(k+1), both of sign (-1)^k
        g = _shift(g * m3, e3) // (3 * k * (3 * k + 1))
        f = _shift(f * m3, e3) // ((3 * k + 2) * (3 * k + 3))
        if not (f or g) and u4 <= (3 * k + 3) * (3 * k + 4):
            return sf, sfp, sg, sgp, k + 1, af, ag
        af += f
        ag += g
        sgn = -1 if neg and k & 1 else 1
        sf += sgn * f
        sfp += sgn * (3 * k + 3) * f
        sg += sgn * g
        sgp += sgn * (3 * k + 1) * g


def _maclaurin_pass(zv, p: int):
    """(Ai, Ai'), their bounds, and (0, 0): no part of them outlasts a
    larger p."""
    man, exp = zv.man_exp  # the mantissa unsigned
    az = abs(zv)
    sf, sfp, sg, sgp, k, af, ag = _sums(man, exp, zv < 0, float(az), p)
    c1, c2 = _ai0(p + 4)
    z2 = zv * zv
    ef, eg = (mp.ldexp(counted_bound(8 * k + 7, (k + 3) ** 2, p, a), -p)
              for a in (af, ag))
    ai = c1 * (1 + zv * z2 * mp.ldexp(sf, -p)) - c2 * zv * mp.ldexp(sg, -p)
    aip = c1 * z2 * mp.ldexp(sfp, -p) - c2 * mp.ldexp(sgp, -p)
    err = c1 * (az * z2 * ef + mp.ldexp(1, -p)) + c2 * az * eg
    errp = (3 * k + 1) * (c1 * z2 * ef + c2 * eg)
    return (ai, aip), (err, errp), (0, 0)


def _series(zm: int, ze: int, zf: float, neg: bool, p: int):
    """([Su or Eu, Ou], [Sv or Ev, Ov], K, A, t_K) on the grid 2^-p for
    zeta = zm 2^ze, about zf; the odd slots stay 0 for z > 0."""
    t = 1 << p
    su, sv, a = [t, 0], [t, 0], t
    for k in itertools.count(1):
        t = _shift(t * (6 * k - 5) * (6 * k - 3) * (6 * k - 1), -ze) // (
            (2 * k - 1) * 216 * k * zm)
        if not t or (6 * k + 1) * (6 * k + 5) > 72 * (k + 1) * zf:
            return su, sv, k, a, t
        w = (6 * k + 1) * t // (6 * k - 1)
        a += w
        # sign (-1)^k for z > 0, (-1)^(k//2) and the slot of k's parity
        # for z < 0
        sgn = -1 if (k >> neg) & 1 else 1
        su[k & neg] += sgn * t
        sv[k & neg] -= sgn * w


def _series_pass(zv, p: int):
    """(Ai, Ai'), their bounds, and the parts of them that the smallest
    term makes, which no larger p lowers."""
    az = abs(zv)
    zf = 2 * float(az) ** 1.5 / 3
    with mp.workprec(p + 8 + math.frexp(zf)[1]):
        q = mp.sqrt(az)
        zeta = 2 * az * q / 3
        phase = zeta - mp.pi / 4
    zm, ze = zeta.man_exp
    su, sv, k, a, tk = _series(zm, ze, zf, zv < 0, p)
    q = +q  # |z|^(1/2), rounded to p + 4 bits
    r = mp.sqrt(q)  # |z|^(1/4)
    if zv < 0:
        c, s = mp.cos_sin(phase)
        pre = 1 / (mp.sqrt(mp.pi) * r)
        ai, aip = c * su[0] + s * su[1], s * sv[0] - c * sv[1]
    else:
        pre = mp.exp(-zeta) / (2 * mp.sqrt(mp.pi) * r)
        ai, aip = mpf(su[0]), -mpf(sv[0])
    unit = mp.ldexp(pre, -p)
    rest = 2 * (counted_bound(k, k * k, p, a) + 3 * k) + 8
    # the smallest term in floats, since on a grid too coarse for it t_K
    # reads 0: t_m = u_m zeta^-m, u_m = Gamma(3m + 1/2)/(54^m m!
    # Gamma(m + 1/2)) (DLMF 9.7.2), at m = floor(2 zeta) + 1, where
    # (6m+1)(6m+5) > 72 (m+1) zeta first holds or one past it
    m = math.floor(2 * zf) + 1
    small = 6 * mp.ldexp(mp.exp(
        math.lgamma(3 * m + 0.5) - math.lgamma(m + 0.5) - math.lgamma(m + 1)
        - m * math.log(54 * zf)), p)
    return ((unit * ai, unit * q * aip),
            (unit * (rest + 6 * tk), unit * q * (rest + 6 * tk)),
            (unit * small, unit * q * small))


def _certified(route: str, pass_, zv, target: int, digits_p: float):
    """((Ai, Ai'), digits_p) from the first pass whose bounds are at most
    10^-target of |Ai| and |Ai'|, each rerun at digits_p raised by the
    digits the last fell short; (None, digits_p so raised) once the part of
    a bound that no p lowers is not.
    """
    scale = 10 ** target
    for _ in range(MAX_RERUNS + 1):
        p = math.ceil(digits_p * math.log2(10))
        with mp.workprec(p + 4):
            vals, errs, fixed = pass_(zv, p)
            if all(e * scale <= abs(v) for v, e in zip(vals, errs)):
                return vals, digits_p  # not if either is NaN
            # digits short of the target; a value inside its own bound is
            # short by the whole target, and a NaN is short by NaN
            short = [target + mp.log10(e / max(abs(v), e))
                     for v, e in zip(vals, errs)]
            if any(mp.isnan(s) for s in short):
                break
            digits_p += float(max(short)) + 1
            if any(f * scale > abs(v) for v, f in zip(vals, fixed)):
                return None, digits_p
    raise PrecisionExhaustedError(
        f"airy(z={mp.nstr(zv, 8)}): the {route} pass not certified to "
        f"{target} digits (shortfalls {mp.nstr(short, 3)} at {p} bits, "
        f"{MAX_RERUNS} reruns allowed)")


def airy(z, ctx: PrecisionContext) -> AiryValue:
    """Ai(z) and Ai'(z) for real finite z, |z| <= 1e6."""
    w = working_digits(ctx, 1)
    zv = read_real(z, w)
    if abs(zv) > ABS_Z_LIMIT:
        raise DomainError(f"|z| = {mp.nstr(abs(zv), 8)} exceeds the "
                          f"supported range {ABS_Z_LIMIT}")
    absz, limit = abs(float(zv)), maclaurin_limit(ctx.digits)
    digits_p = w + _SLACK
    vals, method = None, AiryMethod.ASYMPTOTIC
    if absz > limit:
        vals, digits_p = _certified("asymptotic", _series_pass, zv, w,
                                    digits_p)
        if vals is None and absz > _FALLBACK * limit:
            raise PrecisionExhaustedError(
                f"airy(z={mp.nstr(zv, 8)}): the asymptotic series' smallest "
                f"term exceeds 10^-{w} of Ai or Ai', and "
                f"the Maclaurin pass serves |z| <= {_FALLBACK} Z(d) = "
                f"{_FALLBACK * limit:.1f} only")
    if vals is None:
        # past Z(d) digits_p carries the digits the series fell short,
        # which the value's nearness to a zero sets for either pass
        vals, _ = _certified("Maclaurin", _maclaurin_pass, zv, w,
                             digits_p + _loss_digits(float(zv)))
        method = AiryMethod.MACLAURIN
    return AiryValue(*vals, method)
