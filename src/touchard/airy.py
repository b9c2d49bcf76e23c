"""Airy Ai and Ai' on the real line at arbitrary precision, by two routes.

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
from mpmath.airyai at w digits, which sums the 2F0 expansion of
DLMF 9.7.5 for z > 4. Its smallest term is about e^(-(4/3) |z|^(3/2)), at
Z(d) 2^-(b+35), the term at which mpmath's sum stops (hypercomb adds 10
bits, hypsum 50 and stops 25 above its grid); short of it, mpmath takes a
slow route. On z < 0 the pass is also the faster route up to Z(d), so one
limit serves both signs. AiryValue.method names each call's route.

z is taken as held if an mpf or a BigReal, text at w digits. AiryValue
keeps Ai and Ai' as plain mpf, as their route leaves them, good to w digits,
for theorem2_eval to multiply; wrap_real rounds them to the context for
printing.

The pass runs in Python ints on a grid of 2^-p: z = man 2^exp is taken
exactly, |z|^3 is cut to p bits, and each F_k and G_k is |F_k| or |G_k|
floored, one floor a step, the sign (-1)^k (of G_k) or (-1)^(k-1) (of F_k)
applied when it is summed. A cut or a floor only lowers a positive
quantity. The exact terms rise to their largest and fall after it, so the
floors of the steps before k amount to under k + 1 units together with
under 6 (k + 1) 2^-p of the term, and the cut |z|^3 to under 2k 2^-p of
it: term k is low by at most (8k + 6) 2^-p of itself plus k + 1 units.
The pass stops at the first k where both new terms are 0 and the ratios of
all later terms are at most 1/4, so the rest of each series, the weighted
ones included, is at most twice its first dropped term. A sum of terms up to
K with absolute sum A and weights up to W = 3K + 1 then misses its exact
value by at most W ((16K + 13)(A + K^2) 2^-p + (K + 3)^2 + 2) units:
_bound(), which also takes in the roundings of the combination at p + 4
bits, with c2 = 1/(3^(1/3) Gamma(1/3)) and c1 = 3^(1/2)/(6 pi c2) from
Gamma(1/3)^3 = 2^(4/3) pi^2 / (3^(1/4) agm(1, cos 15 deg)) (the singular
value K(sin 15 deg) of the complete elliptic integral), kept at the most
bits asked for; theorem1_eval takes Gamma(1/3) = 1/(3^(1/3) c2) from it too.
mpmath.gamma(1/3) in its place prints the same Ai and Ai', but builds its
Taylor coefficients afresh at each new precision: 13-16 ms at 470 bits, a
tenth of a fresh process's first `eval`, and 1.6 s at 2130 bits (2-vCPU VM,
mpmath 1.3.0).

p carries w digits, _SLACK digits more, and the digits the sums
cancel, predicted as (4/3) z^(3/2)/ln 10 for z > 0 (the largest term over
Ai) and (2/3) |z|^(3/2)/ln 10 for z < 0, where Ai and Ai' oscillate. A pass
is accepted when its bound is at most 10^-w of |Ai| and of |Ai'|;
near a zero of either it is not, and it reruns with p raised by the digits
it fell short, at most MAX_RERUNS times, then raises
PrecisionExhaustedError, at once if a shortfall is NaN; its message names
the pass, the target digits and the last p.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import mpmath
from mpmath import mp
from mpmath.libmp import dps_to_prec

from .errors import DomainError, PrecisionExhaustedError
from .fixedpoint import _shift, _top
from .numkernel import _GUARD, PrecisionContext, read_real, working_digits

ABS_Z_LIMIT = 10 ** 6
# Reruns the Maclaurin pass may make before PrecisionExhaustedError.
MAX_RERUNS = 3
_SLACK = 10  # digits p carries past w and the predicted loss


class AiryMethod(enum.Enum):
    MPMATH = "mpmath"
    MACLAURIN = "maclaurin"


@dataclass(frozen=True)
class AiryValue:
    ai: mpmath.mpf  # as the route leaves it, good to w digits
    ai_prime: mpmath.mpf
    method: AiryMethod


def maclaurin_limit(digits: int) -> float:
    """Z(d), the largest |z| the Maclaurin pass takes at d digits."""
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


def _bound(k: int, a: int, p: int) -> int:
    """Units of 2^-p by which an unweighted sum of terms up to k, with
    absolute sum a, can miss its exact value (module docstring)."""
    return ((16 * k + 13) * (a + k * k) >> p) + (k + 3) ** 2 + 2


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


def _by_maclaurin(zv, absz: float, digits: int):
    """(Ai, Ai') at the mpf zv, |zv| <= Z(digits), each to
    digits + _GUARD digits (module docstring's w), by the certified pass."""
    target = digits + _GUARD
    sign, man, exp, _ = zv._mpf_
    digits_p = target + _SLACK + _loss_digits(float(zv))
    for _ in range(MAX_RERUNS + 1):
        p = math.ceil(digits_p * math.log2(10))
        sf, sfp, sg, sgp, k, af, ag = _sums(man, exp, sign == 1, absz, p)
        with mp.workprec(p + 4):
            c1, c2 = _ai0(p + 4)
            z2 = zv * zv
            az = abs(zv)
            ef, eg = (mp.ldexp(_bound(k, a, p), -p) for a in (af, ag))
            ai = (c1 * (1 + zv * z2 * mp.ldexp(sf, -p))
                  - c2 * zv * mp.ldexp(sg, -p))
            aip = c1 * z2 * mp.ldexp(sfp, -p) - c2 * mp.ldexp(sgp, -p)
            err = c1 * (az * z2 * ef + mp.ldexp(1, -p)) + c2 * az * eg
            errp = (3 * k + 1) * (c1 * z2 * ef + c2 * eg)
            # digits short of the target; a value inside its own bound is
            # short by the whole target, and a NaN is short by NaN
            short = [target + mp.log10(e / max(abs(v), e))
                     for v, e in ((ai, err), (aip, errp))]
        if all(s <= 0 for s in short):
            return ai, aip
        if any(mp.isnan(s) for s in short):
            break
        digits_p += float(max(short)) + 1
    raise PrecisionExhaustedError(
        f"airy(z={mp.nstr(zv, 8)}): the Maclaurin pass not certified to "
        f"{target} digits (shortfalls {mp.nstr(short, 3)} at {p} bits, "
        f"{MAX_RERUNS} reruns allowed)")


def airy(z, ctx: PrecisionContext) -> AiryValue:
    """Ai(z) and Ai'(z) for real finite z, |z| <= 1e6."""
    zv = read_real(z, working_digits(ctx, 1))
    absz = abs(float(zv))
    if absz > ABS_Z_LIMIT:
        raise DomainError(f"|z| = {absz} exceeds the supported range {ABS_Z_LIMIT}")
    if absz <= maclaurin_limit(ctx.digits):
        ai, aip = _by_maclaurin(zv, absz, ctx.digits)
        method = AiryMethod.MACLAURIN
    else:
        with mp.workdps(working_digits(ctx, 1)):
            ai, aip = mpmath.airyai(zv), mpmath.airyai(zv, 1)
        method = AiryMethod.MPMATH
    return AiryValue(ai=ai, ai_prime=aip, method=method)
