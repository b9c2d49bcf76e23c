"""Airy Ai and Ai' on the real line at arbitrary precision.

Both come from mpmath.airyai, evaluated 10 digits above the context's
precision and rounded to it. mpmath writes them as hypergeometric functions
(a 0F1 pair for z <= 4, the 2F0 expansion of DLMF 9.7 above) and its
hypercomb raises the working precision until the cancellation between the
terms is covered. The tests check the result against a Maclaurin-series
oracle for |z| <= 40, and against the Wronskian with Bi from -1e6 to 1e6 at
40, 120 and 300 digits. AiryValue.method names the route; there is one.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import mpmath
from mpmath import mp

from .errors import DomainError
from .numkernel import BigReal, PrecisionContext, raw, wrap_real

ABS_Z_LIMIT = 10 ** 6


class AiryMethod(enum.Enum):
    MPMATH = "mpmath"


@dataclass(frozen=True)
class AiryValue:
    ai: BigReal
    ai_prime: BigReal
    method: AiryMethod


def airy(z: BigReal, ctx: PrecisionContext) -> AiryValue:
    """Ai(z) and Ai'(z) for real z, |z| <= 1e6."""
    zv = raw(z)
    absz = abs(float(zv))
    if absz > ABS_Z_LIMIT:
        raise DomainError(f"|z| = {absz} exceeds the supported range {ABS_Z_LIMIT}")
    with mp.workdps(ctx.digits + 10):
        ai = mpmath.airyai(zv)
        aip = mpmath.airyai(zv, 1)
    return AiryValue(ai=wrap_real(ai, ctx), ai_prime=wrap_real(aip, ctx),
                     method=AiryMethod.MPMATH)
