"""Arbitrary-precision numeric substrate.

Wraps mpmath behind small immutable value types (BigReal, BigComplex) that
remember the PrecisionContext they were produced under. Every public
operation pins its working precision with ``mp.workdps`` so results never
depend on ambient global state; repeated calls with identical inputs are
bit-identical. Elementary and special functions are mpmath's own, called
by each module under its pinned precision. ``_sci`` writes d digits of a
value's held binary value by one mpmath ``libmp.to_str`` call, the exponent
padded to two digits; ``BigReal.to_str`` appends ``@d`` for d = ctx.digits.

The one function the kernel adds is ``log_branched_raw``: the logarithm
with arg z in [0, 2pi), cut along the positive real axis approached from
above. That branch choice is what makes the phase function take the value
-1 - i*pi at t = -1 and keeps conjugate saddle pairs on a single sheet.
"""
from __future__ import annotations

import os
import re
from dataclasses import dataclass

from mpmath import mp, mpc, mpf
from mpmath.libmp import to_str

from .errors import BranchError, DomainError, InvalidPrecisionError

DEFAULT_DIGITS = 120
MIN_DIGITS = 30
_GUARD = 10  # internal guard digits absorbed before rounding to ctx.digits


def default_digits() -> int:
    """Default working precision, overridable via TOUCHARD_DIGITS."""
    raw = os.environ.get("TOUCHARD_DIGITS")
    if raw is None or raw.strip() == "":
        return DEFAULT_DIGITS
    try:
        d = int(raw)
    except ValueError:
        raise InvalidPrecisionError(
            f"TOUCHARD_DIGITS must be an integer, got {raw!r}")
    if d < MIN_DIGITS:
        raise InvalidPrecisionError(
            f"TOUCHARD_DIGITS must be >= {MIN_DIGITS}, got {d}")
    return d


@dataclass(frozen=True)
class PrecisionContext:
    digits: int


def mk_context(digits: int | None = None) -> PrecisionContext:
    if digits is None:
        digits = default_digits()
    if not isinstance(digits, int) or isinstance(digits, bool) or digits < MIN_DIGITS:
        raise InvalidPrecisionError(
            f"working precision must be an integer >= {MIN_DIGITS}, got {digits!r}")
    return PrecisionContext(digits=digits)


# ---------------------------------------------------------------------------
# value types

_SER_RE = re.compile(
    r"^(?P<mant>[+-]?\d(?:\.\d+)?)e(?P<exp>[+-]\d+)@(?P<digits>\d+)$")


@dataclass(frozen=True)
class BigReal:
    """An mpmath real plus the context it was rounded under."""

    value: mpf
    ctx: PrecisionContext

    def to_str(self) -> str:
        return _sci(self.value, self.ctx.digits) + f"@{self.ctx.digits}"

    @classmethod
    def parse(cls, text: str) -> "BigReal":
        m = _SER_RE.match(text.strip())
        if m is None:
            raise DomainError(f"not a serialized BigReal: {text!r}")
        d = int(m.group("digits"))
        ctx = mk_context(d)
        with mp.workdps(d + _GUARD):
            v = mpf(m.group("mant") + "e" + m.group("exp"))
        return wrap_real(v, ctx)


@dataclass(frozen=True)
class BigComplex:
    re: BigReal
    im: BigReal

    @property
    def ctx(self) -> PrecisionContext:
        return self.re.ctx

    @property
    def value(self) -> mpc:
        # make_mpc keeps the stored mantissas verbatim; mpc(re, im) would
        # re-round both parts to whatever the ambient precision happens to be
        return mp.make_mpc((self.re.value._mpf_, self.im.value._mpf_))

    def to_str(self) -> str:
        return f"({self.re.to_str()},{self.im.to_str()})"


def _sci(v: mpf, d: int) -> str:
    """Scientific notation with exactly d >= 2 significant digits, written by
    mpmath from v's binary value, with an exponent of at least two digits."""
    if not mp.isfinite(v):
        raise DomainError(f"cannot serialize non-finite value {v}")
    if v == 0:
        return "0." + "0" * (d - 1) + "e+00"
    mant, e10 = to_str(v._mpf_, d, min_fixed=1, max_fixed=0, strip_zeros=False,
                       show_zero_exponent=True).split("e")
    return f"{mant}e{int(e10):+03d}"


# ---------------------------------------------------------------------------
# construction and unwrapping helpers

def wrap_real(v, ctx: PrecisionContext) -> BigReal:
    with mp.workdps(ctx.digits):
        return BigReal(+mpf(v), ctx)


def wrap_complex(v, ctx: PrecisionContext) -> BigComplex:
    with mp.workdps(ctx.digits):
        z = mpc(v)
        return BigComplex(BigReal(+z.real, ctx), BigReal(+z.imag, ctx))


def real_from(x, ctx: PrecisionContext) -> BigReal:
    """Build a BigReal from int, str, float, mpf or BigReal at ctx precision.

    The one reader of numbers from outside the package: anything that is
    not a finite number (text that does not parse, None, nan, +-inf) raises
    DomainError. Text and mpf are read at ctx.digits + 10 and then rounded.
    """
    if isinstance(x, BigReal):
        v = x.value
    else:
        with mp.workdps(ctx.digits + _GUARD):
            try:
                v = mpf(x)
            except (TypeError, ValueError):  # not a number: refused below
                v = mp.nan
    if not mp.isfinite(v):
        raise DomainError(f"expected a finite number, got {x!r}")
    return wrap_real(v, ctx)


def raw(x):
    """Unwrap a BigReal or BigComplex to its mpf/mpc; pass anything else on."""
    if isinstance(x, (BigReal, BigComplex)):
        return x.value
    return x


def _require_real(v, digits: int, what: str) -> mpf:
    """Re v, once Im v is within 10^-(digits-10) of max(1, |v|)."""
    tol = mpf(10) ** (-(digits - 10)) * max(mpf(1), abs(v))
    if not abs(mp.im(v)) <= tol:  # a NaN residue fails too
        raise BranchError(f"{what} has imaginary residue {mp.nstr(mp.im(v), 3)}")
    return mp.re(v)


# ---------------------------------------------------------------------------
# branched logarithm

def log_branched_raw(z) -> mpc:
    """log with arg z in [0, 2pi); cut along [0, inf) approached from above."""
    z = mpc(z)
    if z == 0:
        raise DomainError("log_branched is undefined at 0")
    w = mp.log(z)
    if mp.im(w) < 0:
        w += 2j * mp.pi
    return w
