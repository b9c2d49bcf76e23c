"""Arbitrary-precision numeric substrate.

Wraps mpmath behind one small immutable value type, BigReal, an mpf rounded
to the PrecisionContext it prints at, built by wrap_real alone. Every public
operation pins its working precision with ``mp.workdps`` so results never
depend on ambient global state; repeated calls with identical inputs are
bit-identical. Values are rounded once, at the edge: the asymptotic routes
keep plain mpf/mpc at working_digits(ctx, n) = ctx.digits + ceil(log10 n)
+ 10, as n multiplies them, read_real reads an outside number once at that
width, read_int reads every integer argument (digits, n, a series order)
and refuses with the caller's error class anything but an int in range,
and wrap_real rounds to ctx only what they return or print. The 10
guard digits, _GUARD, are stated here alone: every other layer that works
past the context takes working_digits(ctx, 1), or _GUARD where it holds only
a digit count.
``_sci`` writes d digits of a value's held binary value, correctly rounded,
the exponent padded to two digits; ``BigReal.to_str`` writes its value,
already rounded to ctx, at ctx.digits and appends ``@d``.

The one function the kernel adds is ``log_branched_raw``: the logarithm
with arg z in [0, 2pi), cut along the positive real axis approached from
above. That branch choice is what makes the phase function take the value
-1 - i*pi at t = -1 and keeps conjugate saddle pairs on a single sheet.
"""
from __future__ import annotations

import math
import re
from typing import NamedTuple

from mpmath import mp, mpc, mpf
from mpmath.libmp import (from_int, from_man_exp, mpf_div, mpf_ln2, mpf_ln10,
                          mpf_mul, mpf_pow_int, round_ceiling, round_floor,
                          to_int)

from .errors import (BranchError, CapacityError, DomainError,
                     InvalidPrecisionError, TouchardError)

DEFAULT_DIGITS = 120
MIN_DIGITS = 30
# _sci writes d digits with one str() of a d-digit int, which Python refuses
# past its default sys.get_int_max_str_digits() of 4300
MAX_DIGITS = 4300
_GUARD = 10  # guard digits the working width carries past ctx.digits
# Widest working width: theorem1_eval(n, MAX_ORDER) takes 12.8-13.3 s at it
# and 15.2 s at 40000 against a 15 s budget (README, "Size limit")
MAX_WIDTH = 35000


class PrecisionContext(NamedTuple):
    digits: int


def read_int(v, least: int, most: float = math.inf, what: str = "n",
             error: type[TouchardError] = DomainError) -> int:
    """v, an int and not a bool in [least, most]; else `error`.

    The one reader of integer arguments: digit counts, n and series orders.
    """
    if not isinstance(v, int) or isinstance(v, bool) or not least <= v <= most:
        raise error(f"{what} must be an integer in [{least}, {most}], got {v!r}")
    return v


def mk_context(digits: int | None = None) -> PrecisionContext:
    return PrecisionContext(read_int(
        DEFAULT_DIGITS if digits is None else digits, MIN_DIGITS, MAX_DIGITS,
        "working precision", InvalidPrecisionError))


def capped_width(width: int) -> int:
    """width, or CapacityError past MAX_WIDTH."""
    if width > MAX_WIDTH:
        raise CapacityError(f"working width {width} digits past {MAX_WIDTH}")
    return width


def working_digits(ctx: PrecisionContext, n: int) -> int:
    """The working width for values that n multiplies: ctx.digits, the
    ceil(log10 n) digits the product spends, and the guard; CapacityError
    past MAX_WIDTH."""
    return capped_width(ctx.digits + math.ceil(math.log10(read_int(n, 1)))
                        + _GUARD)


# ---------------------------------------------------------------------------
# value types

_SER_RE = re.compile(
    r"^(?P<mant>[+-]?\d(?:\.\d+)?)e(?P<exp>[+-]\d+)@(?P<digits>\d+)$")


class BigReal(NamedTuple):
    """An mpmath real rounded to the context it prints at; wrap_real, the
    one place a BigReal is built, does the rounding."""

    value: mpf
    ctx: PrecisionContext

    def to_str(self) -> str:
        return _sci(self.value, self.ctx.digits) + f"@{self.ctx.digits}"

    @classmethod
    def parse(cls, text: str) -> "BigReal":
        m = _SER_RE.match(text.strip())
        if m is None:
            raise DomainError(f"not a serialized BigReal: {text!r}")
        return real_from(m.group("mant") + "e" + m.group("exp"),
                         mk_context(int(m.group("digits"))))


def _sci(v: mpf, d: int) -> str:
    """Scientific notation with exactly d >= 2 significant digits: v's binary
    value rounded half away from zero, the exponent of at least two digits."""
    if not mp.isfinite(v):
        raise DomainError(f"cannot serialize non-finite value {v}")
    if v == 0:
        return "0." + "0" * (d - 1) + "e+00"
    sign, man, exp, bc = v._mpf_
    e = exp + bc - 1  # 2^e <= |v| < 2^(e + 1)
    p = e.bit_length() + 20  # floor(e log10 2) exact off 2^-20 of an integer
    s = to_int(mpf_mul(from_int(e), mpf_div(mpf_ln2(p), mpf_ln10(p), p), p),
               round_floor) - d + 1  # the last digit, or one below it
    while True:
        q = (_twice_floor(man, exp, s, d) + 1) >> 1  # man 2^exp / 10^s, rounded
        if 10 ** (d - 1) <= q < 10 ** d:
            digits = str(q)
            return f"{'-' * sign}{digits[0]}.{digits[1:]}e{s + d - 1:+03d}"
        s += 1 if q >= 10 ** d else -1


def _twice_floor(man: int, exp: int, s: int, d: int) -> int:
    """floor(man 2^(exp+1) / 10^s): exact while |s| <= 1000, else from bounds
    at 4d + 64 bits, whose floors agree off 2^-60 units of a rounding tie."""
    if abs(s) > 1000:
        x, w = from_man_exp(man, exp + 1), 4 * d + 64
        lo, hi = (to_int(mpf_mul(x, mpf_pow_int(from_int(10), -s, w, rnd), w,
                                 rnd)) for rnd in (round_floor, round_ceiling))
        if lo == hi:
            return lo
    num, den = man * 10 ** max(-s, 0), 10 ** max(s, 0)
    return (num << exp + 1) // den if exp >= -1 else num // (den << -exp - 1)


# ---------------------------------------------------------------------------
# construction and unwrapping helpers

def wrap_real(v, ctx: PrecisionContext) -> BigReal:
    with mp.workdps(ctx.digits):
        return BigReal(+mpf(v), ctx)


def read_real(x, digits: int) -> mpf:
    """x as an mpf: an mpf or a BigReal's value as held, int, str and float
    read at `digits`.

    The one reader of numbers from outside the package: anything that is
    not a finite number (text that does not parse, None, nan, +-inf) raises
    DomainError.
    """
    v = x.value if isinstance(x, BigReal) else x
    if not isinstance(v, mpf):
        with mp.workdps(digits):
            try:
                v = mpf(v)
            except (TypeError, ValueError):  # not a number: refused below
                v = mp.nan
    if not mp.isfinite(v):
        raise DomainError(f"expected a finite number, got {x!r}")
    return v


def real_from(x, ctx: PrecisionContext) -> BigReal:
    """x read at ctx.digits + 10 (read_real) and rounded to ctx."""
    return wrap_real(read_real(x, ctx.digits + _GUARD), ctx)


def raw(x):
    """Unwrap a BigReal to its mpf; pass anything else on."""
    return x.value if isinstance(x, BigReal) else x


def _require_real(v, digits: int, what: str) -> mpf:
    """Re v, once Im v is within 10^-(digits - _GUARD) of max(1, |v|)."""
    tol = mpf(10) ** (-(digits - _GUARD)) * max(mpf(1), abs(v))
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
