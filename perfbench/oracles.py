"""Reference values computed apart from the touchard package.

Nothing here imports touchard. Each oracle follows the formula the package
documents, but through a different computation:

* exact values: an integer Stirling row and integer Horner at the exact
  dyadic value of x, rounded once at the end;
* saddles and the uniform form: mpmath.lambertw on branches 0 and -1 and
  mpmath.airyai, with the closed forms at xi = 1;
* the coalescence series: the paper's B_0, B_1, B_3, B_4, B_6 and
  mpmath.gamma;
* the leading-order forms: mpmath.lambertw.

Inputs are rounded the way the package rounds them (a decimal xi to the
working precision, then x = n e xi or mu = 1/(e xi) to the working
precision), so that oracle and package evaluate the same point.
"""
from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp, mpc, mpf

DIGITS = 120          # the package's default working precision
GUARD = 10            # the package computes at DIGITS + GUARD before rounding
ORACLE_DPS = DIGITS + 30

# B_m of the coalescence series as printed in the paper; the m = 2, 5
# coefficients do not contribute (sin(pi (m + 1)/3) = 0).
PAPER_BM = {
    0: Fraction(1),
    1: Fraction(5, 6),
    3: Fraction(1463, 6480),
    4: Fraction(126827, 1088640),
    6: Fraction(4732223, 167961600),
}


def round_to(v, dps: int) -> mpf:
    """v rounded to dps decimal digits (binary precision as mpmath sets it)."""
    with mp.workdps(dps):
        return +v


def decimal_xi(xi: str) -> mpf:
    """A decimal xi as the package holds it: parsed with guard digits, rounded."""
    with mp.workdps(DIGITS + GUARD):
        v = mpf(xi)
    return round_to(v, DIGITS)


def x_at(n: int, xi: str) -> mpf:
    """x = n e xi, rounded to the working precision."""
    xv = decimal_xi(xi)
    with mp.workdps(DIGITS + GUARD):
        v = n * mp.e * xv
    return round_to(v, DIGITS)


def mu_at(xi: str) -> mpf:
    """mu = 1/(e xi), rounded to the working precision."""
    xv = decimal_xi(xi)
    with mp.workdps(DIGITS + GUARD):
        v = 1 / (mp.e * xv)
    return round_to(v, DIGITS)


def to_double(x: mpf) -> mpf:
    """x rounded to 53 bits, mpmath's default (ambient) precision."""
    with mp.workprec(53):
        return +x


def parse_serial(text: str) -> mpf:
    """Value of a serialized real such as '-1.234e-05@120'."""
    with mp.workdps(ORACLE_DPS):
        return mpf(text.split("@")[0])


def parse_serial_complex(text: str) -> mpc:
    """Value of a serialized complex such as '(1.0e+00@120,-2.0e-01@120)'."""
    re_s, im_s = text.strip()[1:-1].split(",")
    with mp.workdps(ORACLE_DPS):
        return mpc(parse_serial(re_s), parse_serial(im_s))


# ---------------------------------------------------------------------------
# exact values

_ROWS: dict[int, list[int]] = {}


def stirling_row(m: int) -> list[int]:
    """S(m, k) for k = 0..m, by S(j, k) = k S(j-1, k) + S(j-1, k-1) in ints."""
    if m not in _ROWS:
        row = [1]
        for j in range(1, m + 1):
            row = [0] + [k * row[k] + row[k - 1] for k in range(1, j)] + [1]
        _ROWS[m] = row
    return _ROWS[m]


def scaled_touchard_neg(m: int, x: mpf, dps: int = ORACLE_DPS):
    """(T_m(-x)/m!, cancellation digits) from the exact dyadic value of x.

    x = man 2^exp exactly, so with z = -x = p/q (q a power of two)
    T_m(z) = sum_k S(m,k) p^k q^(m-k) / q^m is a ratio of integers, summed by
    Horner and rounded once. mpf.man_exp gives |mantissa|; the sign is put
    back by hand. The cancellation is log10 of the largest term over the sum.
    """
    man, exp = x.man_exp
    p = -man if x > 0 else man
    shift = max(0, -exp)
    if exp > 0:
        p <<= exp
    row = stirling_row(m)
    acc = 0
    for k in range(m, -1, -1):
        acc = acc * p + (row[k] << (shift * (m - k)))
    denom = math.factorial(m) << (shift * m)
    with mp.workdps(dps):
        value = mpf(acc) / denom
        # largest |S(m,k) z^k| over |T_m(z)|, both as logs
        lz = mp.log(abs(mpf(p))) - shift * mp.log(2)
        biggest = max(mp.log(s) + k * lz for k, s in enumerate(row) if s)
        total = mp.log(abs(mpf(acc))) - shift * m * mp.log(2)
        cancel = int(mp.ceil((biggest - total) / mp.log(10)))
    return value, max(0, cancel)


# ---------------------------------------------------------------------------
# saddles and the uniform approximation

def _log_branched(t):
    """log with arg in [0, 2 pi)."""
    w = mp.log(t)
    if mp.im(w) < 0:
        w += 2j * mp.pi
    return w


def saddle_pair(mu: mpf):
    """(kind, t0, t1) from mpmath.lambertw; t0 is the upper saddle when complex."""
    with mp.workdps(ORACLE_DPS):
        w0 = mp.lambertw(-mu, 0)
        wm1 = mp.lambertw(-mu, -1)
        if mp.im(w0) == 0:
            return "real_pair", mpc(mp.re(w0)), mpc(mp.re(wm1))
        if mp.im(w0) < 0:
            w0, wm1 = wm1, w0
        return "conjugate_pair", w0, wm1


def uniform_ingredients(xi: str) -> dict:
    """kind, t0, t1, zeta, Re beta, A0, B0 at xi, from the uniform.py formulas."""
    xv = decimal_xi(xi)
    with mp.workdps(ORACLE_DPS):
        if xv == 1:
            return {"kind": "double", "t0": mpc(-1), "t1": mpc(-1),
                    "zeta": mpf(0), "re_beta": mpf(-1),
                    "A0": mpf(2) ** (mpf(1) / 3),
                    "B0": -mpf(5) / 6 * mpf(2) ** (mpf(2) / 3)}
        kind, t0, t1 = saddle_pair(mu_at(xi))
        p0 = 1 / t0 - _log_branched(t0)
        p1 = 1 / t1 - _log_branched(t1)
        re_beta = mp.re((p0 + p1) / 2)
        if kind == "real_pair":
            zeta = (mpf(3) / 4 * mp.re(p1 - p0)) ** (mpf(2) / 3)
            sq = mp.sqrt(zeta)
            gp = mp.sqrt(2 * sq * mp.re(t0) ** 2 / (1 + mp.re(t0)))
            gm = mp.sqrt(-2 * sq * mp.re(t1) ** 2 / (1 + mp.re(t1)))
            a0, b0 = (gp + gm) / 2, (gp - gm) / (2 * sq)
        else:
            zeta = -(mpf(3) / 4 * mp.re(1j * (p1 - p0))) ** (mpf(2) / 3)
            r = mp.sqrt(1j * t0 ** 2 / (1 + t0))
            q = abs(zeta) ** mpf("0.25")
            a0 = mp.sqrt(2) * q * mp.re(r)
            b0 = mp.sqrt(2) / q * mp.im(r)
        return {"kind": kind, "t0": t0, "t1": t1, "zeta": zeta,
                "re_beta": re_beta, "A0": a0, "B0": b0}


def uniform_value(n: int, xi: str):
    """(two-term uniform T^_{n-1}(-x), error scale) at x = n e xi.

    The scale is the size of the two Airy terms before they combine, which
    is what the package's absolute error is relative to when they cancel.
    """
    ing = uniform_ingredients(xi)
    xv = decimal_xi(xi)
    with mp.workdps(ORACLE_DPS):
        nn = mpf(n)
        z = nn ** (mpf(2) / 3) * ing["zeta"]
        front = mp.exp(n * mp.e * xv + nn * ing["re_beta"])
        t_a = ing["A0"] * mp.airyai(z) / nn ** (mpf(1) / 3)
        t_b = ing["B0"] * mp.airyai(z, derivative=1) / nn ** (mpf(2) / 3)
        sign = -1 if (n - 1) % 2 else 1
        return sign * front * (t_a - t_b), front * (abs(t_a) + abs(t_b))


# ---------------------------------------------------------------------------
# coalescence series and leading order

def coalescence_value(n: int, order: int):
    """(series T^_{n-1}(-n e) truncated after B_order, error scale)."""
    with mp.workdps(ORACLE_DPS):
        total = mpf(0)
        scale = mpf(0)
        for m, b in PAPER_BM.items():
            if m > order:
                continue
            term = ((-1) ** m * (mpf(b.numerator) / b.denominator)
                    * mp.gamma(mpf(m + 1) / 3) * mp.sin(mp.pi * (m + 1) / 3)
                    / (mpf(n) / 6) ** (mpf(m + 1) / 3))
            total += term
            scale += abs(term)
        front = mp.exp(n * mp.e - n) / (3 * mp.pi)
        sign = -1 if (n - 1) % 2 else 1
        return sign * front * total, front * scale


def leading_value(n: int, mu: mpf):
    """(leading-order T^_{n-1}(-n/mu), error scale) away from mu = 1/e."""
    with mp.workdps(ORACLE_DPS):
        kind, t0, _ = saddle_pair(mu)
        x = mpf(n) / mu
        power = mp.exp(-(n - 1) * _log_branched(t0))
        v = mp.exp(x + n / t0) * power / mp.sqrt(2 * mp.pi * (1 + t0) * n)
        if kind == "conjugate_pair":
            v *= 2  # the lower saddle adds the complex conjugate
        return mp.re(v), abs(v)


# ---------------------------------------------------------------------------
# contour geometry

def psi(t, mu):
    """-e^t/mu - log t with the branched log."""
    return -mp.exp(t) / mu - _log_branched(t)


def dpsi(t, mu):
    """psi'(t)."""
    return -mp.exp(t) / mu - 1 / t
