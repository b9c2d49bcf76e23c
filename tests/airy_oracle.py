"""Maclaurin-series oracle for Ai, Ai' and Ai''.

The package takes Ai and Ai' from a fixed-point Maclaurin pass for
|z| <= Z(d) = airy.maclaurin_limit(d), one limit for both signs, and from a
fixed-point pass over the asymptotic expansions above it. This sums the
Maclaurin series in mpmath floats, with gamma values for Ai(0) and Ai'(0)
where the package takes an AGM, so it checks the first pass along a path
that shares neither its arithmetic nor its bound, and the second with
neither the package's series nor mpmath.airyai. Ai'' comes from the same
series differentiated term by term, so the w'' = z w residual can be
checked without finite differences.

The partial sums grow like exp((2/3)|z|^{3/2}) while Ai can be as small as
exp(-(2/3)z^{3/2}), so the precision is raised by about
(4/3)|z|^{3/2}/ln 10 digits before summing.
"""
import math

import mpmath
from mpmath import mp, mpf


def airy_maclaurin(z, digits: int):
    """(Ai, Ai', Ai'') at real z as mpf, good to `digits` significant digits."""
    boost = int((4.0 / 3.0) * abs(float(z)) ** 1.5 / math.log(10)) + 15
    dps = digits + boost
    with mp.workdps(dps):
        ai0 = mpf(3) ** mpf("-2/3") / mpmath.gamma(mpf(2) / 3)
        aip0 = -(mpf(3) ** mpf("-1/3")) / mpmath.gamma(mpf(1) / 3)
        z = mpf(z)
        if z == 0:
            return ai0, aip0, mpf(0)
        z2, z3 = z ** 2, z ** 3
        # u1 = sum a_k z^{3k},    a_k = a_{k-1}/((3k-1)(3k))
        # u2 = sum b_k z^{3k+1},  b_k = b_{k-1}/((3k)(3k+1))
        t1, t2 = mpf(1), z
        u1, u2 = t1, t2
        u1p, u2p = mpf(0), mpf(1)
        u1pp, u2pp = mpf(0), mpf(0)
        floor = mpf(10) ** (-(dps + 5))
        biggest = mpf(1)
        for k in range(1, 100000):
            t1 = t1 * z3 / ((3 * k - 1) * (3 * k))
            t2 = t2 * z3 / ((3 * k) * (3 * k + 1))
            u1 += t1
            u2 += t2
            u1p += t1 * (3 * k) / z
            u2p += t2 * (3 * k + 1) / z
            u1pp += t1 * (3 * k) * (3 * k - 1) / z2
            u2pp += t2 * (3 * k + 1) * (3 * k) / z2
            m = max(abs(t1), abs(t2))
            biggest = max(biggest, m)
            if m < floor * biggest:
                break
        else:
            raise AssertionError(f"airy_maclaurin({z}): series did not terminate")
        return (ai0 * u1 + aip0 * u2, ai0 * u1p + aip0 * u2p,
                ai0 * u1pp + aip0 * u2pp)
