"""Series-reversion oracle for the coalescence coefficients B_m.

The package takes B_m from Lagrange inversion in closed form. This reverts
the forward series instead, one order at a time, so it checks them along an
independent path: it solves

    sum_j f_j tau^j = v^3/6,   f_j = 1/j - 1/j!,

for tau(v) = sum_m a_m v^{m+1} by recomposing the forward series at every
new order, then confirms the round trip exactly. B_m = (-1)^m (m+1) a_m.
It costs about m^3.5: order 40 takes about a second, order 100 about a minute.
"""
from fractions import Fraction

from touchard import OrderError, SeriesConsistencyError


def forward_series(order: int) -> list[Fraction]:
    """Taylor coefficients f_0..f_order of psi(t) - psi(-1) in tau = t + 1.

    The exponential contributes -tau^j/j!, the log contributes +tau^j/j.
    """
    if order < 3:
        raise OrderError(f"forward series needs order >= 3, got {order}")
    coeffs = [Fraction(0)]
    fact = 1
    for j in range(1, order + 1):
        fact *= j
        coeffs.append(Fraction(1, j) - Fraction(1, fact))
    if coeffs[1] != 0 or coeffs[2] != 0:
        raise SeriesConsistencyError("orders 1 and 2 survived the double saddle")
    return coeffs


def _poly_mul(a: list[Fraction], b: list[Fraction], trunc: int) -> list[Fraction]:
    out = [Fraction(0)] * (trunc + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > trunc:
            continue
        for j, bj in enumerate(b):
            if i + j > trunc:
                break
            if bj != 0:
                out[i + j] += ai * bj
    return out


def compose_forward(fwd: list[Fraction], tau: list[Fraction], trunc: int) -> list[Fraction]:
    """sum_j f_j tau(v)^j truncated at v^trunc (tau has no constant term)."""
    acc = [Fraction(0)] * (trunc + 1)
    power = [Fraction(1)] + [Fraction(0)] * trunc
    for j in range(1, len(fwd)):
        power = _poly_mul(power, tau, trunc)
        fj = fwd[j]
        if fj != 0:
            for i in range(trunc + 1):
                acc[i] += fj * power[i]
        if all(c == 0 for c in power):
            break
    return acc


def _tau_coeffs(a: list[Fraction]) -> list[Fraction]:
    """tau(v) = sum_m a_m v^{m+1} as coefficients of v^0..v^(len(a)+3)."""
    return [Fraction(0), *a] + [Fraction(0)] * 3


def revert_series(fwd: list[Fraction], order: int) -> list[Fraction]:
    """a_0..a_order of tau(v), with the round trip checked.

    At each new order r the unknown a_r enters the v^{3+r} coefficient
    only through 3 f_3 a_0^2 a_r = a_r/2, so a_r = -2 * (residual).
    """
    if len(fwd) - 1 < order + 3:
        raise OrderError(
            f"reversion to order {order} needs forward order >= {order + 3}, "
            f"have {len(fwd) - 1}")
    a = [Fraction(1)]
    for r in range(1, order + 1):
        acc = compose_forward(fwd, _tau_coeffs(a), r + 3)
        a.append(-2 * acc[3 + r])
    verify_roundtrip(fwd, a)
    return a


def verify_roundtrip(fwd: list[Fraction], a: list[Fraction]) -> None:
    trunc = len(a) + 2
    acc = compose_forward(fwd, _tau_coeffs(a), trunc)
    expect = [Fraction(0)] * (trunc + 1)
    expect[3] = Fraction(1, 6)
    if acc != expect:
        raise SeriesConsistencyError(
            "reverted series does not reproduce w = v^3/6: "
            f"residual coefficients {[str(c) for c in acc if c != 0][:4]}")


def reverted_bm(order: int) -> tuple[Fraction, ...]:
    """B_0..B_order by reversion."""
    a = revert_series(forward_series(order + 3), order)
    return tuple((-1) ** m * (m + 1) * am for m, am in enumerate(a))
