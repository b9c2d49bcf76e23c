"""Integer Stirling-row oracle for the exact layer.

The package sums T_m(-x) without a single Stirling number. This oracle builds
the row S(m, k), k = 0..m, from S(j, k) = k S(j-1, k) + S(j-1, k-1) in Python
ints and sums it by Horner at the exact dyadic value of z = -x, taking x as
scaled_touchard does: z = p / 2^s, so T_m(z) 2^(s m) = sum_k S(m,k) p^k
2^(s (m-k)) is an integer, and so is every term. Values and cancellation
digits are then exact, with no working precision involved, for either sign
of x.
"""
import math

from mpmath import mp, mpf

_ROWS: dict[int, tuple[int, ...]] = {}


def stirling2_row(m: int) -> tuple[int, ...]:
    """S(m, k) for k = 0..m, from S(j, k) = k S(j-1, k) + S(j-1, k-1) in ints."""
    if m not in _ROWS:
        row = [1]
        for j in range(1, m + 1):
            row = [0] + [k * (row[k] if k < j else 0) + row[k - 1]
                         for k in range(1, j + 1)]
        _ROWS[m] = tuple(row)
    return _ROWS[m]


def integer_scaled_touchard(m: int, x):
    """(T_m(-x)/m! at 400 digits, cancellation digits), both from integers.

    The cancellation is the least c >= 0 with
    max_k |S(m,k) x^k| <= 10^c |T_m(-x)|; T_m(-x) must not be zero.
    """
    row = stirling2_row(m)
    with mp.workdps(400):
        x = mpf(x)
    man, exp = x.man_exp
    p = -man if x > 0 else man  # z = -x = p 2^exp
    s = max(0, -exp)
    if exp > 0:
        p <<= exp
    acc = 0
    for k in range(m, -1, -1):
        acc = acc * p + (row[k] << (s * (m - k)))
    if acc == 0:
        raise ValueError(f"T_{m}(-{x}) is zero: no cancellation count")
    # the largest term, exactly, among those within float rounding of the top
    logs = {k: math.log2(c) + k * math.log2(abs(p) or 1) + s * (m - k)
            for k, c in enumerate(row) if c and (p or k == 0)}
    top = max(logs.values())
    biggest = max(row[k] * abs(p) ** k << (s * (m - k))
                  for k, v in logs.items() if v >= top - 1e-6)
    cancel = max(0, math.floor(math.log10(biggest) - math.log10(abs(acc))) - 1)
    while 10 ** cancel * abs(acc) < biggest:
        cancel += 1
    with mp.workdps(400):
        return mp.ldexp(acc, -s * m) / math.factorial(m), cancel
