"""Kept-row triangle and certified sums against exact integer arithmetic.

The oracle here is integer Horner at the exact dyadic value of the argument:
z = p / q with q a power of two, so T_m(z) q^m = sum_k S(m,k) p^k q^(m-k) is
an integer, and so is every term. Values and cancellation digits are then
exact, with no working precision involved.
"""
import math
import sys
import tracemalloc

import pytest
from mpmath import mp, mpf

from touchard import (CapacityError, build_triangle, mk_context,
                      scaled_touchard, wrap_real)
from touchard import stirling
from touchard.cli import cmd_eval, cmd_table1
from touchard.numkernel import BigReal, raw

DIGITS = 120
TABLE1_N = (50, 80, 121)
TABLE2_XI = ("0.80", "0.90", "0.95", "0.99", "1.00",
             "1.01", "1.05", "1.10", "1.20", "1.40")
TABLE2_N = (81, 100)


def integer_scaled_touchard(row, z):
    """(T_m(z)/m! at 400 digits, cancellation digits), both from integers.

    The cancellation is the least c >= 0 with max_k |S(m,k) z^k| <= 10^c |T_m(z)|.
    """
    m = len(row) - 1
    sign, man, exp, _ = z._mpf_
    p = -man if sign else man
    q = 1
    if exp >= 0:
        p <<= exp
    else:
        q <<= -exp
    acc = 0
    for k in range(m, -1, -1):
        acc = acc * p + row[k] * q ** (m - k)
    biggest = max(s * abs(p) ** k * q ** (m - k) for k, s in enumerate(row))
    cancel = 0
    while 10 ** cancel * abs(acc) < biggest:
        cancel += 1
    with mp.workdps(400):
        return mpf(acc) / (q ** m * math.factorial(m)), cancel


def table_points():
    """(n, x) of the Table 1 and Table 2 cells, x rounded as the CLI rounds it."""
    ctx = mk_context(DIGITS)
    points = []
    with mp.workdps(DIGITS + 10):
        for n in TABLE1_N:
            points.append((n, wrap_real(n * mp.e, ctx)))
        for xi in TABLE2_XI:
            for n in TABLE2_N:
                points.append((n, wrap_real(n * mp.e * mpf(xi), ctx)))
    return points


def negated(x: BigReal) -> BigReal:
    with mp.workdps(x.ctx.digits):
        return wrap_real(-raw(x), x.ctx)


def assert_close(got, want, tol):
    with mp.workdps(400):
        assert abs(got - want) <= mpf(tol) * abs(want), \
            f"{mp.nstr(got, 30)} vs {mp.nstr(want, 30)}"


class TestKeptRows:
    def test_kept_rows_equal_full_triangle(self):
        full = build_triangle(range(151))
        for n in range(151):
            alone = build_triangle([n])
            assert dict(alone.rows) == {n: full.row(n)}
        some = build_triangle({3, 77, 150})
        assert dict(some.rows) == {k: full.row(k) for k in (3, 77, 150)}

    def test_rows_not_kept_are_refused(self, ctx60):
        tri = build_triangle([4, 10])
        one = wrap_real(1, ctx60)
        assert tri.row(4)[2] == 7
        with pytest.raises(CapacityError):
            tri.row(5)
        with pytest.raises(CapacityError):
            tri.row(9)
        with pytest.raises(CapacityError):
            scaled_touchard(3, one, tri, ctx60)
        with pytest.raises(CapacityError):
            scaled_touchard(7, one, tri, ctx60)

    def test_one_row_holds_one_row_of_memory(self):
        tracemalloc.start()
        try:
            tri = build_triangle([600])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        row = tri.row(600)
        row_bytes = sys.getsizeof(row) + sum(sys.getsizeof(s) for s in row)
        # the previous row and the next one are alive together; the whole
        # triangle would be about 200 rows' worth
        assert peak < 3 * row_bytes, f"peak {peak} B for a {row_bytes} B row"


class TestCertifiedSum:
    def test_table_points_match_integer_horner(self):
        ctx = mk_context(DIGITS)
        points = table_points()
        tri = build_triangle({n - 1 for n, _ in points})
        for n, x in points:
            z = negated(x)
            got = scaled_touchard(n - 1, z, tri, ctx)
            want, cancel = integer_scaled_touchard(tri.row(n - 1), raw(z))
            assert got.verified
            assert_close(raw(got.value), want, mpf(10) ** -(DIGITS - 1))
            assert got.cancellation_digits == cancel, (n, x.to_str())

    def test_old_exhaustion_input_now_certifies(self, monkeypatch):
        # the n = 121 table point at 30 digits exhausted the double-and-
        # compare gate with one escalation; one measured rerun certifies it
        monkeypatch.setattr(stirling, "MAX_ESCALATIONS", 1)
        ctx = mk_context(30)
        tri = build_triangle([120])
        with mp.workdps(50):
            z = wrap_real(-121 * mp.e, ctx)
        got = scaled_touchard(120, z, tri, ctx)
        want, cancel = integer_scaled_touchard(tri.row(120), raw(z))
        assert_close(raw(got.value), want, mpf(10) ** -29)
        assert got.cancellation_digits == cancel


class TestCliExactAtAmbientPrecision:
    # the commands must not depend on mpmath's global 53-bit default
    def test_eval_exact_is_taken_at_the_stated_x(self):
        n, xi = 100, "0.97"
        with mp.workprec(53):
            report = cmd_eval(n, xi)
        ctx = mk_context(DIGITS)
        with mp.workdps(DIGITS + 10):
            x = wrap_real(n * mp.e * mpf(xi), ctx)
        want, cancel = integer_scaled_touchard(
            build_triangle([n - 1]).row(n - 1), raw(negated(x)))
        assert report["x"] == x.to_str()
        assert_close(raw(BigReal.parse(report["exact"]["value"])), want, "1e-110")
        assert report["exact"]["cancellation_digits"] == cancel

    def test_table1_exact_is_taken_at_the_stated_x(self):
        with mp.workprec(53):
            csv = cmd_table1(n_list=[50, 80], m_list=[0])
        ctx = mk_context(DIGITS)
        tri = build_triangle([49, 79])
        for line in csv.splitlines()[1:]:
            n = int(line.split(",")[0])
            with mp.workdps(DIGITS + 10):
                x = wrap_real(n * mp.e, ctx)
            want, _ = integer_scaled_touchard(tri.row(n - 1), raw(negated(x)))
            assert_close(raw(BigReal.parse(line.split(",")[2])), want, "1e-110")
