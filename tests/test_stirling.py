"""Stirling rows, polynomial evaluation, cancellation accounting.

TestTriangle checks the integer row of the test oracle (tests/stirling_oracle.py)
and the row builder that perfbench/tracer.py still wraps; TestEvaluation checks
the package's row-free sum, z <= 0, and the oracle at z > 0.
"""
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf

from touchard import (CapacityError, DomainError, PrecisionExhaustedError,
                      build_triangle, mk_context, real_from, scaled_touchard,
                      wrap_real)
from touchard import stirling
from touchard.numkernel import raw

from recurrence_oracle import touchard_recurrence
from stirling_oracle import integer_scaled_touchard, stirling2_row


def set_partitions(items):
    """All partitions of a list, brute force."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def stirling_inclusion_exclusion(n, k):
    acc = Fraction(0)
    for j in range(k + 1):
        acc += Fraction((-1) ** j * math.comb(k, j) * (k - j) ** n)
    return acc / math.factorial(k)


class TestTriangle:
    def test_brute_force_partition_counts(self):
        for n in range(1, 9):
            counts = {}
            for part in set_partitions(list(range(n))):
                counts[len(part)] = counts.get(len(part), 0) + 1
            for k in range(1, n + 1):
                assert stirling2_row(n)[k] == counts.get(k, 0)

    @pytest.mark.parametrize("n,k", [(10, 3), (20, 11), (30, 5), (25, 25)])
    def test_inclusion_exclusion(self, n, k):
        want = stirling_inclusion_exclusion(n, k)
        assert want.denominator == 1
        assert stirling2_row(n)[k] == want.numerator
        # the exact fallback of cancellation_digits sums the explicit
        # formula for k! S(n,k), and the Cauchy estimate in doubles lies
        # within its margin of it
        exact = want.numerator * math.factorial(k)
        assert stirling._exact_window(n, k, k) == {k: exact}
        v, m = stirling._log_stirling_window(n, k, k)[k]
        assert abs(v - math.log(exact / math.factorial(n))) <= m < 1e-9

    def test_known_values(self):
        assert stirling2_row(4)[2] == 7
        assert stirling2_row(5)[3] == 25
        assert stirling2_row(0)[0] == 1
        assert stirling2_row(3)[0] == 0

    def test_row_capacity(self):
        tri = build_triangle([4])
        with pytest.raises(CapacityError):
            tri.row(5)
        with pytest.raises(CapacityError):
            build_triangle([stirling.N_MAX_LIMIT + 1])
        with pytest.raises(CapacityError):
            build_triangle([-1])

    def test_bell_numbers_vs_aitken_oracle(self):
        # independent oracle: the Bell (Aitken) triangle, pure integers
        row = [1]
        bells = [1]
        for _ in range(60):
            nxt = [row[-1]]
            for v in row:
                nxt.append(nxt[-1] + v)
            row = nxt
            bells.append(row[0])
        for n in range(61):
            assert sum(stirling2_row(n)) == bells[n]

    def test_bell_examples(self):
        assert sum(stirling2_row(0)) == 1
        assert sum(stirling2_row(5)) == 52


class TestEvaluation:
    def test_t2_at_minus_one_is_exact_zero(self, ctx60):
        got = scaled_touchard(2, real_from(1, ctx60), ctx60)
        assert raw(got.value) == 0
        # total cancellation: the sentinel counts every digit of the big term
        assert got.cancellation_digits >= ctx60.digits

    def test_row_sum_is_bell(self, ctx60):
        # x = -1 lies outside the package's domain: the oracle sums it
        got, _ = integer_scaled_touchard(40, real_from(-1, ctx60).value)
        with mp.workdps(80):
            assert mp.nint(got * math.factorial(40)) == sum(stirling2_row(40))

    def test_table_point_cancellation(self, ctx120):
        with mp.workdps(140):
            x = wrap_real(121 * mp.e, ctx120)
        got = scaled_touchard(120, x, ctx120)
        assert 10 < got.cancellation_digits < 60
        # sign (-1)^(n-1) with n-1 = 120
        assert raw(got.value) > 0 if 120 % 2 == 0 else raw(got.value) < 0

    def test_scaled_matches_unscaled(self, ctx60):
        # against T_12(-7/2) summed exactly in rationals over the integer row
        x = real_from("3.5", ctx60)
        a = sum(s * Fraction(-7, 2) ** k for k, s in enumerate(stirling2_row(12)))
        b = scaled_touchard(12, x, ctx60)
        with mp.workdps(80):
            a = mpf(a.numerator) / a.denominator
            assert abs(a / math.factorial(12) - raw(b.value)) \
                <= mpf(10) ** (-(ctx60.digits - 5)) * abs(raw(b.value))

    @given(st.integers(min_value=0, max_value=35),
           st.floats(min_value=0, max_value=30))
    def test_recurrence_agrees_with_triangle(self, n, x):
        ctx = mk_context(40)
        a = scaled_touchard(n, x, ctx)
        b = touchard_recurrence(n, -x, ctx.digits)  # a float: -x is exact
        with mp.workdps(60):
            a = raw(a.value) * math.factorial(n)
            scale = max(abs(a), abs(b), mpf(1))
            assert abs(a - b) <= mpf(10) ** (-(40 - 10)) * scale

    @given(st.integers(min_value=0, max_value=35),
           st.floats(min_value=-30, max_value=0, exclude_max=True))
    def test_recurrence_agrees_with_oracle_row(self, n, x):
        # the negative half of the sweep above, on the oracle's integer row
        ctx = mk_context(40)
        a, _ = integer_scaled_touchard(n, x)
        b = touchard_recurrence(n, -x, ctx.digits)
        with mp.workdps(60):
            a = a * math.factorial(n)
            scale = max(abs(a), abs(b), mpf(1))
            assert abs(a - b) <= mpf(10) ** (-(40 - 10)) * scale

    def test_recurrence_example(self, ctx60):
        assert touchard_recurrence(5, mpf(1), ctx60.digits) == 52

    def test_capacity_checks(self, ctx60):
        for n in (-1, stirling.N_MAX_LIMIT + 1):
            with pytest.raises(CapacityError) as exc:
                scaled_touchard(n, real_from(1, ctx60), ctx60)
            assert exc.value.exit_code == 2

    @pytest.mark.parametrize("x", ["-1", "-1e-30", "inf", "-inf", "nan"])
    def test_refuses_what_the_certificate_does_not_cover(self, x, ctx60):
        # the certificate needs every term positive: x >= 0, and finite
        with pytest.raises(DomainError) as exc:
            scaled_touchard(5, x, ctx60)
        assert exc.value.exit_code == 2

    def test_zero_only_inside_the_grain(self, ctx60):
        # T_2(-x) = x (x - 1): passes that see nothing but zero within their
        # bound at x = 1 + 2^-300 must go on to the nonzero value, since T is
        # a multiple of 2^-600 there, not stop at zero
        with mp.workprec(400):
            x = 1 + mp.ldexp(1, -300)
            want = x * (x - 1) / 2
        got = scaled_touchard(2, x, ctx60)
        with mp.workprec(400):
            assert abs(raw(got.value) / want - 1) < mpf(10) ** -59

    def test_precision_exhaustion_raises(self, monkeypatch):
        # T_2(-x) = x (x - 1) is 2^-300 at x = 1 + 2^-300, about 90 digits
        # below its terms. With a 30-digit context a pass resolves about 40
        # digits below what it expects, so the first pass and the one allowed
        # rerun are both swamped by their bound: it must say so rather than
        # return garbage
        monkeypatch.setattr(stirling, "MAX_ESCALATIONS", 1)
        ctx = mk_context(30)
        with mp.workprec(400):
            x = 1 + mp.ldexp(1, -300)
        with pytest.raises(PrecisionExhaustedError) as exc:
            scaled_touchard(2, x, ctx)
        assert exc.value.exit_code == 3
        assert ("the value sum not certified to 40 digits after 1 reruns "
                "(last working precision") in str(exc.value)
