"""Exact triangle, polynomial evaluation, cancellation accounting."""
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf

from touchard import (CapacityError, PrecisionExhaustedError, build_triangle,
                      mk_context, real_from, scaled_touchard, wrap_real)
from touchard import stirling
from touchard.numkernel import raw

from recurrence_oracle import touchard_recurrence


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
        tri = build_triangle(range(9))
        for n in range(1, 9):
            counts = {}
            for part in set_partitions(list(range(n))):
                counts[len(part)] = counts.get(len(part), 0) + 1
            for k in range(1, n + 1):
                assert tri.row(n)[k] == counts.get(k, 0)

    @pytest.mark.parametrize("n,k", [(10, 3), (20, 11), (30, 5), (25, 25)])
    def test_inclusion_exclusion(self, n, k):
        tri = build_triangle([n])
        want = stirling_inclusion_exclusion(n, k)
        assert want.denominator == 1
        assert tri.row(n)[k] == want.numerator

    def test_known_values(self):
        tri = build_triangle([0, 3, 4, 5])
        assert tri.row(4)[2] == 7
        assert tri.row(5)[3] == 25
        assert tri.row(0)[0] == 1
        assert tri.row(3)[0] == 0

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
        tri = build_triangle(range(61))
        row = [1]
        bells = [1]
        for _ in range(60):
            nxt = [row[-1]]
            for v in row:
                nxt.append(nxt[-1] + v)
            row = nxt
            bells.append(row[0])
        for n in range(61):
            assert sum(tri.row(n)) == bells[n]

    def test_bell_examples(self):
        tri = build_triangle([0, 5])
        assert sum(tri.row(0)) == 1
        assert sum(tri.row(5)) == 52


class TestEvaluation:
    def test_t2_at_minus_one_is_exact_zero(self, ctx60):
        tri = build_triangle([2])
        got = scaled_touchard(2, real_from(-1, ctx60), tri, ctx60)
        assert raw(got.value) == 0
        assert got.verified
        # total cancellation: the sentinel counts every digit of the big term
        assert got.cancellation_digits >= ctx60.digits

    def test_row_sum_is_bell(self, ctx60):
        tri = build_triangle([40])
        got = scaled_touchard(40, real_from(1, ctx60), tri, ctx60)
        with mp.workdps(80):
            assert mp.nint(raw(got.value) * math.factorial(40)) == sum(tri.row(40))

    def test_table_point_cancellation(self, triangle120, ctx120):
        with mp.workdps(140):
            z = wrap_real(-121 * mp.e, ctx120)
        got = scaled_touchard(120, z, triangle120, ctx120)
        assert got.verified
        assert 10 < got.cancellation_digits < 60
        # sign (-1)^(n-1) with n-1 = 120
        assert raw(got.value) > 0 if 120 % 2 == 0 else raw(got.value) < 0

    def test_scaled_matches_unscaled(self, ctx60):
        # against T_12(-7/2) summed exactly in rationals over the integer row
        tri = build_triangle([12])
        z = real_from("-3.5", ctx60)
        a = sum(s * Fraction(-7, 2) ** k for k, s in enumerate(tri.row(12)))
        b = scaled_touchard(12, z, tri, ctx60)
        with mp.workdps(80):
            a = mpf(a.numerator) / a.denominator
            assert abs(a / math.factorial(12) - raw(b.value)) \
                <= mpf(10) ** (-(ctx60.digits - 5)) * abs(raw(b.value))

    @given(st.integers(min_value=0, max_value=35),
           st.floats(min_value=-30, max_value=30))
    def test_recurrence_agrees_with_triangle(self, n, x):
        ctx = mk_context(40)
        tri = build_triangle([n])
        z = real_from(x, ctx)
        a = scaled_touchard(n, z, tri, ctx)
        b = touchard_recurrence(n, raw(z), ctx.digits)
        with mp.workdps(60):
            a = raw(a.value) * math.factorial(n)
            scale = max(abs(a), abs(b), mpf(1))
            assert abs(a - b) <= mpf(10) ** (-(40 - 10)) * scale

    def test_recurrence_example(self, ctx60):
        assert touchard_recurrence(5, mpf(1), ctx60.digits) == 52

    def test_capacity_checks(self, ctx60):
        tri = build_triangle(range(6))
        with pytest.raises(CapacityError):
            scaled_touchard(6, real_from(1, ctx60), tri, ctx60)

    def test_precision_exhaustion_raises(self, monkeypatch):
        # ~55 digits cancel at x = 300 e. With a 30-digit context the first
        # round (44 digits) cannot measure that loss, and the one allowed
        # rerun, at twice the precision, falls short of the 98 digits the
        # certificate needs: it must say so rather than return garbage
        monkeypatch.setattr(stirling, "MAX_ESCALATIONS", 1)
        ctx = mk_context(30)
        with mp.workdps(50):
            z = wrap_real(-300 * mp.e, ctx)
        with pytest.raises(PrecisionExhaustedError) as exc:
            scaled_touchard(299, z, build_triangle([299]), ctx)
        assert exc.value.exit_code == 3
        assert exc.value.last_two is not None
