"""Exact-rational coefficients B_m and the descending-powers evaluator.

TestForward and TestReversion check the reversion oracle (tests/bm_oracle.py)
itself; TestBmTable checks the package's Lagrange-inversion table against it.
"""
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf

from touchard import (MAX_ORDER, OrderError, SeriesConsistencyError,
                      default_bm, mk_context, scaled_touchard, theorem1_eval,
                      wrap_real)
from touchard import coalescence
from touchard.numkernel import raw

from bm_oracle import (compose_forward, forward_series, reverted_bm,
                       revert_series, verify_roundtrip)
import width_ladder


class TestForward:
    def test_known_coefficients(self):
        fwd = forward_series(8)
        assert fwd[1] == 0 and fwd[2] == 0
        assert fwd[3] == Fraction(1, 6)
        assert fwd[4] == Fraction(5, 24)
        assert fwd[5] == Fraction(23, 120)
        assert fwd[6] == Fraction(119, 720)
        assert fwd[7] == Fraction(719, 5040)

    def test_order_floor(self):
        with pytest.raises(OrderError):
            forward_series(2)


class TestReversion:
    def test_leading_coefficients(self):
        rev = revert_series(forward_series(9), 6)
        assert rev[0] == Fraction(1)
        assert rev[1] == Fraction(-5, 12)
        assert rev[2] == Fraction(11, 80)

    def test_roundtrip_is_exact(self):
        fwd = forward_series(12)
        rev = revert_series(fwd, 9)
        trunc = len(rev) + 2
        tau = [Fraction(0)] * (trunc + 1)
        for m, am in enumerate(rev):
            tau[m + 1] = am
        acc = compose_forward(fwd, tau, trunc)
        assert acc[3] == Fraction(1, 6)
        assert all(c == 0 for i, c in enumerate(acc) if i != 3)

    def test_numeric_inversion_oracle(self):
        # solve sum f_j tau^j = v^3/6 directly and compare with the series
        fwd = forward_series(12)
        rev = revert_series(fwd, 9)
        with mp.workdps(40):
            for vs in ("0.05", "0.1", "-0.1"):
                v = mpf(vs)
                w = v ** 3 / 6

                def f(tau):
                    return sum(mpf(c.numerator) / c.denominator * tau ** j
                               for j, c in enumerate(fwd)) - w

                root = mpmath.findroot(f, v)
                series = sum(mpf(a.numerator) / a.denominator * v ** (m + 1)
                             for m, a in enumerate(rev))
                assert abs(root - series) < abs(v) ** (len(rev) + 1) * 10

    def test_insufficient_forward_order(self):
        with pytest.raises(OrderError):
            revert_series(forward_series(5), 3)

    def test_corrupted_series_fails_roundtrip(self):
        fwd = forward_series(9)
        bad = revert_series(fwd, 6)
        bad[4] += Fraction(1, 7)
        with pytest.raises(SeriesConsistencyError):
            verify_roundtrip(fwd, bad)


class TestBmTable:
    def test_reference_values(self):
        table = default_bm(6)
        assert table[0] == Fraction(1)
        assert table[1] == Fraction(5, 6)
        assert table[3] == Fraction(1463, 6480)
        assert table[4] == Fraction(126827, 1088640)
        assert table[6] == Fraction(4732223, 167961600)

    def test_relation_to_reversion(self):
        # Lagrange inversion and the reversion oracle agree exactly
        assert default_bm(40) == reverted_bm(40)

    def test_zero_mask(self):
        # sin(pi(m+1)/3) kills exactly the orders m = 2 (mod 3)
        for m in range(3 * 6):
            assert (coalescence._sin_third(m) == 0) == (m % 3 == 2)
        # masked entries are still real coefficients, just sin-killed
        assert default_bm()[2] == Fraction(33, 80)

    def test_corrupted_coefficient_detected(self, monkeypatch):
        exact = coalescence._lagrange_coeff

        def corrupted(m):
            return exact(m) + (Fraction(1, 7) if m == 4 else 0)

        monkeypatch.setattr(coalescence, "_lagrange_coeff", corrupted)
        with pytest.raises(SeriesConsistencyError):
            default_bm.__wrapped__(6)  # past the cache

    def test_default_table_cached(self):
        assert default_bm() is default_bm()
        assert len(default_bm()) == 13

    @pytest.mark.parametrize("order", [-1, MAX_ORDER + 1])
    def test_order_out_of_range(self, order):
        with pytest.raises(OrderError):
            default_bm(order)


class TestEvaluator:
    @pytest.mark.parametrize("n,order,printed", [
        (50, 1, "8.558e-3"),
        (121, 4, "2.868e-5"),
    ])
    def test_spot_cells(self, n, order, printed, ctx60):
        val = theorem1_eval(n, order, ctx60)
        with mp.workdps(80):
            x = wrap_real(mpf(n) * mp.e, ctx60)
            exact = scaled_touchard(n - 1, x, ctx60)
            rel = abs(raw(val) - raw(exact.value)) / abs(raw(exact.value))
            want = mpf(printed)
            ulp = mpf(10) ** (mp.floor(mp.log10(want)) - 3)
            assert abs(rel - want) <= ulp

    def test_masked_order_changes_nothing(self, ctx60):
        # order 2 only adds a sin-killed term, so the value is bit-identical
        a = theorem1_eval(81, 1, ctx60)
        b = theorem1_eval(81, 2, ctx60)
        assert a.to_str() == b.to_str()
        c = theorem1_eval(81, 4, ctx60)
        d = theorem1_eval(81, 5, ctx60)
        assert c.to_str() == d.to_str()

    def test_error_decays_with_order(self, ctx60):
        n = 121
        with mp.workdps(80):
            x = mpf(n) * mp.e
            exact = scaled_touchard(n - 1, wrap_real(x, ctx60), ctx60)
            ev = raw(exact.value)
            rels = []
            for order in (0, 1, 3, 4, 6):
                approx = raw(theorem1_eval(n, order, ctx60))
                rels.append(abs(approx - ev) / abs(ev))
            assert all(a > b for a, b in zip(rels, rels[1:]))

    def test_order_beyond_table(self, ctx60):
        for order in (-3, -1, MAX_ORDER + 1):
            with pytest.raises(OrderError):
                theorem1_eval(50, order, ctx60)
        # past DEFAULT_ORDER the evaluator builds the longer table itself;
        # B_14 is sin-killed like B_2
        assert theorem1_eval(50, 12, ctx60).to_str() != \
            theorem1_eval(50, 13, ctx60).to_str() == \
            theorem1_eval(50, 14, ctx60).to_str()

    def test_small_n_rejected(self, ctx60):
        with pytest.raises(OrderError):
            theorem1_eval(1, 0, ctx60)

    def test_sign_alternates_with_n(self, ctx60):
        assert raw(theorem1_eval(50, 3, ctx60)) < 0
        assert raw(theorem1_eval(51, 3, ctx60)) > 0

    def test_precision_stability(self):
        lo = theorem1_eval(81, 6, mk_context(40))
        hi = theorem1_eval(81, 6, mk_context(90))
        with mp.workdps(100):
            assert abs(raw(lo) - raw(hi)) < abs(raw(hi)) * mpf(10) ** -35
        # the width rule, up to n = 10^12
        for d in width_ladder.DIGITS:
            for n in width_ladder.N + (10 ** 12,):
                assert width_ladder.off_the_reference(
                    lambda ctx: theorem1_eval(n, 6, ctx), d) is None, (d, n)
