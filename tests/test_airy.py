"""Airy kernel: closed forms, ODE residual, method routing and agreement."""
import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf

from touchard import (DomainError, airy, AiryMethod, mk_context,
                      real_from, switchover)
from touchard.airy import second_derivative_series
from touchard.numkernel import raw


def tol(digits, slack):
    return mpf(10) ** (-(digits - slack))


class TestClosedForms:
    def test_origin(self, ctx120):
        got = airy(real_from(0, ctx120), ctx120)
        with mp.workdps(140):
            ai0 = 3 ** (mpf(-2) / 3) / mpmath.gamma(mpf(2) / 3)
            aip0 = -(3 ** (mpf(-1) / 3)) / mpmath.gamma(mpf(1) / 3)
            assert abs(raw(got.ai) - ai0) < tol(120, 8) * abs(ai0)
            assert abs(raw(got.ai_prime) - aip0) < tol(120, 8) * abs(aip0)
        assert got.method is AiryMethod.MACLAURIN

    def test_reference_points(self, ctx60):
        a1 = airy(real_from(1, ctx60), ctx60)
        am2 = airy(real_from(-2, ctx60), ctx60)
        with mp.workdps(70):
            assert abs(raw(a1.ai) - mpf("0.1352924163")) < mpf("1e-10")
            assert abs(raw(am2.ai) - mpf("0.2274074282")) < mpf("1e-10")


class TestOracle:
    @pytest.mark.parametrize("z", ["-200.5", "-30", "-12", "-2", "0",
                                   "1", "5", "12", "30", "200"])
    def test_against_mpmath_grid(self, z, ctx60):
        got = airy(real_from(z, ctx60), ctx60)
        with mp.workdps(90):
            w = mpf(z)
            ref = mpmath.airyai(w)
            refp = mpmath.airyai(w, 1)
            floor = mpf(10) ** -40  # oscillatory zeros make pure relative tests unfair
            assert abs(raw(got.ai) - ref) <= tol(60, 8) * max(abs(ref), floor)
            assert abs(raw(got.ai_prime) - refp) <= tol(60, 8) * max(abs(refp), floor)

    @given(st.floats(min_value=-40, max_value=40))
    def test_against_mpmath_property(self, zf):
        ctx = mk_context(40)
        got = airy(real_from(zf, ctx), ctx)
        with mp.workdps(60):
            ref = mpmath.airyai(mpf(zf))
            assert abs(raw(got.ai) - ref) <= tol(40, 8) * max(abs(ref), mpf("1e-25"))


class TestInvariants:
    @pytest.mark.parametrize("z", [-5, -2, -1, 0, 1, 2, 5])
    def test_ode_residual_on_grid(self, z, ctx60):
        zb = real_from(z, ctx60)
        val = airy(zb, ctx60)
        app = second_derivative_series(zb, ctx60)
        with mp.workdps(80):
            assert abs(raw(app) - mpf(z) * raw(val.ai)) < tol(60, 12)

    def test_positive_decay(self, ctx60):
        grid = ["0", "0.5", "1", "2", "4", "8", "16", "32"]
        vals = [raw(airy(real_from(z, ctx60), ctx60).ai) for z in grid]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))
        # Ai' stays negative on the same grid
        assert all(raw(airy(real_from(z, ctx60), ctx60).ai_prime) < 0
                   for z in grid)

    def test_method_agreement_at_switchover(self, ctx60):
        s = switchover(ctx60)
        for sign in (1, -1):
            z = real_from(sign * s, ctx60)
            a = airy(z, ctx60, switchover_abs=s * 2)   # forces the series
            b = airy(z, ctx60, switchover_abs=s / 2)   # forces the expansion
            assert a.method is AiryMethod.MACLAURIN
            assert b.method is not AiryMethod.MACLAURIN
            with mp.workdps(80):
                assert abs(raw(a.ai) - raw(b.ai)) <= tol(60, 0) ** mpf("0.5") * abs(raw(a.ai))
                assert abs(raw(a.ai_prime) - raw(b.ai_prime)) \
                    <= tol(60, 0) ** mpf("0.5") * abs(raw(a.ai_prime))

    def test_method_routing(self, ctx60):
        s = switchover(ctx60)
        assert airy(real_from(s / 2, ctx60), ctx60).method is AiryMethod.MACLAURIN
        assert airy(real_from(s * 2, ctx60), ctx60).method is AiryMethod.ASYMPTOTIC_POS
        assert airy(real_from(-s * 2, ctx60), ctx60).method is AiryMethod.ASYMPTOTIC_NEG

    def test_range_limit(self, ctx60):
        with pytest.raises(DomainError):
            airy(real_from("1.5e6", ctx60), ctx60)

    def test_deep_asymptotic_range(self, ctx60):
        # far beyond the switchover the expansion must still deliver digits
        got = airy(real_from(90000, ctx60), ctx60)
        with mp.workdps(90):
            ref = mpmath.airyai(mpf(90000))
            assert abs(raw(got.ai) - ref) <= tol(60, 8) * abs(ref)
