"""Airy kernel: closed forms, the Maclaurin oracle, the ODE residual and the
Wronskian across the whole supported range."""
import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf

from touchard import DomainError, airy, mk_context, real_from
from touchard.numkernel import raw

from airy_oracle import airy_maclaurin


def tol(digits, slack):
    return mpf(10) ** (-(digits - slack))


def envelope(z, power):
    """max(1, |z|)^power / sqrt(pi) for z < 0, else 0.

    On z < 0 Ai and Ai' swing through zeros inside the envelopes
    |z|^(-1/4)/sqrt(pi) and |z|^(1/4)/sqrt(pi), so errors there are measured
    against the envelope (capped at |z| = 1, where the asymptotic form stops
    holding); on z >= 0 they have no zeros and the check stays relative,
    down to the e^(-(2/3) z^(3/2)) decay.
    """
    z = mpf(z)
    return max(1, abs(z)) ** power / mp.sqrt(mp.pi) if z < 0 else 0


class TestClosedForms:
    def test_origin(self, ctx120):
        got = airy(real_from(0, ctx120), ctx120)
        with mp.workdps(140):
            ai0 = 3 ** (mpf(-2) / 3) / mpmath.gamma(mpf(2) / 3)
            aip0 = -(3 ** (mpf(-1) / 3)) / mpmath.gamma(mpf(1) / 3)
            assert abs(raw(got.ai) - ai0) < tol(120, 8) * abs(ai0)
            assert abs(raw(got.ai_prime) - aip0) < tol(120, 8) * abs(aip0)

    def test_reference_points(self, ctx60):
        a1 = airy(real_from(1, ctx60), ctx60)
        am2 = airy(real_from(-2, ctx60), ctx60)
        with mp.workdps(70):
            assert abs(raw(a1.ai) - mpf("0.1352924163")) < mpf("1e-10")
            assert abs(raw(am2.ai) - mpf("0.2274074282")) < mpf("1e-10")


class TestOracle:
    """airy against the Maclaurin oracle, which does not use mpmath.airyai.
    Past |z| = 30 the oracle needs hundreds of guard digits; the Wronskian
    test covers that range."""

    @pytest.mark.parametrize("z", ["-30", "-12", "-2", "0",
                                   "1", "5", "12", "30"])
    def test_against_mpmath_grid(self, z, ctx60):
        got = airy(real_from(z, ctx60), ctx60)
        ref, refp, _ = airy_maclaurin(z, 90)
        with mp.workdps(90):
            assert abs(raw(got.ai) - ref) <= \
                tol(60, 8) * max(abs(ref), envelope(z, mpf(-0.25)))
            assert abs(raw(got.ai_prime) - refp) <= \
                tol(60, 8) * max(abs(refp), envelope(z, mpf(0.25)))

    @given(st.floats(min_value=-40, max_value=40))
    def test_against_mpmath_property(self, zf):
        ctx = mk_context(40)
        got = airy(real_from(zf, ctx), ctx)
        ref, _, _ = airy_maclaurin(zf, 60)
        with mp.workdps(60):
            assert abs(raw(got.ai) - ref) <= \
                tol(40, 8) * max(abs(ref), envelope(zf, mpf(-0.25)))


class TestInvariants:
    @pytest.mark.parametrize("z", [-5, -2, -1, 0, 1, 2, 5])
    def test_ode_residual_on_grid(self, z, ctx60):
        val = airy(real_from(z, ctx60), ctx60)
        _, _, app = airy_maclaurin(z, 60)
        with mp.workdps(80):
            assert abs(app - mpf(z) * raw(val.ai)) < tol(60, 12)

    def test_positive_decay(self, ctx60):
        grid = ["0", "0.5", "1", "2", "4", "8", "16", "32"]
        vals = [raw(airy(real_from(z, ctx60), ctx60).ai) for z in grid]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))
        # Ai' stays negative on the same grid
        assert all(raw(airy(real_from(z, ctx60), ctx60).ai_prime) < 0
                   for z in grid)

    def test_range_limit(self, ctx60):
        with pytest.raises(DomainError):
            airy(real_from("1.5e6", ctx60), ctx60)

    def test_deep_asymptotic_range(self, ctx60):
        # deep in the decaying tail the guard digits must still cover the rounding
        got = airy(real_from(90000, ctx60), ctx60)
        with mp.workdps(90):
            ref = mpmath.airyai(mpf(90000))
            assert abs(raw(got.ai) - ref) <= tol(60, 8) * abs(ref)

    @pytest.mark.parametrize("digits", [40, 120, 300])
    def test_wronskian_across_the_range(self, digits):
        # Ai Bi' - Ai' Bi = 1/pi, with Bi from mpmath.airybi at the same z
        ctx = mk_context(digits)
        for z in ("-1e6", "-999999.37", "-2000", "-200.5", "-41", "-30", "0",
                  "25", "34", "41", "200", "1e5", "1e6"):
            zb = real_from(z, ctx)
            val = airy(zb, ctx)
            with mp.workdps(digits + 20):
                bi, bip = mpmath.airybi(raw(zb)), mpmath.airybi(raw(zb), 1)
                w = raw(val.ai) * bip - raw(val.ai_prime) * bi
                assert abs(w - 1 / mp.pi) <= tol(digits, 8), f"z = {z}"
