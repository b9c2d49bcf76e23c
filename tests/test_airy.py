"""Airy kernel: closed forms, the Maclaurin oracle, the ODE residual, the
Wronskian across the whole supported range, and the two passes: where they
switch, that they agree there and with mpmath.airyai, their reruns, and the
Maclaurin fallback and the refusal at zeros past the switchover."""
import itertools
import math
import sys
import time

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf

from touchard import (ABS_Z_LIMIT, DomainError, PrecisionExhaustedError, airy,
                      mk_context, real_from, theorem2_eval, wrap_real)
from touchard.airy import maclaurin_limit
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


def printed(val, ctx):
    """An AiryValue's Ai and Ai' as they print at ctx."""
    return tuple(wrap_real(v, ctx).to_str() for v in (val.ai, val.ai_prime))


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


AIRY = sys.modules["touchard.airy"]
ROUTE_DIGITS = (30, 40, 120, 300)


def mpmath_string(zb, ctx, derivative=0):
    """mpmath.airyai at twice the context's digits, rounded to ctx."""
    with mp.workdps(2 * ctx.digits):
        return wrap_real(mpmath.airyai(raw(zb), derivative), ctx).to_str()


def passes(monkeypatch, name="_sums"):
    """A list that records the working precision of each Maclaurin pass, or
    of each pass of the function `name`."""
    made = []
    sums = getattr(AIRY, name)

    def counted(*args):
        made.append(args[-1])
        return sums(*args)

    monkeypatch.setattr(AIRY, name, counted)
    return made


class TestRoutes:
    @pytest.mark.parametrize("digits", ROUTE_DIGITS)
    def test_route_switches_at_the_limit(self, digits):
        # at -Z(d) below zero and at Z(d) above it: one limit for both signs
        ctx = mk_context(digits)
        limit = maclaurin_limit(digits)
        for s in (-1, 1):
            for z, route in ((0, "maclaurin"), (limit / 2, "maclaurin"),
                             (limit, "maclaurin"),
                             (limit * (1 + 1e-3), "asymptotic"),
                             (4 * limit, "asymptotic")):
                got = airy(real_from(s * z, ctx), ctx)
                assert got.method.value == route, (s * z, digits)

    def test_limit_values(self):
        # the smallest term of DLMF 9.7.5 stays above mpmath's stopping term
        # 2^-(b+35) below Z(d)
        assert [round(maclaurin_limit(d), 1) for d in (40, 120, 300)] == \
            [22.4, 39.1, 67.6]
        for d in ROUTE_DIGITS:
            with mp.workdps(d + 10):
                bits = mp.prec
            z = maclaurin_limit(d)
            assert (4 / 3) * z ** 1.5 / math.log(2) == pytest.approx(bits + 35)

    @pytest.mark.parametrize("digits", [40, 120, 300])
    def test_pass_serves_the_negative_side_up_to_the_limit(self, digits):
        # between ((3/4)(d + 10) ln 10)^(2/3), where 9.7.5's smallest term is
        # 10^-(d+10), and Z(d) the pass serves z < 0 too, and prints the
        # strings of mpmath.airyai at 2d digits
        ctx = mk_context(digits)
        limit = maclaurin_limit(digits)
        tenth = (0.75 * (digits + 10) * math.log(10)) ** (2 / 3)
        assert tenth < limit
        for z in (-limit * (1 - 1e-3), -(tenth + limit) / 2):
            zb = real_from(z, ctx)
            got = airy(zb, ctx)
            assert got.method.value == "maclaurin", z
            assert printed(got, ctx) == (mpmath_string(zb, ctx),
                                         mpmath_string(zb, ctx, 1)), z

    @pytest.mark.parametrize("digits", ROUTE_DIGITS)
    def test_series_certifies_past_the_positive_limit(self, digits,
                                                      monkeypatch):
        # above Z(d) the series' smallest term is below 2^-(b+35): one
        # asymptotic pass certifies each z, with no rerun and no fallback
        made = passes(monkeypatch, "_series")
        ctx = mk_context(digits)
        limit = maclaurin_limit(digits)
        zs = [limit * f for f in (1 + 1e-9, 1 + 1e-3, 1.5, 2, 4)]
        zs += [limit * (ABS_Z_LIMIT / limit) ** (i / 24) for i in range(1, 25)]
        for z in zs:
            made.clear()
            got = airy(real_from(z, ctx), ctx)
            assert got.method.value == "asymptotic", z
            assert len(made) == 1, z

    @pytest.mark.parametrize("digits", ROUTE_DIGITS)
    def test_both_routes_agree_at_the_limit(self, digits, monkeypatch):
        ctx = mk_context(digits)
        limit = maclaurin_limit(digits)
        zs = [real_from(s * limit * f, ctx)
              for s in (-1, 1) for f in (1 - 1e-3, 1, 1 + 1e-3)]
        by = {}
        for name, forced in (("maclaurin", math.inf), ("asymptotic", -1.0)):
            monkeypatch.setattr(AIRY, "maclaurin_limit", lambda d: forced)
            by[name] = [airy(zb, ctx) for zb in zs]
            assert {v.method.value for v in by[name]} == {name}
        for zb, a, b in zip(zs, by["maclaurin"], by["asymptotic"]):
            for u, v in ((a.ai, b.ai), (a.ai_prime, b.ai_prime)):
                with mp.workdps(digits + 10):
                    assert abs(raw(u) - raw(v)) <= tol(digits, 1) * abs(raw(v)), \
                        f"z = {zb.to_str()}"

    @pytest.mark.parametrize("digits", [30, 120, 300])
    def test_each_route_forced_around_the_limit(self, digits, monkeypatch):
        # either pass, forced on either side of +-Z(d), prints the strings of
        # mpmath.airyai at 2d digits
        ctx = mk_context(digits)
        limit = maclaurin_limit(digits)
        zs = [real_from(s * limit * f, ctx)
              for s in (-1, 1) for f in (1 - 1e-3, 1 + 1e-9, 1 + 1e-3)]
        for name, forced in (("maclaurin", math.inf), ("asymptotic", -1.0)):
            monkeypatch.setattr(AIRY, "maclaurin_limit", lambda d: forced)
            for zb in zs:
                got = airy(zb, ctx)
                assert got.method.value == name, zb.to_str()
                assert printed(got, ctx) == (mpmath_string(zb, ctx),
                                             mpmath_string(zb, ctx, 1)), \
                    (name, zb.to_str())

    @pytest.mark.parametrize("digits", [30, 120, 300])
    @pytest.mark.parametrize("derivative", [0, 1])
    def test_zeros_past_the_limit(self, digits, derivative, monkeypatch):
        # a zero of Ai or Ai' rounded to d + 10 digits leaves the value about
        # |z|^(3/2) 10^-(d+10) of its envelope. Just past -Z(d) the series'
        # smallest term is above 10^-(d+10) of that, the first series pass
        # tells it, and the Maclaurin pass serves the zero; near -1e4 the
        # series certifies it after a rerun
        ctx = mk_context(digits)
        limit = maclaurin_limit(digits)
        with mp.workdps(15):
            past = next(k for k in itertools.count(1)
                        if -mpmath.airyaizero(k, derivative) > limit)
        made = passes(monkeypatch, "_series")
        for k, route, count in ((past, "maclaurin", 1),
                                (212000, "asymptotic", 2)):
            with mp.workdps(digits + 10):
                zv = +mpmath.airyaizero(k, derivative)
            made.clear()
            got = airy(zv, ctx)
            assert (got.method.value, len(made)) == (route, count), k
            assert printed(got, ctx) == (mpmath_string(zv, ctx),
                                         mpmath_string(zv, ctx, 1)), k
        assert -zv > 9000

    @pytest.mark.parametrize("digits", [120, 300])
    def test_fallback_at_a_zero_takes_one_pass_of_each(self, digits,
                                                        monkeypatch):
        # at the first zero of Ai past -Z(d) the series' smallest term, read
        # in floats, sends the first series pass to the Maclaurin pass, and
        # that pass starts at the digits the series fell short: two passes
        # where the smallest term on the grid and a Maclaurin pass at its
        # predicted loss alone made four
        ctx = mk_context(digits)
        with mp.workdps(15):
            k = next(k for k in itertools.count(1)
                     if -mpmath.airyaizero(k) > maclaurin_limit(digits))
        with mp.workdps(digits + 10):
            zv = +mpmath.airyaizero(k)
        series = passes(monkeypatch, "_series")
        sums = passes(monkeypatch)
        got = airy(zv, ctx)
        assert got.method.value == "maclaurin"
        assert (len(series), len(sums)) == (1, 1)
        assert sums[0] > series[0]
        assert printed(got, ctx) == (mpmath_string(zv, ctx),
                                     mpmath_string(zv, ctx, 1))

    def test_zero_held_past_the_fallback_refused(self, ctx40):
        # past 2 Z(d) the Maclaurin pass does not serve: a zero held to
        # 3 (d + 10) digits, next to which the series' smallest term is above
        # 10^-(d+10) of Ai, is refused with exit 3
        limit = maclaurin_limit(40)
        with mp.workdps(15):
            k = next(k for k in itertools.count(1)
                     if -mpmath.airyaizero(k) > 2 * limit)
        with mp.workdps(150):
            zv = +mpmath.airyaizero(k)
        with pytest.raises(PrecisionExhaustedError,
                           match="smallest term exceeds 10\\^-50") as info:
            airy(zv, ctx40)
        assert info.value.exit_code == 3
        with mp.workdps(50):
            assert airy(+zv, ctx40).method.value == "asymptotic"

    @pytest.mark.parametrize("z", ["0", "1e-300", "-1e-300", "2^-1000"])
    def test_tiny_z(self, z, ctx120):
        zb = (real_from(mpf(2) ** -1000, ctx120) if z == "2^-1000"
              else real_from(z, ctx120))
        got = airy(zb, ctx120)
        assert got.method.value == "maclaurin"
        assert printed(got, ctx120) == (mpmath_string(zb, ctx120),
                                        mpmath_string(zb, ctx120, 1))
        with mp.workdps(130):
            aip0 = -(3 ** (mpf(-1) / 3)) / mpmath.gamma(mpf(1) / 3)
        assert printed(got, ctx120)[1] == wrap_real(aip0, ctx120).to_str()

    @pytest.mark.parametrize("digits", [40, 120])
    @pytest.mark.parametrize("derivative", [0, 1])
    def test_zeros_certify_after_a_rerun(self, digits, derivative, monkeypatch):
        # z, a zero rounded to d digits, leaves Ai or Ai' about 10^-d of its
        # envelope, which the first pass cannot certify
        ctx = mk_context(digits)
        made = passes(monkeypatch)
        for k in (1, 2, 3):
            with mp.workdps(digits + 10):
                zb = wrap_real(mpmath.airyaizero(k, derivative), ctx)
            made.clear()
            got = airy(zb, ctx)
            assert len(made) == 2, (k, made)
            assert printed(got, ctx) == (mpmath_string(zb, ctx),
                                         mpmath_string(zb, ctx, 1))

    def test_unpredicted_loss_still_certifies(self, ctx120, monkeypatch):
        # with no loss predicted the reruns find it; the strings do not move
        limit = maclaurin_limit(120)
        zs = [real_from(limit * (2 * i / 39 - 1), ctx120) for i in range(40)]
        want = [airy(zb, ctx120) for zb in zs]
        monkeypatch.setattr(AIRY, "_loss_digits", lambda z: 0)
        made = passes(monkeypatch)
        got = [airy(zb, ctx120) for zb in zs]
        assert len(made) > len(zs)
        for a, b in zip(got, want):
            assert printed(a, ctx120) == printed(b, ctx120)

    def test_no_reruns_left_raises(self, ctx40, monkeypatch):
        monkeypatch.setattr(AIRY, "MAX_RERUNS", 0)
        with mp.workdps(50):
            zb = wrap_real(mpmath.airyaizero(1), ctx40)
        # Ai, at its zero, falls short of the 50 digits; Ai' does not
        with pytest.raises(PrecisionExhaustedError,
                           match=r"not certified to 50 digits \(shortfalls "
                                 r"\[[\d.]+, -[\d.]+\] at \d+ bits, 0 reruns"
                           ) as info:
            airy(zb, ctx40)
        assert info.value.exit_code == 3

    def test_nan_constants_fail_closed(self, ctx40, monkeypatch):
        # a NaN Ai(0) and Ai'(0) leave every shortfall NaN: exit 3 at once
        monkeypatch.setattr(AIRY, "_ai0", lambda bits: (mp.nan, mp.nan))
        made = passes(monkeypatch)
        for call in (lambda: airy(real_from("1", ctx40), ctx40),
                     lambda: theorem2_eval(100, "1.2", ctx40)):
            made.clear()
            with pytest.raises(PrecisionExhaustedError, match="nan") as info:
                call()
            assert info.value.exit_code == 3
            assert len(made) == 1

    def test_nan_derivative_after_a_certified_ai_fails_closed(self, ctx40,
                                                              monkeypatch):
        # Sf' alone NaN: Ai certifies and Ai' is NaN, which must not pass
        sums = AIRY._sums

        def nan_sfp(*args):
            sf, sfp, *rest = sums(*args)
            return (sf, math.nan, *rest)

        monkeypatch.setattr(AIRY, "_sums", nan_sfp)
        with pytest.raises(PrecisionExhaustedError,
                           match=r"shortfalls \[-[\d.]+, nan\]") as info:
            airy(real_from("1", ctx40), ctx40)
        assert info.value.exit_code == 3

    @pytest.mark.parametrize("z", ["nan", "inf", "-inf"])
    def test_non_finite_z_refused(self, z, ctx40):
        with pytest.raises(DomainError):
            airy(real_from(z, ctx40), ctx40)

    def test_time_ceiling_at_300_digits(self):
        # these z took 141-181 ms a call through mpmath.airyai
        ctx = mk_context(300)
        zs = [real_from(z, ctx) for z in ("25", "30", "41")]
        airy(zs[0], ctx)
        for zb in zs:
            start = time.perf_counter()
            airy(zb, ctx)
            assert time.perf_counter() - start < 0.06, zb.to_str()
