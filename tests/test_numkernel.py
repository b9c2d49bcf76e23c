"""Numeric kernel: serialization, branch choice, pinned precision."""
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf
from mpmath.libmp import dps_to_prec, from_man_exp

from touchard import DomainError, InvalidPrecisionError, mk_context, wrap_real
from touchard import numkernel
from touchard.numkernel import BigReal, _sci, log_branched_raw, real_from


def tol(ctx, slack):
    return mpf(10) ** (-(ctx.digits - slack))


def correctly_rounded(q: Fraction, d: int) -> tuple[str, Fraction]:
    """q != 0 rounded half away from zero to d significant digits in _sci's
    form, and the distance of its scaled value from the nearest rounding tie
    in units of the last place."""
    a = abs(q)
    e10 = math.floor(math.log10(a.numerator) - math.log10(a.denominator))
    while a >= Fraction(10) ** (e10 + 1):
        e10 += 1
    while a < Fraction(10) ** e10:
        e10 -= 1
    scaled = a / Fraction(10) ** (e10 - d + 1)  # in [10^(d-1), 10^d)
    m = math.floor(scaled + Fraction(1, 2))
    if m == 10 ** d:
        m, e10 = m // 10, e10 + 1
    digits = str(m)
    sign = "-" if q < 0 else ""
    return (f"{sign}{digits[0]}.{digits[1:]}e{e10:+03d}",
            abs(scaled - int(scaled) - Fraction(1, 2)))


class TestContext:
    def test_defaults(self):
        assert mk_context().digits == 120

    @pytest.mark.parametrize("bad", [29, 0, -5, 3.5, True, "60"])
    def test_floor_and_types(self, bad):
        with pytest.raises(InvalidPrecisionError):
            mk_context(bad)


class TestSerialization:
    def test_sqrt2_roundtrip_at_50(self):
        ctx = mk_context(50)
        with mp.workdps(60):
            v = wrap_real(mp.sqrt(2), ctx)
        s = v.to_str()
        assert s.startswith("1.4142135623730950488")
        assert s.endswith("@50")
        back = BigReal.parse(s)
        with mp.workdps(60):
            assert abs(back.value - v.value) <= tol(ctx, 2) * abs(v.value)

    def test_string_roundtrip_is_identity(self):
        ctx = mk_context(30)
        for x in ("3.25", "-1e-7", "123456.789", "0"):
            s = real_from(x, ctx).to_str()
            assert BigReal.parse(s).to_str() == s

    def test_zero(self):
        ctx = mk_context(30)
        s = wrap_real(0, ctx).to_str()
        assert s == "0." + "0" * 29 + "e+00@30"
        assert BigReal.parse(s).value == 0

    def test_mantissa_rollover(self):
        # 0.99999 rounded at 4 digits must carry into the exponent
        assert _sci(mpf("0.99999"), 4) == "1.000e+00"

    @pytest.mark.parametrize("d", [4, 120])
    def test_zero_at_any_digits(self, d):
        assert _sci(mpf(0), d) == "0." + "0" * (d - 1) + "e+00"

    @pytest.mark.parametrize("text, d, want", [
        ("123456", 4, "1.235e+05"),
        ("1e-400", 4, "1.000e-400"),
        ("-3.7e300000", 4, "-3.700e+300000"),
        ("1e-1000000", 4, "1.000e-1000000"),
        ("-3.7e300000", 30, "-3.7" + "0" * 28 + "e+300000"),
    ])
    def test_long_exponents_written_in_full(self, text, d, want):
        with mp.workdps(d + 10):
            assert _sci(mpf(text), d) == want

    @pytest.mark.parametrize("d", [30, 120])
    def test_exponents_of_any_length(self, d, monkeypatch):
        # the first guess of the last digit is exact, so a decimal exponent
        # of 10^17 to 10^100 takes at most two rounds and no exact 10^|s|;
        # from a float guess 10^17 took 7 rounds, and 10^18 or more stuck
        calls = []
        twice_floor = numkernel._twice_floor
        monkeypatch.setattr(numkernel, "_twice_floor",
                            lambda *a: calls.append(a) or twice_floor(*a))
        ctx = mk_context(d)
        for k in range(17, 101):
            for sign in ("+", "-"):
                calls.clear()
                start = time.perf_counter()
                got = real_from(f"1.2345e{sign}1" + "0" * k, ctx).to_str()
                assert time.perf_counter() - start < 1, (k, sign)
                assert got == ("1.2345" + "0" * (d - 5) + f"e{sign}1"
                               + "0" * k + f"@{d}"), (k, sign)
                assert len(calls) <= 2, (k, sign)

    @pytest.mark.parametrize("v", [mp.nan, mp.inf, -mp.inf])
    def test_non_finite_refused(self, v):
        with pytest.raises(DomainError, match="non-finite"):
            _sci(v, 4)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("d", [4, 30, 120, 300])
    def test_correctly_rounded_away_from_ties(self, d, sign):
        # against exact rounding of the binary value in Fractions, half away
        # from zero, on 300 values: random ones; ones just below a power of
        # ten, where rounding carries into the exponent; and ones within
        # 10^-(d+3) to 10^-(d+8) relative of a tie, or on one as held in
        # binary; half with exponents out to 10^4, where _sci rounds from
        # bounds
        rng, prec, near_tie = random.Random(d), dps_to_prec(d) + 20, 0
        for i in range(300):
            k = rng.randint(-1000, 1000) * (10 if i % 6 < 3 else 1)
            with mp.workdps(d + 20):
                if i % 3 == 0:
                    v = mpf(rng.getrandbits(prec) | 1 << (prec - 1)) * \
                        mpf(2) ** (rng.randint(-4000, 4000) - prec)
                elif i % 3 == 1:
                    below = mpf(rng.randint(1, 9)) / 10 ** (d + 1)
                    v = mpf(10) ** k * (1 - below)
                else:
                    m = rng.randrange(10 ** (d - 1), 10 ** d)
                    tie = (m + mpf(1) / 2) * mpf(10) ** (k - d + 1)
                    off = rng.choice([0, -1, 1]) * mpf(10) ** -rng.uniform(
                        d + 3, d + 8)
                    v = tie * (1 + off)
            man, exp = int(v.man), int(v.exp)
            q = sign * Fraction(man) * Fraction(2) ** exp
            want, gap = correctly_rounded(q, d)
            near_tie += gap < Fraction(1, 1000)
            v = mp.make_mpf(from_man_exp(sign * man, exp))
            assert _sci(v, d) == want
        assert near_tie >= 80

    @pytest.mark.parametrize("text, d, want", [
        ("0.125", 2, "1.3e-01"), ("-0.125", 2, "-1.3e-01"),
        ("1.0625", 4, "1.063e+00"), ("9.5", 2, "9.5e+00"),
        ("0.95", 1 + 1, "9.5e-01"), ("99.5", 2, "1.0e+02"),
    ])
    def test_exact_ties_round_away_from_zero(self, text, d, want):
        assert _sci(mpf(text), d) == want

    @pytest.mark.parametrize("sign", [1, -1])
    def test_exact_tie_past_the_exact_range(self, sign):
        # 1234.5e1001 = 2469 5^1001 2^1000 exactly: the bounds at 80 bits
        # straddle the tie, and exact integers decide it
        v = mp.make_mpf(from_man_exp(sign * 2469 * 5 ** 1001, 1000))
        assert _sci(v, 4) == "-" * (sign < 0) + "1.235e+1004"

    def test_rounds_near_a_tie(self):
        # just above the tie 1.2345: to_str's rounding printed 1.234e+00
        assert _sci(mpf("1.2345") * (1 + 1e-12), 4) == "1.235e+00"

    def test_reject_garbage(self):
        with pytest.raises(DomainError):
            BigReal.parse("1.25e5@30")  # exponent must carry a sign
        with pytest.raises(DomainError):
            BigReal.parse("not a number")

    @given(st.floats(min_value=-1e8, max_value=1e8,
                     allow_nan=False, allow_infinity=False))
    def test_roundtrip_floats(self, x):
        ctx = mk_context(30)
        br = real_from(x, ctx)
        back = BigReal.parse(br.to_str())
        with mp.workdps(40):
            if br.value == 0:
                assert back.value == 0
            else:
                assert abs(back.value - br.value) <= tol(ctx, 2) * abs(br.value)

    def test_real_from_bigreal_rerounds(self):
        a = real_from("1.23456789012345678901234567890123456789", mk_context(40))
        b = real_from(a, mk_context(30))
        assert b.ctx.digits == 30


class TestLogBranched:
    def test_examples(self, ctx60):
        with mp.workdps(70):
            assert abs(log_branched_raw(-1) - 1j * mp.pi) < tol(ctx60, 5)
            assert abs(log_branched_raw(1)) == 0
            # just above the cut: tiny positive imaginary part survives
            w = log_branched_raw(mpmath.mpc(1, mpf(10) ** -30))
            assert 0 <= mp.im(w) < mpf(10) ** -29
            # lower half-plane maps to arg in (pi, 2 pi)
            w = log_branched_raw(mpmath.mpc(0, -1))
            assert abs(mp.im(w) - 3 * mp.pi / 2) < tol(ctx60, 5)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            log_branched_raw(0)

    @given(st.floats(min_value=1e-3, max_value=6.28))
    def test_unit_circle_phase(self, phi):
        with mp.workdps(40):
            z = mp.expjpi(mpf(phi) / mp.pi)
            w = log_branched_raw(z)
            assert abs(mp.im(w) - mpf(phi)) < mpf(10) ** -25
            assert abs(mp.re(w)) < mpf(10) ** -25


class TestElementary:
    def test_exp_log_inverse_on_grid(self, ctx60):
        pts = [complex(0.3, 0.7), complex(-2, 0.01), complex(-1, -1),
               complex(4, 3)]
        for z in pts:
            zv = mpc(z)  # exact: a double's parts
            with mp.workdps(70):
                back = mp.exp(log_branched_raw(zv))
                assert abs(back - zv) <= tol(ctx60, 5) * abs(zv)


class TestDeterminism:
    def test_ambient_dps_does_not_leak(self):
        # 1/3 is parsed at the context's precision, not the ambient one
        ctx = mk_context(45)
        third = "0." + "3" * 60
        old = mp.dps
        try:
            mp.dps = 7
            a = real_from(third, ctx)
        finally:
            mp.dps = old
        b = real_from(third, ctx)
        assert a.value == b.value
        assert a.to_str() == b.to_str()
        assert a.to_str().startswith("3." + "3" * 44)
