"""Leading-order routes away from the coalescence band."""
import time

import pytest
from mpmath import mp, mpf

from touchard import (DomainError, PoincareRegime, RegimeError, leading_order,
                      mk_context, mu_from_xi, scaled_touchard, wrap_real)
from touchard.numkernel import raw

from leading_order_decay import halving_ratios
import width_ladder


class TestRouting:
    def test_below_band(self, ctx60):
        res = leading_order(100, "0.2", ctx60)
        assert res.regime is PoincareRegime.BELOW
        with mp.workdps(70):
            # W_0(-0.2): the root of t e^t = -0.2 in (-1, 0)
            w0 = mp.findroot(lambda t: t * mp.exp(t) + mpf("0.2"),
                             (mpf(-1), mpf(0)), solver="illinois")
            t0 = raw(res.t0_used)
            assert t0.imag == 0
            assert abs(t0.real - w0) < mpf(10) ** -52

    def test_above_band(self, ctx60):
        res = leading_order(100, "1.0", ctx60)
        assert res.regime is PoincareRegime.ABOVE
        assert raw(res.t0_used).imag > 0

    def test_band_refused(self, ctx60):
        with mp.workdps(70):
            edge_in = [wrap_real(1 / mp.e, ctx60),
                       wrap_real(mpf("1.049") / mp.e, ctx60),
                       wrap_real(mpf("0.951") / mp.e, ctx60)]
            edge_out = [wrap_real(mpf("1.051") / mp.e, ctx60),
                        wrap_real(mpf("0.949") / mp.e, ctx60)]
        for mu in edge_in:
            with pytest.raises(RegimeError):
                leading_order(100, mu, ctx60)
        for mu in edge_out:
            leading_order(100, mu, ctx60)  # must not raise

    def test_domain_checks(self, ctx60):
        with pytest.raises(DomainError):
            leading_order(9, "0.2", ctx60)
        for bad in ("0", "-0.2"):
            with pytest.raises(DomainError):
                leading_order(100, bad, ctx60)


class TestAccuracy:
    @pytest.mark.parametrize("mu", ["0.2", "1.0"])
    def test_relative_error_small(self, mu, ctx60):
        n = 100
        res = leading_order(n, mu, ctx60)
        with mp.workdps(80):
            x = wrap_real(mpf(n) / mpf(mu), ctx60)
        exact = scaled_touchard(n - 1, x, ctx60)
        with mp.workdps(80):
            rel = abs(raw(res.value) / raw(exact.value) - 1)
            assert rel < mpf("0.05")

    def test_sign_below_band(self, ctx60):
        # the real saddle lies in (-1, 0), so t0^(n-1) fixes the sign
        for n in (100, 101):
            v = raw(leading_order(n, "0.2", ctx60).value)
            assert (-1) ** (n - 1) * v > 0

    def test_precision_stability(self):
        lo = leading_order(150, "0.25", mk_context(40))
        hi = leading_order(150, "0.25", mk_context(90))
        with mp.workdps(100):
            assert abs(raw(lo.value) / raw(hi.value) - 1) < mpf(10) ** -35
        # the width rule, with one mu object for both calls
        for d in width_ladder.DIGITS:
            for xi in width_ladder.XI:
                mu = mu_from_xi(xi, mk_context(d))
                for n in width_ladder.N:
                    assert width_ladder.off_the_reference(
                        lambda ctx: leading_order(n, mu, ctx).value,
                        d) is None, (d, n, xi)

    @pytest.mark.parametrize("digits", [30, 120])
    def test_huge_xi(self, digits):
        # x + n/t0 is two numbers near x = n e xi that cancel to about n;
        # as -x expm1(t0) it holds all its digits, to xi = 1e300: each call
        # prints as a reference at digits + k + 20 rounded to digits
        ctx = mk_context(digits)
        for k in range(1, 301):
            mu = mu_from_xi(f"1e{k}", ctx)
            start = time.perf_counter()
            got = leading_order(100, mu, ctx).value.to_str()
            assert time.perf_counter() - start < 1, k
            want = leading_order(100, mu, mk_context(digits + k + 20)).value
            assert got == wrap_real(want.value, ctx).to_str(), k


class TestSelfTest:
    def test_ratios_certify_unit_coefficient(self):
        ratios = halving_ratios()
        assert len(ratios) == 2
        for r in ratios:
            assert 0.3 <= r <= 0.7
