"""Leading-order routes away from the coalescence band."""
import pytest
from mpmath import mp, mpf

from touchard import (DomainError, PoincareRegime, RegimeError, leading_order,
                      mk_context, scaled_touchard, wrap_real)
from touchard.numkernel import raw

from leading_order_decay import halving_ratios


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
            x = wrap_real(-mpf(n) / mpf(mu), ctx60)
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


class TestSelfTest:
    def test_ratios_certify_unit_coefficient(self):
        ratios = halving_ratios()
        assert len(ratios) == 2
        for r in ratios:
            assert 0.3 <= r <= 0.7
