"""Phase function at a saddle, Lambert W branches, saddle classification."""
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import fp, mp, mpc, mpf

from touchard import (DomainError, SaddleKind, SolverError, contour_set,
                      leading_order, mk_context, mu_from_xi, real_from,
                      solve_saddles, theorem2_eval, uniform_ingredients)
from touchard.saddle import psi2_at_saddle_raw, psi_reduced_raw
from touchard.numkernel import (log_branched_raw, raw, working_digits,
                                wrap_real)


def tol(ctx, slack):
    return mpf(10) ** (-(ctx.digits - slack))


def bisect_saddle(mu, lo, hi):
    """The root of t e^t = -mu in [lo, hi], bisected at working precision."""
    lo_positive = lo * mp.exp(lo) + mu > 0
    for _ in range(mp.prec + 20):
        mid = (lo + hi) / 2
        if (mid * mp.exp(mid) + mu > 0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def newton_polish(t, mu, dps):
    """Newton on t e^t + mu = 0 at dps digits, started from t.

    Near the double root the last steps only stir rounding noise of about
    10^-dps / |t - other root|, so the loop runs a fixed count and then
    asks for half the digits to have settled.
    """
    with mp.workdps(dps):
        t = mpc(t)
        for _ in range(30):
            dt = (t * mp.exp(t) + mu) / ((1 + t) * mp.exp(t))
            t -= dt
        assert abs(dt) <= mpf(10) ** -(dps // 2) * abs(t), \
            f"Newton did not settle near {mp.nstr(t, 8)}"
    return t


@pytest.fixture(scope="module")
def mu_coal(ctx60):
    # mu = 1/e at working precision
    with mp.workdps(70):
        return real_from(1 / mp.e, ctx60)


class TestPhase:
    def test_value_at_double_saddle(self, ctx60):
        # the branch choice is what puts -pi (not +pi) in the imaginary part
        with mp.workdps(70):
            w = psi_reduced_raw(-1)
            assert abs(w - (-1 - 1j * mp.pi)) < tol(ctx60, 5)

    def test_derivatives_at_double_saddle(self, ctx60, mu_coal):
        # psi = -e^t/mu - log t: each derivative of -e^t/mu is -e^t/mu, and
        # the log adds (-1)^j (j-1)!/t^j. At t = -1, mu = 1/e the first part
        # is -1, so psi' = psi'' = 0, psi''' = 1 and psi'''' = 5
        with mp.workdps(70):
            t = mpf(-1)
            g = -mp.exp(t) / raw(mu_coal)
            assert abs(g - 1 / t) < tol(ctx60, 5)
            assert abs(g + 1 / t ** 2) < tol(ctx60, 5)
            assert abs(g - 2 / t ** 3 - 1) < tol(ctx60, 5)
            assert abs(g + 6 / t ** 4 - 5) < tol(ctx60, 5)
            assert psi2_at_saddle_raw(t) == 0

    def test_cut_rejected(self):
        with pytest.raises(DomainError):
            psi_reduced_raw(2)
        with pytest.raises(DomainError):
            psi_reduced_raw(0)

    @given(st.floats(min_value=-3, max_value=3),
           st.floats(min_value=0.05, max_value=3))
    def test_conjugate_branch_identity(self, re, im):
        # Im(psi(t) + psi(conj t)) = -2 pi off the real axis: e^t/mu and 1/t
        # are conjugate-symmetric, and the branched logs add up to 2 pi i
        ctx = mk_context(40)
        with mp.workdps(50):
            t = mpc(re, im)
            s = psi_reduced_raw(t) + psi_reduced_raw(mp.conj(t))
            assert abs(mp.im(s) + 2 * mp.pi) < tol(ctx, 8)
            logs = log_branched_raw(t) + log_branched_raw(mp.conj(t))
            assert abs(mp.im(logs) - 2 * mp.pi) < tol(ctx, 8)

    def test_reduced_phase_identity_at_saddles(self, ctx60):
        # 1/t - log t equals psi at any solution of t e^t = -mu, and
        # (1 + t)/t^2 equals psi'' there
        mu = mu_from_xi("0.85", ctx60)
        pair = solve_saddles(mu, working_digits(ctx60, 1))
        with mp.workdps(70):
            t, mu = raw(pair.t0), raw(mu)
            full = -mp.exp(t) / mu - log_branched_raw(t)
            assert abs(full - psi_reduced_raw(t)) < tol(ctx60, 8)
            d2 = -mp.exp(t) / mu + 1 / t ** 2
            assert abs(d2 - psi2_at_saddle_raw(t)) < tol(ctx60, 8)


class TestLambert:
    def test_examples_against_mpmath(self, ctx60):
        # each real saddle on its branch interval, against mpmath's
        # bracketing root finder: t0 = W_0(-mu) in (-1, 0), t1 = W_-1(-mu)
        for ms in ("0.2", "0.35", "0.01"):
            mu = real_from(ms, ctx60)
            pair = solve_saddles(mu, working_digits(ctx60, 1))
            assert pair.kind is SaddleKind.REAL_PAIR
            with mp.workdps(80):
                mu = raw(mu)

                def f(t):
                    return t * mp.exp(t) + mu
                w0 = mp.findroot(f, (mpf(-1), mpf(0)), solver="illinois")
                wm = mp.findroot(f, (mpf(-50), mpf(-1)), solver="illinois")
                assert abs(raw(pair.t0) - w0) < tol(ctx60, 8)
                assert abs(raw(pair.t1) - wm) < tol(ctx60, 8)

    def test_bisection_oracle(self, ctx60):
        # fully independent check: bisect t e^t = -mu on each branch interval
        mu = mu_from_xi("1.5", ctx60)
        pair = solve_saddles(mu, working_digits(ctx60, 1))
        with mp.workdps(80):
            mu = raw(mu)
            t0_ref = bisect_saddle(mu, mpf(-1), mpf(0))
            t1_ref = bisect_saddle(mu, mpf(-10), mpf(-1))
            assert abs(raw(pair.t0) - t0_ref) < tol(ctx60, 10)
            assert abs(raw(pair.t1) - t1_ref) < tol(ctx60, 10)

    @given(st.floats(min_value=1e-4, max_value=0.367))
    def test_residuals_and_ranges(self, mf):
        ctx = mk_context(40)
        mu = real_from(mf, ctx)
        pair = solve_saddles(mu, working_digits(ctx, 1))
        assert pair.kind is SaddleKind.REAL_PAIR
        t0, t1 = raw(pair.t0), raw(pair.t1)
        assert t0.imag == 0 and t1.imag == 0
        assert -1 <= t0.real < 0
        assert t1.real <= -1
        with mp.workdps(60):
            mu = raw(mu)
            for t in (t0, t1):
                assert abs(t * mp.exp(t) + mu) < tol(ctx, 9) * mu

    def test_branch_point(self, ctx60):
        # at xi = 1 + 1e-44, the real roots straddle -1 symmetrically by
        # sqrt(2 q), with q = 1 - 1/xi the scaled distance of -mu past the
        # branch point -1/e
        with mp.workdps(80):
            xi = 1 + mpf(10) ** -44
            half_gap = mp.sqrt(2 * (1 - 1 / xi))
        pair = solve_saddles(mu_from_xi(xi, ctx60),
                             working_digits(ctx60, 1))
        assert pair.kind is SaddleKind.REAL_PAIR
        with mp.workdps(80):
            w0, wm = raw(pair.t0).real, raw(pair.t1).real
            assert wm < -1 < w0
            assert abs((w0 + 1) - half_gap) < half_gap / 100
            assert abs((wm + 1) + half_gap) < half_gap / 100


class TestParams:
    def test_from_xi_consistency(self, ctx60):
        mu = mu_from_xi("1.3", ctx60)
        with mp.workdps(70):
            assert abs(raw(mu) * mp.e * mpf("1.3") - 1) < tol(ctx60, 9)

    def test_rejects_nonpositive(self, ctx60):
        # and non-finite: nan > 0 is false, so `not v > 0` refuses it too
        for bad in ("0", "-2", "nan", "inf", "-inf"):
            for call in (mu_from_xi, lambda b, ctx: solve_saddles(b, 70)):
                with pytest.raises(DomainError) as exc:
                    call(bad, ctx60)
                assert exc.value.exit_code == 2

    @pytest.mark.parametrize("call", [
        lambda ctx: theorem2_eval(100, "nan", ctx),
        lambda ctx: uniform_ingredients("inf", ctx, 100),
        lambda ctx: contour_set(real_from("inf", ctx), ctx),
        lambda ctx: solve_saddles("nan", working_digits(ctx, 1)),
        lambda ctx: leading_order(100, "nan", ctx),
        lambda ctx: leading_order(100, "inf", ctx),
    ], ids=["theorem2_eval", "uniform_ingredients", "contour_set",
            "solve_saddles", "leading_order_nan", "leading_order_inf"])
    def test_layers_refuse_non_finite_input(self, call, ctx40):
        # from Python, not only through the CLI, with exit code 2
        with pytest.raises(DomainError) as exc:
            call(ctx40)
        assert exc.value.exit_code == 2


    @pytest.mark.parametrize("bad", ["abc", "", None])
    @pytest.mark.parametrize("call", [
        lambda b, ctx: mu_from_xi(b, ctx),
        lambda b, ctx: solve_saddles(b, working_digits(ctx, 1)),
        lambda b, ctx: uniform_ingredients(b, ctx, 100),
        lambda b, ctx: theorem2_eval(100, b, ctx),
        lambda b, ctx: leading_order(100, b, ctx),
        lambda b, ctx: contour_set(b, ctx),
        # None is the default of step and max_len, so it stands for 0.05 or 40
        lambda b, ctx: contour_set("1", ctx, step="nan" if b is None else b),
        lambda b, ctx: contour_set("1", ctx, max_len="inf" if b is None else b),
    ], ids=["mu_from_xi", "solve_saddles", "uniform_ingredients",
            "theorem2_eval", "leading_order", "contour_set_xi",
            "contour_set_step", "contour_set_max_len"])
    def test_layers_refuse_non_numbers(self, call, bad, ctx40):
        # text that is not a number, or None, is refused by real_from
        with pytest.raises(DomainError, match="expected a finite number") as exc:
            call(bad, ctx40)
        assert exc.value.exit_code == 2


class TestSolve:
    @pytest.mark.parametrize("xi, lambertw", [
        ("1.5", (fp, lambda z, k=0: float("nan"))),
        ("1." + "0" * 29 + "1", (mp, lambda z, k=0: mpc(mp.nan))),
    ], ids=["polish", "mpmath_lambertw"])
    def test_nan_residual_is_refused(self, xi, lambertw, ctx60, monkeypatch):
        # NaN compares false both ways, so the certificate is `not r <= bound`.
        # At xi = 1.5 the seed is fp.lambertw's; at 1 + 1e-30 it is too near
        # the branch point, and mp.lambertw serves
        monkeypatch.setattr(lambertw[0], "lambertw", lambertw[1])
        with pytest.raises(SolverError, match="nan"):
            solve_saddles(mu_from_xi(xi, ctx60),
                          working_digits(ctx60, 1))

    @pytest.mark.parametrize("digits", [30, 40, 120, 300])
    def test_certified_at_and_near_coalescence(self, digits):
        # at xi = 1 and at 1 +- 10^-k, down to k = digits + 11, where mu
        # rounds to 1/e, solve_saddles returns the Lambert W pair, never the
        # double saddle, with both residuals within the certificate
        ctx = mk_context(digits)
        cases = [("1", 0, 0)]
        for k in range(1, digits + 12):
            cases += [("1." + "0" * (k - 1) + "1", k, 1),
                      ("0." + "9" * k, k, -1)]
        for xi, k, sgn in cases:
            mu = mu_from_xi(xi, ctx)
            pair = solve_saddles(mu, working_digits(ctx, 1))
            assert pair.kind in (SaddleKind.REAL_PAIR,
                                 SaddleKind.CONJUGATE_PAIR), xi
            if 0 < k <= digits - 5:  # mu's rounding cannot cross xi = 1
                assert pair.kind is (SaddleKind.REAL_PAIR if sgn > 0
                                     else SaddleKind.CONJUGATE_PAIR), xi
            with mp.workdps(digits + 20):
                bound = tol(ctx, 10) * raw(mu)
                for t in (raw(pair.t0), raw(pair.t1)):
                    assert abs(t * mp.exp(t) + raw(mu)) <= bound, xi
                assert raw(pair.residual0) <= bound
                assert raw(pair.residual1) <= bound

    def test_real_pair(self, ctx60):
        mu = mu_from_xi("1.5", ctx60)
        pair = solve_saddles(mu, working_digits(ctx60, 1))
        assert pair.kind is SaddleKind.REAL_PAIR
        t0, t1 = raw(pair.t0), raw(pair.t1)
        assert t0.imag == 0 and t1.imag == 0
        assert -1 < t0.real < 0
        assert t1.real < -1
        assert abs(t0) < abs(t1)
        with mp.workdps(70):
            mu = raw(mu)
            for t in (t0, t1):
                assert abs(t * mp.exp(t) + mu) < tol(ctx60, 10) * mu

    def test_conjugate_pair(self, ctx60):
        mu = mu_from_xi("0.9", ctx60)
        pair = solve_saddles(mu, working_digits(ctx60, 1))
        assert pair.kind is SaddleKind.CONJUGATE_PAIR
        t0, t1 = raw(pair.t0), raw(pair.t1)
        assert t0.imag > 0
        with mp.workdps(70):
            # compare inside the block: even unary minus re-rounds at the
            # ambient precision, which would fake a mismatch here
            assert t1.real == t0.real and t1.imag == -t0.imag
            s = psi_reduced_raw(t0) + psi_reduced_raw(t1)
            assert abs(mp.im(s) + 2 * mp.pi) < tol(ctx60, 8)
        # |t e^t + mu| is the same at t0 and its conjugate
        assert pair.residual1 == pair.residual0

    def test_split_scale_near_coalescence(self, ctx120):
        # |t0 + 1| tracks sqrt(2|1/xi - 1|) within a factor of two, and both
        # saddles match a 400-digit Newton polish to all but two digits, down
        # to 1e-104 at 120 digits
        for k in (2, 3, 4, 30, 40, 45, 50, 60, 80, 100, 104):
            for sgn in (1, -1):
                with mp.workdps(150):
                    xi = 1 + sgn * mpf(10) ** -k
                    pred = mp.sqrt(2 * abs(1 / xi - 1))
                mu = mu_from_xi(xi, ctx120)
                pair = solve_saddles(mu, working_digits(ctx120, 1))
                assert pair.kind is (SaddleKind.REAL_PAIR if sgn > 0
                                     else SaddleKind.CONJUGATE_PAIR)
                with mp.workdps(150):
                    gap = abs(raw(pair.t0) + 1)
                    assert pred / 2 < gap < pred * 2
                for t in (raw(pair.t0), raw(pair.t1)):
                    ref = newton_polish(t, raw(mu), 400)
                    with mp.workdps(400):
                        assert abs(t - ref) <= tol(ctx120, 2) * abs(ref), \
                            f"xi = 1 {'+-'[sgn < 0]} 1e-{k}"

    @pytest.mark.parametrize("digits", [40, 120])
    def test_certified_across_the_range(self, digits):
        # xi = m 10^e from 1e-300 to 3.7e295: every pair certifies and
        # lands on the right sheet
        ctx = mk_context(digits)
        for e in range(-300, 301, 7):
            for m in ("1", "3.7"):
                mu = mu_from_xi(f"{m}e{e}", ctx)
                pair = solve_saddles(mu, working_digits(ctx, 1))
                t0, t1 = raw(pair.t0), raw(pair.t1)
                with mp.workdps(digits + 20):
                    bound = tol(ctx, 10) * raw(mu)
                    assert raw(pair.residual0) <= bound
                    assert raw(pair.residual1) <= bound
                with mp.workdps(digits + 20):
                    if e < 0:
                        assert pair.kind is SaddleKind.CONJUGATE_PAIR
                        assert t0.imag > 0 and t1 == mp.conj(t0)
                    else:
                        assert pair.kind is SaddleKind.REAL_PAIR
                        assert t1.real < -1 < t0.real < 0

    @pytest.mark.parametrize("digits", [40, 120, 300])
    def test_polish_matches_mpmath_lambertw(self, digits):
        # the saddles print as mp.lambertw at their width rounded to ctx, on
        # both sides of the seed rule |1 - 1/xi| >= 5e-5 and of the normal
        # doubles, where -mu overflows or underflows a float
        ctx = mk_context(digits)
        xis = [f"{m}e{e}" for e in range(-300, 301, 7) for m in ("1", "3.7")]
        for k in range(1, digits + 12):
            xis += ["1." + "0" * (k - 1) + "1", "0." + "9" * k]
        with mp.workdps(digits + 10):
            xis += [1 / (1 - s * mpf("5e-5") * (1 + r * mpf("1e-3")))
                    for s in (1, -1) for r in (1, -1)]
        xis += ["1e-310", "1e-400", "1e310", "1e400", "2.5e-308"]

        def printed(t):
            return [wrap_real(v, ctx).to_str() for v in (t.real, t.imag)]

        width = working_digits(ctx, 1)
        for xi in xis:
            mu = mu_from_xi(xi, ctx)
            pair = solve_saddles(mu, width)
            with mp.workdps(width):
                w0 = mp.lambertw(-raw(mu), 0)
                w1 = (mp.lambertw(-raw(mu), -1)
                      if pair.kind is SaddleKind.REAL_PAIR else mp.conj(w0))
            assert printed(pair.t0) == printed(w0), xi
            assert printed(pair.t1) == printed(w1), xi

    @given(st.floats(min_value=0.3, max_value=3))
    def test_classification_and_residuals(self, xf):
        ctx = mk_context(40)
        mu = mu_from_xi(xf, ctx)
        pair = solve_saddles(mu, working_digits(ctx, 1))
        with mp.workdps(50):
            mu = raw(mu)
            bound = tol(ctx, 10) * mu
            for t in (raw(pair.t0), raw(pair.t1)):
                assert abs(t * mp.exp(t) + mu) < bound
        if xf > 1 + 1e-6:
            assert pair.kind is SaddleKind.REAL_PAIR
        elif xf < 1 - 1e-6:
            assert pair.kind is SaddleKind.CONJUGATE_PAIR
