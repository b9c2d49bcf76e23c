"""Uniform Airy route: limits at coalescence, branch continuity, spot checks."""
import pytest
from mpmath import mp, mpf

from touchard import (BranchError, DomainError, SaddleKind, SaddlePair,
                      mk_context, mu_from_xi, scaled_touchard, theorem1_eval,
                      theorem2_eval, uniform, uniform_ingredients,
                      working_digits, wrap_real)
from touchard.numkernel import raw

import width_ladder


def coalescence_limits(ctx):
    """(A0, B0) at xi = 1: the closed forms uniform_ingredients takes."""
    ing = uniform_ingredients("1", ctx, 100)
    return ing.A0, ing.B0


def branch_continuity_check():
    """Ladder check that A0, B0 flow into their xi = 1 closed forms.

    Walks xi = 1 +/- 10^-k for k = 2..6 at 40 digits and raises BranchError
    when the gap to the limits stops shrinking, as a wrong square-root
    branch would make it.
    """
    ctx = mk_context(40)
    a_lim, b_lim = coalescence_limits(ctx)
    with mp.workdps(ctx.digits):
        prev_gap = mpf("inf")
        for k in range(2, 7):
            for side in (1, -1):
                xi = 1 + side * mpf(10) ** (-k)
                ing = uniform_ingredients(xi, ctx, 100)
                gap = max(abs(ing.A0 - a_lim), abs(ing.B0 - b_lim))
                if gap > max(prev_gap * 4, mpf("1e-30")):
                    raise BranchError(
                        f"A0/B0 ladder diverges from the coalescence values "
                        f"at xi={mp.nstr(xi, 8)} (gap {mp.nstr(gap, 3)})")
            prev_gap = gap


class TestCoalescenceLimit:
    def test_closed_forms(self, ctx120):
        ing = uniform_ingredients("1", ctx120, 100)
        assert ing.saddles.kind is SaddleKind.DOUBLE
        assert raw(ing.zeta) == 0
        with mp.workdps(140):
            tol = mpf(10) ** -110
            assert abs(raw(ing.A0) - mpf(2) ** (mpf(1) / 3)) < tol
            assert abs(raw(ing.B0) + mpf(5) / 6 * mpf(2) ** (mpf(2) / 3)) < tol
            assert abs(mp.re(raw(ing.beta)) + 1) < tol
            assert abs(mp.im(raw(ing.beta)) + mp.pi) < tol

    @pytest.mark.parametrize("digits", [40, 120])
    def test_double_saddle_only_inside_the_window(self, digits):
        # the window is xi = 1 exactly at the ingredients' width w: there
        # uniform_ingredients builds the double saddle t0 = t1 = -1 itself,
        # its residual |mu - 1/e| within the certificate; 1 +- 10^-(w+5)
        # reads as 1, while 1 +- 10^-(digits+6), inside the old window
        # 10^-(digits+5), takes solve_saddles' pair
        ctx = mk_context(digits)
        w = working_digits(ctx, 100)
        for k in (digits + 6, w + 5):
            for xi in ("1." + "0" * (k - 1) + "1", "0." + "9" * k):
                ing = uniform_ingredients(xi, ctx, 100)
                saddles = ing.saddles
                double = k > w
                assert (saddles.kind is SaddleKind.DOUBLE) == double, xi
                assert (ing.xi == 1) == double, xi
                if not double:
                    assert raw(saddles.t0) != raw(saddles.t1)
                    continue
                assert raw(saddles.t0) == raw(saddles.t1) == -1
                with mp.workdps(digits + 20):
                    mu = raw(mu_from_xi(xi, ctx))
                    assert raw(saddles.residual0) == raw(saddles.residual1)
                    assert raw(saddles.residual0) <= \
                        mpf(10) ** -(digits - 10) * mu

    def test_seam_is_smooth(self, ctx60):
        # stepping off xi = 1, where the closed forms stand, must not move
        # the value noticeably
        mid = raw(theorem2_eval(81, "1", ctx60))
        for xi in ("0.999999999", "1.000000001"):
            side = raw(theorem2_eval(81, xi, ctx60))
            assert abs(side / mid - 1) < mpf("1e-4")


class TestIngredients:
    def test_zeta_sign_tracks_regime(self, ctx60):
        above = uniform_ingredients("1.2", ctx60, 100)
        below = uniform_ingredients("0.8", ctx60, 100)
        assert above.saddles.kind is SaddleKind.REAL_PAIR
        assert below.saddles.kind is SaddleKind.CONJUGATE_PAIR
        assert raw(above.zeta) > 0
        assert raw(below.zeta) < 0

    def test_amplitudes_real_and_continuous(self, ctx60):
        a_lim, b_lim = coalescence_limits(ctx60)
        with mp.workdps(70):
            for xi in ("0.99", "1.01"):
                ing = uniform_ingredients(xi, ctx60, 100)
                assert abs(raw(ing.A0) - raw(a_lim)) < mpf("0.02")
                assert abs(raw(ing.B0) - raw(b_lim)) < mpf("0.02")

    def test_beta_imaginary_part_locked(self, ctx60):
        # Im beta = -pi in every regime; it never enters the real result
        with mp.workdps(70):
            for xi in ("0.8", "1", "1.4"):
                ing = uniform_ingredients(xi, ctx60, 100)
                assert abs(mp.im(raw(ing.beta)) + mp.pi) < mpf(10) ** -50

    def test_ladder_clean(self):
        branch_continuity_check()  # raises BranchError on a bad branch

    @pytest.mark.parametrize("xi", ["1.2", "3", "1.0001"])
    def test_wrong_curvature_refused(self, xi, ctx60, monkeypatch):
        # psi'' of the wrong sign at both saddles makes A0 complex
        psi2 = uniform.psi2_at_saddle_raw
        monkeypatch.setattr(uniform, "psi2_at_saddle_raw", lambda t: -psi2(t))
        with pytest.raises(BranchError):
            uniform_ingredients(xi, ctx60, 100)

    @pytest.mark.parametrize("xi", ["1.2", "0.8"])
    def test_swapped_saddles_refused(self, xi, ctx60, monkeypatch):
        # the signed zeta right-hand side turns negative
        solve = uniform.solve_saddles

        def swapped(mu, ctx):
            s = solve(mu, ctx)
            return SaddlePair(s.kind, s.t1, s.t0, s.residual1, s.residual0)

        monkeypatch.setattr(uniform, "solve_saddles", swapped)
        with pytest.raises(BranchError):
            uniform_ingredients(xi, ctx60, 100)

    @pytest.mark.parametrize("xi", ["1.2", "0.8"])
    def test_nan_phase_refused(self, xi, ctx60, monkeypatch):
        # NaN compares false both ways, so the zeta tests are `not ... <=`
        # and `not ... > 0`; the map refuses before the Airy layer sees z
        monkeypatch.setattr(uniform, "psi_reduced_raw", lambda t: mp.nan)
        for call in (lambda: uniform_ingredients(xi, ctx60, 100),
                     lambda: theorem2_eval(100, xi, ctx60)):
            with pytest.raises(BranchError) as exc:
                call()
            assert exc.value.exit_code == 4
            assert "_cubic_map" in [entry.name for entry in exc.traceback]

    def test_ladder_converges(self, ctx60):
        a_lim, b_lim = coalescence_limits(ctx60)
        with mp.workdps(70):
            gaps = []
            for k in (2, 3, 4):
                ing = uniform_ingredients(str(1 + mpf(10) ** -k), ctx60, 100)
                gaps.append(abs(raw(ing.A0) - raw(a_lim)))
            assert gaps[0] > gaps[1] > gaps[2]


class TestEvaluator:
    def test_matches_descending_series_at_coalescence(self, ctx120):
        # one-term descending series and the uniform value coincide at xi=1
        with mp.workdps(140):
            tol = mpf(10) ** -(120 - 10)
            for n in (50, 81, 100, 121):
                t1 = raw(theorem1_eval(n, 1, ctx120))
                t2 = raw(theorem2_eval(n, "1", ctx120))
                assert abs(t2 / t1 - 1) < tol

    @pytest.mark.parametrize("xi,n,printed", [
        ("0.90", 100, "3.322e-3"),
        ("1.40", 81, "4.878e-3"),
    ])
    def test_spot_cells(self, xi, n, printed, ctx60):
        val = theorem2_eval(n, xi, ctx60)
        with mp.workdps(80):
            x = wrap_real(mpf(n) * mp.e * mpf(xi), ctx60)
            exact = scaled_touchard(n - 1, x, ctx60)
            rel = abs(raw(val) - raw(exact.value)) / abs(raw(exact.value))
            want = mpf(printed)
            ulp = mpf(10) ** (mp.floor(mp.log10(want)) - 3)
            assert abs(rel - want) <= ulp

    def test_sign_law_monotone_regime(self, ctx60):
        # for xi >= 1 the Airy argument is nonnegative, so the brace is
        # positive and the overall sign is exactly (-1)^(n-1)
        for xi in ("1", "1.3"):
            for n in (50, 51, 80, 81):
                v = raw(theorem2_eval(n, xi, ctx60))
                assert (-1) ** (n - 1) * v > 0

    def test_oscillatory_sign_matches_exact(self, ctx60):
        # below coalescence Ai oscillates and the plain alternation breaks;
        # the approximation must still land on the exact value's sign
        for n in (50, 81, 100):
            v = raw(theorem2_eval(n, "0.8", ctx60))
            with mp.workdps(80):
                x = wrap_real(mpf(n) * mp.e * mpf("0.8"), ctx60)
            exact = scaled_touchard(n - 1, x, ctx60)
            assert (raw(exact.value) > 0) == (v > 0)

    def test_precision_stability(self, ctx60, ctx120):
        with mp.workdps(140):
            for xi in ("0.95", "1.10"):
                lo = raw(theorem2_eval(100, xi, ctx60))
                hi = raw(theorem2_eval(100, xi, ctx120))
                assert abs(lo / hi - 1) < mpf(10) ** -45
        # the width rule, and at n = 100 two xi where x + n Re beta taken
        # as x plus n Re beta cancelled 3 and 5 of its digits
        cases = [(n, xi) for n in width_ladder.N for xi in width_ladder.XI]
        for d in width_ladder.DIGITS:
            for n, xi in cases + [(100, "1e3"), (100, "1e5")]:
                assert width_ladder.off_the_reference(
                    lambda ctx: theorem2_eval(n, xi, ctx), d) is None, \
                    (d, n, xi)

    def test_small_n_rejected(self, ctx60):
        with pytest.raises(DomainError):
            theorem2_eval(1, "1", ctx60)

    @pytest.mark.parametrize("digits", [40, 120, 300])
    def test_full_precision_near_coalescence(self, digits):
        # zeta cancels 1.5 log10(1/|xi - 1|) digits and B0 another 0.5 near
        # xi = 1; the value must still carry all digits, from |xi - 1| = 1e-3
        # down to the width w(n) at which xi reads as 1
        ctx, ref = mk_context(digits), mk_context(2 * digits + 200)
        for k in sorted({3, 10, digits // 2, digits - 30, digits - 16,
                         digits - 15, digits - 5, digits + 4}):
            for sgn in (1, -1):
                with mp.workdps(digits + 10):
                    xi = 1 + sgn * mpf(10) ** -k
                got = raw(theorem2_eval(100, xi, ctx))
                want = raw(theorem2_eval(100, xi, ref))
                with mp.workdps(ref.digits):
                    err = abs(got / want - 1)
                assert err < mpf(10) ** -(digits - 2), \
                    f"xi = 1 {'+-'[sgn < 0]} 1e-{k}: off by {mp.nstr(err, 3)}"
        # text xi on both sides of the old window 10^-(digits+5) and of
        # w(n), where n multiplies |xi - 1|: the width ladder's rule
        for n in (100, 10 ** 6, 10 ** 9):
            w = working_digits(ctx, n)
            for k in (digits + 5, digits + 6, digits + 11, w - 1, w + 1):
                for xi in ("1." + "0" * (k - 1) + "1", "0." + "9" * k):
                    assert width_ladder.off_the_reference(
                        lambda c: theorem2_eval(n, xi, c), digits) is None, \
                        (n, xi[:4], k)

    def test_narrow_ingredients_refused(self, ctx40):
        # ingredients solved for n = 2 lack the digits n = 10^12 spends;
        # wider ones serve a smaller n
        narrow = uniform_ingredients("1.00001", ctx40, 2)
        with pytest.raises(DomainError) as exc:
            theorem2_eval(10 ** 12, narrow, ctx40)
        assert exc.value.exit_code == 2
        wide = uniform_ingredients("1.00001", ctx40, 10 ** 12)
        assert theorem2_eval(2, wide, ctx40).to_str() \
            == theorem2_eval(2, "1.00001", ctx40).to_str()

    def test_ingredients_reuse(self, ctx60):
        # ingredients stand in for their xi: the value is the fresh call's
        for xi in ("0.5", "1", "1.1", "1.5", "1.00001"):
            ing = uniform_ingredients(xi, ctx60, 1000)
            for n in (100, 1000):
                assert theorem2_eval(n, ing, ctx60).to_str() \
                    == theorem2_eval(n, xi, ctx60).to_str(), (xi, n)
