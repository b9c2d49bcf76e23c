"""Steepest-path tracer: launch geometry, drift budget, regime topology."""
import cmath

import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import dps_to_prec, fnan

from touchard import (DomainError, SaddleKind, StepError, mk_context,
                      mu_from_xi, solve_saddles)
from touchard import contours
from touchard.cli import _sci, cmd_contours
from touchard.contours import (DRIFT_BUDGET, LEVEL_DIGITS, MAX_LEN_OVER_STEP,
                               R_MIN, _TERMS, _Flow, _im_psi, _psi,
                               contour_set)
from touchard.numkernel import MIN_DIGITS, log_branched_raw, raw

EPS = 2.0 ** -52


def measured_direction(pl):
    # points[0] is the saddle; points[3] is ~4e-8 out, far past launch noise
    with mp.workdps(50):
        return mp.arg(raw(pl.points[3]) - raw(pl.saddle))


@pytest.fixture(scope="module")
def double_set(ctx40):
    return contour_set("1", ctx40)


@pytest.fixture(scope="module")
def realpair_set(ctx40):
    return contour_set("1.8", ctx40)


@pytest.fixture(scope="module")
def conjpair_set(ctx40):
    return contour_set("0.8", ctx40)


class TestDoubleSaddle:
    @pytest.fixture
    def cs(self, double_set):
        return double_set

    def test_six_polylines(self, cs):
        assert cs.saddle_kind is SaddleKind.DOUBLE
        assert len(cs.polylines) == 6
        assert [pl.kind for pl in cs.polylines] == ["descent"] * 3 + ["ascent"] * 3

    def test_launch_directions(self, cs):
        with mp.workdps(50):
            want = [mp.pi / 3, -mp.pi / 3, mp.pi, mpf(0),
                    2 * mp.pi / 3, -2 * mp.pi / 3]
            for pl, th in zip(cs.polylines, want):
                assert abs(measured_direction(pl) - th) < mpf("1e-6")
                assert abs(pl.launch_theta - th) < mpf("1e-12")

    def test_drift_budget(self, cs):
        for pl in cs.polylines:
            assert raw(pl.im_psi_drift) < DRIFT_BUDGET

    def test_conjugate_symmetry_of_wing_descents(self, cs):
        up, down = cs.polylines[0], cs.polylines[1]
        assert len(up.points) == len(down.points)
        with mp.workdps(50):
            for a, b in zip(up.points, down.points):
                av, bv = raw(a), raw(b)
                assert abs(av.real - bv.real) < mpf("1e-8")
                assert abs(av.imag + bv.imag) < mpf("1e-8")

    def test_real_axis_descent_stays_real(self, cs):
        pl = cs.polylines[2]
        assert pl.stop_reason == "re_min"
        for p in pl.points:
            assert abs(raw(p).imag) < mpf("1e-8")

    def test_stop_reasons(self, cs):
        assert cs.polylines[3].stop_reason == "origin"
        assert cs.polylines[4].stop_reason == "re_max"
        assert cs.polylines[5].stop_reason == "re_max"

    def test_ascent_wings_approach_pm_pi(self, cs):
        with mp.workdps(50):
            for pl in (cs.polylines[4], cs.polylines[5]):
                tail = raw(pl.points[-1])
                assert tail.real > 8
                assert abs(abs(tail.imag) - mp.pi) < mpf("0.01")


# pairs closer than LAUNCH_OFFSET, xi = 1 +- 10^-k with k >= 17, at 40 and 120
# digits, inside and outside solve_saddles' snap window 10^-(digits - 15)
NEAR_PAIRS = [(xi, d) for d in (40, 120) for xi in (
    "1.00000000000000001", "0.99999999999999999", "1.00000000000000000001",
    "1." + "0" * 29 + "1")]


class TestNearPair(TestDoubleSaddle):
    """A pair that doubles cannot tell apart traces as the double saddle."""

    @pytest.fixture(scope="class", params=NEAR_PAIRS,
                    ids=lambda p: f"{p[0]}@{p[1]}")
    def cs(self, request):
        xi, digits = request.param
        return contour_set(xi, mk_context(digits))


class TestRealPair:
    @pytest.fixture
    def cs(self, realpair_set):
        return realpair_set

    def test_eight_polylines(self, cs):
        assert cs.saddle_kind is SaddleKind.REAL_PAIR
        assert len(cs.polylines) == 8

    def test_ascents_from_outer_saddle_reach_pm_pi(self, cs):
        outer = [pl for pl in cs.polylines
                 if pl.kind == "ascent" and raw(pl.saddle).real < -1]
        assert len(outer) == 2
        signs = set()
        with mp.workdps(50):
            for pl in outer:
                crossing = next(raw(p) for p in pl.points if raw(p).real >= 8)
                assert abs(abs(crossing.imag) - mp.pi) < mpf("0.01")
                signs.add(crossing.imag > 0)
        assert signs == {True, False}

    def test_saddle_connections(self, cs):
        t0 = next(raw(pl.saddle) for pl in cs.polylines
                  if raw(pl.saddle).real > -1)
        t1 = next(raw(pl.saddle) for pl in cs.polylines
                  if raw(pl.saddle).real < -1)
        joins = [pl for pl in cs.polylines if pl.stop_reason == "saddle"]
        assert len(joins) == 2
        with mp.workdps(50):
            for pl in joins:
                start = raw(pl.saddle)
                target = t1 if start == t0 else t0
                assert abs(raw(pl.points[-1]) - target) < mpf("0.01")
        kinds = {(pl.kind, raw(pl.saddle).real > -1) for pl in joins}
        assert kinds == {("ascent", True), ("descent", False)}

    def test_drift_budget(self, cs):
        for pl in cs.polylines:
            assert raw(pl.im_psi_drift) < DRIFT_BUDGET

    @pytest.mark.parametrize("step", [0.5, 1.0])
    def test_coarse_step_stops_at_the_inner_saddle(self, ctx40, step):
        # the outer saddle's descent towards t0 must stop there, not jump it
        # and run on along t0's own descent wing
        cs = contour_set("1.8", ctx40, step=step)
        t0 = next(raw(pl.saddle) for pl in cs.polylines
                  if raw(pl.saddle).real > -1)
        [pl] = [pl for pl in cs.polylines
                if pl.kind == "descent" and raw(pl.saddle).real < -1
                and pl.points[3].real > pl.points[0].real]
        assert pl.stop_reason == "saddle"
        with mp.workdps(50):
            assert abs(raw(pl.points[-1]) - t0) < mpf("1e-6")


class TestConjugatePair:
    @pytest.fixture
    def cs(self, conjpair_set):
        return conjpair_set

    def test_eight_polylines_with_mirror_symmetry(self, cs):
        assert cs.saddle_kind is SaddleKind.CONJUGATE_PAIR
        assert len(cs.polylines) == 8
        upper = [pl for pl in cs.polylines if raw(pl.saddle).imag > 0]
        lower = [pl for pl in cs.polylines if raw(pl.saddle).imag < 0]
        assert len(upper) == 4 and len(lower) == 4
        with mp.workdps(50):
            for pl in upper:
                mirror = [q for q in lower
                          if q.kind == pl.kind
                          and len(q.points) == len(pl.points)
                          and abs(raw(q.points[-1]) - mp.conj(raw(pl.points[-1])))
                          < mpf("1e-8")]
                assert len(mirror) == 1
                for a, b in zip(pl.points, mirror[0].points):
                    assert abs(mp.conj(raw(a)) - raw(b)) < mpf("1e-8")

    def test_drift_budget(self, cs):
        for pl in cs.polylines:
            assert raw(pl.im_psi_drift) < DRIFT_BUDGET


class TestControls:
    def test_bad_step_rejected(self, ctx40):
        with pytest.raises(DomainError):
            contour_set("1", ctx40, step=0)
        with pytest.raises(DomainError):
            contour_set("1", ctx40, step=-0.1)
        with pytest.raises(DomainError):
            contour_set("1", ctx40, step=0.5, max_len=0.5)
        # real_from refuses a step or max_len that is not a finite number
        with pytest.raises(DomainError, match="expected a finite number"):
            contour_set("1", ctx40, step="nan")
        with pytest.raises(DomainError, match="expected a finite number"):
            contour_set("1", ctx40, max_len="nan")
        # max_len/step over the size cap, refused before any path is traced
        for step, max_len in ((1e-6, None), ("0.000624", None),
                              ("0.1", 0.1 * MAX_LEN_OVER_STEP + 1)):
            with pytest.raises(DomainError, match="max_len/step"):
                contour_set("1", ctx40, step=step, max_len=max_len)

    def test_large_step_still_meets_budget(self, ctx40):
        # projection halving must absorb a coarse nominal step
        cs = contour_set("1", ctx40, step=2.0, max_len=40)
        for pl in cs.polylines:
            assert raw(pl.im_psi_drift) < DRIFT_BUDGET

    def test_determinism(self, ctx40):
        a = contour_set("1.8", ctx40)
        b = contour_set("1.8", ctx40)
        for pa, pb in zip(a.polylines, b.polylines):
            assert pa.stop_reason == pb.stop_reason
            assert pa.points == pb.points

    @pytest.mark.parametrize("xi", ["1e-8", "5e-6", "1e-5", "7.7", "7.8",
                                    "1e3", "1e6", "1e7", "3e7", "1e8", "1e9",
                                    "1e12", "1e100", "1e300"])
    def test_large_xi_traces_or_is_refused(self, xi, ctx40):
        # above xi = 7.735 the inner saddle |t0| ~ 1/(e xi) lies in the
        # |t| < R_MIN origin disc, and below 9.34e-6 the conjugate pair lies
        # right of RE_MAX: their paths would stop after 2 points, so the set
        # is refused up front
        try:
            cs = contour_set(xi, ctx40)
        except DomainError as exc:
            assert not 9.34e-6 < float(xi) < 7.735
            assert "tracing frame" in str(exc)
            assert exc.exit_code == 2
        else:
            assert 9.34e-6 < float(xi) < 7.735
            for pl in cs.polylines:
                assert len(pl.points) > 2, (pl.kind, pl.stop_reason)
                assert raw(pl.im_psi_drift) < DRIFT_BUDGET


def oracle_im_psi(t, mu):
    """Im psi in complex arithmetic with the branched log, at the ambient
    precision."""
    return mp.im(-mp.exp(t) / mu - log_branched_raw(t))


class TestDriftCertificate:
    @pytest.mark.parametrize("xi", ["0.8", "1", "1.8"])
    def test_real_drift_matches_the_complex_oracle(self, xi, ctx120):
        cs = contour_set(xi, ctx120)
        mu = raw(cs.mu)
        for pl in cs.polylines:
            with mp.workdps(LEVEL_DIGITS):
                c = oracle_im_psi(raw(pl.saddle), mu)
            with mp.workdps(MIN_DIGITS):
                drift = max(abs(oracle_im_psi(raw(p), mu) - c)
                            for p in pl.points)
            assert abs(drift - raw(pl.im_psi_drift)) < mpf("1e-25")
            assert _sci(drift, 4) == _sci(raw(pl.im_psi_drift), 4)

    @pytest.mark.parametrize("t", [
        2.0, 0.3, -0.3, -5.0,  # on the real axis, either side of the origin
        1 + 1e-300j, 1 - 1e-300j, -1 + 1e-300j, -1 - 1e-300j,
        3 - 1e-12j, 0.5 - 1e-6j, 7 - 0.01j,  # arg t just under 2 pi
        *(R_MIN * complex(mp.expjpi(k / 8)) for k in range(16)),
    ])
    def test_real_im_psi_on_the_branch_cut(self, t):
        prec = dps_to_prec(MIN_DIGITS)
        with mp.workdps(MIN_DIGITS):
            mu = 1 / mp.e
            got = mp.make_mpf(_im_psi(complex(t), (1 / mu)._mpf_, prec))
            want = oracle_im_psi(mpc(t.real, t.imag), mu)
            tol = mpf("1e-28") * max(1, abs(want))
            assert abs(got - want) <= tol
            if t.imag < 0:  # arg t is atan2 + 2 pi, in (pi, 2 pi)
                principal = mp.im(-mp.exp(mpc(t.real, t.imag)) / mu
                                  - mp.log(mpc(t.real, t.imag)))
                assert abs(got - (principal - 2 * mp.pi)) <= tol

    def test_drift_over_budget_is_refused(self, ctx40, monkeypatch):
        # a loose projection lets Im psi drift ~1e-7 at xi = 1.8
        monkeypatch.setattr(contours, "_PROJ_TOL", 1e-7)
        with pytest.raises(StepError, match="exceeds the 1e-8 budget"):
            contour_set("1.8", ctx40)

    def test_nan_drift_is_refused(self, ctx40, monkeypatch):
        # NaN compares false both ways, so the budget test must be `not <`
        monkeypatch.setattr(contours, "_im_psi", lambda t, inv_mu, prec: fnan)
        with pytest.raises(StepError, match="drift nan exceeds"):
            contour_set("1.8", ctx40)

    @pytest.mark.parametrize("xi", ["0.8", "1", "1.8"])
    def test_paths_do_not_depend_on_digits(self, xi):
        # a path's own values come from LEVEL_DIGITS and its points are
        # doubles; only xi and mu are printed at the context's digits
        outs = [cmd_contours(xi, digits) for digits in (30, 120, 300)]
        for out in outs:
            del out["xi"], out["mu"]
        assert outs[0] == outs[1] == outs[2]


class TestLocalSeries:
    """The flow's series about a saddle s, in doubles, against mpmath."""

    @pytest.mark.parametrize("xi", ["1", "1.000001", "0.999999",
                                    "1.000000000001", "0.999999999999",
                                    "0.8", "1.8"])
    def test_series_against_50_digits(self, xi):
        ctx = mk_context(LEVEL_DIGITS)
        saddles = solve_saddles(mu_from_xi(xi, ctx), ctx)
        with mp.workdps(LEVEL_DIGITS):
            inv_mu = 1 / raw(mu_from_xi(xi, ctx))
            for s in {complex(raw(saddles.t0)): raw(saddles.t0),
                      complex(raw(saddles.t1)): raw(saddles.t1)}.values():
                psi_s = _psi(s, inv_mu)
                flow = _Flow(s, psi_s, inv_mu, -1)
                # |u| from 1e-8 to just inside the series' edge
                top = flow.edge * (1 - 4 * EPS)
                for i in range(25):
                    r = min(top, 1e-8 * (top / 1e-8) ** (i / 24))
                    for j in range(16):
                        u = r * cmath.exp(1j * cmath.pi * j / 8)
                        assert abs(u) <= flow.edge
                        self.check(flow, s, psi_s, inv_mu, u, relative=j % 2)

    @staticmethod
    def check(flow, s, psi_s, inv_mu, u, relative):
        p, d, _ = flow.phase(u)
        assert flow.dpsi(u) == d
        t = s + mpc(u.real, u.imag)  # exact at LEVEL_DIGITS
        want_p = _psi(t, inv_mu) - psi_s
        want_d = -mp.exp(t) * inv_mu - 1 / t
        if relative:
            # at odd multiples of pi/8: a few ulps relative
            assert abs(p - want_p) <= 16 * EPS * abs(want_p), (s, u)
            assert abs(d - want_d) <= 16 * EPS * abs(want_d), (s, u)
        else:
            # at multiples of pi/4, the real and imaginary axes among them:
            # these hold the other saddle of a near-coalescent pair and the
            # zeros of psi(s+u) - psi(s), where nothing is accurate relative
            # to the value, so a Horner sum's bound holds, 2 _TERMS eps times
            # the sum of its terms' magnitudes
            r, ks = abs(u), range(_TERMS, 1, -1)
            terms_p = sum(abs(a) * r ** k for k, a in zip(ks, flow.a))
            terms_d = sum(abs(b) * r ** (k - 1) for k, b in zip(ks, flow.b))
            assert abs(p - want_p) <= 2 * _TERMS * EPS * terms_p, (s, u)
            assert abs(d - want_d) <= 2 * _TERMS * EPS * terms_d, (s, u)

    @pytest.mark.parametrize("xi", ["1.000000000001", "1.000001", "1.0001"])
    def test_paths_between_a_near_coalescent_pair_reach_it(self, xi, ctx40):
        # the ascent from t0 and the descent from t1 each stop at the other
        cs = contour_set(xi, ctx40)
        joins = [pl for pl in cs.polylines if pl.stop_reason == "saddle"]
        assert sorted((pl.kind, raw(pl.saddle).real > -1) for pl in joins) \
            == [("ascent", True), ("descent", False)]
        with mp.workdps(LEVEL_DIGITS):
            t0, t1 = sorted({raw(pl.saddle) for pl in joins},
                            key=lambda t: -t.real)
            for pl in joins:
                other = t1 if raw(pl.saddle) == t0 else t0
                assert abs(mpc(pl.points[-1]) - other) < mpf("1e-9")
