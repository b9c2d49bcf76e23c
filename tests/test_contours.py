"""Steepest-path tracer: launch geometry, drift budget, regime topology."""
import cmath
import inspect
import math
import sys

import pytest
from mpmath import mp, mpc, mpf

from touchard import (DomainError, SaddleKind, StepError, mk_context,
                      mu_from_xi, solve_saddles, working_digits)
from touchard import contours
from touchard.cli import _sci, cmd_contours, contours_to_json
from touchard.contours import (DRIFT_BUDGET, IM_MAX, LEVEL_DIGITS,
                               MAX_LEN_OVER_STEP, R_MIN, RE_MAX, RE_MIN,
                               _TERMS, _Flow, _im_psi, _outside, contour_set)
from touchard.numkernel import MIN_DIGITS, log_branched_raw, raw
from touchard.saddle import psi_reduced_raw

from test_contour_port import MONOTONE_SLACK, re_psi_backtrack
from test_scripts import load_script

EPS = 2.0 ** -52
CONTOUR_XI = load_script("parity_set").CONTOUR_XI


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
# digits
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
        # is refused up front, naming the edge as the step loop would
        try:
            cs = contour_set(xi, ctx40)
        except DomainError as exc:
            assert not 9.34e-6 < float(xi) < 7.735
            edge = "origin" if float(xi) > 1 else "re_max"
            assert f"tracing frame ({edge})" in str(exc)
            assert exc.exit_code == 2
        else:
            assert 9.34e-6 < float(xi) < 7.735
            for pl in cs.polylines:
                assert len(pl.points) > 2, (pl.kind, pl.stop_reason)
                assert raw(pl.im_psi_drift) < DRIFT_BUDGET

    @pytest.mark.parametrize("edge, inside, past", [
        ("re_max", complex(RE_MAX, 1), complex(math.nextafter(RE_MAX, 9), 1)),
        ("re_min", complex(RE_MIN, 1), complex(math.nextafter(RE_MIN, -9), 1)),
        ("im_max", complex(1, IM_MAX), complex(1, math.nextafter(IM_MAX, 9))),
        ("im_max", complex(1, -IM_MAX),
         complex(1, -math.nextafter(IM_MAX, 9))),
        ("origin", complex(R_MIN, 0), complex(math.nextafter(R_MIN, 0), 0)),
        ("origin", complex(0, -R_MIN), complex(0, -math.nextafter(R_MIN, 0))),
    ])
    def test_frame_edges_are_inside(self, edge, inside, past):
        # one frame for the step loop (complex) and the refusal (mpc)
        for kind in (complex, mpc):
            assert _outside(kind(inside)) is None
            assert _outside(kind(past)) == edge


def retry_hits(call):
    """call() and the times _trace took its projection-failure retry, the
    h = h / 2 under `if proj is None and headway`, counted by a line trace."""
    lines, start = inspect.getsourcelines(contours._trace)
    line = start + 1 + next(i for i, text in enumerate(lines)
                            if "if proj is None and headway:" in text)
    code, hits = contours._trace.__code__, []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == line:
            hits.append(frame.f_lineno)
        return local

    before = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 local if frame.f_code is code else None)
    try:
        got = call()
    finally:
        sys.settrace(before)
    return got, len(hits)


class TestProjectionRetry:
    # a coarse step whose RK4 point makes headway but cannot be projected
    # back onto the level is retried at half the step; these two sets reach
    # that branch, no golden contour or workload does
    STOPS = {
        "0.3": ["im_max", "re_max", "re_max", "origin",
                "re_max", "im_max", "re_max", "origin"],
        "7": ["re_max", "re_max", "origin", "saddle",
              "saddle", "re_min", "re_max", "re_max"],
    }

    @pytest.mark.parametrize("digits", [40, 120])
    @pytest.mark.parametrize("xi, step, retries", [("0.3", 1, 2),
                                                   ("7", 2, 1)])
    def test_retry_keeps_the_flow_and_the_budget(self, xi, step, retries,
                                                 digits):
        cs, hits = retry_hits(lambda: contour_set(xi, mk_context(digits),
                                                  step=step))
        assert hits == retries
        assert [pl.stop_reason for pl in cs.polylines] == self.STOPS[xi]
        with mp.workdps(50):
            mu = raw(cs.mu)
            for pl in cs.polylines:
                assert re_psi_backtrack(pl, mu) <= MONOTONE_SLACK
                assert raw(pl.im_psi_drift) < DRIFT_BUDGET


def oracle_psi(t, inv_mu):
    """psi(t) = -e^t/mu - log t with the branched log, at the ambient
    precision."""
    return -mp.exp(t) * inv_mu - log_branched_raw(t)


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
        with mp.workdps(MIN_DIGITS):
            mu = 1 / mp.e
            got = _im_psi(complex(t), 1 / mu)
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
        monkeypatch.setattr(contours, "_im_psi", lambda t, inv_mu: mp.nan)
        with pytest.raises(StepError, match="drift nan exceeds"):
            contour_set("1.8", ctx40)

    @pytest.mark.parametrize("xi,step", [(xi, None) for xi in CONTOUR_XI]
                             + [("1.8", 0.5), ("1.8", 1.0)])
    def test_drift_is_the_maximum_over_every_point(self, xi, step, ctx40,
                                                   monkeypatch):
        # the two passes return the brute-force maximum, the same mpf; every
        # estimate lies within its bound of the 30-digit value, and every
        # point that the bounds cannot rule out is recomputed
        seen = set()
        monkeypatch.setattr(contours, "_im_psi",
                            lambda t, *a: seen.add(t) or _im_psi(t, *a))
        cs = contour_set(xi, ctx40, step=step)
        with mp.workdps(ctx40.digits + 10):
            inv_mu = 1 / raw(cs.mu)
        for pl in cs.polylines:
            with mp.workdps(LEVEL_DIGITS):
                c = psi_reduced_raw(raw(pl.saddle)).imag
            with mp.workdps(MIN_DIGITS):
                inv30 = +inv_mu
                drifts = {t: abs(_im_psi(t, inv30) - c) for t in pl.points}
                assert raw(pl.im_psi_drift) == max(drifts.values())
                est = list(contours._estimates(pl.points, float(inv_mu),
                                               float(c)))
            for t, v, b in est:
                assert abs(v - drifts[t]) <= b
            low = max((v - b for _, v, b in est), default=-math.inf)
            assert low <= max(drifts.values())
            assert all(t in seen for t, v, b in est if v + b >= low)

    def test_few_points_take_30_digits(self, ctx40, monkeypatch):
        # pass 1 rules out all but a few dozen of the 4520 points
        calls = []
        monkeypatch.setattr(contours, "_im_psi",
                            lambda t, *a: calls.append(t) or _im_psi(t, *a))
        points = sum(len(pl.points) for xi in ("0.8", "1", "1.8")
                     for pl in contour_set(xi, ctx40).polylines)
        assert points == 4520
        assert len(calls) <= 100

    def test_nan_estimate_keeps_its_point(self, ctx40, monkeypatch):
        # `not v + b < low` keeps a point whose estimate is NaN, and a NaN
        # v - b never becomes low
        seen, estimates = [], contours._estimates
        monkeypatch.setattr(contours, "_im_psi",
                            lambda t, *a: seen.append(t) or _im_psi(t, *a))
        want = contour_set("1.8", ctx40)
        before = len(seen)
        # the first point of each path off the axis that is not recomputed,
        # here the first estimate of its path
        targets = [next(t for t in pl.points if t.imag and t not in seen)
                   for pl in want.polylines
                   if any(t.imag for t in pl.points)]

        def nan_at_targets(pts, *args):
            for t, v, b in estimates(pts, *args):
                yield t, math.nan if t in targets else v, b

        monkeypatch.setattr(contours, "_estimates", nan_at_targets)
        seen.clear()
        got = contour_set("1.8", ctx40)
        assert all(t in seen for t in targets)
        assert len(seen) == before + len(targets)
        assert ([raw(pl.im_psi_drift) for pl in got.polylines]
                == [raw(pl.im_psi_drift) for pl in want.polylines])

    def test_one_nan_drift_is_refused(self, ctx40, monkeypatch):
        # a NaN drift after a finite one of the same path tops the maximum
        seen = []
        monkeypatch.setattr(contours, "_im_psi",
                            lambda t, *a: seen.append(t) or _im_psi(t, *a))
        cs = contour_set("0.8", ctx40)
        recomputed = ([t for t in pl.points if t in seen]
                      for pl in cs.polylines)
        target = next(ts[1] for ts in recomputed if len(ts) > 1)
        monkeypatch.setattr(
            contours, "_im_psi",
            lambda t, *a: mp.nan if t == target else _im_psi(t, *a))
        with pytest.raises(StepError, match="drift nan exceeds"):
            contour_set("0.8", ctx40)

    @pytest.mark.parametrize("xi", ["0.8", "1", "1.8"])
    def test_paths_do_not_depend_on_digits(self, xi):
        # a path's own values come from LEVEL_DIGITS and its points are
        # doubles; only xi and mu are printed at the context's digits
        outs = [cmd_contours(xi, digits) for digits in (30, 120, 300)]
        for out in outs:
            del out["xi"], out["mu"]
        assert outs[0] == outs[1] == outs[2]


def paths(report):
    """A contours report without xi, mu and the saddle strings: the parts
    that come from LEVEL_DIGITS and doubles alone."""
    return report["saddle_kind"], [
        {**{k: v for k, v in pl.items() if k != "saddle"},
         "points": pl["points"][1:]} for pl in report["polylines"]]


class TestNearCoalescence:
    """Near xi = 1, contour_set's near-pair rule alone finds the double
    saddle."""

    @pytest.mark.parametrize("xi,lines", [
        ("1.0000000000000001", 8), ("0.999999999999999", 8),
        ("1.00000000000000000001", 6), ("0.99999999999999999999", 6)])
    def test_paths_do_not_depend_on_digits(self, xi, lines):
        # the saddle strings carry mu's rounding to the context, the paths
        # do not: a pair 2.8e-8 or 4.5e-8 apart traces its 8 paths at both
        outs = [paths(cmd_contours(xi, digits)) for digits in (30, 120)]
        assert outs[0] == outs[1]
        assert len(outs[0][1]) == lines

    @pytest.mark.parametrize("xi", ["1.0000000000000001",
                                    "0.9999999999999999"])
    def test_paths_keep_their_shape_at_every_digits(self, xi):
        # a pair 2.8e-8 apart moves by about 4e-24 with mu's rounding to 30
        # digits, and at 1 - 1e-16 the doubles launched from it by an ulp:
        # points next to the saddle may differ, kind, stop, count and drift
        # may not
        outs = [cmd_contours(xi, digits) for digits in (30, 120)]
        assert outs[0]["saddle_kind"] == outs[1]["saddle_kind"]
        assert len(outs[0]["polylines"]) == len(outs[1]["polylines"]) == 8
        for a, b in zip(*(out["polylines"] for out in outs)):
            for key in ("kind", "stop_reason", "im_psi_drift"):
                assert a[key] == b[key]
            assert len(a["points"]) == len(b["points"])

    @pytest.mark.parametrize("xi", ["1.00000000000000000000000001",
                                    "0.99999999999999999999999999"])
    def test_near_pair_prints_its_midpoint(self, xi, ctx40):
        report = cmd_contours(xi, 40)
        assert report["saddle_kind"] == "double"
        pair = solve_saddles(mu_from_xi(xi, ctx40),
                             working_digits(ctx40, 1))
        with mp.workdps(40):
            mid = (raw(pair.t0) + raw(pair.t1)) / 2
        want = [_sci(v, 30) + "@30" for v in (mid.real, mid.imag)]
        assert want[0] != "-1." + "0" * 29 + "e+00@30"
        for pl in report["polylines"]:
            assert pl["saddle"] == pl["points"][0] == want
        if xi.startswith("1."):
            assert want[0] == "-1.00000000000000000000000000667e+00@30"


class TestJsonPoints:
    @pytest.mark.parametrize("digits", [40, 120])
    def test_float_writer_matches_sci(self, digits):
        # contours_to_json writes points by Python's format, which rounds an
        # exact 30-digit tie to even where _sci rounds it away from zero; no
        # point of these sets is such a tie
        ctx, count = mk_context(digits), 0
        for xi in ("0.8", "1", "1.8"):
            cs = contour_set(xi, ctx)
            for pl, out in zip(cs.polylines,
                               contours_to_json(cs)["polylines"]):
                for p, texts in zip(pl.points[1:], out["points"][1:]):
                    assert texts == [_sci(mpf(v), 30) + "@30"
                                     for v in (p.real, p.imag)]
                    count += 2
        assert count == 8996  # the points of the golden sets, 30 digits each


class TestLocalSeries:
    """The flow's series about a saddle s, in doubles, against mpmath."""

    @pytest.mark.parametrize("xi", ["1", "1.000001", "0.999999",
                                    "1.000000000001", "0.999999999999",
                                    "0.8", "1.8"])
    def test_series_against_50_digits(self, xi):
        ctx = mk_context(LEVEL_DIGITS)
        saddles = solve_saddles(mu_from_xi(xi, ctx),
                                working_digits(ctx, 1))
        with mp.workdps(LEVEL_DIGITS):
            inv_mu = 1 / raw(mu_from_xi(xi, ctx))
            for s in {complex(raw(saddles.t0)): raw(saddles.t0),
                      complex(raw(saddles.t1)): raw(saddles.t1)}.values():
                psi_s = oracle_psi(s, inv_mu)
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
        want_p = oracle_psi(t, inv_mu) - psi_s
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
