"""Golden geometry of the contour tracer, pinned at 40 digits.

For every polyline at xi = 0.8, 1 and 1.8 this pins the kind, the stop
reason, the point count and the endpoint (within 1e-6). On every polyline
it also checks that Re psi moves with the flow at 50 digits, and that the
first recorded motion leaves the saddle in the launch direction. The
40-digit counts equal the 120-digit ones.
"""
import pytest
from mpmath import mp, mpc, mpf

from touchard.contours import contour_set
from touchard.numkernel import raw

# emitted points carry at least 30 digits; Re psi may move this much by
# rounding alone
MONOTONE_SLACK = mpf("1e-24")

GOLDEN = {
    "0.8": [
        ("descent", "re_max", 245, (8.4254245267578642, 0.00030758903113263836)),
        ("descent", "re_min", 212, (-8.5383750386273288, 0.77616846832344686)),
        ("ascent", "origin", 80, (-0.03968786409559866, 0.0039242631473506561)),
        ("ascent", "re_max", 269, (8.4068417795604119, 3.1413160167404562)),
        ("descent", "re_min", 212, (-8.5383750386273288, -0.77616846832344686)),
        ("descent", "re_max", 245, (8.4254245267578642, -0.00030758903113263836)),
        ("ascent", "origin", 80, (-0.03968786409559866, -0.0039242631473506561)),
        ("ascent", "re_max", 269, (8.4068417795604119, -3.1413160167404562)),
    ],
    "1": [
        ("descent", "re_max", 252, (8.4318857619805681, 0.00025172700566917688)),
        ("descent", "re_max", 252, (8.4318857619805681, -0.00025172700566917688)),
        ("descent", "re_min", 208, (-8.5260096477626847, 0.0)),
        ("ascent", "origin", 77, (-0.023990352237315325, 0.0)),
        ("ascent", "re_max", 288, (8.4094717644634384, 3.1413645132404253)),
        ("ascent", "re_max", 288, (8.4094717644634384, -3.1413645132404253)),
    ],
    "1.8": [
        ("descent", "re_max", 236, (8.4469454197134541, 0.00013775864037748397)),
        ("descent", "re_max", 236, (8.4469454197134541, -0.00013775864037748397)),
        ("ascent", "origin", 62, (-0.040888370855995897, 0.0)),
        ("ascent", "saddle", 106, (-2.5067931074620944, 0.0)),
        ("descent", "saddle", 109, (-0.2668979681395476, 0.0)),
        ("descent", "re_min", 178, (-8.5327991738068936, 0.0)),
        ("ascent", "re_max", 308, (8.427162274694694, -3.1414681011098308)),
        ("ascent", "re_max", 308, (8.427162274694694, 3.1414681011098308)),
    ],
}


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def traced(request, ctx40):
    return request.param, contour_set(request.param, ctx40)


def re_psi_backtrack(pl, mu):
    """Largest move of Re psi against the flow between consecutive points."""
    sign = -1 if pl.kind == "descent" else 1
    pts = [mpc(p) for p in pl.points]  # exact, so abs() runs at 50 digits
    vals = [-mp.re(mp.exp(p)) / mu - mp.log(abs(p)) for p in pts]
    return max(sign * (a - b) for a, b in zip(vals, vals[1:]))


def test_stop_reasons_counts_and_endpoints(traced):
    xi, cs = traced
    got = [(pl.kind, pl.stop_reason, len(pl.points)) for pl in cs.polylines]
    assert got == [g[:3] for g in GOLDEN[xi]]
    with mp.workdps(50):
        for pl, (_, _, _, end) in zip(cs.polylines, GOLDEN[xi]):
            assert abs(mpc(pl.points[-1]) - mpc(*end)) < mpf("1e-6")


def test_re_psi_monotone(traced):
    _, cs = traced
    with mp.workdps(50):
        mu = raw(cs.mu)
        for pl in cs.polylines:
            assert re_psi_backtrack(pl, mu) <= MONOTONE_SLACK


def test_launch_directions(traced):
    _, cs = traced
    with mp.workdps(50):
        for pl in cs.polylines:
            # points[3] is ~3e-8 out, far past launch noise
            d = mp.arg(mpc(pl.points[3]) - raw(pl.saddle)) - pl.launch_theta
            d = (d + mp.pi) % (2 * mp.pi) - mp.pi
            assert abs(d) < mpf("1e-6")


def test_coarse_step_keeps_re_psi_monotone(ctx40):
    # at step 2.0 RK4 overshoots the origin on the xi = 1 ascent towards it;
    # the step must be refused, not recorded as a step back
    cs = contour_set("1", ctx40, step=2.0)
    with mp.workdps(50):
        mu = raw(cs.mu)
        for pl in cs.polylines:
            assert re_psi_backtrack(pl, mu) <= MONOTONE_SLACK
