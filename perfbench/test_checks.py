"""Each benchmark check passes the program's output and rejects a value
perturbed past its tolerance.

    python3 -m pytest -q perfbench/test_checks.py
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest
from mpmath import mp, mpf

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import oracles  # noqa: E402
from touchard import cli, coalescence, poincare, uniform  # noqa: E402
from touchard.numkernel import mk_context, wrap_real  # noqa: E402

CTX = mk_context(120)
# 10^10 times the 1e-110 tolerance of value checks
NUDGE = mpf("1e-100")


def nudged(serial: str, rel=NUDGE) -> str:
    """A serialized real moved by `rel` of its size, in the same format."""
    with mp.workdps(oracles.ORACLE_DPS):
        v = oracles.parse_serial(serial)
        return wrap_real(v * (1 + rel) if v else rel, CTX).to_str()


def table_rows(csv_text: str):
    lines = csv_text.splitlines()
    return lines[0], [ln.split(",") for ln in lines[1:]]


def with_cell(csv_text: str, row: int, col: int, value: str) -> str:
    header, rows = table_rows(csv_text)
    rows[row][col] = value
    return "\n".join([header] + [",".join(r) for r in rows]) + "\n"


def bad(op, out) -> list[str]:
    return checks.check_output(op, out).bad


@pytest.fixture(scope="module")
def table1():
    return cli.cmd_table1()


@pytest.fixture(scope="module")
def table2():
    return cli.cmd_table2()


@pytest.fixture(scope="module")
def evals():
    return {xi: cli.cmd_eval(100, xi) for xi in ("0.9", "1", "1.03")}


@pytest.fixture(scope="module")
def contours():
    return {xi: cli.cmd_contours(xi, max_len="4") for xi in ("1", "1.8")}


# ---------------------------------------------------------------------------
# the program's own output passes

def test_program_output_passes(table1, table2, evals):
    for op, out in ((["table1"], table1), (["table2"], table2)):
        found = checks.check_output(op, out)
        assert found.bad == []
        # the exact column carries the known fault, on every row
        assert len(found.faults) == {"table1": 15, "table2": 20}[op[0]]
    for xi, report in evals.items():
        found = checks.check_output(["eval", 100, xi], report)
        assert found.bad == [] and len(found.faults) == 1


def test_asymptotic_output_passes():
    for n, xi in ((100, "0.8"), (10 ** 4, "0.9"), (10 ** 6, "1.2"), (100, "2.8")):
        assert bad(["theorem2", n, xi],
                   uniform.theorem2_eval(n, xi, CTX).to_str()) == []
    assert bad(["theorem1", 10 ** 4, 6],
               coalescence.theorem1_eval(10 ** 4, 6, CTX).to_str()) == []
    for xi in ("0.6", "1.5"):
        with mp.workdps(130):
            mu = 1 / (mp.e * mpf(xi))
        res = poincare.leading_order(10 ** 6, mu, CTX)
        assert bad(["leading_order", 10 ** 6, xi],
                   {"value": res.value.to_str(),
                    "regime": res.regime.value}) == []


# ---------------------------------------------------------------------------
# exact values

def test_exact_value_perturbed(evals):
    report = dict(evals["0.9"])
    report["exact"] = dict(report["exact"], value=nudged(report["exact"]["value"]))
    assert any("exact" in m for m in bad(["eval", 100, "0.9"], report))


def test_exact_check_tells_the_fault_from_a_wrong_value():
    x = oracles.x_at(100, "0.9")
    right, _ = oracles.scaled_touchard_neg(99, x)
    at_double, _ = oracles.scaled_touchard_neg(99, oracles.to_double(x))
    for value, bad_count, fault_count in ((right, 0, 0), (at_double, 0, 1),
                                          (right * (1 + NUDGE), 1, 0)):
        found = checks.Findings()
        checks.check_exact(found, "eval", value, 100, x)
        assert (len(found.bad), len(found.faults)) == (bad_count, fault_count)


def test_cancellation_digits_checked(evals):
    report = dict(evals["1"])
    report["exact"] = dict(report["exact"],
                           cancellation_digits=report["exact"]["cancellation_digits"] + 1)
    assert any("cancelled" in m for m in bad(["eval", 100, "1"], report))


def test_eval_header_perturbed(evals):
    report = evals["1.03"]
    for key in ("xi", "x", "mu"):
        assert any(key in m for m in
                   bad(["eval", 100, "1.03"], dict(report, **{key: nudged(report[key])})))
    unverified = dict(report, exact=dict(report["exact"], verified=False))
    assert any("verified" in m for m in bad(["eval", 100, "1.03"], unverified))


def test_table_exact_perturbed(table1):
    _, rows = table_rows(table1)
    csv = with_cell(table1, 4, 2, nudged(rows[4][2]))
    assert any("exact" in m for m in bad(["table1"], csv))


# ---------------------------------------------------------------------------
# asymptotic values

def test_table_approx_perturbed(table1, table2):
    for op, csv in ((["table1"], table1), (["table2"], table2)):
        _, rows = table_rows(csv)
        assert any("approx" in m for m in
                   bad(op, with_cell(csv, 7, 3, nudged(rows[7][3]))))


@pytest.mark.parametrize("n,xi", [(100, "0.8"), (10 ** 4, "0.9"),
                                  (10 ** 6, "1.2"), (100, "2.8"), (100, "1")])
def test_theorem2_perturbed(n, xi):
    _, scale = oracles.uniform_value(n, xi)
    value = uniform.theorem2_eval(n, xi, CTX)
    with mp.workdps(oracles.ORACLE_DPS):
        moved = wrap_real(value.value + NUDGE * scale, CTX).to_str()
    assert bad(["theorem2", n, xi], moved)


def test_theorem1_perturbed():
    value = coalescence.theorem1_eval(10 ** 4, 6, CTX).to_str()
    assert bad(["theorem1", 10 ** 4, 6], nudged(value))
    # one order short of the requested one is far outside the tolerance
    fewer = coalescence.theorem1_eval(10 ** 4, 4, CTX).to_str()
    assert bad(["theorem1", 10 ** 4, 6], fewer)


def test_leading_order_perturbed():
    with mp.workdps(130):
        mu = 1 / (mp.e * mpf("1.5"))
    res = poincare.leading_order(10 ** 6, mu, CTX)
    out = {"value": res.value.to_str(), "regime": res.regime.value}
    assert bad(["leading_order", 10 ** 6, "1.5"], dict(out, value=nudged(out["value"])))
    assert bad(["leading_order", 10 ** 6, "1.5"], dict(out, regime="above"))


def test_eval_methods_perturbed(evals):
    for xi, key in (("0.9", "poincare"), ("1", "theorem1"), ("1.03", "theorem2")):
        report = dict(evals[xi])
        entry = report["methods"][key]
        methods = dict(report["methods"])
        methods[key] = dict(entry, value=nudged(entry["value"]))
        assert bad(["eval", 100, xi], dict(report, methods=methods))
        del methods[key]
        assert bad(["eval", 100, xi], dict(report, methods=methods))


def test_saddles_perturbed(evals):
    for xi in ("0.9", "1.03"):
        report = evals[xi]
        for key in ("t0", "t1"):
            re_s, im_s = report["saddles"][key][1:-1].split(",")
            moved = f"({nudged(re_s)},{im_s})"
            saddles = dict(report["saddles"], **{key: moved})
            assert bad(["eval", 100, xi], dict(report, saddles=saddles))
        for key in ("zeta", "re_beta", "A0", "B0"):
            saddles = dict(report["saddles"],
                           **{key: nudged(report["saddles"][key])})
            assert bad(["eval", 100, xi], dict(report, saddles=saddles))


# ---------------------------------------------------------------------------
# error columns against the paper

def test_rel_err_against_the_paper(table1, table2):
    # two units off the printed value, and no longer the rounded oracle
    _, rows = table_rows(table1)
    found = bad(["table1"], with_cell(table1, 0, 4, "2.516e-01"))
    assert any("paper" in m for m in found) and any("rounded" in m for m in found)
    # the erratum cell: the printed 5.300e-3 is rejected, 5.296e-3 accepted
    assert checks.within_units("cell", "5.300e-03", "5.296e-3", 1)
    assert not checks.within_units("cell", "5.296e-03", "5.296e-3", 1)
    _, rows = table_rows(table2)
    assert rows[10][0] == "81" and rows[10][1].startswith("1.010")
    assert rows[10][4] == "5.296e-03"
    # exactly one unit off is within the tolerance
    assert not checks.within_units("edge", "2.515e-01", "2.514e-1", 1)


def test_csv_reload(table2):
    _, rows = table_rows(table2)
    # a rel_err that disagrees with its own row makes the reader refuse it
    found = checks.Findings()
    checks.check_reload(found, with_cell(table2, 3, 4, "1.000e-03"), "table2", 20)
    assert any("load_error_rows" in m for m in found.bad)
    found = checks.Findings()
    checks.check_reload(found, table2, "table2", 20)
    assert found.bad == []


# ---------------------------------------------------------------------------
# contours

def test_contours_pass(contours):
    for xi, report in contours.items():
        assert bad(["contours", xi, "4"], report) == []


def _polyline(report, i, **changes):
    lines = [dict(pl) for pl in report["polylines"]]
    lines[i].update(changes)
    return dict(report, polylines=lines)


def _move(p, dt):
    with mp.workdps(50):
        t = mp.mpc(oracles.parse_serial(p[0]), oracles.parse_serial(p[1])) + dt
        return [mp.nstr(mp.re(t), 30), mp.nstr(mp.im(t), 30)]


def test_contour_drift_rejected(contours):
    report = contours["1.8"]
    pts = [list(p) for p in report["polylines"][0]["points"]]
    k = len(pts) // 2
    with mp.workdps(50):
        t = mp.mpc(oracles.parse_serial(pts[k][0]), oracles.parse_serial(pts[k][1]))
        mu = oracles.parse_serial(report["mu"])
        d = oracles.dpsi(t, mu)
        normal = 1j * mp.conj(d) / abs(d)  # moves Im psi by |psi'| per unit
    pts[k] = _move(pts[k], mpf("1e-6") * normal)
    assert any("drifts" in m for m in bad(["contours", "1.8", "4"],
                                          _polyline(report, 0, points=pts)))


def test_contour_monotone_rejected(contours):
    report = contours["1"]
    for i, pl in enumerate(report["polylines"]):
        pts = list(pl["points"])
        k = len(pts) // 2
        pts[k], pts[k + 1] = pts[k + 1], pts[k]
        assert any("turns back" in m for m in
                   bad(["contours", "1", "4"], _polyline(report, i, points=pts)))


def test_contour_count_saddle_and_stop_rejected(contours):
    report = contours["1.8"]
    assert any("mu" in m for m in
               bad(["contours", "1.8", "4"], dict(report, mu=nudged(report["mu"]))))
    fewer = dict(report, polylines=report["polylines"][1:])
    assert any("polylines" in m for m in bad(["contours", "1.8", "4"], fewer))
    pl = report["polylines"][2]
    saddle = _move(pl["saddle"], mpf("1e-10"))
    assert any("saddle misses" in m for m in
               bad(["contours", "1.8", "4"], _polyline(report, 2, saddle=saddle)))
    assert any("undocumented" in m for m in
               bad(["contours", "1.8", "4"],
                   _polyline(report, 2, stop_reason="iteration_cap")))
    far = [pl for pl in report["polylines"] if pl["stop_reason"] == "max_len"]
    idx = report["polylines"].index(far[0])
    assert any("stops" in m for m in
               bad(["contours", "1.8", "4"],
                   _polyline(report, idx, stop_reason="origin")))
