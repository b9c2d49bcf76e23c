"""The scripts the README advertises run end to end."""
import contextlib
import importlib.util
import io
import json
from pathlib import Path

import mpmath
import pytest
from mpmath import mp

from touchard import mk_context, real_from, wrap_real
from touchard.airy import maclaurin_limit
from touchard.cli import cmd_contours, cmd_table1, cmd_table2, load_error_rows
from touchard.numkernel import raw

from stirling_oracle import integer_scaled_touchard
from test_contour_port import GOLDEN

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def parity_set(tmp_path_factory):
    """Run scripts/parity_set.py once at 40 digits; return (script, outdir, stdout)."""
    script = load_script("parity_set")
    outdir = tmp_path_factory.mktemp("parity_set")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        script.main(["--outdir", str(outdir), "--digits", "40"])
    return script, outdir, out.getvalue()


def test_parity_set_writes_every_output(parity_set):
    script, outdir, out = parity_set
    evals = [f"eval_n{n}_xi{xi}.json" for n, xi in script.EVAL_POINTS]
    contours = [f"contours_xi{xi}.json" for xi in script.CONTOUR_XI]
    names = ["table1.csv", "table2.csv", "refusals.txt", "theorem2.txt",
             *evals, *contours]
    assert sorted(p.name for p in outdir.iterdir()) == sorted(names)
    assert f"wrote {len(names)} files" in out
    for (n, xi), name in zip(script.EVAL_POINTS, evals):
        report = json.loads((outdir / name).read_text())
        assert (report["n"], report["digits"]) == (int(n), 40)
        assert report["exact"]["verified"]
    codes = [line.rsplit(" ", 1)[1]
             for line in (outdir / "refusals.txt").read_text().splitlines()]
    assert codes == ["2"] * 6
    lines = (outdir / "theorem2.txt").read_text().splitlines()
    assert len(lines) == 2 * len(script.THEOREM2_N) * len(script.THEOREM2_XI)
    assert all(line.endswith("@40") or line.endswith("exit 2")
               for line in lines)


def test_run_tables_writes_the_cli_tables(parity_set):
    _, outdir, _ = parity_set
    for name, cmd in (("table1", cmd_table1), ("table2", cmd_table2)):
        text = (outdir / f"{name}.csv").read_text()
        assert text == cmd(digits=40)
        assert len(load_error_rows(text)) == len(text.splitlines()) - 1


def test_trace_contours_writes_reloadable_json(parity_set):
    script, outdir, _ = parity_set
    for xi in script.CONTOUR_XI:
        report = json.loads((outdir / f"contours_xi{xi}.json").read_text())
        assert report == cmd_contours(xi, digits=40)
        for pl in report["polylines"]:
            assert float(pl["im_psi_drift"]) < 1e-8
            assert all(c.endswith("@30") for pt in pl["points"] for c in pt)
    report = json.loads((outdir / "contours_xi1.json").read_text())
    assert report["saddle_kind"] == "double"
    assert len(report["polylines"]) == 6


def test_contour_sweep_subset_keeps_the_golden_paths(tmp_path):
    # 3 of the 48 sets, the golden xi at 40 digits
    script = load_script("contour_sweep")
    assert len(script.SWEEP_XI) == 16 and script.DIGITS == (40, 120, 300)
    assert set(GOLDEN) <= set(script.SWEEP_XI)
    paths = script.sweep([(xi, 40) for xi in GOLDEN], tmp_path)
    assert [p.name for p in paths] == [f"contours_xi{xi}_d40.json"
                                       for xi in GOLDEN]
    for xi, path in zip(GOLDEN, paths):
        polylines = json.loads(path.read_text())["polylines"]
        assert [(pl["kind"], pl["stop_reason"], len(pl["points"]))
                for pl in polylines] == [g[:3] for g in GOLDEN[xi]]
        for pl, (*_, end) in zip(polylines, GOLDEN[xi]):
            x, y = (float(c.split("@")[0]) for c in pl["points"][-1])
            assert abs(complex(x, y) - complex(*end)) < 1e-6
            assert float(pl["im_psi_drift"]) < 1e-8


def test_error_decay_prints_both_studies(capsys):
    load_script("error_decay").main(["--n-ladder", "50", "100", "--n", "50",
                                     "--max-order", "4", "--digits", "40"])
    out = capsys.readouterr().out
    assert "# poincare, mu = 0.2" in out
    assert "# coalescence series truncation, n = 50" in out


def test_exact_sweep_subset_prints_the_oracle(tmp_path):
    # 20 of the 600 points, the first ten with n <= 150 and the first ten
    # above; the oracle's integer row checks the ten small ones
    script = load_script("exact_sweep")
    pts = script.points(1)
    assert len(pts) == script.POINTS
    small = [pt for pt in pts if pt[0] <= 150][:10]
    subset = small + [pt for pt in pts if pt[0] > 150][:10]
    script.sweep(subset, tmp_path / "sweep.txt")
    lines = (tmp_path / "sweep.txt").read_text().splitlines()
    assert len(lines) == 20
    for (n, x, digits), text in zip(subset, lines):
        head, value, cancel = text.rsplit(" ", 2)
        assert head == f"n={n} x={x} digits={digits}:"
        assert value.endswith(f"@{digits}")
        if n <= 150:
            ctx = mk_context(digits)
            z = real_from("-" + x, ctx)
            want, count = integer_scaled_touchard(n, raw(z))
            assert value == wrap_real(want, ctx).to_str(), text
            assert int(cancel) == count, text


def test_airy_sweep_subset_prints_mpmath(tmp_path):
    # 20 of the 408 points, both edges of each digits among them
    script = load_script("airy_sweep")
    pts = script.points(1)
    assert len(pts) == script.POINTS + 2 * len(script.DIGITS)
    for d in script.DIGITS:
        assert script.edge(d) == maclaurin_limit(d)
    subset = pts[:12] + pts[-8:]
    script.sweep(subset, tmp_path / "sweep.txt")
    lines = (tmp_path / "sweep.txt").read_text().splitlines()
    assert len(lines) == 20
    for (z, digits), text in zip(subset, lines):
        head, ai, aip = text.rsplit(" ", 2)
        assert head == f"z={z} digits={digits}:"
        ctx = mk_context(digits)
        zv = raw(real_from(z, ctx))
        with mp.workdps(digits + 20):
            want = [wrap_real(mpmath.airyai(zv, k), ctx).to_str() for k in (0, 1)]
        assert [ai, aip] == want, text
