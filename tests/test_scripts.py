"""The scripts the README advertises run end to end.

scripts/parity_set.py takes about 20 s; these tests run each of
its parts on a small subset: the 40-digit set, the golden contours at 40
digits, 20 exact points and 20 Airy points.
"""
import contextlib
import importlib.util
import io
import json
from pathlib import Path

import mpmath
import pytest
from mpmath import mp

from touchard import mk_context, real_from, wrap_real
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
def parity():
    return load_script("parity_set")


@pytest.fixture(scope="module")
def parity_set(parity, tmp_path_factory):
    """The 40-digit part of the parity set; return (outdir, its paths)."""
    outdir = tmp_path_factory.mktemp("parity_set") / "d40"
    return outdir, parity.digit_set(outdir, 40)


@pytest.fixture(scope="module")
def golden_contours(parity, tmp_path_factory):
    """The contour files of the golden xi at 40 digits, as the parity set
    writes them; return their paths."""
    outdir = tmp_path_factory.mktemp("parity_set") / "contours"
    return [parity.contour_file(outdir, xi, 40) for xi in GOLDEN]


def test_parity_set_writes_every_output(parity, parity_set):
    outdir, paths = parity_set
    evals = [f"eval_n{n}_xi{xi}.json" for n, xi in parity.EVAL_POINTS]
    names = ["table1.csv", "table2.csv", *evals, "refusals.txt",
             "theorem2.txt"]
    assert [p.name for p in paths] == names
    assert sorted(p.name for p in outdir.iterdir()) == sorted(names)
    for (n, xi), name in zip(parity.EVAL_POINTS, evals):
        report = json.loads((outdir / name).read_text())
        assert (report["n"], report["digits"]) == (int(n), 40)
        assert report["exact"]["verified"]
    codes = [line.rsplit(" ", 1)[1]
             for line in (outdir / "refusals.txt").read_text().splitlines()]
    assert codes == ["2"] * 6
    lines = (outdir / "theorem2.txt").read_text().splitlines()
    assert parity.THEOREM2_N == (100, 10 ** 4, 10 ** 6, 10 ** 9)
    assert len(parity.THEOREM2_XI) == 12
    assert {"0." + "9" * 126, "1." + "0" * 45 + "1"} < set(parity.THEOREM2_XI)
    assert len(lines) == \
        (2 * len(parity.THEOREM2_XI) + 1) * len(parity.THEOREM2_N)
    assert sum(line.startswith("theorem1 ") for line in lines) == \
        len(parity.THEOREM2_N)
    assert all(line.endswith("@40") or line.endswith("exit 2")
               for line in lines)


def test_parity_set_takes_only_outdir(parity, tmp_path, capsys):
    # the digits and seeds are constants: no option may set them
    assert parity.DIGITS == (40, 120, 300)
    assert parity.AIRY_SEEDS == (1, 2, 3) and parity.EXACT_SEEDS == (1,)
    for extra in (["--digits", "40"], ["--seed", "2"]):
        with pytest.raises(SystemExit):
            parity.main(["--outdir", str(tmp_path), *extra])
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == [
        "bench_pairs.py", "code_lines.py", "error_decay.py", "parity_set.py"]


CANNED = '''"""A module docstring
over two lines."""
import math  # a comment after code counts

# a comment alone


class A:
    """A class docstring."""

    def f(self, x):
        """One line."""
        s = """a string that is
        not a docstring"""
        return (x +
                1)


def g():
    return "text"
'''


def test_code_lines_counts_code_outside_docstrings_and_comments(capsys):
    counter = load_script("code_lines")
    # import, class, def f, the two lines of s, the two of the return, def g
    # and its return
    assert counter.code_lines(CANNED) == 9
    assert counter.docstring_lines(CANNED) == {1, 2, 9, 12}
    assert counter.main([]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].endswith(" total")
    assert int(out[-1].split()[0]) == sum(int(o.split()[0]) for o in out[:-1])
    assert len(out) == len(list(counter.SRC.glob("*.py"))) + 1


def test_run_tables_writes_the_cli_tables(parity_set):
    outdir, _ = parity_set
    for name, cmd in (("table1", cmd_table1), ("table2", cmd_table2)):
        text = (outdir / f"{name}.csv").read_text()
        assert text == cmd(digits=40)
        assert len(load_error_rows(text)) == len(text.splitlines()) - 1


def test_trace_contours_writes_reloadable_json(golden_contours):
    for xi, path in zip(GOLDEN, golden_contours):
        report = json.loads(path.read_text())
        assert report == cmd_contours(xi, digits=40)
        for pl in report["polylines"]:
            assert float(pl["im_psi_drift"]) < 1e-8
            assert all(c.endswith("@30") for pt in pl["points"] for c in pt)
    report = json.loads(golden_contours[list(GOLDEN).index("1")].read_text())
    assert report["saddle_kind"] == "double"
    assert len(report["polylines"]) == 6


def test_contour_sweep_subset_keeps_the_golden_paths(parity, golden_contours):
    # 3 of the 54 sets, the golden xi at 40 digits
    assert len(parity.CONTOUR_XI) == 18 and parity.DIGITS == (40, 120, 300)
    assert set(GOLDEN) <= set(parity.CONTOUR_XI)
    assert [p.name for p in golden_contours] == [f"contours_xi{xi}_d40.json"
                                                 for xi in GOLDEN]
    for xi, path in zip(GOLDEN, golden_contours):
        polylines = json.loads(path.read_text())["polylines"]
        assert [(pl["kind"], pl["stop_reason"], len(pl["points"]))
                for pl in polylines] == [g[:3] for g in GOLDEN[xi]]
        for pl, (*_, end) in zip(polylines, GOLDEN[xi]):
            x, y = (float(c.split("@")[0]) for c in pl["points"][-1])
            assert abs(complex(x, y) - complex(*end)) < 1e-6
            assert float(pl["im_psi_drift"]) < 1e-8


def test_error_decay_prints_both_studies(capsys):
    load_script("error_decay").main(["--n-ladder", "20", "40", "--n", "30",
                                     "--max-order", "3", "--digits", "30"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["# poincare, mu = 0.2", "n,rel_err,n_times_rel_err"]
    assert lines[4:7] == ["", "# coalescence series truncation, n = 30",
                          "order,rel_err"]
    poincare = [[float(v) for v in line.split(",")] for line in lines[2:4]]
    assert [row[0] for row in poincare] == [20, 40]
    # n rel_err flattens: the leading order's unit coefficient
    assert 0.9 < poincare[1][2] / poincare[0][2] < 1.1
    series = [[float(v) for v in line.split(",")] for line in lines[7:]]
    assert [row[0] for row in series] == [0, 1, 3]  # order 2 adds nothing
    assert series[0][1] > series[1][1] > series[2][1] > 0


def test_exact_sweep_subset_prints_the_oracle(parity):
    # 20 of the 600 points, the first ten with n <= 150 and the first ten
    # above; the oracle's integer row checks the ten small ones
    pts = parity.exact_points(1)
    assert len(pts) == parity.EXACT_POINTS
    small = [pt for pt in pts if pt[0] <= 150][:10]
    subset = small + [pt for pt in pts if pt[0] > 150][:10]
    for (n, x, digits) in subset:
        text = parity.exact_line(n, x, digits)
        assert text.endswith("\n")
        head, value, cancel = text.rstrip("\n").rsplit(" ", 2)
        assert head == f"n={n} x={x} digits={digits}:"
        assert value.endswith(f"@{digits}")
        if n <= 150:
            ctx = mk_context(digits)
            want, count = integer_scaled_touchard(n, raw(real_from(x, ctx)))
            assert value == wrap_real(want, ctx).to_str(), text
            assert int(cancel) == count, text


def test_airy_sweep_subset_prints_mpmath(parity):
    # 20 of the 408 points, both edges of each digits among them
    pts = parity.airy_points(1)
    assert len(pts) == parity.AIRY_POINTS + 2 * len(parity.AIRY_DIGITS)
    # the points stay at ((3/4)(d + 10) ln 10)^(2/3), not at maclaurin_limit
    assert [round(parity.edge(d), 1) for d in parity.AIRY_DIGITS] == \
        [16.8, 19.5, 36.9, 65.9]
    subset = pts[:12] + pts[-8:]
    for z, digits in subset:
        text = parity.airy_line(z, digits)
        assert text.endswith("\n")
        head, ai, aip = text.rstrip("\n").rsplit(" ", 2)
        assert head == f"z={z} digits={digits}:"
        ctx = mk_context(digits)
        zv = raw(real_from(z, ctx))
        with mp.workdps(2 * digits):
            want = [wrap_real(mpmath.airyai(zv, k), ctx).to_str() for k in (0, 1)]
        assert [ai, aip] == want, text


def test_parity_set_main_reports_its_files(parity, tmp_path, monkeypatch):
    # main over stand-in parts, to check the layout without the 20 s run
    def stub(name):
        def write(outdir, *args):
            outdir.mkdir(parents=True, exist_ok=True)
            path = outdir / f"{name}_{'_'.join(map(str, args))}"
            path.write_text("")
            return [path] if name == "set" else path
        return write

    monkeypatch.setattr(parity, "digit_set", stub("set"))
    monkeypatch.setattr(parity, "contour_file", stub("contours"))
    monkeypatch.setattr(parity, "exact_points", lambda seed: [(seed,)])
    monkeypatch.setattr(parity, "exact_line", lambda seed: f"exact {seed}\n")
    monkeypatch.setattr(parity, "airy_points", lambda seed: [(seed,)])
    monkeypatch.setattr(parity, "airy_line", lambda seed: f"airy {seed}\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        parity.main(["--outdir", str(tmp_path)])
    assert out.getvalue() == f"wrote {3 + 1 + 3 + 54} files into {tmp_path}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "airy_seed1.txt", "airy_seed2.txt", "airy_seed3.txt", "contours",
        "d120", "d300", "d40", "exact_seed1.txt"]
    assert (tmp_path / "airy_seed2.txt").read_text() == "airy 2\n"
    assert len(list((tmp_path / "contours").iterdir())) == 54
