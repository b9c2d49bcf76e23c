"""The scripts the README advertises run end to end."""
import importlib.util
import json
from pathlib import Path

from touchard.cli import cmd_table1, cmd_table2, load_error_rows

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_contours_writes_reloadable_json(tmp_path, capsys):
    load_script("trace_contours").main(["--xi", "1", "--outdir", str(tmp_path)])
    report = json.loads((tmp_path / "contours_xi1.json").read_text())
    assert report["saddle_kind"] == "double"
    assert len(report["polylines"]) == 6
    npts = sum(len(pl["points"]) for pl in report["polylines"])
    assert f"(6 polylines, {npts} points)" in capsys.readouterr().out
    for pl in report["polylines"]:
        assert float(pl["im_psi_drift"]) < 1e-8
        assert all(c.endswith("@30") for pt in pl["points"] for c in pt)


def test_parity_set_writes_every_output(tmp_path):
    script = load_script("parity_set")
    script.main(["--outdir", str(tmp_path), "--digits", "40"])
    evals = [f"eval_n{n}_xi{xi}.json" for n, xi in script.EVAL_POINTS]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["table1.csv", "table2.csv", "refusals.txt", *evals])
    assert (tmp_path / "table1.csv").read_text() == cmd_table1(digits=40)
    assert (tmp_path / "table2.csv").read_text() == cmd_table2(digits=40)
    for (n, xi), name in zip(script.EVAL_POINTS, evals):
        report = json.loads((tmp_path / name).read_text())
        assert (report["n"], report["digits"]) == (int(n), 40)
        assert report["exact"]["verified"]
    codes = [line.rsplit(" ", 1)[1]
             for line in (tmp_path / "refusals.txt").read_text().splitlines()]
    assert codes == ["2", "2", "2"]


def test_run_tables_writes_the_cli_tables(tmp_path, capsys):
    load_script("run_tables").main(["--outdir", str(tmp_path), "--digits", "40"])
    out = capsys.readouterr().out
    for name, cmd in (("table1", cmd_table1), ("table2", cmd_table2)):
        path = tmp_path / f"{name}.csv"
        assert f"wrote {path}" in out
        text = path.read_text()
        assert text == cmd(digits=40)
        assert len(load_error_rows(text)) == len(text.splitlines()) - 1


def test_error_decay_prints_both_studies(capsys):
    load_script("error_decay").main(["--n-ladder", "50", "100", "--n", "50",
                                     "--max-order", "4", "--digits", "40"])
    out = capsys.readouterr().out
    assert "# poincare, mu = 0.2" in out
    assert "# coalescence series truncation, n = 50" in out
