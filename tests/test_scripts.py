"""The scripts the README advertises run end to end."""
import importlib.util
import json
from pathlib import Path

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
