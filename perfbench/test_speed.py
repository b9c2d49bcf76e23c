"""Pass times are scaled by the host's speed read around each stretch of
work, and the reference loop does not depend on the package.

    python3 -m pytest -q perfbench/test_speed.py
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from touchard.numkernel import mk_context  # noqa: E402


def _pass_with_readings(monkeypatch, before, readings):
    it = iter(readings)
    monkeypatch.setattr(speed, "host_speed", lambda stretch_s: next(it))
    ops = workloads.operations("asymptotic-sweep", 1)[:3]
    return worker.run_pass(ops, mk_context(None), before)


def test_reference_speed_leaves_the_wall_time(monkeypatch):
    wall, scaled, results, failed, _ = _pass_with_readings(
        monkeypatch, speed.REFERENCE_S, [speed.REFERENCE_S] * 10)
    assert failed == 0 and len(results) == 3
    assert abs(scaled - wall) < 1e-12 * wall


def test_a_slower_host_scales_the_time_down(monkeypatch):
    # three short operations make one stretch, read before and after
    wall, scaled, _, _, last = _pass_with_readings(
        monkeypatch, speed.REFERENCE_S, [3 * speed.REFERENCE_S])
    assert abs(scaled - wall / 2) < 1e-12 * wall
    assert last == 3 * speed.REFERENCE_S


def test_loop_imports_nothing_from_the_package():
    code = ("import sys, speed; assert speed.host_speed() > 0; "
            "assert not any(m.startswith('touchard') for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True)

