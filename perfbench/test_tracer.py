"""The tracer counts calls made inside the package and leaves no wrapper
behind.

    python3 -m pytest -q perfbench/test_tracer.py
"""
from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import touchard  # noqa: E402
from touchard import cli, uniform  # noqa: E402
from tracer import WRAPPED, Tracer  # noqa: E402


def test_calls_inside_the_package_are_counted():
    tracer = Tracer()
    tracer.install()
    tracer.begin_pass()
    try:
        cli.cmd_eval(100, "0.9")
    finally:
        tracer.uninstall()
    layers = tracer.summary(1)
    # cmd_eval reaches these only through names imported with `from . import`
    assert layers["cli.cmd_eval.calls"] == 1
    assert layers["stirling.build_triangle.calls"] == 1
    assert layers["stirling.build_triangle.rows"] == 100
    assert layers["uniform.uniform_ingredients.calls"] == 2
    assert layers["uniform.theorem2_eval.calls"] == 1
    assert layers["airy.airy.calls"] == 1
    assert layers["airy.airy.maclaurin_calls"] == 1
    assert layers["poincare.leading_order.calls"] == 1
    assert layers["saddle.solve_saddles.calls"] == 3
    # self time is total time less the wrapped calls made directly inside
    root = [i for i, s in enumerate(tracer.spans) if s[0] == "cli.cmd_eval"]
    children = [s for s in tracer.spans if s[3] == root[0]]
    assert {s[0] for s in children} == {
        "stirling.build_triangle", "stirling.scaled_touchard",
        "uniform.theorem2_eval", "poincare.leading_order",
        "uniform.uniform_ingredients"}
    child_ns = sum(end - start for _, start, end, _, _ in children)
    assert 0 < layers["cli.cmd_eval.self_s"] < layers["cli.cmd_eval.total_s"]
    assert round((layers["cli.cmd_eval.total_s"]
                  - layers["cli.cmd_eval.self_s"]) * 1e9) == child_ns


def test_uninstall_restores_every_name():
    originals = {(mod, fn): getattr(sys.modules[f"touchard.{mod}"], fn)
                 for mod, fn in WRAPPED}
    tracer = Tracer()
    tracer.install()
    assert uniform.airy is not originals[("airy", "airy")]
    assert touchard.theorem2_eval is not originals[("uniform", "theorem2_eval")]
    tracer.uninstall()
    for (mod, fn), orig in originals.items():
        assert getattr(sys.modules[f"touchard.{mod}"], fn) is orig
    assert uniform.airy is originals[("airy", "airy")]
    assert touchard.theorem2_eval is originals[("uniform", "theorem2_eval")]
