"""What the benchmark's tracer (perfbench/tracer.py) needs from the package.

The tracer wraps functions by module and name, and reads its work counts
from attributes of their results. Neither is checked anywhere else in the
tier-1 suite, so a rename here would only show when a traced benchmark run
broke.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from touchard import airy, build_triangle, contour_set, mk_context, real_from

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_functions_exist(tracer):
    for mod, fn in tracer.WRAPPED:
        assert callable(getattr(importlib.import_module(f"touchard.{mod}"),
                                fn, None)), f"touchard.{mod}.{fn}"


def test_counts_read_the_results(tracer, ctx40):
    # one small call per function whose result a count reads: the triangle's
    # .rows, the Airy value's .method.value, the contours' .polylines[i].points
    results = {
        "stirling.build_triangle": build_triangle([3, 5]),
        "airy.airy": airy(real_from(1, ctx40), ctx40),
        "contours.contour_set": contour_set("1.8", ctx40, step=1.0),
    }
    assert {owner for owner, _ in tracer.COUNTS.values()} <= set(results)
    assert set(results) <= set(tracer.NAMES)
    counts = {key: count(results[owner])
              for key, (owner, count) in tracer.COUNTS.items()}
    assert counts["stirling.build_triangle.rows"] == 2
    assert counts["contours.contour_set.points"] > 0
    assert counts["airy.airy.maclaurin_calls"] \
        + counts["airy.airy.asymptotic_calls"] == 1
