"""What the benchmark (perfbench/tracer.py and perfbench/worker.py) needs
from the package.

The tracer wraps functions by module and name, and reads its work counts
from attributes of their results; the worker serializes the results of
its operations by their attributes. None of this is checked anywhere else
in the tier-1 suite, so a rename here would only show when a benchmark run
broke.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from mpmath import mp

from touchard import (AiryMethod, PoincareRegime, PoincareResult, airy,
                      build_triangle, contour_set, leading_order, real_from,
                      theorem1_eval, theorem2_eval)

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


def test_airy_routes_are_named_as_the_tracer_reads_them(tracer, ctx40):
    # the tracer counts "maclaurin" values as maclaurin_calls and every other
    # value as asymptotic_calls
    assert {m.value for m in AiryMethod} == {"maclaurin", "asymptotic"}
    _, maclaurin = tracer.COUNTS["airy.airy.maclaurin_calls"]
    _, asymptotic = tracer.COUNTS["airy.airy.asymptotic_calls"]
    for z, route in ((1, "maclaurin"), (-100, "asymptotic"),
                     (100, "asymptotic")):
        got = airy(real_from(z, ctx40), ctx40)
        assert got.method.value == route
        assert (maclaurin(got), asymptotic(got)) == \
            ((1, 0) if route == "maclaurin" else (0, 1))


def test_worker_reads_the_results(ctx40):
    # one call of each operation the worker serializes from a result type,
    # made as its execute() makes it, read as its serialize() reads it
    assert theorem2_eval(100, "1.03", ctx40).to_str().endswith("@40")
    assert theorem1_eval(100, 6, ctx40).to_str().endswith("@40")
    with mp.workdps(50):
        mu = 1 / (mp.e * mp.mpf("0.5"))
    result = leading_order(100, mu, ctx40)
    assert isinstance(result, PoincareResult)
    assert result.value.to_str().endswith("@40")
    assert result.regime.value == PoincareRegime.ABOVE.value  # mu > 1/e
