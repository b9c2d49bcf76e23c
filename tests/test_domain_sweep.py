"""Domain sweep: every input gives finite values or a typed refusal.

Hypothesis draws xi log-uniformly from [1e-300, 1e300], as 1 +- 10^-k
(exact decimal text, k up to 320, across every coalescence tolerance), on
the Poincare band edges |mu e - 1| = 0.05, and as text that is not a
positive finite number (nan, +-inf, zero, negatives, non-numeric text),
with digits from 30 to 300. The public functions and every CLI command must
then return finite values or raise a DomainError (exit 2) or a
PrecisionExhaustedError (exit 3), each call within CEILING seconds, and
`contours` at 1 +- 10^-k must trace (exit 0). An internal consistency
failure (exit 4) or a bare exception fails the sweep.

The sizes are capped to fit tier-1's time: n up to 300 where an exact sum
runs, contours at a step of 0.5.
"""
import contextlib
import io
import json
import math
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from touchard import (BigReal, DomainError, PrecisionExhaustedError,
                      TouchardError, contour_set, leading_order, mk_context,
                      mu_from_xi, solve_saddles, theorem2_eval,
                      uniform_ingredients)
from touchard.cli import main
from touchard.numkernel import raw

# The slowest call seen over about 1000 unseeded examples took 0.15 s (eval
# at 286 digits); the ceiling leaves room for a loaded host.
CEILING = 3.0

REFUSED = ["nan", "NaN", "inf", "-inf", "+inf", "0", "-0", "-1", "-1e-300",
           "abc", "", " ", "1e", "--1", "0x10", "1j"]


def near_one(sign: int, k: int) -> str:
    """1 + sign 10^-k as exact decimal text."""
    return "1." + "0" * (k - 1) + "1" if sign > 0 else "0." + "9" * k


NEAR_ONE = re.compile(r"1\.0*1|0\.9+")  # the texts near_one writes


def band_edge(sign: int, side: int, k: int) -> str:
    """xi with mu e = 1 + sign 0.05 (1 + side 10^-k), to 330 digits."""
    with mp.workdps(340):
        return mp.nstr(1 / (1 + sign * mpf("0.05") * (1 + side * mpf(10) ** -k)),
                       330)


NUMBERS = st.one_of(
    st.floats(-300, 300).map(lambda e: repr(10 ** e)),
    st.builds(near_one, st.sampled_from((-1, 1)), st.integers(1, 320)),
    st.builds(band_edge, st.sampled_from((-1, 1)), st.integers(-1, 1),
              st.integers(5, 300)))
DIGITS = st.integers(30, 300)


def outcome(call):
    """The value, or the DomainError or PrecisionExhaustedError raised,
    within CEILING."""
    start = time.perf_counter()
    try:
        result = call()
    except (DomainError, PrecisionExhaustedError) as exc:
        result = exc
    assert time.perf_counter() - start < CEILING
    return result


def api_calls(xi, n: int, ctx):
    """(call, the numbers in its value) for every public function at this xi."""
    return [
        (lambda: mu_from_xi(xi, ctx), lambda v: [v]),
        (lambda: solve_saddles(mu_from_xi(xi, ctx), ctx),
         lambda v: [v.t0, v.t1, v.residual0, v.residual1]),
        (lambda: uniform_ingredients(xi, ctx),
         lambda v: [v.xi, v.zeta, v.beta, v.A0, v.B0]),
        (lambda: theorem2_eval(n, xi, ctx), lambda v: [v]),
        (lambda: leading_order(max(n, 10), mu_from_xi(xi, ctx), ctx),
         lambda v: [v.value, v.t0_used]),
        (lambda: contour_set(xi, ctx, step="0.5"),
         lambda v: [x for pl in v.polylines
                    for x in (pl.im_psi_drift, *pl.points)]),
    ]


@settings(max_examples=80)
@given(NUMBERS, DIGITS, st.integers(2, 10 ** 6))
def test_public_functions_on_numbers(xi, digits, n):
    for call, numbers in api_calls(xi, n, mk_context(digits)):
        got = outcome(call)
        if not isinstance(got, TouchardError):
            assert all(mp.isfinite(raw(x)) for x in numbers(got))


@pytest.mark.parametrize("xi", REFUSED + [None])
def test_public_functions_refuse_what_is_not_a_positive_number(xi):
    for digits in (30, 300):
        for call, _ in api_calls(xi, 100, mk_context(digits)):
            assert isinstance(outcome(call), DomainError)


def run(argv):
    """(exit code, stdout) of the CLI, within CEILING."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert time.perf_counter() - start < CEILING, argv
    return code, out.getvalue()


def commands(xi: str, n: int, digits: int):
    d = ["--digits", str(digits)]
    return [["eval", "--n", str(n), f"--xi={xi}", *d],
            ["table2", f"--xi={xi}", "--n", str(n), *d],
            ["contours", f"--xi={xi}", "--step", "0.5", *d]]


def numbers_in(node):
    """Every serialized BigReal and every float in a JSON value."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [v for item in node for v in numbers_in(item)]
    if isinstance(node, str) and "@" in node or isinstance(node, float):
        return [node]
    return []


def check_output(argv, text: str) -> None:
    """Every number in the output parses and is finite."""
    if argv[0] in ("table1", "table2"):
        cells = [c for row in text.splitlines()[1:] for c in row.split(",")[1:]]
    else:
        cells = numbers_in(json.loads(text))
    for cell in cells:
        if isinstance(cell, str) and "@" in cell:
            for part in cell.strip("()").split(","):  # a BigComplex has two
                BigReal.parse(part)  # refuses nan and inf
        else:
            assert math.isfinite(float(cell)), argv


@settings(max_examples=40)
@given(NUMBERS, DIGITS, st.integers(2, 300))
@example(near_one(1, 17), 40, 100)  # a pair closer than the launch offset
@example(near_one(-1, 17), 40, 100)
@example(near_one(1, 30), 120, 100)
def test_cli_commands_on_numbers(xi, digits, n):
    for argv in [*commands(xi, n, digits),
                 ["table1", "--n", str(n), "--m", "0,6", "--digits", str(digits)],
                 ["bm", "--max", str(n % 20)]]:
        code, text = run(argv)
        # however near the saddle pair at 1 +- 10^-k, contours trace it
        near = argv[0] == "contours" and NEAR_ONE.fullmatch(xi)
        assert code in ((0,) if near else (0, 2, 3)), argv
        if code == 0:
            check_output(argv, text)


@pytest.mark.parametrize("xi", REFUSED)
def test_cli_commands_refuse_what_is_not_a_positive_number(xi):
    for digits in (30, 300):
        for argv in commands(xi, 100, digits):
            assert run(argv) == (2, ""), argv
