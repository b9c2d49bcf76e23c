"""Domain sweep: every input gives finite values or a typed refusal.

Hypothesis draws xi log-uniformly from [1e-300, 1e300], as 1 +- 10^-k
(exact decimal text, k up to 320, across the double-saddle windows of
uniform_ingredients and contour_set), on the Poincare band edges
|mu e - 1| = 0.05, and as text that is not a positive finite number (nan,
+-inf, zero, negatives, non-numeric text), with digits from 30 to 300. The public functions and every CLI command must
then return finite values or raise a DomainError (exit 2) or a
PrecisionExhaustedError (exit 3), each call within CEILING seconds, and
`contours` at 1 +- 10^-k must trace (exit 0). An internal consistency
failure (exit 4) or a bare exception fails the sweep.

Named cases add the edges of the ranges: `airy` just past its route
switchover at 120 and 300 digits within AIRY_CEILING, and just past
ABS_Z_LIMIT, also from theorem2_eval at n = 10^1000, `scaled_touchard` just
past N_MAX_LIMIT, `--digits` at MAX_DIGITS and one past it, and the
asymptotic routes at an n whose working width is MAX_WIDTH and one past it.

Every integer argument of a public function, digits, n and series order,
goes through numkernel.read_int: 2.5, "5", True, None and the value one
below its least are each refused with exit 2 and read_int's message.

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

from touchard import (ABS_Z_LIMIT, MAX_DIGITS, MAX_ORDER, MIN_DIGITS,
                      N_MAX_LIMIT, BigReal, CapacityError, DomainError,
                      InvalidPrecisionError, OrderError,
                      PrecisionExhaustedError, TouchardError,
                      airy, contour_set, default_bm, leading_order, mk_context,
                      mu_from_xi, real_from, scaled_touchard, solve_saddles,
                      theorem1_eval, theorem2_eval, uniform_ingredients,
                      working_digits)
from touchard.airy import maclaurin_limit
from touchard.cli import cmd_bm, cmd_eval, cmd_table1, cmd_table2, main
from touchard.numkernel import MAX_WIDTH, raw

# The slowest call seen over about 1000 unseeded examples took 0.15 s (eval
# at 286 digits); the ceiling leaves room for a loaded host.
CEILING = 3.0

# The ceiling of one airy call at up to 300 digits near the switchover Z(d)
# = airy.maclaurin_limit, where the Maclaurin pass carries its largest
# cancellation and the asymptotic pass its most terms
AIRY_CEILING = 0.06

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
        (lambda: solve_saddles(mu_from_xi(xi, ctx), working_digits(ctx, n)),
         lambda v: [v.t0, v.t1, v.residual0, v.residual1]),
        (lambda: uniform_ingredients(xi, ctx, n),
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
            for part in cell.strip("()").split(","):  # a saddle has two
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


@pytest.mark.parametrize("digits", [120, 300])
@pytest.mark.parametrize("factor", [1 + 1e-6, 1 + 1e-3, 1.01,
                                    -(1 - 1e-3), -(1 + 1e-3)])
def test_airy_near_the_switchover(digits, factor):
    ctx = mk_context(digits)
    zb = real_from(factor * maclaurin_limit(digits), ctx)
    airy(zb, ctx)  # fills the caches of constants at these digits
    start = time.perf_counter()
    got = airy(zb, ctx)
    assert time.perf_counter() - start < AIRY_CEILING, zb.to_str()
    assert mp.isfinite(raw(got.ai)) and mp.isfinite(raw(got.ai_prime))


@pytest.mark.parametrize("sign", [1, -1])
def test_airy_past_abs_z_limit_refused(sign, ctx40):
    with pytest.raises(DomainError) as info:
        airy(real_from(sign * ABS_Z_LIMIT * (1 + 1e-9), ctx40), ctx40)
    assert info.value.exit_code == 2


def test_huge_n_refused_with_a_finite_size():
    # n^(2/3) zeta at n = 10^1000 is about 3e666, past ABS_Z_LIMIT and past
    # the largest double; the refusal prints its size
    for xi in ("1.5", "0.5"):
        with pytest.raises(DomainError,
                           match=r"\|z\| = \d\.\d+e\+666 exceeds") as info:
            theorem2_eval(10 ** 1000, xi, mk_context(30))
        assert info.value.exit_code == 2


@pytest.mark.parametrize("digits, code", [(MAX_DIGITS, 0), (MAX_DIGITS + 1, 2)])
def test_digits_at_the_ceiling(digits, code):
    # past MAX_DIGITS a printed value would pass Python's default limit on
    # int to str conversion, 4300 digits
    for argv in (["eval", "--n", "100", "--xi", "0.9"],
                 ["table1", "--n", "50", "--m", "0"]):
        argv = [*argv, "--digits", str(digits)]
        got, text = run(argv)
        assert got == code, argv
        if code == 0:
            check_output(argv, text)


def test_asymptotic_width_at_the_ceiling():
    # n acts as precision through working_digits: at 30 digits n = 10^(W -
    # 40) asks for a width of W digits. At MAX_WIDTH the cheapest route, the
    # xi = 1 closed forms, returns; one digit past it every asymptotic route
    # refuses before any work, theorem1_eval before its B_m
    ctx = mk_context(30)
    n = 10 ** (MAX_WIDTH - 40)
    assert working_digits(ctx, n) == MAX_WIDTH
    got = uniform_ingredients("1", ctx, n)
    assert got.digits == MAX_WIDTH and mp.isfinite(got.B0)
    for call in (lambda m: theorem1_eval(m, MAX_ORDER, ctx),
                 lambda m: theorem2_eval(m, "1", ctx),
                 lambda m: uniform_ingredients("1", ctx, m),
                 lambda m: leading_order(m, "0.1", ctx),
                 lambda m: working_digits(ctx, m)):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=f"past {MAX_WIDTH}") as info:
            call(10 * n)
        assert info.value.exit_code == 2
        assert time.perf_counter() - start < 0.1


def test_uniform_width_of_an_mpf_xi_at_the_ceiling():
    # an mpf xi is read as held, so one exactly near 1 adds about
    # 2 log10(1/|xi - 1|) digits past working_digits: 2^-200000 asks for
    # about 120000 and is refused before solving, 2^-2000 (about 1200) is not
    ctx = mk_context(30)
    far = mp.fadd(1, mp.ldexp(1, -200000), exact=True)
    for call in (lambda: uniform_ingredients(far, ctx, 100),
                 lambda: theorem2_eval(100, far, ctx)):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=f"past {MAX_WIDTH}") as info:
            call()
        assert info.value.exit_code == 2
        assert time.perf_counter() - start < 0.1
    near = mp.fadd(1, mp.ldexp(1, -2000), exact=True)
    got = uniform_ingredients(near, ctx, 100)
    assert got.xi == near and got.zeta > 0 and mp.isfinite(got.B0)
    assert mp.isfinite(raw(theorem2_eval(100, got, ctx)))


def test_scaled_touchard_past_the_cap_refused(ctx40):
    with pytest.raises(CapacityError) as info:
        scaled_touchard(N_MAX_LIMIT + 1, real_from("1", ctx40), ctx40)
    assert info.value.exit_code == 2


CTX = mk_context(30)
# (name, least, call taking the integer, the error read_int raises): each
# public function with an integer argument, through its own signature
INT_ARGUMENTS = [
    ("mk_context", MIN_DIGITS, mk_context, InvalidPrecisionError),
    ("working_digits", 1, lambda v: working_digits(CTX, v), DomainError),
    ("scaled_touchard", 0, lambda v: scaled_touchard(v, "1", CTX),
     CapacityError),
    ("theorem1_eval n", 2, lambda v: theorem1_eval(v, 6, CTX), OrderError),
    ("theorem1_eval order", 0, lambda v: theorem1_eval(50, v, CTX),
     OrderError),
    ("theorem2_eval", 2, lambda v: theorem2_eval(v, "0.9", CTX), DomainError),
    ("uniform_ingredients", 1, lambda v: uniform_ingredients("0.9", CTX, v),
     DomainError),
    ("leading_order", 10, lambda v: leading_order(v, "0.2", CTX),
     DomainError),
    ("default_bm", 0, default_bm, OrderError),
    ("solve_saddles", MIN_DIGITS,
     lambda v: solve_saddles(mu_from_xi("0.9", CTX), v),
     InvalidPrecisionError),
    ("cmd_eval", 2, lambda v: cmd_eval(v, "0.9", 30), DomainError),
    ("cmd_table1 n", 2, lambda v: cmd_table1([v], [0], 30), OrderError),
    ("cmd_table1 m", 0, lambda v: cmd_table1([50], [v], 30), OrderError),
    ("cmd_table1 digits", MIN_DIGITS, lambda v: cmd_table1([50], [0], v),
     InvalidPrecisionError),
    ("cmd_table2", 2, lambda v: cmd_table2(["0.9"], [v], 30), DomainError),
    ("cmd_bm", 0, cmd_bm, OrderError),
]


@pytest.mark.parametrize("call, bad, error", [
    pytest.param(call, bad, error, id=f"{name}-{bad!r}")
    for name, least, call, error in INT_ARGUMENTS
    for bad in (2.5, "5", True, None, least - 1)
    # None stands for DEFAULT_DIGITS in a context's digits
    if not (bad is None and name in ("mk_context", "cmd_table1 digits"))])
def test_integer_arguments_refuse_what_is_not_an_integer_in_range(
        call, bad, error):
    default_bm(1)  # so that default_bm(True) cannot be served from the cache
    start = time.perf_counter()
    with pytest.raises(error, match=r"must be an integer in \[") as info:
        call(bad)
    assert info.value.exit_code == 2
    assert time.perf_counter() - start < CEILING


@pytest.mark.parametrize("call", [lambda: cmd_table1([50, "5"], [0], 30),
                                  lambda: cmd_table2(["0.9"], [81, "5"], 30)])
def test_tables_read_each_n_of_a_mixed_list(call):
    # table2 compares its n in max(n_list): each is read before
    with pytest.raises(DomainError, match=r"must be an integer in \["):
        call()


def test_table2_n_0_exits_2():
    # n = 0 is refused before any width is taken from log10 n
    assert run(["table2", "--n", "0"]) == (2, "")


@pytest.mark.parametrize("x", ["abc", -1])
def test_scaled_touchard_refuses_what_is_not_a_number_at_least_0(x):
    with pytest.raises(DomainError) as info:
        scaled_touchard(5, x, CTX)
    assert info.value.exit_code == 2
