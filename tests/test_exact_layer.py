"""The row-free exact layer against the integer Stirling-row oracle.

The oracle (tests/stirling_oracle.py) sums the integer row by Horner at the
exact dyadic value of the argument, so its values and cancellation digits
involve no working precision. TestKeptRows covers the row builder that
perfbench/tracer.py still wraps; the package no longer calls it.
"""
import json
import math
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf

from touchard import (CapacityError, InternalConsistencyError,
                      PrecisionExhaustedError, build_triangle, mk_context,
                      scaled_touchard, wrap_real)
from touchard import fixedpoint, stirling
from touchard.cli import cmd_eval, cmd_table1, main
from touchard.numkernel import BigReal, raw

from cauchy_oracle import cauchy_scaled_touchard
from stirling_oracle import integer_scaled_touchard, stirling2_row

DIGITS = 120
TABLE1_N = (50, 80, 121)
TABLE2_XI = ("0.80", "0.90", "0.95", "0.99", "1.00",
             "1.01", "1.05", "1.10", "1.20", "1.40")
TABLE2_N = (81, 100)
# the points at which the Stirling-row layer was compared with its parent
PR4_N = (50, 81, 100, 121, 300, 1000)
PR4_XI = ("0.8", "0.9", "0.97", "1", "1.03", "1.1", "1.4")


def table_points():
    """(n, x) of the Table 1 and Table 2 cells, x rounded as the CLI rounds it."""
    ctx = mk_context(DIGITS)
    points = []
    with mp.workdps(DIGITS + 10):
        for n in TABLE1_N:
            points.append((n, wrap_real(n * mp.e, ctx)))
        for xi in TABLE2_XI:
            for n in TABLE2_N:
                points.append((n, wrap_real(n * mp.e * mpf(xi), ctx)))
    return points


def x_at(n: int, xi, ctx) -> BigReal:
    """x = n e xi as the CLI rounds it."""
    with mp.workdps(ctx.digits + 10):
        return wrap_real(n * mp.e * mpf(xi), ctx)


def assert_close(got, want, tol):
    with mp.workdps(400):
        assert abs(got - want) <= mpf(tol) * abs(want), \
            f"{mp.nstr(got, 30)} vs {mp.nstr(want, 30)}"


class TestKeptRows:
    def test_kept_rows_equal_full_triangle(self):
        full = build_triangle(range(151))
        for n in range(151):
            alone = build_triangle([n])
            assert dict(alone.rows) == {n: full.row(n)}
            assert full.row(n) == stirling2_row(n)
        some = build_triangle({3, 77, 150})
        assert dict(some.rows) == {k: full.row(k) for k in (3, 77, 150)}

    def test_rows_not_kept_are_refused(self):
        tri = build_triangle([4, 10])
        assert tri.row(4)[2] == 7
        with pytest.raises(CapacityError):
            tri.row(5)
        with pytest.raises(CapacityError):
            tri.row(9)

    def test_rows_past_the_measured_limit_are_refused(self):
        # row 4000 took 15 s to build; the row-free sum goes further
        with pytest.raises(CapacityError):
            build_triangle([4001])

    def test_one_row_holds_one_row_of_memory(self):
        tracemalloc.start()
        try:
            tri = build_triangle([600])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        row = tri.row(600)
        row_bytes = sys.getsizeof(row) + sum(sys.getsizeof(s) for s in row)
        # the previous row and the next one are alive together; the whole
        # triangle would be about 200 rows' worth
        assert peak < 3 * row_bytes, f"peak {peak} B for a {row_bytes} B row"


def trial_factors(j: int) -> list[int]:
    """The prime factors of j >= 2 with multiplicity, by trial division."""
    out, q = [], 2
    while q * q <= j:
        while j % q == 0:
            out.append(q)
            j //= q
        q += 1
    return out + [j] if j > 1 else out


class TestCutPowers:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 30, 97, 1000])
    def test_sieve_matches_trial_division(self, n):
        spf = fixedpoint.smallest_prime_factors(n)
        assert spf[:2] == [0, 1][:n + 1]
        assert spf[2:] == [trial_factors(j)[0] for j in range(2, n + 1)]

    @pytest.mark.parametrize("p", [8, 24, 64])
    def test_small_n_within_the_stated_bound(self, p):
        for n in range(2, 61):
            self.check(n, p)

    def test_n_999_within_the_stated_bound(self):
        # 512 = 2^9 has the deepest product tree below 1000: 17 cuts
        assert len(trial_factors(512)) == 9
        self.check(999, 200)

    @staticmethod
    def check(n, p):
        powers = list(fixedpoint.cut_powers(n, p))
        assert len(powers) == n + 1
        assert powers[:2] == [(0, 0), (1, 0)]
        for j in range(2, n + 1):
            m, e = powers[j]
            exact = j ** n
            omega = len(trial_factors(j))
            assert m.bit_length() <= p, (n, j)
            # j^n (1 - (4 Omega(j) - 2) 2^-p) < m 2^e <= j^n
            assert 0 <= exact - (m << e), (n, j)
            assert (exact - (m << e)) << p < (4 * omega - 2) * exact, (n, j)


class TestCertifiedSum:
    def test_table_points_match_integer_horner(self):
        ctx = mk_context(DIGITS)
        for n, x in table_points():
            got = scaled_touchard(n - 1, x, ctx)
            want, cancel = integer_scaled_touchard(n - 1, raw(x))
            assert_close(raw(got.value), want, mpf(10) ** -(DIGITS - 1))
            assert got.cancellation_digits == cancel, (n, x.to_str())

    @pytest.mark.parametrize("digits", [40, 120])
    def test_pr4_points_print_the_oracle(self, digits):
        # 6 n x 7 xi at each precision: the value string and the cancellation
        # digits of the integer oracle, rounded to the context
        ctx = mk_context(digits)
        for n in PR4_N:
            for xi in PR4_XI:
                x = x_at(n, xi, ctx)
                got = scaled_touchard(n - 1, x, ctx)
                want, cancel = integer_scaled_touchard(n - 1, raw(x))
                assert got.value.to_str() == wrap_real(want, ctx).to_str(), (n, xi)
                assert got.cancellation_digits == cancel, (n, xi)

    @given(st.integers(min_value=1, max_value=200),
           st.floats(min_value=-3, max_value=3))
    def test_sweep_matches_the_oracle(self, n, log10_xi):
        # xi log-uniform in [1e-3, 1e3] at 40 digits
        ctx = mk_context(40)
        x = x_at(n + 1, mpf(10) ** log10_xi, ctx)
        got = scaled_touchard(n, x, ctx)
        want, cancel = integer_scaled_touchard(n, raw(x))
        assert_close(raw(got.value), want, mpf(10) ** -39)
        assert got.cancellation_digits == cancel

    @pytest.mark.parametrize("man,exp", [(1, 0), (5, -1), (7, 3)])
    @pytest.mark.parametrize("p", [30, 60])
    def test_grid_sum_within_its_bound(self, man, exp, p):
        # at a p that cuts t_j, E_m, j^n and u_j, the alternating sum lies
        # within the counted bound of T_n(-x) 2^-g, x = man 2^exp, for odd
        # and even n: half the terms take t_j going down from the middle
        x = Fraction(man) * Fraction(2) ** exp
        g = -12
        for n in (1, 2, 3, 4, 10, 31, 64, 121):
            exact = sum(c * (-x) ** k for k, c in enumerate(stirling2_row(n)))
            s, a = fixedpoint.grid_sum(n, man, exp, p, g)
            assert abs(s - exact * 2 ** -g) <= \
                fixedpoint.counted_bound(9 * n, n + 1, p, a), n

    def test_old_exhaustion_input_now_certifies(self, monkeypatch):
        # the n = 121 table point at 30 digits exhausted the double-and-
        # compare gate with one escalation; one measured rerun certifies it
        monkeypatch.setattr(stirling, "MAX_ESCALATIONS", 1)
        ctx = mk_context(30)
        with mp.workdps(50):
            x = wrap_real(121 * mp.e, ctx)
        got = scaled_touchard(120, x, ctx)
        want, cancel = integer_scaled_touchard(120, raw(x))
        assert_close(raw(got.value), want, mpf(10) ** -29)
        assert got.cancellation_digits == cancel


class TestLargestTerm:
    @pytest.mark.parametrize("digits", [40, 120])
    @pytest.mark.parametrize("n", [2, 3, 10, 99])
    def test_one_dominant_term_counts_one_digit(self, n, digits):
        # one Stirling term dominates to within the working precision:
        # k = 1 at x 10^-k, k = n at x 10^k. |T_n(-x)| is still below it
        # for n >= 2, so the count is 1, not the 0 that rounding gives
        ctx = mk_context(digits)
        for k in (-400, -100, 100, 400):
            with mp.workdps(digits + 10):
                x = wrap_real((n + 1) * mp.e * mpf(10) ** k, ctx)
            got = scaled_touchard(n, x, ctx)
            want, cancel = integer_scaled_touchard(n, raw(x))
            assert got.value.to_str() == wrap_real(want, ctx).to_str(), (n, k)
            assert got.cancellation_digits == cancel == 1, (n, k)

    def test_mean_off_the_window_is_an_internal_error(self, monkeypatch):
        # a mean 3 too high leaves the mode below the window: no walk
        mode_mean = stirling._mode_mean

        def mean_too_high(n, x, lx):
            return mode_mean(n, x, lx) + 3

        monkeypatch.setattr(stirling, "_mode_mean", mean_too_high)
        ctx = mk_context(40)
        with pytest.raises(InternalConsistencyError) as exc:
            scaled_touchard(99, x_at(100, 1, ctx), ctx)
        assert exc.value.exit_code == 4
        assert "n = 99" in str(exc.value)


class TestExplicitSumCancels:
    # From x = C(n,2) up the window's top is n, and the explicit formula
    # n! = sum_k (-1)^(n-k) C(n,k) k^n cancels about 0.43 n digits, as much
    # as the value's own sum, though one Stirling term dominates |T_n(-x)|;
    # far below n the window is a few small k, whose explicit sums cancel
    # about 0.3 n digits. The Cauchy estimate in doubles does not cancel
    # there, and the exact fallback sums the formula in integers, so one
    # pass of the value sum serves. The n = 999 strings are those of the
    # exact-power layer.
    N999 = {
        -400: "-6.755387404507406443725911521746086720711e-2962@40",
        -100: "1.049062880341199709589425527276538749537e-2351@40",
        100: "-1.801122282931464491875560455384968441174e+100766@40",
        400: "-1.801122282931464491875560455384968441191e+400466@40",
    }

    @staticmethod
    def x_at(n, k, ctx):
        with mp.workdps(ctx.digits + 10):
            return wrap_real((n + 1) * mp.e * mpf(10) ** k, ctx)

    @staticmethod
    def passes(monkeypatch):
        """The p of each grid_sum pass, as they are made."""
        made, grid_sum = [], fixedpoint.grid_sum

        def counted(n, man, exp, p, g):
            made.append(p)
            return grid_sum(n, man, exp, p, g)

        monkeypatch.setattr(fixedpoint, "grid_sum", counted)
        return made

    @pytest.mark.parametrize("k", [-400, -100, 100, 400])
    def test_n_300_prints_the_oracle(self, k, monkeypatch):
        ctx = mk_context(DIGITS)
        x = self.x_at(300, k, ctx)
        made = self.passes(monkeypatch)
        got = scaled_touchard(300, x, ctx)
        want, cancel = integer_scaled_touchard(300, raw(x))
        assert got.value.to_str() == wrap_real(want, ctx).to_str()
        assert got.cancellation_digits == cancel == 1
        assert len(made) == 1

    @pytest.mark.parametrize("k", sorted(N999))
    def test_n_999_prints_the_exact_power_layer(self, k, monkeypatch):
        ctx = mk_context(40)
        made = self.passes(monkeypatch)
        got = scaled_touchard(999, self.x_at(999, k, ctx), ctx)
        assert got.value.to_str() == self.N999[k]
        assert got.cancellation_digits == 1
        assert len(made) == 1


class TestStirlingEstimate:
    # ln(k! S(n,k)/n!) from one trapezoid sum in doubles, against the
    # exact integers, on the window of k around the largest term at
    # x = n e xi
    @staticmethod
    def window(n, xi):
        x = mpf(n) * mp.e * mpf(xi)
        mean = stirling._mode_mean(n, x, float(mp.log(x)))
        lo = min(n, max(1, math.floor(mean) - 1))
        return lo, max(lo, min(n, math.ceil(mean) + 1))

    @pytest.mark.parametrize("n,xi", [
        (2, "1"), (10, "0.5"), (50, "1"), (80, "0.9"), (121, "1.4"),
        (300, "1.03"), (1000, "0.5"), (1000, "1.1"), (2000, "0.9"),
        (3000, "1e-3"), (3000, "3")])
    def test_within_the_counted_margin(self, n, xi):
        lo, hi = self.window(n, xi)
        got = stirling._log_stirling_window(n, lo, hi)
        exact = stirling._exact_window(n, lo, hi)
        with mp.workdps(60):
            log_nf = mp.log(mp.factorial(n))
            for k, (v, m) in got.items():
                assert abs(v - (mp.log(exact[k]) - log_nf)) <= m, (n, k)
                if xi != "1e-3":  # far below n the window's ends lie far
                    assert m < 1e-9, (n, k, m)  # off the circle's saddle

    @pytest.mark.parametrize("n,lo,hi", [(1, 1, 1), (7, 1, 7), (30, 27, 30),
                                         (200, 1, 3)])
    def test_exact_window_is_the_row(self, n, lo, hi):
        row = stirling2_row(n)
        assert stirling._exact_window(n, lo, hi) == {
            k: math.factorial(k) * row[k] for k in range(lo, hi + 1)}

    @pytest.mark.parametrize("digits", [40, 120])
    def test_forced_exact_fallback_prints_the_same_digits(self, digits,
                                                           monkeypatch):
        # with every margin widened by a whole digit no count is decided,
        # and the exact window gives each point's count
        ctx = mk_context(digits)
        points = [(n - 1, x_at(n, xi, ctx)) for n in (2, 50, 121, 300)
                  for xi in ("1e-40", "0.9", "1", "1.4", "1e40")]
        want = [scaled_touchard(n, x, ctx) for n, x in points]
        estimate, exact = stirling._log_stirling_window, stirling._exact_window
        calls = []

        def wide(n, lo, hi):
            return {k: (v, m + math.log(10))
                    for k, (v, m) in estimate(n, lo, hi).items()}

        def counted(n, lo, hi):
            calls.append(n)
            return exact(n, lo, hi)

        monkeypatch.setattr(stirling, "_log_stirling_window", wide)
        monkeypatch.setattr(stirling, "_exact_window", counted)
        for (n, x), before in zip(points, want):
            got = scaled_touchard(n, x, ctx)
            assert got == before, (n, x.to_str())
        assert calls == [n for n, _ in points]

    @pytest.mark.parametrize("n,xi", [(30, "1"), (1200, "1e-300"),
                                      (7000, "1e-400")])
    def test_small_window_skips_the_estimate(self, n, xi, monkeypatch):
        # windows [25, 28], [1, 3] and [6, 9]: the exact integers alone give
        # the count the estimate gives first, decided or not
        assert self.window(n, xi)[1] <= stirling._EXACT_TOP
        ctx = mk_context(40)
        x = x_at(n, xi, ctx)
        estimate = stirling._log_stirling_window
        calls = []

        def counted(n, lo, hi):
            calls.append((n, lo, hi))
            return estimate(n, lo, hi)

        monkeypatch.setattr(stirling, "_log_stirling_window", counted)
        got = scaled_touchard(n, x, ctx)
        assert calls == []
        monkeypatch.setattr(stirling, "_EXACT_TOP", 0)
        assert scaled_touchard(n, x, ctx) == got
        assert len(calls) == 1

    def test_mean_off_the_window_refused_on_the_exact_path(self,
                                                          monkeypatch):
        mode_mean = stirling._mode_mean
        estimate = stirling._log_stirling_window
        monkeypatch.setattr(stirling, "_mode_mean",
                            lambda n, x, lx: mode_mean(n, x, lx) + 3)
        monkeypatch.setattr(stirling, "_log_stirling_window",
                            lambda n, lo, hi: {k: (v, math.inf) for k, (v, _)
                                               in estimate(n, lo, hi).items()})
        ctx = mk_context(40)
        with pytest.raises(InternalConsistencyError, match="inner edge"):
            scaled_touchard(99, x_at(100, 1, ctx), ctx)


class TestMisprediction:
    # T_40(-x) has 40 real zeros; next to one, |T| lies far below the saddle
    # envelope that sizes the first pass, so that pass cannot certify
    N = 40

    @pytest.fixture(scope="class")
    def near_zero(self):
        ctx = mk_context(40)
        coeffs = stirling2_row(self.N)[::-1]
        with mp.workdps(300):
            def t(x):
                return mp.polyval(coeffs, -x)
            # T oscillates below x = N e: take the first sign change above N
            grid = [self.N * (1 + mpf(k) / 20) for k in range(30)]
            a, b = next((a, b) for a, b in zip(grid, grid[1:])
                        if t(a) * t(b) < 0)
            root = mp.findroot(t, (a, b), solver="anderson")
            x = wrap_real(root * (1 + mpf(10) ** -30), ctx)
        return ctx, x

    def test_no_rerun_allowed_raises(self, near_zero, monkeypatch):
        ctx, x = near_zero
        monkeypatch.setattr(stirling, "MAX_ESCALATIONS", 0)
        with pytest.raises(PrecisionExhaustedError) as exc:
            scaled_touchard(self.N, x, ctx)
        assert exc.value.exit_code == 3

    def test_a_value_not_certified_names_it(self, near_zero, monkeypatch):
        ctx, x = near_zero
        monkeypatch.setattr(stirling, "MAX_ESCALATIONS", 0)
        with pytest.raises(PrecisionExhaustedError) as exc:
            scaled_touchard(self.N, x, ctx)
        assert "the value sum not certified" in str(exc.value)
        assert "largest" not in str(exc.value)
        assert "to 50 digits after 0 reruns (last working precision" \
            in str(exc.value)

    def test_default_reruns_certify(self, near_zero):
        ctx, x = near_zero
        got = scaled_touchard(self.N, x, ctx)
        want, cancel = integer_scaled_touchard(self.N, raw(x))
        assert_close(raw(got.value), want, mpf(10) ** -39)
        assert got.cancellation_digits == cancel

    @pytest.mark.parametrize("xi", ["0.5", "1"])
    def test_swamped_reruns_double_the_loss(self, xi, monkeypatch):
        # with no envelope the first pass expects no cancellation at all, and
        # about 0.19 n digits cancel; reruns sized from the swamped sum alone
        # gained about digits + 10 each and ran out
        ctx = mk_context(30)
        with mp.workdps(50):
            x = wrap_real(600 * mp.e * mpf(xi), ctx)
        want = scaled_touchard(599, x, ctx).value.to_str()
        monkeypatch.setattr(stirling, "_log10_envelope", lambda n, lx: mp.inf)
        assert scaled_touchard(599, x, ctx).value.to_str() == want


class TestEnvelope:
    # log10 of the saddle envelope of |T_n(-x)| from ln x alone, against the
    # formula of the code that took it from x: t0 = W_0(-(n+1)/x) and
    # Re(-x expm1(t0)) - (n+1) ln|t0| + ln n! + min(gauss, 0), all in mpmath
    # at 30 digits with x = e^(ln x), written out here. x is n e xi, or
    # gives L = ln(n+1) - ln x: just inside and just past +-690, where t0
    # comes from mpmath's float lambertw inside and its mpf one past it, and
    # L = -750, where t0 underflows to 0
    REFERENCE = [
        (1, "xi", 0.5, -0.29328226759815),
        (1, "xi", 1, 0.194879035370806),
        (1, "xi", 3, 1.04095940710345),
        (1, "L", 689.9, -5.66805371274692),
        (1, "L", 690.1, -5.66830787667829),
        (1, "L", -689.9, 299.938747096849),
        (1, "L", -690.1, 300.02560599323),
        (1, "L", -750, 326.039845459234),
        (100, "xi", 0.5, 191.10092601359),
        (100, "xi", 1, 231.61866627903),
        (100, "xi", 3, 288.258669497401),
        (100, "L", 689.9, -128.266708839004),
        (100, "L", 690.1, -128.279544117538),
        (100, "L", -689.9, 30162.4088022112),
        (100, "L", -690.1, 30171.0946918493),
        (100, "L", -750, 32772.5186384498),
        (7000, "xi", 0.5, 26296.0011774592),
        (7000, "xi", 1, 29100.193129491),
        (7000, "xi", 3, 33091.4326333077),
        (7000, "L", 689.9, 4036.01987311822),
        (7000, "L", 690.1, 4035.13023581733),
        (7000, "L", -689.9, 2124254.46200411),
        (7000, "L", -690.1, 2124862.47427877),
        (7000, "L", -750, 2306962.15054081),
    ]

    @pytest.mark.parametrize("n,kind,v,want", REFERENCE)
    def test_against_the_formula_in_x(self, n, kind, v, want, monkeypatch):
        lx = (math.log(n * math.e * v) if kind == "xi"
              else math.log(n + 1) - v)
        routes = []
        for name, mpctx in (("float", stirling.fp), ("mpf", stirling.mp)):
            real = mpctx.lambertw
            monkeypatch.setattr(mpctx, "lambertw", lambda z, real=real,
                                name=name: routes.append(name) or real(z))
        got = stirling._log10_envelope(n, lx)
        assert abs(got - want) < 1e-4
        mpf_route = kind == "L" and abs(v) > 690
        assert routes == ["mpf" if mpf_route else "float"]


class TestSizingFailsClosed:
    # a predicted size that is not finite sizes no pass: eval exits 4 and
    # names the predictor, a NaN envelope included, which min() would drop
    @pytest.mark.parametrize("name,size", [
        ("_log10_term_sum", math.nan), ("_mode_mean", math.nan),
        ("_log10_envelope", -math.inf), ("_log10_envelope", math.nan)],
        ids=["term_sum-nan", "mode_mean-nan", "envelope-minus_inf",
             "envelope-nan"])
    def test_non_finite_prediction_is_an_internal_error(self, name, size,
                                                        monkeypatch, capsys):
        monkeypatch.setattr(stirling, name, lambda *args: size)
        code = main(["eval", "--n", "51", "--xi", "1", "--digits", "40"])
        assert code == 4
        assert capsys.readouterr().err.startswith(f"touchard: error: {name} ")


class TestFarAboveN:
    # x = n e xi with xi up to 1e1000000: T_n(-x) has n log10 x digits, but
    # the sum works at a size set by n and the digits alone. The strings are
    # those of the Stirling-row layer this sum replaced, a row by Horner.
    ROW_LAYER = {
        "1e100000": "-1.80112228293146449187556045538496844118211548017971688"
                    "600049302604325770631797769533987706069639325140369289"
                    "820497183828e+99900866@120",
        "1e1000000": "-1.80112228293146449187556045538496844118211548017971688"
                     "600049302604325770631797769533987706069639325140369289"
                     "820497183873e+999000866@120",
    }

    @pytest.mark.parametrize("xi", sorted(ROW_LAYER))
    def test_eval_cost_is_set_by_n(self, xi, capsys):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            assert main(["eval", "--n", "1000", "--xi", xi]) == 0
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        report = json.loads(capsys.readouterr().out)
        assert report["exact"]["value"] == self.ROW_LAYER[xi]
        assert report["exact"]["verified"]
        # one int of n log2 x bits would be 41 MB at 1e100000 and 415 MB at
        # 1e1000000; an eval at n = 1000 and xi = 1 takes about 0.1 s
        assert peak < 4 << 20, f"peak {peak} B"
        assert elapsed < 5, f"{elapsed:.1f} s"

    @pytest.mark.parametrize("xi", ["1e3", "1e10", "1e1000", "1e100000"])
    def test_first_pass_certifies(self, xi, monkeypatch):
        # the envelope's Gaussian prefactor, about sqrt(n)/x here, sizes the
        # first pass; without it the envelope is log10 x digits too high
        monkeypatch.setattr(stirling, "MAX_ESCALATIONS", 0)
        ctx = mk_context(DIGITS)
        scaled_touchard(999, x_at(1000, xi, ctx), ctx)  # no raise


class TestCauchyOracle:
    # past the Stirling-row oracle's reach, T_n(-x)/n! as a trapezoid sum on
    # the circle through the saddle (tests/cauchy_oracle.py)
    D = 40

    @pytest.mark.parametrize("n", [1, 3, 10, 40, 150])
    @pytest.mark.parametrize("xi", ["0.05", "0.9", "1", "4"])
    def test_oracle_against_the_integer_row(self, n, xi):
        with mp.workdps(self.D + 10):
            x = n * mp.e * mpf(xi)
        got, nodes, loss = cauchy_scaled_touchard(n, x, self.D)
        want, _ = integer_scaled_touchard(n, x)
        assert_close(got, want, mpf(10) ** -(self.D + 4))
        assert nodes <= 4096 and 0 <= loss < 5

    @pytest.mark.parametrize("n", [1500, 3000])
    @pytest.mark.parametrize("xi", ["0.9", "1", "1.1"])
    def test_exact_layer_past_n_1000(self, n, xi):
        ctx = mk_context(self.D)
        x = x_at(n, xi, ctx)
        want, nodes, loss = cauchy_scaled_touchard(n, raw(x), self.D)
        assert nodes <= 4096 and loss < 5
        got = scaled_touchard(n, x, ctx)
        assert_close(raw(got.value), want, mpf(10) ** -self.D)


class TestCliExactAtAmbientPrecision:
    # the commands must not depend on mpmath's global 53-bit default
    def test_eval_exact_is_taken_at_the_stated_x(self):
        n, xi = 100, "0.97"
        with mp.workprec(53):
            report = cmd_eval(n, xi)
        x = x_at(n, xi, mk_context(DIGITS))
        want, cancel = integer_scaled_touchard(n - 1, raw(x))
        assert report["x"] == x.to_str()
        assert_close(raw(BigReal.parse(report["exact"]["value"])), want, "1e-110")
        assert report["exact"]["cancellation_digits"] == cancel

    def test_table1_exact_is_taken_at_the_stated_x(self):
        with mp.workprec(53):
            csv = cmd_table1(n_list=[50, 80], m_list=[0])
        ctx = mk_context(DIGITS)
        for line in csv.splitlines()[1:]:
            n = int(line.split(",")[0])
            want, _ = integer_scaled_touchard(n - 1, raw(x_at(n, 1, ctx)))
            assert_close(raw(BigReal.parse(line.split(",")[2])), want, "1e-110")

