"""End-to-end acceptance checks, one test per shipping criterion.

Each test prints a single summary line; run with -v for the per-criterion
pass/fail listing. Reference relative errors are the published 4 significant
digit table values; a cell passes when the recomputed error lands within one
unit of the reference's last printed digit.

One published cell is a misprint: Table 2 at (xi = 1.01, n = 81) prints
5.300e-3 where the two-term uniform formula gives 5.296e-3. Criterion 2 checks
that cell against TABLE2_ERRATA instead; the evidence is
test_table2_erratum_independent_oracle, which re-derives the cell without the
package's code. It shares only mpmath's lambertw with the package.
"""
import math
import time

from mpmath import mp, mpc, mpf

from touchard import (airy, default_bm, mk_context,
                      real_from, scaled_touchard, solve_saddles, theorem1_eval,
                      theorem2_eval, wrap_real)
from touchard.coalescence import _BM_CHECK
from touchard.contours import contour_set
from touchard.numkernel import raw, working_digits
from touchard.saddle import SaddleKind, mu_from_xi, psi_reduced_raw

from airy_oracle import airy_maclaurin
from bm_oracle import forward_series
from leading_order_decay import halving_ratios
from recurrence_oracle import touchard_recurrence
from stirling_oracle import integer_scaled_touchard, stirling2_row

from fractions import Fraction

DIGITS = 120

TABLE1_PRINTED = {
    (50, 0): "2.514e-1", (80, 0): "2.095e-1", (121, 0): "1.788e-1",
    (50, 1): "8.558e-3", (80, 1): "5.390e-3", (121, 1): "3.585e-3",
    (50, 3): "2.744e-3", (80, 3): "1.437e-3", (121, 3): "8.144e-4",
    (50, 4): "1.638e-4", (80, 4): "6.490e-5", (121, 4): "2.868e-5",
    (50, 6): "6.184e-5", (80, 6): "2.029e-5", (121, 6): "7.616e-6",
}

TABLE2_PRINTED = {
    ("0.80", 81): "5.243e-3", ("0.80", 100): "8.179e-3",
    ("0.90", 81): "7.413e-3", ("0.90", 100): "3.322e-3",
    ("0.95", 81): "5.545e-3", ("0.95", 100): "4.540e-3",
    ("0.99", 81): "5.356e-3", ("0.99", 100): "4.355e-3",
    ("1.00", 81): "5.324e-3", ("1.00", 100): "4.326e-3",
    ("1.01", 81): "5.300e-3", ("1.01", 100): "4.301e-3",
    ("1.05", 81): "5.204e-3", ("1.05", 100): "4.222e-3",
    ("1.10", 81): "5.122e-3", ("1.10", 100): "4.153e-3",
    ("1.20", 81): "5.010e-3", ("1.20", 100): "4.060e-3",
    ("1.40", 81): "4.878e-3", ("1.40", 100): "3.951e-3",
}

# Printed Table 2 cells that are misprints, mapped to the corrected value.
# (1.01, 81): the paper prints 5.300e-3, 4.5 units above the 5.29552e-3 that
# the two-term formula gives. An independent evaluation (mpmath lambertw and
# airyai, integer Stirling row) gives the same value at every precision and
# reproduces the printed row-mates, e.g. (1.01, 100) and (1.05, 81), to within
# one unit. The n = 81 / n = 100 ratio runs 1.2300, 1.2307, 1.2313, 1.2326 for
# xi = 0.99, 1.00, 1.01, 1.05; the printed value would make it 1.2323. No
# neighbouring n gives 5.300e-3, and the printed value corresponds to
# xi ~ 1.0082, not to a rounded xi.
TABLE2_ERRATA = {("1.01", 81): "5.296e-3"}


def ulp_margin(rel, printed: str):
    """Signed distance from the printed 4 digit value, in last-digit units."""
    want = mpf(printed)
    ulp = mpf(10) ** (mp.floor(mp.log10(want)) - 3)
    return (rel - want) / ulp


def rel_against_exact(approx, exact):
    return abs(raw(approx) - raw(exact.value)) / abs(raw(exact.value))


def oracle_table2_rel(xi: str, n: int, dps: int):
    """Relative error of the two-term uniform formula at a Table 2 cell, xi > 1.

    Independent of the package: the saddles come from mpmath.lambertw on
    branches 0 and -1, Ai and Ai' from mpmath.airyai, and the exact value
    T_{n-1}(-x)/(n-1)! from an integer Stirling row; zeta, beta, A0 and B0
    follow the formulas in the touchard.uniform docstring. The exact sum
    cancels about 13 digits at these cells.
    """
    with mp.workdps(dps):
        xi = mpf(xi)
        assert xi > 1, "the oracle covers the real-saddle regime only"
        x = n * mp.e * xi
        m = n - 1
        exact = mp.fsum(s * (-x) ** k for k, s in enumerate(stirling2_row(m)))
        exact /= math.factorial(m)
        mu = 1 / (mp.e * xi)
        t0 = mp.re(mp.lambertw(-mu, 0))
        t1 = mp.re(mp.lambertw(-mu, -1))
        # psi at a real negative saddle is 1/t - log|t| - i pi; the i pi
        # cancels in psi(t1) - psi(t0) and is dropped from Re beta
        p0 = 1 / t0 - mp.log(-t0)
        p1 = 1 / t1 - mp.log(-t1)
        re_beta = (p0 + p1) / 2
        zeta = (mpf(3) / 4 * (p1 - p0)) ** (mpf(2) / 3)
        sq = mp.sqrt(zeta)
        gp = mp.sqrt(2 * sq * t0 ** 2 / (1 + t0))
        gm = mp.sqrt(-2 * sq * t1 ** 2 / (1 + t1))
        a0 = (gp + gm) / 2
        b0 = (gp - gm) / (2 * sq)
        nn = mpf(n)
        z = nn ** (mpf(2) / 3) * zeta
        approx = (-1) ** m * mp.exp(x + nn * re_beta) * (
            a0 * mp.airyai(z) / nn ** (mpf(1) / 3)
            - b0 * mp.airyai(z, derivative=1) / nn ** (mpf(2) / 3))
        return abs(approx / exact - 1)


def aitken_bells(n_max: int) -> list:
    """Bell numbers from the Bell (Aitken) triangle, pure integer recurrence."""
    bells = [1]
    row = [1]
    for _ in range(n_max):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        bells.append(new[0])
        row = new
    return bells


def test_criterion_1_table1_cells():
    ctx = mk_context(DIGITS)
    start = time.monotonic()
    margins = {}
    with mp.workdps(DIGITS + 20):
        for n in (50, 80, 121):
            x = wrap_real(n * mp.e, ctx)
            exact = scaled_touchard(n - 1, x, ctx)
            for m in (0, 1, 3, 4, 6):
                rel = rel_against_exact(theorem1_eval(n, m, ctx), exact)
                margins[(n, m)] = ulp_margin(rel, TABLE1_PRINTED[(n, m)])
    elapsed = time.monotonic() - start
    worst = max(margins.items(), key=lambda kv: abs(kv[1]))
    bad = {k: float(v) for k, v in margins.items() if abs(v) > 1}
    assert elapsed < 120, f"criterion 1: table took {elapsed:.1f}s (budget 120s)"
    assert not bad, f"criterion 1: FAIL - cells beyond 1 ulp: {bad}"
    print(f"criterion 1: PASS - 15/15 cells within 1 ulp "
          f"(worst {float(worst[1]):+.3f} ulp at {worst[0]}, {elapsed:.1f}s)")


def test_criterion_2_table2_cells():
    ctx = mk_context(DIGITS)
    start = time.monotonic()
    reference = {**TABLE2_PRINTED, **TABLE2_ERRATA}
    margins = {}
    computed = {}
    with mp.workdps(DIGITS + 20):
        for xi in ("0.80", "0.90", "0.95", "0.99", "1.00",
                   "1.01", "1.05", "1.10", "1.20", "1.40"):
            xi_br = real_from(xi, ctx)
            for n in (81, 100):
                x = wrap_real(n * mp.e * raw(xi_br), ctx)
                exact = scaled_touchard(n - 1, x, ctx)
                rel = rel_against_exact(theorem2_eval(n, xi_br, ctx), exact)
                computed[(xi, n)] = rel
                margins[(xi, n)] = ulp_margin(rel, reference[(xi, n)])
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"criterion 2: table took {elapsed:.1f}s (budget 120s)"
    bad = {k: float(v) for k, v in margins.items() if abs(v) > 1}
    if bad:
        detail = "; ".join(
            f"(xi={k[0]}, n={k[1]}): computed {mp.nstr(computed[k], 5)} vs "
            f"{'erratum' if k in TABLE2_ERRATA else 'printed'} {reference[k]} "
            f"({v:+.2f} ulp)"
            for k, v in sorted(bad.items()))
        raise AssertionError(
            "criterion 2: FAIL - " + detail + ". The erratum cell (1.01, 81) "
            "is 5.296e-3 (printed 5.300e-3, a misprint); the independent "
            "evidence is test_table2_erratum_independent_oracle.")
    worst = max(margins.items(), key=lambda kv: abs(kv[1]))
    print(f"criterion 2: PASS - 20/20 cells within 1 ulp, "
          f"{len(TABLE2_ERRATA)} against the erratum "
          f"(worst {float(worst[1]):+.3f} ulp at {worst[0]}, {elapsed:.1f}s)")


def test_table2_erratum_independent_oracle():
    cell = ("1.01", 81)
    assert set(TABLE2_ERRATA) == {cell} and cell in TABLE2_PRINTED
    ctx = mk_context(DIGITS)
    with mp.workdps(DIGITS + 20):
        rel = oracle_table2_rel(*cell, DIGITS)
        # the oracle rounds to the erratum, and the printed value is out of reach
        assert abs(ulp_margin(rel, TABLE2_ERRATA[cell])) < mpf("0.5"), \
            f"oracle {mp.nstr(rel, 8)} does not round to {TABLE2_ERRATA[cell]}"
        assert abs(ulp_margin(rel, TABLE2_PRINTED[cell])) > 1, \
            f"oracle {mp.nstr(rel, 8)} is within 1 ulp of the printed value"
        # unchanged under precision doubling (60 -> 120 -> 240 digits)
        for dps in (DIGITS // 2, 2 * DIGITS):
            other = oracle_table2_rel(*cell, dps)
            assert abs(other / rel - 1) < mpf(10) ** (-(DIGITS // 2 - 20)), \
                f"oracle at {dps} digits moved to {mp.nstr(other, 25)}"
        # agrees with the package's uniform route against its exact sum
        n = cell[1]
        xi_br = real_from(cell[0], ctx)
        x = wrap_real(n * mp.e * raw(xi_br), ctx)
        exact = scaled_touchard(n - 1, x, ctx)
        pkg = rel_against_exact(theorem2_eval(n, xi_br, ctx), exact)
        assert abs(pkg / rel - 1) < mpf("1e-10"), \
            f"package {mp.nstr(pkg, 15)} vs oracle {mp.nstr(rel, 15)}"
        # the oracle is the paper's formula: every other printed xi > 1 cell
        # lands within 1 ulp, among them the row-mates (1.01, 100), (1.05, 81)
        mates = {k: ulp_margin(oracle_table2_rel(*k, 60), v)
                 for k, v in TABLE2_PRINTED.items()
                 if mpf(k[0]) > 1 and k not in TABLE2_ERRATA}
        assert {("1.01", 100), ("1.05", 81)} <= set(mates)
        bad = {k: float(v) for k, v in mates.items() if abs(v) > 1}
        assert not bad, f"oracle misses printed xi > 1 cells: {bad}"
    print(f"erratum (1.01, 81): oracle {mp.nstr(rel, 12)} rounds to "
          f"{TABLE2_ERRATA[cell]} (printed {TABLE2_PRINTED[cell]}); "
          f"{len(mates)} printed xi > 1 cells reproduced within 1 ulp")


def test_criterion_3_exact_rationals():
    fwd = forward_series(10)
    expected_f = {3: Fraction(1, 6), 4: Fraction(5, 24), 5: Fraction(23, 120),
                  6: Fraction(119, 720), 7: Fraction(719, 5040)}
    for j, want in expected_f.items():
        assert fwd[j] == want, \
            f"criterion 3: FAIL - f_{j} = {fwd[j]} != {want}"
    table = default_bm()
    for m, want in _BM_CHECK.items():
        assert table[m] == want, \
            f"criterion 3: FAIL - B_{m} = {table[m]} != {want}"
    assert set(_BM_CHECK) == {0, 1, 3, 4, 6}
    print("criterion 3: PASS - forward coefficients and B_m exact")


def test_criterion_4_seam_consistency():
    ctx = mk_context(DIGITS)
    with mp.workdps(DIGITS + 20):
        tol = mpf(10) ** (-(DIGITS - 10))
        worst = mpf(0)
        for n in (50, 81, 100, 121):
            a = raw(theorem1_eval(n, 1, ctx))
            b = raw(theorem2_eval(n, "1", ctx))
            worst = max(worst, abs(b / a - 1))
        assert worst < tol, \
            f"criterion 4: FAIL - seam mismatch {mp.nstr(worst, 3)} >= {mp.nstr(tol, 3)}"
        print(f"criterion 4: PASS - one-term seam agreement to "
              f"{mp.nstr(worst, 3)} (tolerance {mp.nstr(tol, 3)})")


def test_criterion_5_exact_value_cross_checks():
    ctx = mk_context(DIGITS)
    with mp.workdps(DIGITS + 20):
        pairs = [(n, n * mp.e) for n in (50, 80, 121)]
        for xi in ("0.80", "0.90", "0.95", "0.99", "1.00",
                   "1.01", "1.05", "1.10", "1.20", "1.40"):
            for n in (81, 100):
                pairs.append((n, n * mp.e * mpf(xi)))
        tol = mpf(10) ** (-(DIGITS - 10))
        worst = mpf(0)
        for n, x in pairs:
            x = wrap_real(x, ctx)
            a = raw(scaled_touchard(n - 1, x, ctx).value) \
                * math.factorial(n - 1)
            b = touchard_recurrence(n - 1, -raw(x), ctx.digits)  # exact here
            scale = max(abs(a), mpf(1))
            worst = max(worst, abs(a - b) / scale)
        assert worst < tol, \
            f"criterion 5: FAIL - exact sum vs recurrence gap {mp.nstr(worst, 3)}"
    bells = aitken_bells(60)
    minus_one = real_from(-1, ctx)
    for n in range(61):
        # x = -1 lies outside the package's domain: the oracle sums it
        row_sum = sum(stirling2_row(n))
        with mp.workdps(DIGITS + 20):
            poly = int(mp.nint(integer_scaled_touchard(n, raw(minus_one))[0]
                               * math.factorial(n)))
        assert row_sum == bells[n] == poly, \
            f"criterion 5: FAIL - row sum identity breaks at n={n}"
    print(f"criterion 5: PASS - 23 evaluation pairs agree "
          f"(worst {mp.nstr(worst, 3)}); row sums match Bell numbers to n=60")


def test_criterion_6_saddle_certificates():
    ctx = mk_context(DIGITS)
    xis = ("0.80", "0.90", "0.95", "0.99", "1.00",
           "1.01", "1.05", "1.10", "1.20", "1.40")
    with mp.workdps(DIGITS + 20):
        res_tol = mpf(10) ** (-(DIGITS - 10))
        sym_tol = mpf(10) ** (-(DIGITS - 8))
        worst_sum = mpf(0)
        for xi in xis:
            mu = raw(mu_from_xi(xi, ctx))
            pair = solve_saddles(mu, working_digits(ctx, 1))
            assert raw(pair.residual0) < res_tol * mu and \
                raw(pair.residual1) < res_tol * mu, \
                f"criterion 6: FAIL - residual certificate at xi={xi}"
            t0, t1 = raw(pair.t0), raw(pair.t1)
            if pair.kind is SaddleKind.CONJUGATE_PAIR:
                assert abs(t1 - mp.conj(t0)) < sym_tol, \
                    f"criterion 6: FAIL - conjugate symmetry at xi={xi}"
            s = psi_reduced_raw(t0) + psi_reduced_raw(t1)
            gap = abs(mp.im(s) + 2 * mp.pi)
            worst_sum = max(worst_sum, gap)
            assert gap < sym_tol, \
                f"criterion 6: FAIL - Im(psi0 + psi1) != -2pi at xi={xi}"
        print(f"criterion 6: PASS - residuals certified and branch invariant "
              f"held for 10 xi values (worst gap {mp.nstr(worst_sum, 3)})")


def test_criterion_7_leading_order_decay():
    ratios = halving_ratios(mk_context(60))
    assert all(0.3 <= r <= 0.7 for r in ratios), \
        f"criterion 7: FAIL - halving ratios {ratios} outside [0.3, 0.7]"
    print(f"criterion 7: PASS - error halving ratios {tuple(round(r, 3) for r in ratios)}")


def test_criterion_8_airy_quality():
    ctx = mk_context(DIGITS)
    with mp.workdps(DIGITS + 20):
        tol8 = mpf(10) ** (-(DIGITS - 8))
        tol12 = mpf(10) ** (-(DIGITS - 12))
        v0 = airy(real_from(0, ctx), ctx)
        ai0 = mpf(3) ** (mpf(-2) / 3) / mp.gamma(mpf(2) / 3)
        aip0 = -(mpf(3) ** (mpf(-1) / 3)) / mp.gamma(mpf(1) / 3)
        assert abs(raw(v0.ai) - ai0) < tol8 * abs(ai0), \
            "criterion 8: FAIL - Ai(0) closed form"
        assert abs(raw(v0.ai_prime) - aip0) < tol8 * abs(aip0), \
            "criterion 8: FAIL - Ai'(0) closed form"
        worst = mpf(0)
        for z in (-5, -2, -1, 0, 1, 2, 5):
            resid = abs(airy_maclaurin(z, DIGITS)[2]
                        - z * raw(airy(real_from(z, ctx), ctx).ai))
            worst = max(worst, resid)
        assert worst < tol12, \
            f"criterion 8: FAIL - ODE residual {mp.nstr(worst, 3)} >= {mp.nstr(tol12, 3)}"
        print(f"criterion 8: PASS - closed forms and ODE grid "
              f"(worst residual {mp.nstr(worst, 3)})")


def test_criterion_9_contour_geometry():
    ctx = mk_context(40)
    budget = mpf("1e-8")
    sets = {xi: contour_set(xi, ctx) for xi in ("1", "1.8", "0.8")}
    with mp.workdps(50):
        for xi, cs in sets.items():
            for pl in cs.polylines:
                assert raw(pl.im_psi_drift) < budget, \
                    f"criterion 9: FAIL - drift budget at xi={xi}"
        plus, minus = sets["1"].polylines[0], sets["1"].polylines[1]
        for pl, want in ((plus, mp.pi / 3), (minus, -mp.pi / 3)):
            got = mp.arg(mpc(pl.points[3]) - raw(pl.saddle))
            assert abs(got - want) < mpf("1e-6"), \
                "criterion 9: FAIL - launch direction at the double saddle"
        outer = [pl for pl in sets["1.8"].polylines
                 if pl.kind == "ascent" and raw(pl.saddle).real < -1]
        assert len(outer) == 2
        for pl in outer:
            crossing = next(p for p in pl.points if p.real >= 8)
            assert abs(abs(crossing.imag) - mp.pi) < mpf("0.01"), \
                "criterion 9: FAIL - outer-saddle ascent misses the pm pi rails"
    print("criterion 9: PASS - launch angles, drift budget, and rail "
          "convergence all hold")
