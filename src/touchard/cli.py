"""Command-line harness: error tables, point evaluation, contours, Bm export.

Subcommands:

    touchard table1 [--n 50,80,121] [--m 0,1,3,4,6] [--digits D] [--out f.csv]
    touchard table2 [--xi 0.80,...] [--n 81,100] [--digits D] [--out f.csv]
    touchard eval --n N --xi X [--digits D]
    touchard contours --xi X [--step S] [--max-len L] [--digits D] [--out f.json]
    touchard bm [--max M] [--out f.json]

Tables are CSV with columns n,param,exact,approx,rel_err; the exact and
approx columns carry the full serialized precision so rel_err can be (and
on load, is) recomputed from the row itself. All output is deterministic:
identical invocations produce byte-identical bytes. Exit codes: 0 success,
2 domain error, 3 precision exhausted, 4 internal consistency failure.
--xi, --step and --max-len are read by numkernel.real_from, so text that is
not a finite number exits 2, as does an empty --xi list. --digits is the
working precision in significant digits, from 30 to 4300; 120 when not given.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple

from mpmath import mp, mpc, mpf

from .coalescence import (_BM_CHECK, _sin_third, check_order, default_bm,
                          theorem1_eval)
from .contours import ContourSet, contour_set
from .errors import (CapacityError, DomainError, InternalConsistencyError,
                     OrderError, TouchardError)
from .numkernel import (BigReal, _sci, mk_context, raw, read_int, real_from,
                        working_digits, wrap_real)
from .poincare import EXCLUSION_HALF_WIDTH, leading_order
from .saddle import mu_at, mu_from_xi
from .stirling import N_MAX_LIMIT, scaled_touchard, scaled_value
from .uniform import theorem2_eval, uniform_ingredients

CSV_HEADER = "n,param,exact,approx,rel_err"
THEOREM1_XI_WINDOW = 0.02

DEFAULT_N_TABLE1 = (50, 80, 121)
DEFAULT_M_TABLE1 = (0, 1, 3, 4, 6)
DEFAULT_XI_TABLE2 = ("0.80", "0.90", "0.95", "0.99", "1.00",
                     "1.01", "1.05", "1.10", "1.20", "1.40")
DEFAULT_N_TABLE2 = (81, 100)


class ErrorRow(NamedTuple):
    n: int
    param: BigReal
    exact: BigReal
    approx: BigReal
    rel_err: mpf  # printed at 4 digits

    def to_csv(self) -> str:
        return ",".join([str(self.n), self.param.to_str(),
                         self.exact.to_str(), self.approx.to_str(),
                         _sci(self.rel_err, 4)])


def _relative_error(exact: BigReal, approx: BigReal) -> mpf:
    with mp.workdps(working_digits(exact.ctx, 1)):
        ev = exact.value
        if ev == 0:
            raise DomainError("relative error undefined against an exact zero")
        return abs(approx.value - ev) / abs(ev)


def make_row(n: int, param: BigReal, exact: BigReal,
             approx: BigReal) -> ErrorRow:
    return ErrorRow(n=n, param=param, exact=exact, approx=approx,
                    rel_err=_relative_error(exact, approx))


def rows_to_csv(rows) -> str:
    return "\n".join([CSV_HEADER] + [r.to_csv() for r in rows]) + "\n"


def load_error_rows(text: str) -> list[ErrorRow]:
    """Parse a table CSV, recomputing rel_err from the row's own values."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise DomainError("not a touchard table CSV (bad header)")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 5 or not parts[0].isdecimal():
            raise DomainError(f"malformed CSV row: {ln!r}")
        n = int(parts[0])
        param = BigReal.parse(parts[1])
        exact = BigReal.parse(parts[2])
        approx = BigReal.parse(parts[3])
        rel = _relative_error(exact, approx)
        if _sci(rel, 4) != parts[4]:
            raise InternalConsistencyError(
                f"stored rel_err {parts[4]} does not match the value "
                f"recomputed from the row ({_sci(rel, 4)})")
        rows.append(ErrorRow(n=n, param=param, exact=exact, approx=approx,
                             rel_err=rel))
    return rows


# ---------------------------------------------------------------------------
# table commands

def _exact_x(n: int, xi, ctx) -> BigReal:
    """x = n e xi of the exact row T^_{n-1}(-x); an n whose row lies past
    N_MAX_LIMIT is refused first, by the n the user gave."""
    read_int(n, 2, N_MAX_LIMIT + 1, "n", CapacityError)
    with mp.workdps(working_digits(ctx, 1)):
        return wrap_real(n * mp.e * raw(xi), ctx)


def cmd_table1(n_list=None, m_list=None, digits: int | None = None) -> str:
    n_list = [read_int(n, 2, error=OrderError) for n in
              (DEFAULT_N_TABLE1 if n_list is None else n_list)]
    m_list = list(DEFAULT_M_TABLE1 if m_list is None else m_list)
    if not n_list or not m_list:
        raise DomainError("table1 needs a non-empty --n and --m list")
    for m in m_list:
        check_order(m)
    ctx = mk_context(digits)
    rows = []
    for n in n_list:
        exact = scaled_value(n - 1, _exact_x(n, 1, ctx), ctx)
        for m in m_list:
            approx = theorem1_eval(n, m, ctx)
            rows.append(make_row(n, real_from(m, ctx), exact, approx))
    return rows_to_csv(rows)


def cmd_table2(xi_list=None, n_list=None, digits: int | None = None) -> str:
    xi_list = list(DEFAULT_XI_TABLE2 if xi_list is None else xi_list)
    n_list = [read_int(n, 2) for n in
              (DEFAULT_N_TABLE2 if n_list is None else n_list)]
    if not xi_list or not n_list:
        raise DomainError("table2 needs a non-empty --xi and --n list")
    ctx = mk_context(digits)
    params = [real_from(xi, ctx) for xi in xi_list]
    rows = []
    for xi, xi_br in zip(xi_list, params):
        # exact at xi rounded to ctx, as printed; approx at the text xi
        ing = uniform_ingredients(xi, ctx, max(n_list))
        for n in n_list:
            exact = scaled_value(n - 1, _exact_x(n, xi_br, ctx), ctx)
            approx = theorem2_eval(n, ing, ctx)
            rows.append(make_row(n, xi_br, exact, approx))
    return rows_to_csv(rows)


# ---------------------------------------------------------------------------
# point evaluation

def _error_entry(exc: TouchardError) -> dict:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def _method_entry(fn, exact: BigReal) -> dict:
    try:
        value = fn()
        return {"value": value.to_str(),
                "rel_err": _sci(_relative_error(exact, value), 4)}
    except TouchardError as exc:
        return _error_entry(exc)


def cmd_eval(n: int, xi, digits: int | None = None) -> dict:
    read_int(n, 2)
    ctx = mk_context(digits)
    xi_br = real_from(xi, ctx)
    mu = mu_from_xi(xi_br, ctx)
    with mp.workdps(working_digits(ctx, 1)):
        near_coalescence = abs(raw(xi_br) - 1) < THEOREM1_XI_WINDOW
        outside_band = abs(raw(mu) * mp.e - 1) > EXCLUSION_HALF_WIDTH
    x = _exact_x(n, xi_br, ctx)
    exact = scaled_touchard(n - 1, x, ctx)
    report = {
        "n": n,
        "xi": xi_br.to_str(),
        "x": x.to_str(),
        "mu": mu.to_str(),
        "digits": ctx.digits,
        "exact": {
            "value": exact.value.to_str(),
            "cancellation_digits": exact.cancellation_digits,
            "verified": True,  # scaled_touchard certifies or raises
        },
        "methods": {},
    }
    if near_coalescence:
        report["methods"]["theorem1"] = _method_entry(
            lambda: theorem1_eval(n, 6, ctx), exact.value)
    try:
        ing = uniform_ingredients(xi, ctx, n)
    except TouchardError as exc:
        report["methods"]["theorem2"] = _error_entry(exc)
        report["saddles"] = _error_entry(exc)
    else:
        report["methods"]["theorem2"] = _method_entry(
            lambda: theorem2_eval(n, ing, ctx), exact.value)

        def text(v) -> str:  # rounded to ctx; a saddle as (re,im)
            if isinstance(v, mpc):
                return f"({text(v.real)},{text(v.imag)})"
            return wrap_real(v, ctx).to_str()

        report["saddles"] = {"kind": ing.saddles.kind.value, **{
            key: text(v) for key, v in (
                ("t0", ing.saddles.t0), ("t1", ing.saddles.t1),
                ("zeta", ing.zeta), ("re_beta", ing.beta.real),
                ("A0", ing.A0), ("B0", ing.B0))}}
    if outside_band:
        report["methods"]["poincare"] = _method_entry(
            lambda: leading_order(n, mu_at(xi, working_digits(ctx, n)),
                                  ctx).value, exact.value)
    return report


# ---------------------------------------------------------------------------
# contours and Bm export

_EMIT_CTX = mk_context(30)  # plot-ready rounding for emitted polylines


def contours_to_json(cs: ContourSet) -> dict:
    def d30(v: float) -> str:
        # 30 digits by format, zero unsigned; unlike _sci, exact ties to even
        return f"{v or 0.0:.29e}@30"

    def polyline(pl) -> dict:
        # points[0] is the saddle, printed from its full-precision value
        saddle = [wrap_real(v, _EMIT_CTX).to_str()
                  for v in (pl.saddle.real, pl.saddle.imag)]
        return {
            "saddle": saddle,
            "kind": pl.kind,
            "launch_theta": pl.launch_theta,
            "stop_reason": pl.stop_reason,
            "im_psi_drift": _sci(pl.im_psi_drift, 4),
            "points": [saddle, *([d30(p.real), d30(p.imag)]
                                 for p in pl.points[1:])],
        }

    return {
        "xi": cs.xi.to_str(),
        "mu": cs.mu.to_str(),
        "saddle_kind": cs.saddle_kind.value,
        "polylines": [polyline(pl) for pl in cs.polylines],
    }


def cmd_contours(xi, digits: int | None = None, step=None, max_len=None) -> dict:
    ctx = mk_context(digits)
    return contours_to_json(contour_set(real_from(xi, ctx), ctx,
                                        step=step, max_len=max_len))


def cmd_bm(max_order: int = 12) -> dict:
    entries = []
    for m, b in enumerate(default_bm(max_order)):
        entries.append({
            "m": m,
            "numerator": str(b.numerator),
            "denominator": str(b.denominator),
            "contributes": _sin_third(m) != 0,
            "cross_checked": m in _BM_CHECK,
        })
    return {"order": max_order, "entries": entries}


# ---------------------------------------------------------------------------
# argument plumbing

def _str_list(text: str) -> list[str]:
    return [p.strip() for p in text.split(",") if p.strip() != ""]


def _int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in _str_list(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="touchard",
        description="High-precision Touchard polynomial asymptotics near "
                    "saddle coalescence")
    sub = ap.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("table1", help="error table for the coalescence series")
    p1.add_argument("--n", type=_int_list)
    p1.add_argument("--m", type=_int_list)
    p1.set_defaults(run=lambda a: cmd_table1(a.n, a.m, a.digits))

    p2 = sub.add_parser("table2", help="error table for the uniform approximation")
    p2.add_argument("--xi", type=_str_list)
    p2.add_argument("--n", type=_int_list)
    p2.set_defaults(run=lambda a: cmd_table2(a.xi, a.n, a.digits))

    pe = sub.add_parser("eval", help="evaluate one (n, xi) point by all methods")
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--xi", required=True)
    pe.set_defaults(run=lambda a: _json(cmd_eval(a.n, a.xi, a.digits)))

    pc = sub.add_parser("contours", help="trace steepest descent/ascent paths")
    pc.add_argument("--xi", required=True)
    pc.add_argument("--step")
    pc.add_argument("--max-len", dest="max_len")
    pc.set_defaults(run=lambda a: _json(
        cmd_contours(a.xi, a.digits, a.step, a.max_len)))

    pb = sub.add_parser("bm", help="export the series coefficients as JSON")
    pb.add_argument("--max", dest="max_order", type=int, default=12)
    pb.set_defaults(run=lambda a: _json(cmd_bm(a.max_order)))
    for p in (p1, p2, pe, pc):  # bm's coefficients are exact rationals
        p.add_argument("--digits", type=int,
                       help="working precision in digits, 30 to 4300 (default: 120)")
    for p in (p1, p2, pe, pc, pb):
        p.add_argument("--out", help="write output to this path")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = args.run(args)
    except TouchardError as exc:
        print(f"touchard: error: {exc}", file=sys.stderr)
        return exc.exit_code
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
