"""One measuring process: import touchard, warm up, run timed passes.

    python3 perfbench/worker.py --workload W --seed S --seconds T \
        --mode setup|measure|trace [--trace-out FILE]

setup    import touchard and run the workload's warm-up operation; report
         the time from process start to the end of the warm-up, raw and
         scaled to the reference speed of speed.py.
measure  the same set-up, then whole passes until T seconds have gone;
         report every pass time, raw and scaled, and the peak resident
         set size.
trace    untraced and traced passes in turn until T seconds have gone;
         report the per-layer totals of the traced passes and write every
         span to FILE.

The last line of standard output is one JSON object. Outputs of the first
pass are included, serialized; every later pass must serialize the same.
Run by run.py with PYTHONPATH pointing at the checkout's src/.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import touchard  # noqa: E402,F401
from mpmath import mp  # noqa: E402
from touchard import cli, coalescence, poincare, uniform  # noqa: E402
from touchard.errors import TouchardError  # noqa: E402
from touchard.numkernel import mk_context  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def execute(op: list, ctx):
    """Run one operation; module attributes are looked up at call time so
    that the tracer's wrappers are the ones called."""
    kind = op[0]
    if kind == "table1":
        return cli.cmd_table1()
    if kind == "table2":
        return cli.cmd_table2()
    if kind == "eval":
        return cli.cmd_eval(op[1], op[2])
    if kind == "theorem2":
        return uniform.theorem2_eval(op[1], op[2], ctx)
    if kind == "leading_order":
        with mp.workdps(ctx.digits + 10):
            mu = 1 / (mp.e * mp.mpf(op[2]))
        return poincare.leading_order(op[1], mu, ctx)
    if kind == "theorem1":
        return coalescence.theorem1_eval(op[1], op[2], ctx)
    if kind == "contours":
        return cli.cmd_contours(op[1], max_len=op[2])
    raise ValueError(f"unknown operation {op!r}")


def serialize(result):
    """JSON-able form of an operation's result (not timed)."""
    if isinstance(result, (str, dict)):
        return result
    if isinstance(result, poincare.PoincareResult):
        return {"value": result.value.to_str(), "regime": result.regime.value}
    return result.to_str()


def run_pass(ops: list, ctx, before: float) -> tuple[float, float, list, int, float]:
    """(wall time, time at reference speed, results, failed count, last
    reading) of one pass over `ops`. `before` is a reading of the host's
    speed taken just before the pass. Another is taken between operations
    after each stretch of speed.SEGMENT_S seconds; readings are not timed."""
    gc.collect()
    results = []
    failed = 0
    wall = scaled = segment = 0.0
    for i, op in enumerate(ops):
        start = time.perf_counter()
        try:
            results.append(execute(op, ctx))
        except TouchardError as exc:
            results.append({"error": type(exc).__name__, "message": str(exc)})
            failed += 1
        segment += time.perf_counter() - start
        if segment >= speed.SEGMENT_S or i == len(ops) - 1:
            after = speed.host_speed(segment)
            wall += segment
            scaled += segment * 2 * speed.REFERENCE_S / (before + after)
            before, segment = after, 0.0
    return wall, scaled, results, failed, before


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()

    ctx = mk_context(None)
    execute(workloads.WARMUP[args.workload], ctx)
    setup_s = time.perf_counter() - _T0
    speed.loop()  # fill mpmath's caches before the loop is timed
    reading = speed.host_speed(setup_s)
    report = {"setup_s": setup_s,
              "setup_scaled_s": setup_s * speed.REFERENCE_S / reading,
              "touchard_file": touchard.__file__}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    ops = workloads.operations(args.workload, args.seed)
    tracer = Tracer() if args.mode == "trace" else None
    untraced, traced = [], []  # (wall, scaled) per pass
    first = None
    identical = True
    passes = failed = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < args.seconds:
        # traced and untraced passes take turns going first
        order = (True, False) if passes % 4 == 2 else (False, True)
        for on in (order if tracer else (False,)):
            if on:
                tracer.install()
                tracer.begin_pass()
            wall, scaled, results, nfail, reading = run_pass(ops, ctx, reading)
            if on:
                tracer.uninstall()
            (traced if on else untraced).append((wall, scaled))
            out = [serialize(r) for r in results]
            if first is None:
                first = out
            elif json.dumps(out) != json.dumps(first):
                identical = False
            passes += 1
            failed += nfail

    report.update({
        "ops_per_pass": len(ops),
        "passes": passes,
        "attempted": passes * len(ops),
        "failed": failed,
        "untraced_pass_s": [w for w, _ in untraced],
        "untraced_scaled_s": [x for _, x in untraced],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "identical": identical,
        "outputs": first,
    })
    if tracer:
        report["traced_pass_s"] = [w for w, _ in traced]
        report["traced_scaled_s"] = [x for _, x in traced]
        report["layers"] = tracer.summary(len(traced))
        report["overhead_s"] = (statistics.median(report["traced_scaled_s"])
                                - statistics.median(report["untraced_scaled_s"]))
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
