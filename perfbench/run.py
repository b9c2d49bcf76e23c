"""Benchmark of the touchard package: one workload per call.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds T] [--trace 0|1]

Run from the root of a checkout; the package is imported from its src/.
Every measurement runs in a fresh single-threaded child process
(perfbench/worker.py), and every output of the first pass is checked here
against the oracles of perfbench/oracles.py, the paper's printed tables, or
properties of the method (perfbench/checks.py).

--trace 0 reports the end-to-end metrics:
    setup_s      median over SETUP_PROCESSES fresh processes of the time to
                 import touchard and finish the workload's warm-up operation
    pass_s       median time of one pass over the workload's operations
    peak_rss_mb  peak resident set size of the measuring process (MiB)
Both times are wall times scaled to the reference speed of speed.py, which
takes the shared host's swings in speed out of them; the raw wall times go
to perfbench/out/ beside them.
--trace 1 reports the per-layer metrics of tracer.py, per traced pass, and
    trace.overhead_s, the traced minus the untraced median pass time.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. Details go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DEFAULT_SECONDS = 25  # run_seconds in BENCHMARK.json
SETUP_PROCESSES = 5
DEADLINE_S = 170


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("TOUCHARD_DIGITS", None)  # measure at the default 120 digits
    # the package's figures are for mpmath's pure-Python backend
    env["MPMATH_NOGMPY"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args, mode: str, deadline: float, trace_out: Path | None = None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{mode} process overran the {DEADLINE_S} s budget")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(report["touchard_file"]).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"touchard imported from {report['touchard_file']}, "
                           f"not from {SRC}")
    return report


def check(workload: str, seed: int, report: dict):
    """(wrong values, known-fault messages, operations of one pass that the
    known fault fails) over the first pass's outputs. Every pass gave the
    same outputs, so each pass fails the same operations."""
    import checks

    ops = workloads.operations(workload, seed)
    outputs = report["outputs"]
    if len(outputs) != len(ops):
        return [f"{len(outputs)} outputs for {len(ops)} operations"], [], 0
    bad = [] if report["identical"] else ["passes gave different outputs"]
    faults = []
    faulted = 0
    for op, out in zip(ops, outputs):
        if isinstance(out, dict) and "error" in out and "message" in out:
            continue  # raised; the worker counted it in `failed`
        found = checks.check_output(op, out)
        bad += found.bad
        faults += found.faults
        faulted += bool(found.faults)
    return bad, faults, faulted


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    if not (SRC / "touchard" / "__init__.py").is_file():
        return _fail(f"no touchard package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))  # for the CSV reader the table checks use
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        if args.trace:
            report = _worker(args, "trace", deadline,
                             OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
            setups = []
        else:
            setups = [_worker(args, "setup", deadline)
                      for _ in range(SETUP_PROCESSES - 1)]
            report = _worker(args, "measure", deadline)
            setups.append(report)
    except RuntimeError as exc:
        return _fail(str(exc))

    failures, faults, faulted = check(args.workload, args.seed, report)
    untraced = report["untraced_scaled_s"]
    if args.trace:
        metrics = {name: {"value": v, "unit": "s" if name.endswith("_s") else "count"}
                   for name, v in report["layers"].items()}
        metrics["trace.overhead_s"] = {"value": report["overhead_s"], "unit": "s"}
        summary = (f"traced pass median {statistics.median(report['traced_scaled_s']):.4f} s, "
                   f"untraced {statistics.median(untraced):.4f} s, over "
                   f"{len(untraced)} + {len(report['traced_scaled_s'])} passes")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_scaled_s"] for s in setups),
                        "unit": "s"},
            "pass_s": {"value": statistics.median(untraced), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MiB"},
        }
        summary = (f"pass_s median of {len(untraced)} passes of "
                   f"{report['ops_per_pass']} operations (raw wall "
                   f"{statistics.median(report['untraced_pass_s']):.4f} s); "
                   f"setup_s median of {len(setups)} processes (raw wall "
                   f"{statistics.median(s['setup_s'] for s in setups):.4f} s)")
    result = {"correct": not failures, "attempted": report["attempted"],
              "failed": report["failed"] + faulted * report["passes"],
              "metrics": metrics}

    details = {**{k: v for k, v in report.items() if k != "outputs"},
               "workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "setup_s": [s["setup_s"] for s in setups],
               "setup_scaled_s": [s["setup_scaled_s"] for s in setups],
               "failures": failures, "known_faults": faults,
               "result": result}
    (OUT / f"result-{tag}.json").write_text(json.dumps(details, indent=1) + "\n")
    for msg in failures[:20]:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    if faults:
        print(f"perfbench: {faulted} operations per pass fail by a known "
              f"fault, e.g. {faults[0]}", file=sys.stderr)
    print(f"{tag}: {summary}; {len(failures)} check failures")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
