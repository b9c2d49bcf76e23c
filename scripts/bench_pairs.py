"""Paired benchmark runs of a parent tree and the working tree.

    python3 scripts/bench_pairs.py --parent REV --label NAME

Both trees are exported clean into a temporary directory: the parent with
`git archive REV`, the change as the working tree's tracked and untracked
files that .gitignore does not exclude. The workloads, end-to-end metrics
and run length are those of BENCHMARK.json. Pair i of PAIRS runs
perfbench/run.py, unchanged, as a subprocess in both trees on every
workload with the seed SEEDS[i], the parent first in even pairs and the
change first in odd ones, with PYTHONDONTWRITEBYTECODE=1 and no
__pycache__ in either tree; after the workloads, in the same side order,
each side runs IMPORT_PROBE, a process of its own that imports
touchard.cli and reports the wall time of that import and its resident set
size after it, as perfbench's peak_rss_mb reads it (ru_maxrss). Then each
side runs once per workload with --trace 1 at the first seed. Last, each
tree writes its parity set with its own scripts/parity_set.py; this comes
after the probes, since a child process reports in ru_maxrss the resident
set of the process it was forked from, and reading the sets raises this
one's.

BENCH_<label>.json, written in the current directory, holds for each
workload and end-to-end metric the median and quartiles of either side and
the pairs the change won (lower; ties count for neither), with the values
of every pair in pair order; the same for the import time (import_s) and
the RSS right after import (import_rss_mb), once for the file, since the
import does not depend on the workload; the correct flag and failed count
of every run; the traced per-layer figures of both sides; the seed of each
pair and the run length; and under "parity" the two parity sets' file
counts and every line, by file and line number, whose strings differ, with
both strings (null for a line or file that one side lacks).
"""
from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
METRICS = tuple(m["name"] for m in BENCHMARK["end_to_end"])
SECONDS = BENCHMARK["run_seconds"]
PAIRS = 10
SEEDS = tuple(range(1, PAIRS + 1))
SIDES = ("parent", "change")
# run in a fresh process with the tree's src/ on PYTHONPATH
IMPORT_PROBE = ("import resource, time; t = time.perf_counter(); "
                "import touchard.cli; print(time.perf_counter() - t, "
                "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)")


def schedule(pairs: int, seeds: list[int], workloads) -> list[tuple]:
    """(pair, workload, seed, side) for every untraced run, in run order;
    workload None is the pair's IMPORT_PROBE run, after its workloads."""
    runs = []
    for i in range(pairs):
        seed = seeds[i % len(seeds)]
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        runs += [(i, w, seed, side) for w in (*workloads, None)
                 for side in order]
    return runs


def result_line(stdout: str) -> dict:
    """The JSON object on the last line of a perfbench/run.py run."""
    return json.loads(stdout.strip().splitlines()[-1])


def import_figures(stdout: str) -> tuple[float, float]:
    """(import time in s, RSS in MiB) from the last line of an IMPORT_PROBE
    run."""
    seconds, mib = map(float, stdout.strip().splitlines()[-1].split())
    return seconds, mib


def spread(values: list[float]) -> dict:
    """Median and quartiles (the inclusive method) of one side's values."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def wins(parent: list[float], change: list[float]) -> int:
    """Pairs in which the change reads lower than the parent."""
    return sum(c < p for p, c in zip(parent, change, strict=True))


def _paired(name: str, got: dict) -> dict[str, list]:
    """{side: its results in pair order} from {side: [(pair, result)]},
    refused unless both sides ran the same pairs."""
    got = {side: sorted(got[side], key=lambda r: r[0]) for side in SIDES}
    if [i for i, _ in got["parent"]] != [i for i, _ in got["change"]]:
        raise ValueError(f"{name}: the two sides ran different pairs")
    return {side: [res for _, res in got[side]] for side in SIDES}


def _metric(vals: dict[str, list[float]]) -> dict:
    """One metric's summary from {side: its values in pair order}."""
    return {**{side: {**spread(vals[side]), "values": vals[side]}
               for side in SIDES},
            "wins": wins(vals["parent"], vals["change"]),
            "pairs": len(vals["parent"])}


def summarize(label: str, runs: list[tuple], traces: dict, imports: list,
              meta: dict) -> dict:
    """The BENCH file from the untraced runs, (pair, workload, seed, side,
    result) in any order, the traced results, {(workload, side): result},
    and the IMPORT_PROBE figures, (pair, side, (seconds, MiB)) in any order.
    """
    probes = _paired("import", {side: [(i, f) for i, s, f in imports
                                       if s == side] for side in SIDES})
    out = {"label": label, **meta}
    for k, name in enumerate(("import_s", "import_rss_mb")):
        out[name] = _metric({side: [f[k] for f in probes[side]]
                             for side in SIDES})
    out["workloads"] = {}
    for w in dict.fromkeys(r[1] for r in runs):
        got = _paired(w, {side: [(r[0], r[4]) for r in runs
                                 if r[1] == w and r[3] == side]
                          for side in SIDES})
        entry = {side: {"correct": [res["correct"] for res in got[side]],
                        "failed": [res["failed"] for res in got[side]]}
                 for side in SIDES}
        for m in METRICS:
            entry[m] = _metric({side: [res["metrics"][m]["value"]
                                       for res in got[side]]
                                for side in SIDES})
        entry["trace"] = {side: {name: v["value"] for name, v in
                                 traces[w, side]["metrics"].items()}
                          for side in SIDES if (w, side) in traces}
        out["workloads"][w] = entry
    return out


def parity_diff(parent: Path, change: Path) -> dict:
    """The file count of each parity set and every (file, line) whose
    strings differ between them, the line numbered from 1 and a string None
    where its side lacks the line or the file; trailing newlines count as
    an empty last line."""
    roots = dict(zip(SIDES, (parent, change)))
    files = {side: {p.relative_to(root).as_posix()
                    for p in root.rglob("*") if p.is_file()}
             for side, root in roots.items()}
    differing = []
    for name in sorted(files["parent"] | files["change"]):
        lines = [(roots[side] / name).read_bytes().decode().split("\n")
                 if name in files[side] else [] for side in SIDES]
        differing += [{"file": name, "line": i, "parent": a, "change": b}
                      for i, (a, b) in enumerate(
                          itertools.zip_longest(*lines), start=1) if a != b]
    return {"files": {side: len(files[side]) for side in SIDES},
            "differing": differing}


def _export(rev: str | None, dest: Path) -> None:
    """The tree of rev, or with rev None the working tree's files that git
    does not ignore, into dest."""
    dest.mkdir(parents=True)
    if rev is not None:
        tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            archive.extractall(dest, filter="data")
        return
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True).stdout.decode().split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def _python(tree: Path, *args: str, **env: str) -> str:
    """The standard output of python with args in tree, no bytecode cache."""
    for cache in tree.rglob("__pycache__"):
        shutil.rmtree(cache)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", **env}
    return subprocess.run([sys.executable, *args], cwd=tree, env=env,
                          capture_output=True, text=True, check=True).stdout


def _run(tree: Path, workload: str, seed: int, trace: int) -> dict:
    return result_line(_python(
        tree, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(SECONDS), "--trace", str(trace)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        _export(args.parent, trees["parent"])
        _export(None, trees["change"])
        runs, imports = [], []
        for i, w, seed, side in schedule(PAIRS, list(SEEDS), WORKLOADS):
            if w is None:
                imports.append((i, side, import_figures(_python(
                    trees[side], "-c", IMPORT_PROBE,
                    PYTHONPATH=str(trees[side] / "src")))))
                print(f"pair {i} import {side}: {imports[-1][2]}",
                      file=sys.stderr)
                continue
            res = _run(trees[side], w, seed, 0)
            print(f"pair {i} {w} seed {seed} {side}: "
                  f"{json.dumps(res['metrics'])}", file=sys.stderr)
            runs.append((i, w, seed, side, res))
        traces = {(w, side): _run(trees[side], w, SEEDS[0], 1)
                  for w in WORKLOADS for side in SIDES}
        for side in SIDES:
            _python(trees[side], "scripts/parity_set.py", "--outdir",
                    str(Path(tmp) / "parity" / side),
                    PYTHONPATH=str(trees[side] / "src"))
        parity = parity_diff(*(Path(tmp) / "parity" / side for side in SIDES))
        print(f"parity: {parity['files']} files, "
              f"{len(parity['differing'])} differing lines", file=sys.stderr)
    meta = {"parent": args.parent, "change": "working tree",
            "pairs": PAIRS, "seconds": SECONDS, "seeds": list(SEEDS)}
    bench = {**summarize(args.label, runs, traces, imports, meta),
             "parity": parity}
    Path(f"BENCH_{args.label}.json").write_text(
        json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
