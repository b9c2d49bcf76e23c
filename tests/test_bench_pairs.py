"""The pure parts of scripts/bench_pairs.py on canned perfbench result
lines: the schedule of pairs, medians and quartiles, wins and the shape of
the BENCH file. No benchmark runs."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def line(pass_s, setup_s=0.1, rss=21.5, correct=True, failed=0):
    """A perfbench/run.py output as it ends: a summary, then the result."""
    metrics = {"setup_s": {"value": setup_s, "unit": "s"},
               "pass_s": {"value": pass_s, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MiB"}}
    return ("asymptotic-sweep-seed1-trace0: pass_s median ...\n"
            + json.dumps({"correct": correct, "attempted": 90,
                          "failed": failed, "metrics": metrics}) + "\n")


def test_schedule_alternates_with_the_same_seeds(bench):
    runs = bench.schedule(4, [7, 8, 9], ["a", "b"])
    assert len(runs) == 24
    for i in range(4):
        mine = [r for r in runs if r[0] == i]
        assert mine == runs[6 * i:6 * i + 6]  # pair by pair
        assert {r[2] for r in mine} == {[7, 8, 9, 7][i]}
        first = "parent" if i % 2 == 0 else "change"
        # the import probe (workload None) once per side, after the pair's
        # workloads, in the pair's side order
        assert [r[1] for r in mine] == ["a", "a", "b", "b", None, None]
        for w in ("a", "b", None):
            sides = [r[3] for r in mine if r[1] == w]
            assert sides == [first, *({"parent", "change"} - {first})]


def test_result_line_reads_the_last_line(bench):
    assert bench.result_line(line(0.2))["metrics"]["pass_s"]["value"] == 0.2


def test_spread_and_wins(bench):
    assert bench.spread([3.0, 1.0, 2.0, 4.0, 5.0]) == \
        {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench.spread([0.5]) == {"median": 0.5, "q1": 0.5, "q3": 0.5}
    # ties count for neither side
    assert bench.wins([1.0, 2.0, 3.0], [0.5, 2.0, 3.5]) == 1
    with pytest.raises(ValueError):
        bench.wins([1.0, 2.0], [1.0])


def test_summary_shape(bench):
    parent = [0.21, 0.20, 0.22, 0.21]
    change = [0.16, 0.15, 0.23, 0.16]
    runs = [(i, "asymptotic-sweep", i + 1, side,
             bench.result_line(line(v, correct=i != 3 or side == "parent",
                                    failed=int(i == 3 and side == "change"))))
            for side, vals in (("change", change), ("parent", parent))
            for i, v in enumerate(vals)]
    traced = {"metrics": {"airy.airy.total_s": {"value": 0.05, "unit": "s"},
                          "airy.airy.asymptotic_calls": {"value": 29,
                                                         "unit": "count"}}}
    traces = {("asymptotic-sweep", "parent"): traced,
              ("asymptotic-sweep", "change"): traced}
    meta = {"parent": "abc", "change": "working tree", "pairs": 4,
            "seeds": [1, 2, 3, 4], "seconds": 5.0}
    # one probe per side and pair, in any order
    seconds = {"parent": [0.060, 0.041, 0.102, 0.050],
               "change": [0.045, 0.040, 0.065, 0.050]}
    imports = [(i, side, (seconds[side][i], 18.25 if side == "parent"
                          else 18.0 + i / 8))
               for i in (2, 0, 3, 1) for side in ("change", "parent")]
    out = bench.summarize("x", runs, traces, imports, meta)
    assert json.loads(json.dumps(out)) == out
    assert {k: out[k] for k in meta} == meta and out["label"] == "x"
    # once for the file, before the workloads, summarized as a metric is
    assert list(out)[-3:] == ["import_s", "import_rss_mb", "workloads"]
    imp = out["import_s"]
    assert imp["parent"]["values"] == seconds["parent"]
    assert imp["change"]["values"] == seconds["change"]
    assert imp["parent"]["median"] == pytest.approx(0.055)
    assert imp["change"]["median"] == pytest.approx(0.0475)
    assert imp["wins"] == 3 and imp["pairs"] == 4  # pair 3 ties
    rss = out["import_rss_mb"]
    assert rss["change"]["values"] == [18.0, 18.125, 18.25, 18.375]
    assert rss["parent"] == {"median": 18.25, "q1": 18.25, "q3": 18.25,
                             "values": [18.25] * 4}
    assert rss["wins"] == 2  # pair 2 ties
    entry = out["workloads"]["asymptotic-sweep"]
    assert set(entry) == {"parent", "change", "trace", *bench.METRICS}
    assert entry["change"] == {"correct": [True, True, True, False],
                               "failed": [0, 0, 0, 1]}
    p = entry["pass_s"]
    assert p["parent"]["values"] == parent and p["change"]["values"] == change
    assert p["parent"]["median"] == pytest.approx(0.21)
    assert p["change"]["median"] == pytest.approx(0.16)
    assert p["wins"] == 3 and p["pairs"] == 4
    assert entry["setup_s"]["wins"] == 0  # equal in every pair
    assert entry["trace"]["change"] == {"airy.airy.total_s": 0.05,
                                        "airy.airy.asymptotic_calls": 29}


def test_summary_refuses_unmatched_pairs(bench):
    probes = [(0, "parent", (0.05, 18.0)), (0, "change", (0.05, 18.0))]
    runs = [(0, "w", 1, "parent", bench.result_line(line(0.2))),
            (1, "w", 2, "change", bench.result_line(line(0.2)))]
    with pytest.raises(ValueError, match="w: the two sides ran different"):
        bench.summarize("x", runs, {}, probes, {})
    matched = [(0, "w", 1, side, bench.result_line(line(0.2)))
               for side in ("parent", "change")]
    with pytest.raises(ValueError, match="import: the two sides ran"):
        bench.summarize("x", matched, {}, probes[:1], {})


def test_import_rss_reads_the_last_line(bench, capsys):
    # the IMPORT_PROBE program prints the import time in s and ru_maxrss in
    # MiB as its last line
    assert bench.import_figures("warning: something\n0.0241 18.5\n") == \
        (0.0241, 18.5)
    assert "import touchard.cli; print(time.perf_counter() - t" in \
        bench.IMPORT_PROBE
    assert "ru_maxrss / 1024" in bench.IMPORT_PROBE
    # run here, where the package is imported already: the line it prints
    # reads back as a time and a size
    exec(bench.IMPORT_PROBE, {})
    seconds, mib = bench.import_figures(capsys.readouterr().out)
    assert 0 <= seconds < 1 and mib > 1


def test_runs_are_set_by_the_benchmark(bench, capsys):
    # workloads, metrics and run length come from BENCHMARK.json; pairs and
    # seeds are constants, and no option may set any of them
    declared = json.loads((SCRIPT.parent.parent / "BENCHMARK.json")
                          .read_text())
    assert bench.WORKLOADS == tuple(w["name"] for w in declared["workloads"])
    assert bench.METRICS == tuple(m["name"] for m in declared["end_to_end"])
    assert bench.SECONDS == declared["run_seconds"]
    assert bench.PAIRS == 10 and bench.SEEDS == tuple(range(1, 11))
    for extra in (["--change", "HEAD"], ["--pairs", "3"], ["--seeds", "1"],
                  ["--seconds", "5"], ["--workloads", "contours"]):
        with pytest.raises(SystemExit):
            bench.main(["--parent", "HEAD", "--label", "x", *extra])
    assert "unrecognized arguments" in capsys.readouterr().err
