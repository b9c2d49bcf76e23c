"""Per-layer spans recorded from outside the package.

The tracer wraps the public functions below and rebinds each wrapper under
every name that refers to the original: the defining module, every touchard
module that imported it by name (``from .airy import airy`` and the like)
and the ``touchard`` namespace. Calls made inside the package are then
timed as well as calls made by the benchmark.

A span is (name, start, end, parent span, pass). Spans stay in memory and
are written out once, when the run ends. A function's self time is its
total time minus the time of the wrapped calls made directly inside it.
numkernel is not wrapped: its calls are too fine-grained, and their cost
shows in the callers' self time.
"""
from __future__ import annotations

import json
import sys
import time

WRAPPED = (
    ("cli", "cmd_table1"), ("cli", "cmd_table2"), ("cli", "cmd_eval"),
    ("cli", "cmd_contours"), ("cli", "contours_to_json"),
    ("stirling", "build_triangle"), ("stirling", "scaled_touchard"),
    ("saddle", "solve_saddles"),
    ("uniform", "uniform_ingredients"), ("uniform", "theorem2_eval"),
    ("airy", "airy"),
    ("coalescence", "theorem1_eval"),
    ("poincare", "leading_order"),
    ("contours", "contour_set"),
)
NAMES = tuple(f"{mod}.{fn}" for mod, fn in WRAPPED)


def _airy_route(result, maclaurin: bool) -> int:
    return int((result.method.value == "maclaurin") == maclaurin)


# Work counts read from a wrapped function's result: name -> (function, count).
COUNTS = {
    "stirling.build_triangle.rows": ("stirling.build_triangle",
                                     lambda r: len(r.rows)),
    "airy.airy.maclaurin_calls": ("airy.airy",
                                  lambda r: _airy_route(r, True)),
    "airy.airy.asymptotic_calls": ("airy.airy",
                                   lambda r: _airy_route(r, False)),
    "contours.contour_set.points": ("contours.contour_set",
                                    lambda r: sum(len(pl.points)
                                                  for pl in r.polylines)),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, pass]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._child_ns: list[int] = []
        self._stack: list[int] = []
        self._pass = -1
        self._bound: list[tuple] = []

    def begin_pass(self) -> None:
        self._pass += 1

    def _wrap(self, name: str, fn):
        counters = [(key, count) for key, (owner, count) in COUNTS.items()
                    if owner == name]
        spans, child_ns, stack = self.spans, self._child_ns, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else None, self._pass])
            child_ns.append(0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1:3] = (start, end)
                if stack:
                    child_ns[stack[-1]] += end - start
            for key, count in counters:
                self.counts[key] += count(result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every name of every wrapped function to its wrapper."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "touchard"
                                         or key.startswith("touchard."))]
        for mod, fn_name in WRAPPED:
            orig = getattr(sys.modules[f"touchard.{mod}"], fn_name)
            wrapper = self._wrap(f"{mod}.{fn_name}", orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._bound.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in self._bound:
            setattr(m, attr, orig)
        self._bound.clear()

    def summary(self, passes: int) -> dict:
        """Per-pass calls, total seconds and self seconds of each function,
        and the per-pass work counts."""
        calls = dict.fromkeys(NAMES, 0)
        total = dict.fromkeys(NAMES, 0)
        self_ns = dict.fromkeys(NAMES, 0)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_ns[name] += end - start - self._child_ns[idx]

        def per_pass(count: int):
            return count // passes if count % passes == 0 else count / passes

        out = {}
        for name in NAMES:
            out[f"{name}.calls"] = per_pass(calls[name])
            out[f"{name}.total_s"] = total[name] / passes / 1e9
            out[f"{name}.self_s"] = self_ns[name] / passes / 1e9
        for key, value in self.counts.items():
            out[key] = per_pass(value)
        return out

    def write(self, path: str) -> None:
        """All spans as JSON lines, times in ns from the first span."""
        t0 = min((s[1] for s in self.spans), default=0)
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, pas) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "pass": pas, "parent": parent,
                    "start_ns": start - t0, "end_ns": end - t0,
                    "self_ns": end - start - self._child_ns[idx]}) + "\n")
