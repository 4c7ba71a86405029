"""In-memory spans for the traced run, and the per-layer figures derived from them.

A span is [name, start_ns, end_ns, parent, pair, call, count]: ``parent``
is the index of the enclosing span (-1 at the root), ``pair`` and
``call`` ("dist" or "script") identify the operation it belongs to, and
``count`` is the memo-entry count an engine span returned, if any.  The
spans are kept in a list and written out once, when the run ends.
"""

import json
from contextlib import contextmanager
from time import perf_counter_ns

FIELDS = ("name", "start_ns", "end_ns", "parent", "pair", "call", "count")

ENGINE = "engine."


class Tracer:
    """Records nested spans from wrappers around the package's public functions."""

    def __init__(self) -> None:
        self.spans: list = []
        self._open: list = []
        self._pair = None
        self._call = None

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self._pair, self._call, None])
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter_ns()
        self._open.pop()

    @contextmanager
    def operation(self, pair: int, call: str):
        """Root span of one benchmark operation: one call on one pair."""
        self._pair, self._call = pair, call
        idx = self._begin("call." + call)
        try:
            yield
        finally:
            self._end(idx)
            self._pair = self._call = None

    def wrap(self, name: str, fn, counted: bool = False):
        """``fn`` inside a span; ``counted`` keeps the result's memo_entries."""
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if counted:
                self.spans[idx][6] = result.memo_entries
            return result
        return traced

    def dump(self, path: str, summary: dict) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": FIELDS, "spans": self.spans, "summary": summary}, handle)


def round_figures(spans: list, lo: int, hi: int) -> dict:
    """Per-layer figures of the operations recorded in spans[lo:hi].

    A span's self time is its duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    own = {idx: spans[idx][2] - spans[idx][1] for idx in range(lo, hi)}
    for idx in range(lo, hi):
        parent = spans[idx][3]
        if parent >= lo:
            own[parent] -= spans[idx][2] - spans[idx][1]
    time_ns = {}
    calls = {}
    engine_ns = {}
    memo_entries = 0
    memo_ns = 0
    for idx in range(lo, hi):
        name, _, _, _, pair, call, count = spans[idx]
        time_ns[name] = time_ns.get(name, 0) + own[idx]
        calls[name] = calls.get(name, 0) + 1
        if name.startswith(ENGINE):
            key = (pair, call)
            engine_ns[key] = engine_ns.get(key, 0) + own[idx]
            if call == "dist" and count:
                memo_entries += count
                memo_ns += own[idx]
    solve_ns = sum(ns for (_, call), ns in engine_ns.items() if call == "dist")
    script_ns = sum(ns for (_, call), ns in engine_ns.items() if call == "script")
    mains = calls.get("cli.main", 0)
    engine_calls = sum(n for name, n in calls.items() if name.startswith(ENGINE))
    return {
        "indexing.alphabet_s": time_ns.get("indexing.alphabet", 0) / 1e9,
        "indexing.index_s": time_ns.get("indexing.index", 0) / 1e9,
        "engine.solve_s": solve_ns / 1e9,
        # every pair makes one dist and one script call, so the script calls'
        # engine time minus the dist calls' is the reconstruction time
        "engine.reconstruct_s": (script_ns - solve_ns) / 1e9,
        "engine.memo_entries": memo_entries,
        "engine.us_per_memo_entry": memo_ns / 1e3 / memo_entries if memo_entries else 0.0,
        "toolkit.instance_stats_s": time_ns.get("toolkit.instance_stats", 0) / 1e9,
        "cli.parse_s": time_ns.get("cli.parse", 0) / 1e9,
        "cli.self_s": time_ns.get("cli.main", 0) / 1e9,
        "cli.solves_per_call": engine_calls / mains if mains else 0.0,
        "cli.alphabet_builds_per_call":
            calls.get("indexing.alphabet", 0) / mains if mains else 0.0,
    }


def operations_s(spans: list, lo: int, hi: int) -> float:
    """Wall time of the operations recorded in spans[lo:hi], tracing included."""
    return sum(end - start for name, start, end, parent, *_ in spans[lo:hi]
               if parent == -1 and name.startswith("call.")) / 1e9
