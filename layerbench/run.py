"""Layered benchmark of swapinsert, checked against an independent reference.

Run from the repository root:

    python3 layerbench/run.py --workload memo-dp --seed 1 --seconds 25 --trace 0

One client calls the package one operation at a time (a closed loop, no
threads) in whole rounds until ``--seconds`` have passed; a round is one
distance call and one script call on every pair of the workload.  Every
output is checked against ``reference.py`` outside the timed region.  A
distance above the reference, with a valid script, counts as a failed
operation and the run goes on; a distance below it, or a script that
fails a check, stops the run.

``--trace 0`` prints the end-to-end metrics: the median set-up time
(importing the package and generating the pairs, once before the first
round and once after each), the medians over rounds of the distance
calls' and the script calls' wall time, and the peak RSS of a fresh
child process that runs each operation once.
``--trace 1`` runs the same operations through wrappers that record
spans around the package's layers and prints the per-layer figures,
medians over rounds; the spans are written to ``layerbench/out/``.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import gc
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads
from reference import ReplayError, reference_distance, replay
from spans import Tracer, operations_s, round_figures

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "dist_wall_s": "s",
    "script_wall_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "indexing.alphabet_s": "s",
    "indexing.index_s": "s",
    "indexing.index_peak_mb": "MiB",
    "engine.solve_s": "s",
    "engine.reconstruct_s": "s",
    "engine.memo_entries": "count",
    "engine.us_per_memo_entry": "us",
    "engine.bytes_per_memo_entry": "B",
    "engine.script_ops": "count",
    "toolkit.generate_s": "s",
    "toolkit.instance_stats_s": "s",
    "cli.parse_s": "s",
    "cli.self_s": "s",
    "cli.solves_per_call": "count",
    "cli.alphabet_builds_per_call": "count",
}

_OP_KINDS = {"Insert": "ins", "Swap": "swap", "Delete": "del"}


class CheckFailed(Exception):
    """An output is wrong in a way that stops the run."""


def import_package():
    """(Re-)import swapinsert; main() puts this checkout's src first on sys.path."""
    for name in [m for m in sys.modules if m == "swapinsert" or m.startswith("swapinsert.")]:
        del sys.modules[name]
    return importlib.import_module("swapinsert"), importlib.import_module("swapinsert.cli")


class SetUp:
    """Repeated set-up: import the package and generate the workload's raw pairs.

    The first repeat supplies the modules and pairs the run uses.  Later
    repeats run between rounds, so the median set-up time samples the
    whole run rather than one moment of it.
    """

    def __init__(self, workload: str, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.walls: list = []
        self.generate: list = []
        self.api, self.cli, self.raw = self.repeat()

    def repeat(self):
        gc.collect()
        tracer = self.tracer
        lo = len(tracer.spans) if tracer else 0
        t0 = perf_counter()
        api, cli = import_package()
        make = tracer.wrap("toolkit.generate", api.generate_instance) if tracer else \
            api.generate_instance
        raw = [make(spec) for spec in workloads.specs(api, self.workload)]
        self.walls.append(perf_counter() - t0)
        if tracer:
            self.generate.append(sum(s[2] - s[1] for s in tracer.spans[lo:]) / 1e9)
        return api, cli, raw


class Checker:
    """Checks outputs against the reference and tallies operations."""

    def __init__(self, pairs) -> None:
        self.pairs = pairs
        self.refs = [reference_distance(p.source, p.target) for p in pairs]
        self.attempted = 0
        self.failed = 0
        self.script_ops = 0

    def engine_result(self, k: int, with_script: bool, result) -> None:
        """An EngineResult from correction_distance or distance(_with_script)."""
        self.attempted += 1
        if not result.distance.is_finite:
            raise CheckFailed(f"pair {k}: unreachable distance on a feasible pair")
        value = result.distance.value
        over = self._over(k, value)
        if with_script:
            ops = [(_OP_KINDS[type(op).__name__], op.position, getattr(op, "symbol", None))
                   for op in result.script.ops]
            self._script(k, ops, value, deletes=False)
        self.failed += over

    def cli_report(self, k: int, with_script: bool, output) -> None:
        """The exit code and JSON report of one `swapinsert dist` call."""
        code, text = output
        self.attempted += 1
        pair = self.pairs[k]
        if code != 0:
            raise CheckFailed(f"pair {k}: exit code {code}")
        report = json.loads(text)
        value = report["distance"]
        n, m = len(pair.source), len(pair.target)
        stats = (report["n"], report["m"], report["d"], report["g"])
        if stats != _stats(pair):
            raise CheckFailed(f"pair {k}: n, m, d, g reported as {stats}, expected {_stats(pair)}")
        over = self._over(k, value)
        if pair.weighted:
            c_ins, c_swap = map(Fraction, workloads.CLI_WEIGHTS)
            # equals the formula at the reference distance; an over-long
            # distance (a failed operation) is held to its own value
            expected = c_ins * (m - n) + c_swap * (value - (m - n))
            if Fraction(report["weighted_cost"]) != expected:
                raise CheckFailed(f"pair {k}: weighted cost {report['weighted_cost']} != {expected}")
        if with_script:
            ops = [(op["op"], op["pos"], op.get("symbol")) for op in report["script"]]
            self._script(k, ops, value, deletes=pair.swap_delete)
        self.failed += over

    def _over(self, k: int, value: int) -> bool:
        ref = self.refs[k]
        if value < ref:
            raise CheckFailed(f"pair {k}: distance {value} below the reference {ref}")
        return value > ref

    def _script(self, k: int, ops: list, value: int, deletes: bool) -> None:
        pair = self.pairs[k]
        start, goal = (pair.target, pair.source) if deletes else (pair.source, pair.target)
        try:
            out = replay(start, ops)
        except ReplayError as exc:
            raise CheckFailed(f"pair {k}: script does not replay: {exc}") from None
        if out != list(goal):
            raise CheckFailed(f"pair {k}: script does not produce the goal string")
        if len(ops) != value:
            raise CheckFailed(f"pair {k}: script length {len(ops)} != distance {value}")
        edits = sum(1 for op in ops if op[0] != "swap")
        edit = "del" if deletes else "ins"
        if edits != len(pair.target) - len(pair.source) or any(
                op[0] not in ("swap", edit) for op in ops):
            raise CheckFailed(f"pair {k}: script needs exactly m - n {edit} operations")
        self.script_ops += len(ops)


def _stats(pair) -> tuple:
    n_counts = {sym: pair.source.count(sym) for sym in set(pair.target)}
    g = max(min(n_counts[sym], pair.target.count(sym) - n_counts[sym]) for sym in n_counts)
    return len(pair.source), len(pair.target), len(n_counts), g


def _operation(workload: str, pairs, api, cli, tracer=None):
    """The call under test, as f(k, with_script) on pair k.

    On chain-long and memo-dp it is correction_distance; traced, it is
    taken apart into the layer calls correction_distance makes.  On
    cli-small it is swapinsert.cli.main, returning (exit code, stdout).
    """
    if workload == "cli-small":
        argvs = [(p.argv(False), p.argv(True)) for p in pairs]
        main = tracer.wrap("cli.main", cli.main) if tracer else cli.main

        def call(k, with_script):
            out = io.StringIO()
            with redirect_stdout(out):
                code = main(argvs[k][with_script])
            return code, out.getvalue()
        return call
    if tracer is None:
        def call(k, with_script):
            return api.correction_distance(pairs[k].source, pairs[k].target,
                                           with_script=with_script)
        return call
    alphabet = tracer.wrap("indexing.alphabet", api.build_alphabet)
    index = tracer.wrap("indexing.index", api.index_string)
    solve = {False: tracer.wrap("engine.distance", api.distance, counted=True),
             True: tracer.wrap("engine.distance_with_script", api.distance_with_script,
                               counted=True)}

    def call(k, with_script):
        source, target = pairs[k].source, pairs[k].target
        codes = alphabet(source, target)
        return solve[with_script](index(source, codes), index(target, codes))
    return call


def _install_cli_wrappers(tracer: Tracer, cli) -> list:
    """Wrap the functions swapinsert.cli calls; returns what to restore."""
    engine = sys.modules["swapinsert.engine"]
    toolkit = sys.modules["swapinsert.toolkit"]
    saved = []

    def patch(module, name, wrapped):
        saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapped)

    for name, counted in (("correction_distance", True), ("swap_delete_correction", True),
                          ("weighted_distance", False)):
        patch(cli, name, tracer.wrap("engine." + name, getattr(cli, name), counted))
    patch(cli, "instance_stats", tracer.wrap("toolkit.instance_stats", cli.instance_stats))
    for module in (cli, engine, toolkit):
        patch(module, "build_alphabet",
              tracer.wrap("indexing.alphabet", module.build_alphabet))
    for module in (cli, engine):
        patch(module, "index_string", tracer.wrap("indexing.index", module.index_string))
    build_parser = tracer.wrap("cli.parse", cli.build_parser)

    def traced_build_parser():
        parser = build_parser()
        parser.parse_args = tracer.wrap("cli.parse", parser.parse_args)
        return parser
    patch(cli, "build_parser", traced_build_parser)
    return saved


def run_rounds(workload, pairs, checker, seconds, setup: SetUp, tracer=None) -> list:
    """Whole rounds until ``seconds`` pass, a set-up repeat after each; returns
    each round's figures."""
    operation = _operation(workload, pairs, setup.api, setup.cli, tracer)
    check = checker.cli_report if workload == "cli-small" else checker.engine_result
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        gc.collect()
        lo = len(tracer.spans) if tracer else 0
        ops_before = checker.script_ops
        wall = [0.0, 0.0]
        for k in range(len(pairs)):
            for with_script in (False, True):
                if tracer:
                    with tracer.operation(k, "script" if with_script else "dist"):
                        output = operation(k, with_script)
                else:
                    t0 = perf_counter()
                    output = operation(k, with_script)
                    wall[with_script] += perf_counter() - t0
                check(k, with_script, output)
                # freed here, not inside the next timed call
                del output
        if tracer:
            figures = round_figures(tracer.spans, lo, len(tracer.spans))
            figures["operations_s"] = operations_s(tracer.spans, lo, len(tracer.spans))
        else:
            figures = {"dist_wall_s": wall[False], "script_wall_s": wall[True]}
        figures["engine.script_ops"] = checker.script_ops - ops_before
        rounds.append(figures)
        setup.repeat()
    return rounds


def memory_pass(api, pairs) -> dict:
    """Peak traced allocation of indexing, and of distance() per memo entry.

    Runs once, after the timed rounds: tracemalloc slows allocation-heavy
    code several times over, so nothing else is timed while it is on.
    """
    index_peak = memo_bytes = entries = 0
    tracemalloc.start()
    try:
        for pair in pairs:
            codes = api.build_alphabet(pair.source, pair.target)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            source = api.index_string(pair.source, codes)
            target = api.index_string(pair.target, codes)
            index_peak = max(index_peak, tracemalloc.get_traced_memory()[1] - base)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = api.distance(source, target)
            if result.memo_entries:
                memo_bytes += tracemalloc.get_traced_memory()[1] - base
                entries += result.memo_entries
            del source, target, result
    finally:
        tracemalloc.stop()
    return {
        "indexing.index_peak_mb": index_peak / 2 ** 20,
        "engine.bytes_per_memo_entry": memo_bytes / entries if entries else 0.0,
    }


def child_peak_rss_mb(workload: str, seed: int) -> float:
    """Peak RSS of a fresh interpreter that sets up and runs each operation once."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--rss-child"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"peak-RSS child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["peak_rss_mb"]


def rss_child(workload: str, seed: int) -> None:
    api, cli = import_package()
    raw = [api.generate_instance(spec) for spec in workloads.specs(api, workload)]
    pairs = workloads.relabel(workload, raw, seed)
    operation = _operation(workload, pairs, api, cli)
    for k in range(len(pairs)):
        for with_script in (False, True):
            operation(k, with_script)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": peak_kib / 1024}))


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def end_to_end(workload, seed, seconds, setup, pairs, checker) -> dict:
    peak = child_peak_rss_mb(workload, seed)
    rounds = run_rounds(workload, pairs, checker, seconds, setup)
    values = {name: statistics.median(r[name] for r in rounds)
              for name in ("dist_wall_s", "script_wall_s")}
    values.update(setup_s=statistics.median(setup.walls), peak_rss_mb=peak)
    return _metrics(values, END_TO_END)


def per_layer(workload, seed, seconds, tracer, setup, pairs, checker) -> dict:
    saved = _install_cli_wrappers(tracer, setup.cli) if workload == "cli-small" else []
    try:
        rounds = run_rounds(workload, pairs, checker, seconds, setup, tracer)
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)
    values = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    values.update(memory_pass(setup.api, pairs))
    values["toolkit.generate_s"] = statistics.median(setup.generate)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    tracer.dump(str(path), {"workload": workload, "seed": seed, "rounds": len(rounds),
                            "median": values})
    print(f"{len(rounds)} traced rounds, operations {values['operations_s']:.4f} s "
          f"per round with tracing; spans in {path}", file=sys.stderr)
    return _metrics(values, PER_LAYER)


def benchmark(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    tracer = Tracer() if traced else None
    setup = SetUp(workload, tracer)
    pairs = workloads.relabel(workload, setup.raw, seed)
    checker = Checker(pairs)
    try:
        if traced:
            metrics = per_layer(workload, seed, seconds, tracer, setup, pairs, checker)
        else:
            metrics = end_to_end(workload, seed, seconds, setup, pairs, checker)
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": checker.attempted, "failed": checker.failed,
                "metrics": {}}
    return {"correct": True, "attempted": checker.attempted, "failed": checker.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "swapinsert" / "__init__.py").is_file():
        print(f"error: no swapinsert package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.rss_child:
        rss_child(args.workload, args.seed)
        return 0
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
