"""Command-line front end: dist, oracle, stats, bench, and selftest.

Exit codes are a function of the outcome only: 0 success/finite, 1 usage
or disagreement, 2 unreachable distance, 3 oracle budget exceeded.
Script lines print as ``ins <pos> <symbol>``, ``swap <pos>`` and
``del <pos>`` with 1-based positions into the working string, directly
replayable in order.
"""

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from .engine import (
    correction_distance,
    swap_delete_correction,
    weighted_distance,
)
from .indexing import build_alphabet, index_string
from .oracles import (
    DEFAULT_STATE_BUDGET,
    InstanceTooLarge,
    matching_distance,
    ucs_distance,
)
from .scripts import Delete, Insert, Swap
from .toolkit import (
    GeneratorSpec,
    exhaustive_oracle_check,
    instance_stats,
    run_bench,
)


class _InputError(Exception):
    """An input that cannot be read; reported as an ``error:`` line, exit 1."""


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, keeping 2 and 3 free for outcomes
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("weights must be non-negative")
    return value


def _sizes(text: str) -> List[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not values or any(v < 0 for v in values):
        raise argparse.ArgumentTypeError("sizes must be non-negative integers")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _ratio(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    # NaN fails this test too
    if not 1 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number of at least 1, got {text}")
    return value


def _add_input_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("source", nargs="?", help="source string (file path with --files)")
    sub.add_argument("target", nargs="?", help="target string (file path with --files)")
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument("--files", action="store_true",
                      help="read the two strings from the named files")
    mode.add_argument("--stdin", action="store_true",
                      help="read the two strings from the first two stdin lines")
    sub.add_argument("--bytes", dest="as_bytes", action="store_true",
                     help="treat inputs as byte sequences instead of unicode text")


def _decode(data: bytes, name: str) -> str:
    # text input is strict UTF-8, whatever the locale
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _InputError(f"{name}: {exc}") from None


def _read_file(path: str, as_bytes: bool):
    # one trailing line end is stripped
    with open(path, "rb") as handle:
        data = handle.read()
    if data.endswith(b"\n"):
        data = data[:-2] if data.endswith(b"\r\n") else data[:-1]
    return data if as_bytes else _decode(data, path)


def _stdin_lines(data):
    # a line ends only at "\n", and one "\r" before it is dropped, the rule
    # _read_file applies; splitlines() would also split at "\x0c", "\x85",
    # a lone "\r" and more, all of which are symbols here
    lines = re.split("\r?\n" if isinstance(data, str) else b"\r?\n", data)
    if not lines[-1]:
        lines.pop()
    return lines


def _resolve_inputs(args, parser: argparse.ArgumentParser):
    if args.stdin:
        if args.source is not None or args.target is not None:
            parser.error("--stdin takes no positional strings")
        data = sys.stdin.buffer.read()
        lines = _stdin_lines(data if args.as_bytes else _decode(data, "<stdin>"))
        if len(lines) < 2:
            parser.error("expected two input lines on stdin")
        return lines[0], lines[1]
    if args.source is None or args.target is None:
        parser.error("two input strings are required")
    if args.files:
        return (_read_file(args.source, args.as_bytes),
                _read_file(args.target, args.as_bytes))
    if args.as_bytes:
        return args.source.encode("utf-8"), args.target.encode("utf-8")
    return args.source, args.target


def _echo(value) -> object:
    # bytes are not JSON-representable; list their integer values
    if isinstance(value, (bytes, bytearray)):
        return list(value)
    return value


def _script_lines(script) -> List[str]:
    # a byte symbol prints as its integer value, a text symbol as itself
    lines = []
    for op in script.ops:
        if isinstance(op, Insert):
            lines.append(f"ins {op.position} {op.symbol}")
        elif isinstance(op, Swap):
            lines.append(f"swap {op.position}")
        elif isinstance(op, Delete):
            lines.append(f"del {op.position}")
    return lines


def _script_json(script) -> List[dict]:
    out = []
    for op in script.ops:
        if isinstance(op, Insert):
            out.append({"op": "ins", "pos": op.position, "symbol": _echo(op.symbol)})
        elif isinstance(op, Swap):
            out.append({"op": "swap", "pos": op.position})
        elif isinstance(op, Delete):
            out.append({"op": "del", "pos": op.position})
    return out


def _cost_json(cost):
    return cost.value if cost.is_finite else None


def _cost_text(cost) -> str:
    return str(cost.value) if cost.is_finite else "unreachable"


def _cmd_dist(args, parser) -> int:
    source, target = _resolve_inputs(args, parser)
    if args.ops == "swap-delete":
        result = swap_delete_correction(source, target)
    else:
        result = correction_distance(source, target, with_script=args.script)
    stats = result.stats
    weighted = None
    if (args.c_ins, args.c_swap) != (1, 1):
        weighted = result.weighted_cost(args.c_ins, args.c_swap)
    if args.json:
        report = {
            "command": "dist",
            "ops": args.ops,
            "source": _echo(source),
            "target": _echo(target),
            "distance": _cost_json(result.distance),
            "reachable": result.distance.is_finite,
            "n": stats.n, "m": stats.m, "d": stats.d,
            "g": stats.g, "s": stats.s,
            "memo_entries": result.memo_entries,
            "state_bound": stats.predicted_state_bound,
            "feasible": stats.feasible,
        }
        if weighted is not None:
            report["weights"] = {"c_ins": str(args.c_ins), "c_swap": str(args.c_swap)}
            report["weighted_cost"] = (
                str(weighted.value) if weighted.is_finite else None
            )
        if args.script and result.script is not None:
            report["script"] = _script_json(result.script)
        print(json.dumps(report, indent=2))
    else:
        print(f"distance: {_cost_text(result.distance)}")
        print(f"n: {stats.n}  m: {stats.m}  d: {stats.d}  g: {stats.g}  s: {stats.s}")
        print(f"memo entries: {result.memo_entries} (bound {stats.predicted_state_bound})")
        if weighted is not None:
            print(f"weighted cost ({args.c_ins}, {args.c_swap}): {_cost_text(weighted)}")
        if args.script and result.script is not None:
            print("script:")
            for line in _script_lines(result.script):
                print(line)
    return 0 if result.distance.is_finite else 2


def _cmd_oracle(args, parser) -> int:
    source, target = _resolve_inputs(args, parser)
    weights = (args.c_ins, args.c_swap)
    try:
        engine = correction_distance(source, target).distance
        ucs = ucs_distance(source, target, state_budget=args.budget)
        matching = matching_distance(source, target,
                                     combination_budget=args.budget)
        weighted_pair = None
        if weights != (1, 1):
            alphabet = build_alphabet(source, target)
            weighted_pair = (
                weighted_distance(index_string(source, alphabet),
                                  index_string(target, alphabet),
                                  args.c_ins, args.c_swap),
                ucs_distance(source, target, weights=weights,
                             state_budget=args.budget),
            )
    except InstanceTooLarge as exc:
        print(f"instance too large: {exc}", file=sys.stderr)
        return 3
    agree = engine == ucs == matching
    if weighted_pair is not None:
        agree = agree and weighted_pair[0] == weighted_pair[1]
    if args.json:
        report = {
            "command": "oracle",
            "source": _echo(source),
            "target": _echo(target),
            "engine": _cost_json(engine),
            "ucs": _cost_json(ucs),
            "matching": _cost_json(matching),
            "agree": agree,
        }
        if weighted_pair is not None:
            report["weighted_engine"] = _cost_json(weighted_pair[0])
            report["weighted_ucs"] = _cost_json(weighted_pair[1])
        print(json.dumps(report, indent=2))
    else:
        verdict = "AGREE" if agree else "DISAGREE"
        line = (f"engine={_cost_text(engine)} ucs={_cost_text(ucs)} "
                f"matching={_cost_text(matching)} {verdict}")
        if weighted_pair is not None:
            line += (f" weighted_engine={_cost_text(weighted_pair[0])}"
                     f" weighted_ucs={_cost_text(weighted_pair[1])}")
        print(line)
    return 0 if agree else 1


def _cmd_stats(args, parser) -> int:
    source, target = _resolve_inputs(args, parser)
    stats = instance_stats(source, target)
    if args.json:
        report = {
            "command": "stats",
            "source": _echo(source),
            "target": _echo(target),
            "n": stats.n, "m": stats.m, "d": stats.d,
            "per_symbol": [
                {
                    "symbol": _echo(sym),
                    "n": stats.n_counts[idx],
                    "m": stats.m_counts[idx],
                    "g": stats.g_per_symbol[idx],
                }
                for idx, sym in enumerate(stats.alphabet.external_symbols)
            ],
            "g": stats.g,
            "s": stats.s,
            "sigma_plus": list(stats.sigma_plus),
            "predicted_state_bound": stats.predicted_state_bound,
            "feasible": stats.feasible,
        }
        print(json.dumps(report, indent=2))
    else:
        print(f"n: {stats.n}  m: {stats.m}  d: {stats.d}")
        for idx, sym in enumerate(stats.alphabet.external_symbols):
            print(f"symbol {sym}: n={stats.n_counts[idx]} "
                  f"m={stats.m_counts[idx]} g={stats.g_per_symbol[idx]}")
        print(f"g: {stats.g}  s: {stats.s}")
        print(f"predicted state bound: {stats.predicted_state_bound}")
        print(f"feasible: {'yes' if stats.feasible else 'no'}")
    return 0


def _cmd_bench(args, parser) -> int:
    specs = []
    for index, size in enumerate(args.sizes):
        m = round(size * args.m_ratio)
        specs.append(GeneratorSpec(
            d=args.d, n=size, m=m, profile=args.profile, seed=args.seed + index,
        ))
    csv_path = f"{args.out}.csv"
    json_path = f"{args.out}.json"
    records = run_bench(specs, csv_path=csv_path, json_path=json_path,
                        repeats=args.repeats)
    failed = 0
    for rec in records:
        if rec.error:
            failed += 1
            print(f"n={rec.n} m={rec.m} {rec.profile} seed={rec.seed}: "
                  f"error: {rec.error}", file=sys.stderr)
        else:
            print(f"n={rec.n} m={rec.m} d={rec.d} g={rec.g} {rec.profile} "
                  f"seed={rec.seed}: distance={rec.distance} "
                  f"memo={rec.memo_entries}/{rec.predicted_bound} "
                  f"time={rec.wall_time_ns / 1e6:.2f}ms")
    print(f"wrote {csv_path} and {json_path}")
    return 1 if failed else 0


def _cmd_selftest(args, parser) -> int:
    try:
        report = exhaustive_oracle_check(
            max_n=args.max_n,
            max_m=args.max_m,
            alphabet_size=args.alphabet,
            state_budget=args.budget,
            combination_budget=args.budget,
        )
    except InstanceTooLarge as exc:
        print(f"instance too large: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        parser.error(str(exc))
    print(f"checked {report.pairs} pairs over a {args.alphabet}-symbol alphabet")
    for source, target, engine, ucs, matching in report.mismatches[:20]:
        print(f"MISMATCH {source!r} -> {target!r}: engine={engine} "
              f"ucs={ucs} matching={matching}")
    for source, target, script in report.script_failures[:20]:
        print(f"BAD SCRIPT {source!r} -> {target!r}: {script}")
    if report.ok:
        print("selftest passed")
        return 0
    print(f"selftest FAILED: {len(report.mismatches)} mismatches, "
          f"{len(report.script_failures)} bad scripts")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="swapinsert",
                     description="Swap-insert string correction distance tools")
    commands = parser.add_subparsers(dest="command", parser_class=_Parser)

    dist = commands.add_parser("dist", help="compute a correction distance")
    _add_input_arguments(dist)
    dist.add_argument("--ops", choices=("swap-insert", "swap-delete"),
                      default="swap-insert", help="operator set (default swap-insert)")
    dist.add_argument("--script", action="store_true",
                      help="also print one optimal correction script")
    dist.add_argument("--json", action="store_true", help="machine-readable output")
    dist.add_argument("--c-ins", type=_fraction, default=Fraction(1),
                      help="insertion weight (default 1)")
    dist.add_argument("--c-swap", type=_fraction, default=Fraction(1),
                      help="swap weight (default 1)")
    dist.set_defaults(handler=_cmd_dist, parser=dist)

    oracle = commands.add_parser("oracle",
                                 help="compare the engine against both oracles")
    _add_input_arguments(oracle)
    oracle.add_argument("--json", action="store_true")
    oracle.add_argument("--budget", type=_positive_int, default=DEFAULT_STATE_BUDGET,
                        help="search/enumeration budget for the oracles")
    oracle.add_argument("--c-ins", type=_fraction, default=Fraction(1))
    oracle.add_argument("--c-swap", type=_fraction, default=Fraction(1))
    oracle.set_defaults(handler=_cmd_oracle, parser=oracle)

    stats = commands.add_parser("stats", help="print instance difficulty measures")
    _add_input_arguments(stats)
    stats.add_argument("--json", action="store_true")
    stats.set_defaults(handler=_cmd_stats, parser=stats)

    bench = commands.add_parser("bench", help="run a benchmark sweep")
    bench.add_argument("--profile", choices=("zero-g", "balanced-g", "max-g"),
                       default="zero-g")
    bench.add_argument("--sizes", type=_sizes, default=[1000, 10000],
                       help="comma-separated source lengths (default 1000,10000)")
    bench.add_argument("--d", type=int, default=4, help="alphabet size (default 4)")
    bench.add_argument("--m-ratio", type=_ratio, default=1.0,
                       help="target length as a multiple of n (default 1.0)")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--repeats", type=_positive_int, default=5,
                       help="timing runs per instance, median kept (default 5)")
    bench.add_argument("--out", default="bench",
                       help="output prefix for <out>.csv and <out>.json")
    bench.set_defaults(handler=_cmd_bench, parser=bench)

    selftest = commands.add_parser(
        "selftest", help="exhaustive engine-vs-oracle equivalence suite")
    selftest.add_argument("--max-n", type=int, default=4)
    selftest.add_argument("--max-m", type=int, default=6)
    selftest.add_argument("--alphabet", type=int, default=2)
    selftest.add_argument("--budget", type=_positive_int, default=DEFAULT_STATE_BUDGET)
    selftest.set_defaults(handler=_cmd_selftest, parser=selftest)

    return parser


@functools.lru_cache(maxsize=None)
def _shared_parser() -> argparse.ArgumentParser:
    # building the parser costs far more than parsing one command line, and
    # parse_args leaves the parser unchanged, so one serves every call
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _shared_parser()
    args = parser.parse_args(argv)
    if getattr(args, "handler", None) is None:
        parser.error("a subcommand is required")
    try:
        # late usage errors print the subcommand's own usage line
        return args.handler(args, args.parser)
    except (OSError, _InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
