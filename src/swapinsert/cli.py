"""Command-line front end: dist, oracle, stats, bench, and selftest.

Exit codes are a function of the outcome only: 0 success/finite, 1 usage
or disagreement, 2 unreachable distance, 3 oracle budget exceeded.
Script lines print as ``ins <pos> <symbol>``, ``swap <pos>`` and
``del <pos>`` with 1-based positions into the working string, directly
replayable in order.  A byte symbol prints as its integer value.  A text
symbol prints as itself, unless it is whitespace, not printable, or
``"``: then it prints as its JSON string (``" "``, ``"\\n"``,
``"\\""``).  A line reads back split at its first two spaces, with a
symbol that starts with ``"`` parsed as JSON.  The ``symbol <sym>: ...``
lines of ``stats`` print each symbol by the same rule.
"""

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

# weighted_distance, build_alphabet and index_string are not called here;
# they stay module attributes because layerbench/run.py wraps them by name
# when it traces cli-small
from .engine import (  # noqa: F401
    correction_distance,
    swap_delete_correction,
    weighted_distance,
)
from .indexing import build_alphabet, index_string  # noqa: F401
from .oracles import DEFAULT_BUDGET, InstanceTooLarge, matching_distance, ucs_distance
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
    # the subcommand parsers by name; build_parser fills it on the
    # top-level parser only
    commands: dict = {}

    # usage problems exit 1, keeping 2 and 3 free for outcomes
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def parse_known_args(self, args=None, namespace=None):
        # a command line that starts with a subcommand is parsed by that
        # subcommand's parser alone, which skips the top-level pass; one
        # it leaves arguments over from goes through the full parse, so
        # that every error and usage line stays the top-level parser's
        args = sys.argv[1:] if args is None else list(args)
        sub = self.commands.get(args[0]) if args and namespace is None else None
        if sub is not None:
            parsed, extras = sub.parse_known_args(args[1:])
            if not extras:
                parsed.command = args[0]
                return parsed, extras
        return super().parse_known_args(args, namespace)


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


def _read_file(path: str) -> bytes:
    # one trailing line end is stripped
    with open(path, "rb") as handle:
        data = handle.read()
    if data.endswith(b"\n"):
        data = data[:-2] if data.endswith(b"\r\n") else data[:-1]
    return data


def _stdin_lines(data: bytes) -> List[bytes]:
    # a line ends only at "\n", and one "\r" before it is dropped, the rule
    # _read_file applies; splitlines() would also split at a lone "\r",
    # which is a symbol here
    lines = re.split(b"\r?\n", data)
    if not lines[-1]:
        lines.pop()
    return lines


def _resolve_inputs(args, parser: argparse.ArgumentParser):
    # every input is read as bytes; os.fsencode recovers the bytes behind
    # a positional argument under any locale
    if args.stdin:
        if args.source is not None or args.target is not None:
            parser.error("--stdin takes no positional strings")
        lines = _stdin_lines(sys.stdin.buffer.read())
        if len(lines) < 2:
            parser.error("expected two input lines on stdin")
        pair, names = lines[:2], ("<stdin>", "<stdin>")
    elif args.source is None or args.target is None:
        parser.error("two input strings are required")
    elif args.files:
        pair = [_read_file(args.source), _read_file(args.target)]
        names = (args.source, args.target)
    else:
        pair = [os.fsencode(args.source), os.fsencode(args.target)]
        names = ("source argument", "target argument")
    return pair if args.as_bytes else list(map(_decode, pair, names))


def _echo(value) -> object:
    # bytes are not JSON-representable; list their integer values
    if isinstance(value, (bytes, bytearray)):
        return list(value)
    return value


# an ins, swap and del op as one text line, and as the block that
# json.dumps(report, indent=2) writes for it in the report's script list
_TEXT_OPS = ("ins %d %s", "swap %d", "del %d")
_JSON_OPS = (
    '    {\n      "op": "ins",\n      "pos": %d,\n      "symbol": %s\n    }',
    '    {\n      "op": "swap",\n      "pos": %d\n    }',
    '    {\n      "op": "del",\n      "pos": %d\n    }',
)


def _symbol_text(symbol) -> str:
    # a byte symbol is an int; a text symbol that would break its line,
    # vanish at its end or read as a quote prints as its JSON string
    if isinstance(symbol, str) and (
            symbol.isspace() or not symbol.isprintable() or symbol == '"'):
        return json.dumps(symbol)
    return str(symbol)


def _script_ops(script, formats, quote) -> List[str]:
    """One string per op of ``script``, from ``formats`` (ins, swap, del),
    with each distinct symbol written once by ``quote``."""
    ins, swap, delete = formats
    symbols = {}
    out = []
    for op in script.ops:
        kind = type(op)
        if kind is Insert:
            symbol = symbols.get(op.symbol)
            if symbol is None:
                symbol = symbols[op.symbol] = quote(op.symbol)
            out.append(ins % (op.position, symbol))
        elif kind is Swap:
            out.append(swap % op.position)
        elif kind is Delete:
            out.append(delete % op.position)
    return out


def _cost_json(cost):
    return cost.value if cost.is_finite else None


def _weighted_json(cost):
    # a weighted cost is a Fraction, which JSON has no number for
    return str(cost.value) if cost.is_finite else None


def _cost_text(cost) -> str:
    return str(cost.value) if cost.is_finite else "unreachable"


def _cmd_dist(args, parser) -> int:
    source, target = _resolve_inputs(args, parser)
    if args.ops == "swap-delete" and args.script:
        result = swap_delete_correction(source, target)
    elif args.ops == "swap-delete":
        # the distance and stats of the mirrored insert problem, unmirrored
        result = correction_distance(target, source)
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
            report["weighted_cost"] = _weighted_json(weighted)
        text = json.dumps(report, indent=2)
        if args.script and result.script is not None:
            # the script is the last key, its blocks written without the
            # indenting encoder, which runs in pure Python
            blocks = ",\n".join(_script_ops(result.script, _JSON_OPS, json.dumps))
            script = f"[\n{blocks}\n  ]" if blocks else "[]"
            text = f'{text[:-2]},\n  "script": {script}\n}}'
        print(text)
    else:
        print(f"distance: {_cost_text(result.distance)}")
        print(f"n: {stats.n}  m: {stats.m}  d: {stats.d}  g: {stats.g}  s: {stats.s}")
        print(f"memo entries: {result.memo_entries} (bound {stats.predicted_state_bound})")
        if weighted is not None:
            print(f"weighted cost ({args.c_ins}, {args.c_swap}): {_cost_text(weighted)}")
        if args.script and result.script is not None:
            print("\n".join(["script:", *_script_ops(result.script, _TEXT_OPS, _symbol_text)]))
    return 0 if result.distance.is_finite else 2


def _cmd_oracle(args, parser) -> int:
    source, target = _resolve_inputs(args, parser)
    weights = (args.c_ins, args.c_swap)
    try:
        result = correction_distance(source, target)
        engine = result.distance
        ucs = ucs_distance(source, target, state_budget=args.budget)
        matching = matching_distance(source, target,
                                     combination_budget=args.budget)
        weighted_pair = None
        if weights != (1, 1):
            weighted_pair = (
                result.weighted_cost(args.c_ins, args.c_swap),
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
            report["weighted_engine"] = _weighted_json(weighted_pair[0])
            report["weighted_ucs"] = _weighted_json(weighted_pair[1])
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
            print(f"symbol {_symbol_text(sym)}: n={stats.n_counts[idx]} "
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
            budget=args.budget,
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
    oracle.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
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
    selftest.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    selftest.set_defaults(handler=_cmd_selftest, parser=selftest)

    parser.commands = commands.choices
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
