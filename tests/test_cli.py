import csv
import hashlib
import json
import random
from pathlib import Path

import pytest

from swapinsert import (apply_script, correction_distance, generate_instance,
                        swap_delete_correction, Delete, GeneratorSpec, Insert, Script, Swap)
from swapinsert.cli import _shared_parser, build_parser, main
from swapinsert.oracles import DEFAULT_BUDGET


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_script_lines(out):
    ops = []
    in_script = False
    for line in out.splitlines():
        if line == "script:":
            in_script = True
            continue
        if not in_script:
            continue
        # a quoted symbol is a JSON string, and a text symbol has no space
        parts = line.split(" ", 2)
        if parts[0] == "ins":
            symbol = parts[2]
            ops.append(Insert(int(parts[1]),
                              json.loads(symbol) if symbol.startswith('"') else symbol))
        elif parts[0] == "swap":
            ops.append(Swap(int(parts[1])))
        elif parts[0] == "del":
            ops.append(Delete(int(parts[1])))
    return Script(tuple(ops))


# -- dist ---------------------------------------------------------------------

def test_dist_with_script(capsys):
    code, out, _ = run_cli(capsys, "dist", "ba", "aab", "--script")
    assert code == 0
    assert "distance: 2" in out
    script = parse_script_lines(out)
    assert len(script) == 2
    assert apply_script("ba", script) == "aab"


def test_successive_calls_do_not_share_options(capsys):
    code, out, _ = run_cli(capsys, "dist", "ba", "aab", "--c-ins", "2", "--script")
    assert code == 0
    assert "script:" in out
    code, out, _ = run_cli(capsys, "dist", "ba", "aab")
    assert code == 0
    assert "distance: 2" in out
    assert "script:" not in out
    assert "weighted" not in out


def test_dist_unreachable_exit_2(capsys):
    code, out, _ = run_cli(capsys, "dist", "aa", "a")
    assert code == 2
    assert "unreachable" in out


def test_dist_swap_delete(capsys):
    code, out, _ = run_cli(capsys, "dist", "--ops", "swap-delete", "aab", "ba")
    assert code == 0
    assert "distance: 2" in out


def test_dist_swap_delete_script_replays(capsys):
    code, out, _ = run_cli(capsys, "dist", "--ops", "swap-delete", "aab", "ba",
                           "--script")
    assert code == 0
    script = parse_script_lines(out)
    assert apply_script("aab", script) == "ba"


@pytest.mark.parametrize("symbol", [" ", "\t", "\n", '"'])
def test_script_lines_quote_a_symbol_a_space_split_would_lose(capsys, symbol):
    source, target = "ab", f"b{symbol}a{symbol}"
    code, out, _ = run_cli(capsys, "dist", source, target, "--script")
    assert code == 0
    lines = out.splitlines()
    script = parse_script_lines(out)
    assert len(script) == int(lines[0].split()[1]) == 3
    quoted = [op for op in script.ops if isinstance(op, Insert)]
    assert [op.symbol for op in quoted] == [symbol, symbol]
    for op in quoted:
        assert f"ins {op.position} {json.dumps(symbol)}" in lines
    assert apply_script(source, script) == target


def _script_entries(script):
    # each op as a dict, for json.dumps(indent=2) to write the reference
    out = []
    for op in script.ops:
        if isinstance(op, Insert):
            out.append({"op": "ins", "pos": op.position, "symbol": op.symbol})
        elif isinstance(op, Swap):
            out.append({"op": "swap", "pos": op.position})
        else:
            out.append({"op": "del", "pos": op.position})
    return out


@pytest.mark.parametrize("source, target, flags", [
    ("ba", "aab", ()),
    ("ba", "aab", ("--c-ins", "2", "--c-swap", "3/2")),
    (b"ba", b"aab", ("--bytes",)),
    ("aab", "ba", ("--ops", "swap-delete")),
    ("ab", 'b\\a"é ', ()),
    ("ab", "ab", ()),
    ("ab", "ba", ("--ops", "swap-delete", "--bytes")),
    (*generate_instance(GeneratorSpec(d=4, n=2000, m=2000, profile="zero-g", seed=0)), ()),
], ids=["str", "weighted", "bytes", "swap-delete", "escaped", "empty",
        "swap-delete-bytes", "zero-g-2000"])
def test_json_script_is_the_indenting_encoders_bytes(capsys, source, target, flags):
    # the report's script is written without json.dumps(indent=2); it must
    # read byte for byte as the encoder writes the script as a list of dicts
    argv = [s.decode() if isinstance(s, bytes) else s for s in (source, target)]
    code, out, _ = run_cli(capsys, "dist", *argv, "--script", "--json", *flags)
    assert code == 0
    report = json.loads(out)
    if "swap-delete" in flags:
        script = swap_delete_correction(source, target).script
    else:
        script = correction_distance(source, target, with_script=True).script
    assert list(report)[-1] == "script"
    report["script"] = _script_entries(script)
    assert out == json.dumps(report, indent=2) + "\n"
    if not script.ops:
        assert out.endswith('  "script": []\n}\n')


def test_dist_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "dist", "ba", "aab", "--json")
    assert code == 0
    report = json.loads(out)
    recomputed = correction_distance(report["source"], report["target"])
    assert recomputed.distance.value == report["distance"]
    assert report["reachable"] is True
    assert report["n"] == 2 and report["m"] == 3


def test_dist_json_unreachable(capsys):
    code, out, _ = run_cli(capsys, "dist", "aa", "a", "--json")
    assert code == 2
    report = json.loads(out)
    assert report["distance"] is None
    assert report["reachable"] is False


def test_dist_weighted_output(capsys):
    code, out, _ = run_cli(capsys, "dist", "ba", "aab", "--c-ins", "2",
                           "--c-swap", "3")
    assert code == 0
    assert "weighted cost (2, 3): 5" in out


@pytest.mark.parametrize("argv, code, cost", [
    (("ba", "aab"), 0, "7/2"),
    (("--ops", "swap-delete", "ba", "aab"), 2, None),
    (("--ops", "swap-delete", "aab", "ba"), 0, "7/2"),
])
def test_weighted_dist_solves_once(capsys, monkeypatch, argv, code, cost):
    # the weighted cost is arithmetic on the one result, not a second solve
    def second_solve(*args, **kwargs):
        raise AssertionError("the pair was solved a second time")
    monkeypatch.setattr("swapinsert.engine.distance", second_solve)
    got, out, _ = run_cli(capsys, "dist", *argv, "--c-ins", "2", "--c-swap", "3/2",
                          "--json")
    assert got == code
    report = json.loads(out)
    assert report["weights"] == {"c_ins": "2", "c_swap": "3/2"}
    assert report["weighted_cost"] == cost


@pytest.mark.parametrize("source, target", [("aab", "ba"), ("ba", "aab")])
@pytest.mark.parametrize("as_json", [False, True])
def test_swap_delete_distance_builds_no_script(capsys, monkeypatch, source, target, as_json):
    # without --script the distance is the mirrored insert problem's, solved
    # without layers for a walk; the output is the script solve's
    flags = ("--json",) if as_json else ()
    _, expected, _ = run_cli(capsys, "dist", "--ops", "swap-delete", source, target, *flags)

    def scripted(*args, **kwargs):
        raise AssertionError("a script was built for a distance-only call")
    monkeypatch.setattr("swapinsert.cli.swap_delete_correction", scripted)
    code, out, _ = run_cli(capsys, "dist", "--ops", "swap-delete", source, target, *flags)
    assert code == (0 if len(source) >= len(target) else 2)
    assert out == expected
    with pytest.raises(AssertionError, match="a script was built"):
        main(["dist", "--ops", "swap-delete", source, target, "--script", *flags])


@pytest.mark.parametrize("argv", [("aa", "a"), ("--ops", "swap-delete", "a", "abba")])
def test_weighted_cost_unreachable_for_both_operator_sets(capsys, argv):
    code, out, _ = run_cli(capsys, "dist", *argv, "--c-ins", "2")
    assert code == 2
    assert "weighted cost (2, 1): unreachable" in out


def test_dist_json_infeasible_pair_with_imbalanced_symbol(capsys):
    # b is imbalanced (g = 1) while a makes the pair infeasible
    code, out, _ = run_cli(capsys, "dist", "aab", "abbb", "--json")
    assert code == 2
    report = json.loads(out)
    assert (report["d"], report["g"], report["s"]) == (2, 1, 1)
    assert report["feasible"] is False
    # the bound is the pair's profile, the same figure `stats` prints: no
    # state of an infeasible pair is ever priced
    assert (report["memo_entries"], report["state_bound"]) == (0, 0)


def test_dist_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as err:
        main(["dist", "onlyone"])
    assert err.value.code == 1


def test_unknown_command_exit_1(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1


def test_dist_from_files(tmp_path, capsys):
    src = tmp_path / "s.txt"
    tgt = tmp_path / "l.txt"
    src.write_text("ba\n")
    tgt.write_text("aab\n")
    code, out, _ = run_cli(capsys, "dist", str(src), str(tgt), "--files")
    assert code == 0
    assert "distance: 2" in out


def test_files_keep_carriage_returns_inside_the_text(tmp_path, capsys):
    # only one trailing line end is stripped; a "\r" inside the text is a symbol
    src = tmp_path / "s.txt"
    tgt = tmp_path / "l.txt"
    src.write_bytes(b"a\rb\r\n")
    tgt.write_bytes(b"b\ra\n")
    code, out, _ = run_cli(capsys, "dist", str(src), str(tgt), "--files", "--json")
    assert code == 0
    report = json.loads(out)
    assert (report["source"], report["target"]) == ("a\rb", "b\ra")
    assert report["distance"] == 3


def test_dist_missing_file_reports_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "dist", str(tmp_path / "nope"), str(tmp_path / "x"),
                           "--files")
    assert code == 1
    assert "error" in err


def test_files_that_are_not_utf8_report_an_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    ok = tmp_path / "ok.txt"
    bad.write_bytes(b"\xffa")
    ok.write_bytes(b"ab\n")
    code, out, err = run_cli(capsys, "dist", str(bad), str(ok), "--files")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {bad}: ")
    assert "can't decode byte 0xff" in err
    # as bytes the same file reads fine: byte 255 is absent from the target
    code, out, _ = run_cli(capsys, "dist", str(bad), str(ok), "--files", "--bytes", "--json")
    assert code == 2
    assert json.loads(out)["source"] == [255, 97]


def test_late_usage_errors_print_the_subcommand_usage(capsys, monkeypatch):
    import io
    with pytest.raises(SystemExit) as err:
        main(["selftest", "--alphabet", "70"])
    assert err.value.code == 1
    _, err_text = capsys.readouterr()
    assert err_text.startswith("usage: swapinsert selftest")
    assert "error: alphabet size must be in [1..62], got 70" in err_text
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"ba\n")))
    with pytest.raises(SystemExit) as err:
        main(["dist", "--stdin"])
    assert err.value.code == 1
    _, err_text = capsys.readouterr()
    assert err_text.startswith("usage: swapinsert dist")
    assert "error: expected two input lines on stdin" in err_text


def test_dist_from_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"ba\naab\n")))
    code, out, _ = run_cli(capsys, "dist", "--stdin")
    assert code == 0
    assert "distance: 2" in out


def test_stdin_lines_end_only_at_newline(capsys, monkeypatch):
    import io
    # a form feed is a symbol, not a line break; one "\r" before "\n" is dropped
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"a\x0cb\r\nb\x0ca\n")))
    code, out, _ = run_cli(capsys, "dist", "--stdin", "--json")
    assert code == 0
    report = json.loads(out)
    assert (report["source"], report["target"]) == ("a\x0cb", "b\x0ca")
    assert report["distance"] == 3
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"ba\n")))
    with pytest.raises(SystemExit) as err:
        main(["dist", "--stdin"])
    assert err.value.code == 1


def test_stdin_text_that_is_not_utf8_is_an_input_error(capsys, monkeypatch):
    import io
    # decoded as strict UTF-8 like --files, whatever the locale's encoding
    stdin = io.TextIOWrapper(io.BytesIO(b"\xffa\nab\n"), encoding="latin-1")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run_cli(capsys, "dist", "--stdin", "--json")
    assert code == 1
    assert out == ""
    assert err.startswith("error: <stdin>: ")
    assert "can't decode byte 0xff" in err


def test_stdin_bytes_lines_end_only_at_newline(capsys, monkeypatch):
    import io
    # a lone "\r" is byte 13, not a line break
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"a\rb\nb\ra\r\n")))
    code, out, _ = run_cli(capsys, "dist", "--stdin", "--bytes", "--json")
    assert code == 0
    report = json.loads(out)
    assert (report["source"], report["target"]) == ([97, 13, 98], [98, 13, 97])
    assert report["distance"] == 3


def test_dist_bytes_mode(capsys):
    code, out, _ = run_cli(capsys, "dist", "--bytes", "ba", "aab", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["source"] == list(b"ba")
    assert report["distance"] == 2


def test_positional_bytes_that_are_not_utf8_pass_in_bytes_mode(capsys):
    # Python hands a byte that is not UTF-8 in argv over as a surrogate
    # escape; --bytes reads the byte the shell passed
    code, out, _ = run_cli(capsys, "dist", "--bytes", "\udcff", "\udcffa", "--json")
    assert code == 0
    report = json.loads(out)
    assert (report["source"], report["target"]) == ([255], [255, 97])
    assert report["distance"] == 1


def test_positional_text_that_is_not_utf8_is_an_input_error(capsys):
    # decoded as strict UTF-8 like --files and --stdin
    code, out, err = run_cli(capsys, "dist", "\udcff", "\udcffa")
    assert code == 1
    assert out == ""
    assert err.startswith("error: source argument: ")
    assert "can't decode byte 0xff" in err
    code, _, err = run_cli(capsys, "stats", "a", "a\udcff", "--json")
    assert code == 1
    assert err.startswith("error: target argument: ")


def test_exit_code_independent_of_format(capsys):
    plain = main(["dist", "aa", "a"])
    capsys.readouterr()
    as_json = main(["dist", "aa", "a", "--json"])
    capsys.readouterr()
    assert plain == as_json == 2


# -- oracle ---------------------------------------------------------------------

def test_oracle_agreement(capsys):
    code, out, _ = run_cli(capsys, "oracle", "ba", "aab")
    assert code == 0
    assert "engine=2 ucs=2 matching=2 AGREE" in out


def test_oracle_unreachable_agreement(capsys):
    code, out, _ = run_cli(capsys, "oracle", "aa", "a")
    assert code == 0
    assert "AGREE" in out


def test_oracle_budget_exit_3(capsys):
    code, _, err = run_cli(capsys, "oracle", "abcabc", "abcabcabcb",
                           "--budget", "5")
    assert code == 3
    assert "too large" in err


@pytest.mark.parametrize("command", ["oracle", "selftest"])
def test_budget_defaults_to_the_oracles_one_budget(command):
    parser = build_parser()
    argv = [command, "ab", "ba"] if command == "oracle" else [command]
    assert parser.parse_args(argv).budget == DEFAULT_BUDGET


@pytest.mark.parametrize("argv", [
    ["oracle", "ab", "ba", "--budget", "-1"],
    ["oracle", "ab", "ba", "--budget", "0"],
    ["oracle", "ab", "ba", "--budget", "x"],
    ["selftest", "--max-n", "1", "--max-m", "1", "--budget", "0"],
    ["bench", "--sizes", "10", "--repeats", "0"],
    ["bench", "--sizes", "10", "--repeats", "-2"],
    ["bench", "--sizes", "10", "--m-ratio", "nan"],
    ["bench", "--sizes", "10", "--m-ratio", "inf"],
    ["bench", "--sizes", "10", "--m-ratio", "0.5"],
    ["bench", "--sizes", "10", "--m-ratio", "-1"],
    ["bench", "--sizes", "10", "--m-ratio", "x"],
])
def test_budgets_and_repeats_below_one_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    out, err_text = capsys.readouterr()
    assert out == ""
    assert err_text.startswith(f"usage: swapinsert {argv[0]}")
    assert "error: argument" in err_text


def test_oracle_weighted(capsys):
    code, out, _ = run_cli(capsys, "oracle", "ba", "aab",
                           "--c-ins", "2", "--c-swap", "3")
    assert code == 0
    assert "AGREE" in out
    assert "weighted_engine=5" in out


def test_weighted_oracle_solves_once(capsys, monkeypatch):
    # the weighted engine cost is arithmetic on the one engine result
    def second_solve(*args, **kwargs):
        raise AssertionError("the pair was solved a second time")
    monkeypatch.setattr("swapinsert.engine.distance", second_solve)
    code, out, _ = run_cli(capsys, "oracle", "ba", "aab", "--c-ins", "2", "--c-swap", "3")
    assert code == 0
    assert out == "engine=2 ucs=2 matching=2 AGREE weighted_engine=5 weighted_ucs=5\n"


@pytest.mark.parametrize("argv, engine", [(("ba", "aab"), "7/2"), (("aa", "a"), None)])
def test_weighted_oracle_json(capsys, argv, engine):
    # weighted costs are fractions, reported as strings as dist reports them
    code, out, _ = run_cli(capsys, "oracle", *argv, "--c-ins", "2", "--c-swap", "3/2",
                           "--json")
    assert code == 0
    report = json.loads(out)
    assert report["agree"] is True
    assert report["weighted_engine"] == report["weighted_ucs"] == engine


# -- stats ------------------------------------------------------------------------

def test_stats_output(capsys):
    code, out, _ = run_cli(capsys, "stats", "aab", "aaabab")
    assert code == 0
    assert "g: 2" in out
    assert "feasible: yes" in out


def test_stats_json(capsys):
    code, out, _ = run_cli(capsys, "stats", "aab", "aaabab", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["g"] == 2
    assert report["feasible"] is True
    assert {entry["symbol"] for entry in report["per_symbol"]} == {"a", "b"}


def test_stats_clamps_the_imbalance_of_an_over_supplied_symbol(capsys):
    # the source's one a has no a in the target to go to: its imbalance
    # reads 0, not min(1, 0 - 1)
    code, out, _ = run_cli(capsys, "stats", "--bytes", "a", "é")
    assert code == 0
    assert "symbol 97: n=1 m=0 g=0" in out
    assert "g: 0  s: 0" in out
    assert "feasible: no" in out


@pytest.mark.parametrize("symbol", [" ", "\t", "\n", '"'])
def test_stats_lines_quote_a_symbol_as_script_lines_do(capsys, symbol):
    code, out, _ = run_cli(capsys, "stats", f"a{symbol}", f"{symbol}ab")
    assert code == 0
    # one line per symbol; the quoted one reads back as a JSON string
    lines = [line for line in out.splitlines() if line.startswith("symbol ")]
    assert len(lines) == 3
    assert "symbol a: n=1 m=1 g=0" in lines and "symbol b: n=0 m=1 g=0" in lines
    [quoted] = [line for line in lines if line.startswith('symbol "')]
    text, _, counts = quoted.removeprefix("symbol ").rpartition(": ")
    assert (json.loads(text), counts) == (symbol, "n=1 m=1 g=0")


@pytest.mark.parametrize("source, target", [("aab", "abbb"), ("a", "é"), ("ccccba", "bcbba")])
def test_stats_and_dist_agree_on_a_zero_bound_for_an_infeasible_pair(capsys, source, target):
    _, stats_out, _ = run_cli(capsys, "stats", source, target, "--json")
    code, dist_out, _ = run_cli(capsys, "dist", source, target, "--json")
    stats, dist = json.loads(stats_out), json.loads(dist_out)
    assert code == 2
    assert stats["feasible"] is dist["feasible"] is False
    assert stats["predicted_state_bound"] == dist["state_bound"] == dist["memo_entries"] == 0
    assert min(entry["g"] for entry in stats["per_symbol"]) == 0


# -- bench -------------------------------------------------------------------------

def test_bench_two_records(tmp_path, capsys):
    out_prefix = str(tmp_path / "bench")
    code, out, _ = run_cli(capsys, "bench", "--profile", "zero-g",
                           "--sizes", "1000,10000", "--repeats", "1",
                           "--out", out_prefix)
    assert code == 0
    with open(out_prefix + ".csv") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 3  # header + 2 records
    assert rows[0][0] == "d"
    with open(out_prefix + ".json") as handle:
        assert len(json.load(handle)) == 2


# -- selftest ------------------------------------------------------------------------

def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--max-n", "4", "--max-m", "6",
                           "--alphabet", "2")
    assert code == 0
    assert "checked 3937 pairs" in out
    assert "selftest passed" in out


@pytest.mark.parametrize("bad", [["--max-n", "-1"], ["--max-m", "-1"],
                                 ["--alphabet", "0"], ["--alphabet", "-3"],
                                 ["--alphabet", "63"]])
def test_selftest_rejects_bounds_it_cannot_honour(capsys, bad):
    # small bounds first, so that a check which runs anyway stays short
    with pytest.raises(SystemExit) as err:
        main(["selftest", "--max-n", "1", "--max-m", "1", *bad])
    assert err.value.code == 1
    _, err_text = capsys.readouterr()
    assert "error" in err_text


def test_selftest_reports_a_script_it_cannot_replay(capsys, unreplayable_script):
    code, out, err = run_cli(capsys, "selftest", "--max-n", "2", "--max-m", "2")
    assert code == 1
    assert "BAD SCRIPT 'ab' -> 'ab'" in out
    assert "selftest FAILED: 0 mismatches, 1 bad scripts" in out
    assert "usage" not in out + err


def test_selftest_budget_overrun_is_not_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "selftest", "--max-n", "1", "--max-m", "1", "--budget", "1")
    assert code == 3
    assert "instance too large" in err


# -- a committed sweep -----------------------------------------------------------

CLI_SWEEP = Path(__file__).parent / "data" / "cli_sweep.txt"


def _cli_sweep_argvs():
    # 300 seeded dist, stats and oracle argvs over strings of at most 6
    # symbols and 4 letters, so that every oracle search stays small; a
    # swap-delete dist takes the longer string first, and one pair in five
    # is drawn freely, so that some are unreachable
    rng = random.Random(2016)
    for _ in range(300):
        command = rng.choice(("dist", "dist", "dist", "stats", "oracle"))
        as_bytes = rng.random() < 0.25
        letters = rng.choice(("ab", "abc", "abcd") + (() if as_bytes else ("aé€ß",)))
        target = [rng.choice(letters) for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.2:
            source = [rng.choice(letters) for _ in range(rng.randint(0, 6))]
        else:
            source = rng.sample(target, rng.randint(0, len(target)))
        argv = [command, "".join(source), "".join(target)]
        if command == "dist" and rng.random() < 0.4:
            argv[1:] = argv[2], argv[1], "--ops", "swap-delete"
        if command == "dist" and rng.random() < 0.5:
            argv.append("--script")
        if rng.random() < 0.5:
            argv.append("--json")
        if as_bytes:
            argv.append("--bytes")
        if command != "stats" and rng.random() < 0.3:
            argv += ["--c-ins", rng.choice(("0", "1", "2", "1/2", "3.5")),
                     "--c-swap", rng.choice(("0", "1", "3", "2/3"))]
        yield argv


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_cli_sweep_matches_committed_outputs(capsys):
    # one argv per line: the exit code, the SHA-256 of stdout and of
    # stderr, then the argv as JSON, written from main() at commit
    # d6ebf1556de142674935f3699e0fcea6bf001d9a, the 14 lines of infeasible
    # dist and stats argvs rewritten once the imbalance of an over-supplied
    # symbol was clamped at 0; extend it the same way
    cases = [line.split(" ", 3) for line in CLI_SWEEP.read_text().splitlines()]
    assert [json.loads(argv) for *_, argv in cases] == list(_cli_sweep_argvs())
    for code, out, err, argv in cases:
        result = main(json.loads(argv))
        captured = capsys.readouterr()
        assert [str(result), _digest(captured.out), _digest(captured.err)] == [
            code, out, err], argv


# -- parsing ----------------------------------------------------------------------

def _full_parse_parser():
    # a fresh parser that parses every command line through the top-level
    # subparsers action, as argparse alone does
    parser = build_parser()
    parser.commands = {}
    return parser


def _readable(args):
    # each subcommand's parser object differs between two built parsers
    return {**vars(args), "parser": args.parser.prog}


def test_subcommand_dispatch_parses_as_the_top_level_parser():
    shared, full = _shared_parser(), _full_parse_parser()
    for argv in _cli_sweep_argvs():
        assert _readable(shared.parse_args(argv)) == _readable(full.parse_args(argv)), argv


def _outcome(capsys, run):
    try:
        code = run()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["nope"], ["dist"], ["dist", "-h"], ["dist", "a", "b", "--bogus"],
    ["dist", "a", "b", "extra"], ["dist", "--ops", "zz", "a", "b"],
    ["dist", "--c-ins", "x", "a", "b"], ["stats", "a", "b", "--script"],
])
def test_subcommand_dispatch_prints_as_the_top_level_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")

    def full_parse_main():
        # main as it read before subcommand dispatch
        parser = _full_parse_parser()
        args = parser.parse_args(argv)
        if getattr(args, "handler", None) is None:
            parser.error("a subcommand is required")
        return args.handler(args, args.parser)

    expected = _outcome(capsys, full_parse_main)
    assert _outcome(capsys, lambda: main(argv)) == expected
    assert expected[0] in (0, 1)
