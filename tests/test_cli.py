import csv
import json

import pytest

from swapinsert import apply_script, correction_distance, Insert, Script, Swap, Delete
from swapinsert.cli import main


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
        parts = line.split()
        if parts[0] == "ins":
            ops.append(Insert(int(parts[1]), parts[2]))
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
    # the bound is the pair's profile, the same figure `stats` prints
    assert (report["memo_entries"], report["state_bound"]) == (0, 40)


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


def test_selftest_budget_overrun_is_not_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "selftest", "--max-n", "1", "--max-m", "1", "--budget", "1")
    assert code == 3
    assert "instance too large" in err
