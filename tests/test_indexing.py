import random
import re
import sys
import threading
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from swapinsert import (
    AlphabetMap,
    AlphabetTooLarge,
    UnknownSymbol,
    build_alphabet,
    correction_distance,
    count,
    distance,
    distance_with_script,
    index_string,
    rank,
    select,
)
from swapinsert import engine, indexing

texts = st.text(alphabet="abc", max_size=16)


def _indexed(raw, other=""):
    amap = build_alphabet(raw, other if other else raw)
    return index_string(raw, amap), amap


# -- alphabet construction -------------------------------------------------

def test_empty_inputs_give_empty_alphabet():
    assert build_alphabet("", "").d == 0


def test_codes_follow_target_then_source_order():
    amap = build_alphabet("ba", "ab")
    assert amap.d == 2
    assert amap.code_of("a") == 1
    assert amap.code_of("b") == 2
    assert amap.raw_of(1) == "a"


def test_disjoint_alphabets_union_size():
    assert build_alphabet("xyz", "abc").d == 6


def test_unknown_symbol_rejected():
    amap = build_alphabet("a", "a")
    with pytest.raises(UnknownSymbol):
        index_string("ab", amap)
    with pytest.raises(UnknownSymbol):
        amap.code_of("z")


def test_oversized_alphabet_rejected():
    symbols = "".join(chr(i) for i in range(0x10000 + 1))
    with pytest.raises(AlphabetTooLarge):
        build_alphabet("", symbols)


def test_bytes_symbols():
    amap = build_alphabet(b"ba", b"ab")
    assert amap.d == 2
    indexed = index_string(b"aba", amap)
    assert rank(indexed, 3, amap.code_of(ord("a"))) == 2


# -- indexing and queries ---------------------------------------------------

def test_per_symbol_counts():
    indexed, amap = _indexed("aba", "ab")
    assert indexed.per_symbol_count[amap.code_of("a") - 1] == 2
    assert indexed.per_symbol_count[amap.code_of("b") - 1] == 1


def test_empty_string_all_counts_zero():
    indexed, _ = _indexed("", "ab")
    assert indexed.per_symbol_count == [0, 0]


def test_select_second_occurrence():
    indexed, amap = _indexed("aab", "ab")
    assert select(indexed, 2, amap.code_of("a")) == 2


def test_rank_examples():
    indexed, amap = _indexed("aba", "ab")
    a, b = amap.code_of("a"), amap.code_of("b")
    assert rank(indexed, 3, a) == 2
    assert rank(indexed, 0, b) == 0
    assert rank(indexed, 2, b) == 1


def test_rank_rejects_out_of_range():
    indexed, amap = _indexed("aba", "ab")
    with pytest.raises(ValueError):
        rank(indexed, 4, 1)
    with pytest.raises(ValueError):
        rank(indexed, -1, 1)
    with pytest.raises(ValueError):
        rank(indexed, 1, 0)


@pytest.mark.parametrize("code", [0, 3])
def test_raw_of_and_rank_reject_codes_outside_the_alphabet(code):
    # one check, one message: codes 0 and d + 1 of a 2-symbol alphabet
    indexed, amap = _indexed("aba", "ab")
    message = rf"code {code} outside \[1\.\.2\]"
    with pytest.raises(ValueError, match=message):
        amap.raw_of(code)
    with pytest.raises(ValueError, match=message):
        rank(indexed, 1, code)


def test_select_examples():
    indexed, amap = _indexed("aba", "ab")
    a, b = amap.code_of("a"), amap.code_of("b")
    assert select(indexed, 2, a) == 3
    assert select(indexed, 2, b) is None
    assert select(indexed, 1, b) == 2
    with pytest.raises(ValueError):
        select(indexed, 0, a)


def test_count_examples():
    indexed, amap = _indexed("aba", "ab")
    a = amap.code_of("a")
    assert count(indexed, 2, a) == 1
    assert count(indexed, 1, a) == 2
    assert count(indexed, 4, a) == 0
    with pytest.raises(ValueError):
        count(indexed, 0, a)
    with pytest.raises(ValueError):
        count(indexed, 5, a)


def test_index_holds_one_position_per_symbol():
    # O(n) for any alphabet: one occurrence list per code, n positions in
    # all, and no per-code prefix-count row of length n+1
    wide = "".join(chr(0x4E00 + k) for k in range(5000))
    for raw, other in (("abcabc", "abc"), ("abcabc", wide)):
        indexed, amap = _indexed(raw, other)
        assert len(indexed.select_table) == amap.d
        assert sum(len(occ) for occ in indexed.select_table) == len(raw)
    assert not hasattr(indexed, "rank_table")


def _eager_table(codes, d):
    return [[pos for pos, code in enumerate(codes, 1) if code == a] for a in range(1, d + 1)]


def test_lazy_table_and_counts_match_eager_references():
    # the table built on first read is the per-code scan's, and the counts
    # taken at construction are Counter's, for alphabets of 1 to 1000 codes
    rng = random.Random(404)
    cases = [((), 3), ((1, 300), 300)]
    for d in (1, 2, 3, 7, 64, 300, 1000):
        for n in (1, 5, 50, 2000):
            cases.append((tuple(rng.randint(1, d) for _ in range(n)), d))
    for codes, d in cases:
        indexed = index_string(codes, AlphabetMap(range(1, d + 1)))
        tally = Counter(codes)
        assert indexed.per_symbol_count == [tally[a] for a in range(1, d + 1)]
        assert indexed.select_table == _eager_table(codes, d)
        # built once, then read from the cache
        assert indexed.select_table is indexed.select_table


def test_threads_reading_a_fresh_table_all_get_an_equal_one():
    # first reads race to build the table; each thread may build its own,
    # but every one is equal to the eager table, whichever is kept; so do
    # first codings through a map's C-path table, against the generic codes
    rng = random.Random(7)
    codes = tuple(rng.randint(1, 50) for _ in range(20_000))
    expected = _eager_table(codes, 50)
    text = "".join(rng.choice("abcdefgh") for _ in range(20_000))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            indexed = index_string(codes, AlphabetMap(range(1, 51)))
            amap = build_alphabet(text, text)
            coded = index_string(list(text), amap).symbols
            seen = []
            threads = [threading.Thread(target=lambda: seen.append(indexed.select_table))
                       for _ in range(8)]
            threads += [threading.Thread(
                target=lambda: seen.append(index_string(text, amap).symbols == coded))
                for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            tables = [table for table in seen if isinstance(table, list)]
            assert len(tables) == 8 and seen.count(True) == 8
            assert all(table == expected for table in tables)
            assert indexed.select_table == expected
    finally:
        sys.setswitchinterval(interval)


def test_solves_never_build_a_select_table(monkeypatch):
    # the sweep prices its matches from its own table and the walk reads
    # only the source's occurrence lists, once its scans of rare codes run
    # long, so neither table is built on a short pair; covers the walk
    # (s = 0), the sweep with and without a script, and an infeasible pair
    built = []
    index = engine.index_string

    def recorded(raw, alphabet):
        indexed = index(raw, alphabet)
        built.append(indexed)
        return indexed
    monkeypatch.setattr(engine, "index_string", recorded)
    for source, target in (("bba", "abb"), ("ba", "aab"), ("cab", "abcabc"), ("aab", "ab")):
        for with_script in (False, True):
            built.clear()
            correction_distance(source, target, with_script=with_script)
            source_index, target_index = built
            assert target_index._select_table is None, (source, target)
            assert source_index._select_table is None, (source, target, with_script)
        amap = build_alphabet(source, target)
        S, L = index_string(source, amap), index_string(target, amap)
        if distance(S, L).distance.is_finite:
            distance_with_script(S, L)
        assert L._select_table is None, (source, target)
        assert S._select_table is None, (source, target)


# -- the C path for ASCII str and bytes ------------------------------------

def _assert_paths_agree(source, target):
    # lists of the same symbols always take the generic dictionary coding
    amap = build_alphabet(source, target)
    reference = build_alphabet(list(source), list(target))
    assert amap.external_symbols == reference.external_symbols
    for raw in (source, target):
        indexed = index_string(raw, amap)
        expected = index_string(list(raw), reference)
        assert type(indexed.symbols) is tuple
        assert indexed.symbols == expected.symbols == amap.encode(raw)
        assert indexed.per_symbol_count == expected.per_symbol_count


@given(st.text(alphabet=st.characters(max_codepoint=127), max_size=40),
       st.text(alphabet=st.characters(max_codepoint=127), max_size=40),
       st.booleans())
def test_c_path_matches_the_generic_coding(source, target, as_bytes):
    # with the threshold at 0 every ASCII str and bytes pair takes the C
    # path, whose alphabet order, codes and counts are the generic ones
    if as_bytes:
        source, target = source.encode(), target.encode()
    with mock.patch.object(indexing, "_C_PATH", 0):
        assert isinstance(build_alphabet(source, target)._coded(source), bytes)
        _assert_paths_agree(source, target)


def test_c_path_on_long_strings_and_every_symbol():
    rng = random.Random(2015)
    every_ascii = "".join(map(chr, range(128)))
    long_text = "".join(rng.choice("wxyz") for _ in range(5000))
    cases = [
        # all 128 code points, \x00 included: d = 128, counted per position
        (every_ascii[::-1] * 9, every_ascii * 9),
        # all 256 byte values: code 256 fits no byte, so the coding is generic
        (bytes(range(256)) * 5, bytes(range(255, -1, -1)) * 5),
        # few codes, counted by one bytes.count each
        (long_text[::-1], long_text + "a"),
        (long_text.encode(), (long_text + "a").encode()),
        # a non-ASCII str beside an ASCII one, and empty strings
        ("é" + long_text, long_text),
        (long_text, ""),
        ("", long_text.encode()),
        ("", ""),
        (b"", b""),
    ]
    for source, target in cases:
        _assert_paths_agree(source, target)
    assert isinstance(build_alphabet(long_text, long_text)._coded(long_text), bytes)
    assert isinstance(build_alphabet(*cases[0])._coded(cases[0][0]), bytes)
    # d = 256: the generic coding, to a tuple
    assert isinstance(build_alphabet(*cases[1])._coded(cases[1][0]), tuple)


@pytest.mark.parametrize("source, target, absent", [
    ("abcd" * 300, "abcd" * 300 + "e", "e"),
    (b"abcd" * 300, b"abcd" * 300 + b"e", ord("e")),
    ("abcd" * 300, "abcd" * 300 + "\x00", "\x00"),
    (b"abcd" * 300, b"abcd" * 300 + b"\x00", 0),
    # an ordinal of at most d, which a table indexed by code would accept
    ("abcd" * 300, "abcd" * 300 + "\x02", "\x02"),
    (b"abcd" * 300, b"abcd" * 300 + b"\x03", 3),
], ids=["str", "bytes", "str-nul", "bytes-nul", "str-ordinal", "bytes-ordinal"])
def test_c_path_rejects_an_absent_symbol(source, target, absent):
    amap = build_alphabet(source, source)
    assert amap.d == 4
    message = re.escape(f"symbol {absent!r} has no code")
    for raw in (target, target[::-1]):
        with pytest.raises(UnknownSymbol, match=message):
            index_string(raw, amap)
        with pytest.raises(UnknownSymbol, match=message):
            amap.encode(raw)
        with pytest.raises(UnknownSymbol, match=message):
            index_string(list(raw), amap)


# -- properties -------------------------------------------------------------

@given(texts)
def test_count_matches_direct_scan(raw):
    indexed, amap = _indexed(raw, "abc")
    for code in range(1, amap.d + 1):
        sym = amap.raw_of(code)
        for i in range(1, len(raw) + 2):
            assert count(indexed, i, code) == raw[i - 1:].count(sym)


@given(texts)
def test_rank_matches_direct_scan(raw):
    indexed, amap = _indexed(raw, "abc")
    for code in range(1, amap.d + 1):
        sym = amap.raw_of(code)
        for i in range(len(raw) + 1):
            assert rank(indexed, i, code) == raw[:i].count(sym)


@given(texts)
def test_select_rank_round_trip(raw):
    indexed, amap = _indexed(raw, "abc")
    for pos, sym in enumerate(raw, 1):
        code = amap.code_of(sym)
        assert select(indexed, rank(indexed, pos, code), code) == pos


@given(texts)
def test_select_is_first_position_reaching_rank(raw):
    indexed, amap = _indexed(raw, "abc")
    for code in range(1, amap.d + 1):
        for k in range(1, len(raw) + 1):
            pos = select(indexed, k, code)
            if pos is not None:
                assert rank(indexed, pos, code) == k
                assert rank(indexed, pos - 1, code) == k - 1


@given(texts)
def test_counts_sum_to_length(raw):
    indexed, _ = _indexed(raw, "abc")
    assert sum(indexed.per_symbol_count) == len(raw)
