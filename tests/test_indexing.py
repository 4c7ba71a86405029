import pytest
from hypothesis import given, strategies as st

from swapinsert import (
    AlphabetTooLarge,
    UnknownSymbol,
    build_alphabet,
    count,
    index_string,
    rank,
    select,
)

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
