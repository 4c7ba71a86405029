import dataclasses
import gc
import random
import tracemalloc
from fractions import Fraction
from math import inf, nan
from pathlib import Path

import pytest

from swapinsert import (
    Cost,
    Delete,
    Insert,
    InstanceStats,
    Script,
    Swap,
    apply_script,
    build_alphabet,
    correction_distance,
    distance_with_script,
    exhaustive_oracle_check,
    generate_instance,
    GeneratorSpec,
    index_string,
    instance_stats,
    matching_distance,
    memo_bound,
    swap_delete_correction,
    swap_delete_distance,
    ucs_distance,
    weighted_distance,
)
from swapinsert import engine
from swapinsert.engine import _Computation
from swapinsert.indexing import MAX_ALPHABET, AlphabetMap, AlphabetTooLarge

from conftest import random_feasible_pair, random_pair


def indexed_pair(source, target):
    amap = build_alphabet(source, target)
    return index_string(source, amap), index_string(target, amap)


def computation(source, target):
    S, L = indexed_pair(source, target)
    return _Computation(S, L, InstanceStats.of(S, L))


def start_key(comp):
    return (0,) * comp.stats.s


def imbalanced_codes(comp):
    return [a for a, g in enumerate(comp.stats.g_per_symbol, 1) if g > 0]


def decode(comp, key):
    # the imbalanced codes' matched counts of one int sweep key, read off the
    # layout alone: slot idx fills bits [shift[idx], shift[idx + 1]), and the
    # matched total sits above the last field, from bit ``top``; a key with
    # another total or a stray bit is no key of the layout
    bounds = comp.shift + [comp.top]
    counts = tuple(key >> lo & (1 << hi - lo) - 1 for lo, hi in zip(bounds, bounds[1:]))
    assert sum(count << lo for count, lo in zip(counts, bounds)) + (
        sum(counts) << comp.top) == key, key
    return counts


def decoded(comp):
    # the sweep's kept layers, each key decoded into its tuple of counts
    return [{decode(comp, key): value for key, value in layer.items()}
            for layer in comp.layers]


@pytest.fixture
def unpruned(monkeypatch):
    # no beam and no bound: every solve sweeps every reachable state
    monkeypatch.setattr(engine, "_BEAM", inf)


def _naive_layers(comp):
    # the sweep's states and moves, layer by layer, found from an explicit
    # set of matched source positions, with no Fenwick tree and no cache:
    # layers[q][key] is {} for a terminal state, else {kind: (edge, child)}
    S, L = comp.source.symbols, comp.target.symbols
    n_counts = dict(enumerate(comp.stats.n_counts, 1))
    m_counts = dict(enumerate(comp.stats.m_counts, 1))
    imbalanced = imbalanced_codes(comp)
    layers = [{start_key(comp): None}]
    for q in range(comp.m + 1):
        produced = {a: L[:q].count(a) for a in n_counts}
        following = {}
        for key in layers[q]:
            # a balanced code has matched all its target occurrences so far
            # when fully present, none when absent
            counts = {a: produced[a] if n_counts[a] == m_counts[a] else 0 for a in n_counts}
            counts.update(zip(imbalanced, key))
            matched = {p for a, k in counts.items()
                       for p in [p for p, x in enumerate(S) if x == a][:k]}
            moves = layers[q][key] = {}
            if len(matched) == comp.n:
                continue
            b = L[q]
            occurrences = [p for p, x in enumerate(S) if x == b]
            if counts[b] < len(occurrences):
                r = occurrences[counts[b]]
                child = list(key)
                if b in imbalanced:
                    child[imbalanced.index(b)] += 1
                moves["match"] = (sum(p not in matched for p in range(r)), tuple(child))
            if (produced[b] - counts[b] < m_counts[b] - n_counts[b]
                    and moves.get("match", (1,))[0]):
                moves["insert"] = (1, key)
            for _edge, child in moves.values():
                following[child] = None
        if q < comp.m:
            layers.append(following)
        else:
            assert not following
    return layers


def _naive_values(comp, layers):
    # cost-to-go of every naive state, terminal states at m - q
    values = [dict() for _ in layers]
    for q in range(len(layers) - 1, -1, -1):
        for key, moves in layers[q].items():
            values[q][key] = min((edge + values[q + 1][child] for edge, child in moves.values()),
                                 default=comp.m - q)
    return values


# -- feasibility ------------------------------------------------------------

def test_feasible_examples():
    assert not InstanceStats.of(*indexed_pair("aa", "a")).feasible
    assert InstanceStats.of(*indexed_pair("", "abc")).feasible
    assert InstanceStats.of(*indexed_pair("ab", "ba")).feasible


def test_mismatched_alphabets_rejected():
    amap1 = build_alphabet("a", "a")
    amap2 = build_alphabet("b", "b")
    with pytest.raises(ValueError):
        InstanceStats.of(index_string("a", amap1), index_string("b", amap2)).feasible


# -- distance ---------------------------------------------------------------

def test_distance_examples():
    assert correction_distance("", "abc").distance == Cost.finite(3)
    assert correction_distance("ba", "ab").distance == Cost.finite(1)
    # frozen after confirming with the uniform-cost-search oracle
    assert ucs_distance("ba", "aab") == Cost.finite(2)
    assert correction_distance("ba", "aab").distance == Cost.finite(2)
    assert correction_distance("aa", "a").distance == Cost.unreachable()


def test_infeasible_detected_without_recursion(monkeypatch):
    def refuse(*_args):
        raise AssertionError("a computation was built for an infeasible pair")
    monkeypatch.setattr(engine, "_Computation", refuse)
    for with_script in (False, True):
        result = correction_distance("aa", "a", with_script=with_script)
        assert result.distance == Cost.unreachable()
        assert result.memo_entries == 0
        assert result.script is None


def test_both_empty():
    assert correction_distance("", "").distance == Cost.finite(0)


def test_finite_iff_feasible(rng):
    for _ in range(200):
        source, target = random_pair(rng)
        result = correction_distance(source, target)
        S, L = indexed_pair(source, target)
        assert result.distance.is_finite == InstanceStats.of(S, L).feasible, (source, target)


def test_finite_distances_stay_within_loose_bound(rng):
    # at most m - n insertions and fewer than n*m swaps
    for _ in range(200):
        source, target = random_feasible_pair(rng, max_d=4, max_n=10, max_m=14)
        result = correction_distance(source, target)
        n, m = len(source), len(target)
        assert result.distance.value <= n * m + m


# -- the sweep (internal surface) ----------------------------------------------

def test_source_exhausted_leaves_only_insertions(rng):
    # once every source position is matched, only insertions remain
    comp = computation("ab", "abcde")
    assert comp._sweep() == 3
    assert decoded(comp)[2] == {(): 3}
    assert not any(comp.layers[3:])
    for _ in range(100):
        comp = computation(*random_feasible_pair(rng, max_d=4, max_n=6, max_m=8))
        comp._sweep()
        layers = decoded(comp)
        for q, layer in enumerate(_naive_layers(comp)):
            for key, moves in layer.items():
                if not moves:
                    assert layers[q][key] == comp.m - q


def test_target_exhausted_requires_all_remaining_ignored(rng):
    # the last layer holds only the state with every source occurrence matched
    comp = computation("ab", "aab")
    assert comp._sweep() == 1
    assert decoded(comp)[-1] == {(1,): 0}
    for _ in range(100):
        comp = computation(*random_feasible_pair(rng, max_d=4, max_n=6, max_m=8))
        comp._sweep()
        assert len(comp.layers) == comp.m + 1
        full = tuple(comp.stats.n_counts[a - 1] for a in imbalanced_codes(comp))
        assert decoded(comp)[-1] in ({}, {full: 0})


def test_hand_traced_swap_branch():
    # moving the needed symbol from position 2 costs one swap, then the
    # rest of the scan is free; the sweep runs standalone even when s = 0
    comp = computation("ab", "ba")
    assert comp._sweep() == 1


# -- sweep path --------------------------------------------------------------

def _all_imbalanced_pair(rng, d):
    # every code has 0 < n_a < m_a, so s == d
    target, source = [], []
    for sym in "abcde"[:d]:
        m_a = rng.randint(2, 3)
        target += [sym] * m_a
        source += [sym] * rng.randint(1, m_a - 1)
    rng.shuffle(target)
    rng.shuffle(source)
    return "".join(source), "".join(target)


@pytest.mark.parametrize("profile", ["balanced-g", "max-g"])
@pytest.mark.parametrize("with_script", [False, True])
def test_memo_path_runs_with_full_and_partial_imbalance(profile, with_script):
    pairs = [generate_instance(GeneratorSpec(d=d, n=24, m=36, profile=profile, seed=d))
             for d in (2, 3, 4)]
    # the generated pairs have 0 < s < d; add one with s == d
    pairs.append(_all_imbalanced_pair(random.Random(len(profile)), 4))
    full = []
    for source, target in pairs:
        result = correction_distance(source, target, with_script=with_script)
        assert 0 < result.stats.s <= result.stats.d
        full.append(result.stats.s == result.stats.d)
        assert 0 < result.memo_entries <= result.stats.predicted_state_bound
        if with_script:
            assert apply_script(source, result.script) == target
    assert full == [False, False, False, True]


def test_zero_imbalance_uses_no_memo():
    # every symbol is balanced here, so evaluation runs as a plain scan
    result = correction_distance("bba", "abb")
    assert result.stats.s == 0
    assert result.memo_entries == 0
    assert result.distance == Cost.finite(2)


@pytest.mark.parametrize("d, m", [(4, 2000), (4, 2400), (300, 2000)])
@pytest.mark.parametrize("with_script", [False, True])
def test_zero_imbalance_never_sweeps_nor_builds_a_rank_table(monkeypatch, d, m, with_script):
    # the walk alone solves an s = 0 pair: neither the sweep nor the table
    # of its match costs may add time or memory to it, and a walk
    # over a few frequent codes scans the source instead of building its
    # select table
    def fail(*args):
        raise AssertionError("an s = 0 pair entered the sweep")
    monkeypatch.setattr(_Computation, "_sweep", fail)
    monkeypatch.setattr(_Computation, "_match_table", fail)
    source, target = generate_instance(
        GeneratorSpec(d=d, n=2000, m=m, profile="zero-g", seed=0))
    result = correction_distance(source, target, with_script=with_script)
    assert (result.stats.s, result.memo_entries) == (0, 0)
    assert result.distance.value >= m - 2000
    S, L = indexed_pair(source, target)
    solve = engine.distance_with_script if with_script else engine.distance
    assert solve(S, L) == result
    if d == 4:
        assert S._select_table is None


def test_zero_counter_invariant_in_every_visited_state(rng, unpruned):
    # an imbalanced code's matched count lies in its window: at most its
    # source and target counts so far, at least what the inserts left over
    for _ in range(60):
        source, target = random_feasible_pair(rng, max_d=4, max_n=8, max_m=10)
        comp = computation(source, target)
        # run the sweep on every pair, chain-scan pairs too
        assert comp._sweep() == correction_distance(source, target).distance.value
        assert comp.layers
        for q, layer in enumerate(decoded(comp)):
            for key in layer:
                for a, k in zip(imbalanced_codes(comp), key):
                    cnt = target[:q].count(comp.stats.alphabet.external_symbols[a - 1])
                    n_a, m_a = comp.stats.n_counts[a - 1], comp.stats.m_counts[a - 1]
                    assert max(0, cnt - (m_a - n_a)) <= k <= min(n_a, cnt), (source, target)


def test_memo_bound_never_exceeded(rng):
    for _ in range(150):
        source, target = random_pair(rng, max_d=4, max_n=8, max_m=10)
        result = correction_distance(source, target)
        assert result.memo_entries <= result.stats.predicted_state_bound


def test_memo_entries_match_distinct_codec_keys(unpruned):
    # the sweep's states are exactly those the naive move rule reaches, with
    # the naive cost-to-go, and memo_bound bounds their number
    rng = random.Random(5150)
    full = 0
    for k in range(300):
        d = 3 + k % 3
        if k % 2:
            source, target = _all_imbalanced_pair(rng, d)
        else:
            source, target = random_feasible_pair(rng, max_d=d, max_n=9, max_m=12)
        comp = computation(source, target)
        if comp.stats.s == 0:
            continue
        full += comp.stats.s == comp.stats.d
        comp._sweep(keep=True)
        naive = _naive_values(comp, _naive_layers(comp))
        assert decoded(comp) == naive, (source, target)
        reachable = sum(map(len, naive))
        assert reachable <= comp.stats.predicted_state_bound, (source, target)
        assert correction_distance(source, target).memo_entries == reachable
    assert full >= 100


def test_matched_counts_fill_their_fields_without_a_carry(unpruned):
    # imbalanced codes with n_a = 1, 7, 8, 15 and 16 take fields of 1, 3, 4,
    # 4 and 5 bits, and the counts 1, 7 and 15 fill theirs to the top: a
    # field one bit too narrow carries into the next and merges states
    rng = random.Random(1678)
    for _ in range(4):
        source, target = ["f"] * 3, ["f"] * 3
        for sym, n_a in zip("abcde", (1, 7, 8, 15, 16)):
            source += [sym] * n_a
            target += [sym] * (n_a + rng.randint(1, 2))
        rng.shuffle(source)
        rng.shuffle(target)
        comp = computation("".join(source), "".join(target))
        n_counts = [comp.stats.n_counts[a - 1] for a in imbalanced_codes(comp)]
        bounds = comp.shift + [comp.top]
        widths = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        assert widths == [n_a.bit_length() for n_a in n_counts]
        assert sorted(zip(n_counts, widths)) == [(1, 1), (7, 3), (8, 4), (15, 4), (16, 5)]
        comp._sweep()
        layers = decoded(comp)
        assert layers == _naive_values(comp, _naive_layers(comp))
        # the state with every source position matched, each count at n_a
        assert any(tuple(n_counts) in layer for layer in layers)


def test_memo_bound_formula():
    # s = d: drop the smallest imbalance from the product and keep the d factor
    assert memo_bound(3, (2, 1), (4, 2)) == 2 * 4 * (1 + 2 + 1) * 3
    # s < d: no leading d factor, product over the positive imbalances
    assert memo_bound(2, (1, 0), (2, 1)) == 3 * (1 + 1 + 1) * 2
    assert memo_bound(5, (0, 0), (3, 3)) == 0


def _two_branch_memo_bound(n, g_by_code, m_by_code):
    # the bound as written before its one-product form, kept as the reference
    positives = sorted(g for g in g_by_code if g > 0)
    s = len(positives)
    if s == 0:
        return 0
    d = len(g_by_code)
    span = 1 + sum(m - g for g, m in zip(g_by_code, m_by_code))
    if s == d:
        prod = 1
        for g in positives[1:]:
            prod *= g + 1
        return d * (n + 1) * span * prod
    prod = 1
    for g in positives:
        prod *= g + 1
    return (n + 1) * span * prod


def test_memo_bound_matches_the_two_branch_formula(rng):
    shapes = set()
    for _ in range(3000):
        d = rng.randint(1, 7)
        m_by_code = [rng.randint(0, 12) for _ in range(d)]
        g_by_code = [rng.randint(0, m // 2) if rng.random() < 0.7 else 0 for m in m_by_code]
        n = sum(m_by_code) - sum(g_by_code)
        s = sum(g > 0 for g in g_by_code)
        shapes.add("none" if s == 0 else "all" if s == d else "some")
        assert memo_bound(n, g_by_code, m_by_code) == \
            _two_branch_memo_bound(n, g_by_code, m_by_code), (n, g_by_code, m_by_code)
    assert shapes == {"none", "some", "all"}


# -- scripts ------------------------------------------------------------------

def test_identity_script_is_empty():
    result = correction_distance("ab", "ab", with_script=True)
    assert result.distance == Cost.finite(0)
    assert result.script.ops == ()


def test_script_for_ba_to_aab():
    result = correction_distance("ba", "aab", with_script=True)
    assert result.distance == Cost.finite(2)
    assert len(result.script) == 2
    assert result.script.insert_count == 1
    assert result.script.swap_count == 1
    assert apply_script("ba", result.script) == "aab"


def test_pure_insert_script():
    result = correction_distance("", "ab", with_script=True)
    assert result.script.ops == (Insert(1, "a"), Insert(2, "b"))


def test_script_unavailable_when_unreachable():
    # every entry point returns an unreachable pair without a script
    results = [distance_with_script(*indexed_pair("aa", "a")),
               swap_delete_distance(*indexed_pair("a", "aa")),
               correction_distance("aa", "a", with_script=True),
               swap_delete_correction("a", "aa")]
    for result in results:
        assert (result.distance, result.script, result.memo_entries) == (
            Cost.unreachable(), None, 0)


def test_insert_offered_while_free_source_symbols_fall_short():
    # at "ac" vs "cae" one 'a' of the source is already spoken for, so the
    # free a's cannot supply both remaining target a's: inserting must stay open
    result = correction_distance("eac", "acae", with_script=True)
    assert result.distance == Cost.finite(3)
    assert ucs_distance("eac", "acae") == Cost.finite(3)
    assert apply_script("eac", result.script) == "acae"


def test_random_pairs_up_to_five_symbols_match_matching_oracle():
    rng = random.Random(1504)
    for _ in range(2000):
        alphabet = "abcde"[:rng.randint(3, 5)]
        n = rng.randint(0, 7)
        m = rng.randint(n, 7)
        target = [rng.choice(alphabet) for _ in range(m)]
        source = "".join(rng.sample(target, n))
        target = "".join(target)
        result = correction_distance(source, target, with_script=True)
        assert result.distance == matching_distance(source, target), (source, target)
        assert apply_script(source, result.script) == target


def _inversions(values):
    # merge-sort count of pairs i < j with values[i] > values[j]
    if len(values) < 2:
        return 0, list(values)
    mid = len(values) // 2
    left_count, left = _inversions(values[:mid])
    right_count, right = _inversions(values[mid:])
    merged, total, li = [], left_count + right_count, 0
    for value in right:
        while li < len(left) and left[li] <= value:
            merged.append(left[li])
            li += 1
        total += len(left) - li
        merged.append(value)
    merged.extend(left[li:])
    return total, merged


def _shuffled_zero_imbalance_pair(d, n, seed):
    # d codes, a tenth of them absent from the source, which is a full
    # random shuffle of the target's other symbols: dozens of codes have
    # matched occurrences ahead of the walk at once
    rng = random.Random(seed)
    symbols = [chr(0x4E00 + code) for code in range(d)]
    present, absent = symbols[:d - d // 10], symbols[d - d // 10:]
    kept = present + [rng.choice(present) for _ in range(n - len(present))]
    target = kept + absent * 3
    rng.shuffle(target)
    return "".join(rng.sample(kept, len(kept))), "".join(target)


def _block_reversed_pair(d, run):
    # a sorted target against its reverse: every swap's span is longer than
    # the walk's blocks, and it moves by one position from swap to swap
    # until the walk turns to the next symbol
    target = "".join(chr(0x4E00 + code) * run for code in range(d))
    return target[::-1], target


def test_large_alphabet_zero_imbalance_matches_forced_matching():
    generated = generate_instance(
        GeneratorSpec(d=4096, n=20_000, m=22_000, profile="zero-g", seed=3))
    # the block-reversed pair's swaps count their spans from the previous
    # swap's count; the last pair's codes are rare and its scans long
    # enough for the walk to read the select table, and its spans are
    # counted directly, from the previous count and from per-block counts
    for (source, target), d in ((generated, 4096),
                                (_shuffled_zero_imbalance_pair(100, 1000, 41), 100),
                                (_block_reversed_pair(4, 200), 4),
                                (_shuffled_zero_imbalance_pair(1000, 3000, 43), 1000)):
        amap = build_alphabet(source, target)
        assert amap.d == d
        # every symbol is absent from the source or fully present, so the
        # k-th source occurrence of a symbol must become its k-th target
        # occurrence and the distance is (m - n) plus the inversions of
        # that matching
        occurrences = {}
        for pos, sym in enumerate(target):
            occurrences.setdefault(sym, []).append(pos)
        seen = {}
        matched = []
        for sym in source:
            matched.append(occurrences[sym][seen.get(sym, 0)])
            seen[sym] = seen.get(sym, 0) + 1
        expected = len(target) - len(source) + _inversions(matched)[0]

        S, L = index_string(source, amap), index_string(target, amap)
        comp = _Computation(S, L, InstanceStats.of(S, L))
        ops = []
        assert comp.solve(ops) == expected
        script = Script(tuple(ops))
        assert len(script) == expected
        assert apply_script(source, script) == target
        # the walk alone solves it: no layer is built
        assert not comp.layers


def test_zero_imbalance_pair_over_exactly_max_alphabet_symbols():
    # the largest alphabet the map takes, and one symbol more that it
    # refuses; a pair over all of its symbols, each once, is solved by the
    # walk at the forced matching's distance, its inversion count
    symbols = [chr(0x10000 + code) for code in range(MAX_ALPHABET + 1)]
    assert AlphabetMap(symbols[:MAX_ALPHABET]).d == MAX_ALPHABET
    with pytest.raises(AlphabetTooLarge):
        AlphabetMap(symbols)
    rng = random.Random(28)
    target = symbols[:MAX_ALPHABET]
    rng.shuffle(target)
    source = target.copy()
    for _ in range(1000):
        at = rng.randrange(len(source) - 1)
        source[at], source[at + 1] = source[at + 1], source[at]
    where = {symbol: pos for pos, symbol in enumerate(target)}
    expected = _inversions([where[symbol] for symbol in source])[0]
    source, target = "".join(source), "".join(target)
    S, L = indexed_pair(source, target)
    comp = _Computation(S, L, InstanceStats.of(S, L))
    assert (comp.stats.d, comp.stats.s) == (MAX_ALPHABET, 0)
    ops = []
    assert comp.solve(ops) == expected
    assert not comp.layers
    assert apply_script(source, Script(tuple(ops))) == target


def test_walk_builds_the_select_table_only_after_long_scans():
    # every code of both pairs is rare, under one occurrence in 64 source
    # positions; the locally shuffled pair's scans read fewer than 4n
    # positions, so its walk scans for each next occurrence, while the full
    # shuffle's scans pass 4n within a few dozen swaps and read the table
    local = generate_instance(GeneratorSpec(d=1000, n=10_000, m=10_000, profile="zero-g", seed=0))
    full = _shuffled_zero_imbalance_pair(1000, 3000, 43)
    for (source, target), built in ((local, False), (full, True)):
        S, L = indexed_pair(source, target)
        stats = InstanceStats.of(S, L)
        assert stats.s == 0
        assert all(count * engine._SCAN < stats.n for count in stats.n_counts)
        assert engine.distance(S, L) == correction_distance(source, target)
        assert (S._select_table is not None) == built


def test_insertion_preferred_on_ties():
    # both branches cost the same here; the emitted script must insert
    result = correction_distance("b", "ab", with_script=True)
    assert result.script.ops[0] == Insert(1, "a")


SWEEP = Path(__file__).parent / "data" / "script_sweep.txt"


def _sweep_pairs():
    # the pairs of SWEEP, in file order: 2 to 5 symbols, 2 <= m <= 8, and
    # the source a random sub-multiset of the target, 1 <= n <= m
    rng = random.Random(20151)
    for _ in range(2000):
        alphabet = "abcde"[:rng.randint(2, 5)]
        m = rng.randint(2, 8)
        n = rng.randint(1, m)
        target = [rng.choice(alphabet) for _ in range(m)]
        yield "".join(rng.sample(target, n)), "".join(target)


def _sweep_cases():
    # one pair per line: source ("-" when empty), target, distance, then
    # the script as i<pos><symbol> for an insert and s<pos> for a swap.
    # Each line after the pair was written from
    # correction_distance(source, target, with_script=True), read through
    # _op_text, at commit 638f5586d3c65be4a5f2ab3889c0483ce1d4fe3a, while
    # the memo still keyed on the paper's bounded state keys; extend the
    # sweep the same way.
    for line in SWEEP.read_text().splitlines():
        source, target, value, *ops = line.split(" ")
        yield ("" if source == "-" else source), target, int(value), ops


def _op_text(op):
    return f"i{op.position}{op.symbol}" if isinstance(op, Insert) else f"s{op.position}"


def test_script_sweep_matches_committed_scripts():
    cases = list(_sweep_cases())
    assert [(source, target) for source, target, *_ in cases] == list(_sweep_pairs())
    for source, target, value, ops in cases:
        result = correction_distance(source, target, with_script=True)
        assert result.distance == Cost.finite(value), (source, target)
        assert [_op_text(op) for op in result.script.ops] == ops, (source, target)


@pytest.mark.parametrize("width", [1, 4])
def test_script_sweep_holds_under_a_narrow_beam(monkeypatch, width):
    # a beam this narrow cuts even these short pairs, so their sweeps run
    # bounded; the committed distances and scripts must come out unchanged
    monkeypatch.setattr(engine, "_BEAM", width)
    test_script_sweep_matches_committed_scripts()


def test_reconstruct_inserts_on_every_tie_in_the_sweep():
    # follow each sweep-path script along the naive move graph; wherever
    # the insert and the match cost the same, the script must insert
    ties = 0
    for source, target, _value, _ops in _sweep_cases():
        comp = computation(source, target)
        if comp.stats.s == 0:
            continue
        ops = []
        comp.solve(ops)
        layers = _naive_layers(comp)
        values = _naive_values(comp, layers)
        q, key = 0, start_key(comp)
        while layers[q][key]:
            moves = layers[q][key]
            # only an insert at this state emits an insert at position q + 1
            inserted = "insert" in moves and ops[:1] == [Insert(q + 1, target[q])]
            if len(moves) == 2:
                ins_edge, ins_child = moves["insert"]
                swap_edge, swap_child = moves["match"]
                if ins_edge + values[q + 1][ins_child] == swap_edge + values[q + 1][swap_child]:
                    ties += 1
                    assert inserted, (source, target, q, key)
            edge, key = moves["insert" if inserted else "match"]
            # an insert emits one op, a match `edge` swaps walking it down
            if not inserted:
                assert ops[:edge] == [Swap(pos) for pos in range(q + edge, q, -1)]
            del ops[:edge]
            q += 1
        assert ops == [Insert(pos, target[pos - 1]) for pos in range(q + 1, comp.m + 1)]
    assert ties >= 100


def test_walk_after_the_dp_returns_the_memo_value():
    # the walk that writes a sweep-path script follows an optimal path, so
    # its own running cost ends at the sweep's value of the start state
    walked = 0
    for source, target, value, _ops in _sweep_cases():
        comp = computation(source, target)
        if comp.stats.s == 0:
            continue
        assert comp._sweep() == value
        ops = []
        assert comp._walk(ops) == decoded(comp)[0][start_key(comp)], (source, target)
        assert len(ops) == value
        walked += 1
    assert walked >= 1000


def _live_and_kept(source, target):
    # (value, priced, layers left) of a distance-only solve, then of the sweep
    # that keeps every layer
    live, kept = computation(source, target), computation(source, target)
    return ((live.solve(), live.priced, live.layers),
            (kept._sweep(keep=True), kept.priced, len(kept.layers)))


def test_live_layer_pass_equals_the_kept_sweep(rng, unpruned):
    # a distance-only solve holds one live layer and keeps none, yet finds
    # the kept sweep's value and prices exactly its states
    pairs = [(source, target) for source, target, _value, _ops in _sweep_cases()]
    while len(pairs) < 2600:
        pairs.append(random_feasible_pair(rng, max_d=5, max_n=9, max_m=12))
    checked = 0
    for source, target in pairs:
        if computation(source, target).stats.s == 0:
            continue
        (value, priced, layers), (kept_value, kept_priced, kept_layers) = \
            _live_and_kept(source, target)
        assert (value, priced) == (kept_value, kept_priced), (source, target)
        assert layers == [] and kept_layers == len(target) + 1, (source, target)
        assert correction_distance(source, target).memo_entries == priced
        checked += 1
    assert checked >= 1500


def test_distance_only_solve_peaks_at_a_tenth_of_the_script_solve(unpruned):
    # the script solve keeps every layer for its walk, the distance-only
    # solve one live layer at a time
    source, target = generate_instance(
        GeneratorSpec(d=4, n=100, m=150, profile="balanced-g", seed=0))
    assert correction_distance(source, target).memo_entries > 5000
    peaks = {}
    for with_script in (False, True):
        gc.collect()
        tracemalloc.start()
        try:
            correction_distance(source, target, with_script=with_script)
            peaks[with_script] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[False] * 10 <= peaks[True], peaks


def test_script_solve_keeps_under_88_bytes_per_state():
    # a kept state holds one int, its match cost and two flags, under one
    # int key, and its child's key is rebuilt from its own: 79 B a state on
    # CPython 3.11, against 99 B under a tuple key and over 150 B with a
    # 3-tuple per state
    S, L = indexed_pair(*generate_instance(
        GeneratorSpec(d=4, n=200, m=300, profile="balanced-g", seed=0)))
    gc.collect()
    tracemalloc.start()
    try:
        result = distance_with_script(S, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.memo_entries > 5000
    assert peak < 88 * result.memo_entries, peak / result.memo_entries


def _solves(source, target):
    # (distance, script, memo entries) of a distance-only and a script solve
    return [(result.distance, result.script, result.memo_entries)
            for result in (correction_distance(source, target, with_script=with_script)
                           for with_script in (False, True))]


def _generated_pairs():
    # 96 balanced-g and max-g pairs, d = 2..5, n = 10..80, m = 1.5 n
    for profile in ("balanced-g", "max-g"):
        for d in range(2, 6):
            for n in (10, 20, 40, 80):
                for seed in range(3):
                    yield generate_instance(GeneratorSpec(
                        d=d, n=n, m=n * 3 // 2, profile=profile, seed=seed))


@pytest.mark.parametrize("width", [1, 4])
def test_pruned_and_unpruned_solves_agree_on_generated_specs(monkeypatch, width):
    # a narrow beam cuts every layer it can, so the bounded sweep prunes
    # hard; distances and scripts must still be the unpruned sweep's, and
    # both modes price the same states, never more than the unpruned sweep
    cut = 0
    for source, target in _generated_pairs():
        monkeypatch.setattr(engine, "_BEAM", inf)
        full = _solves(source, target)
        monkeypatch.setattr(engine, "_BEAM", width)
        pruned = _solves(source, target)
        assert [solve[:2] for solve in pruned] == [solve[:2] for solve in full]
        assert pruned[0][2] == pruned[1][2] <= full[0][2], (source, target)
        cut += pruned[0][2] < full[0][2]
    assert cut >= 50


def test_a_beam_as_wide_as_the_box_never_cuts():
    # no layer holds more states than its box, so on a pair whose box fits
    # the default beam the beam pass is the unpruned sweep, in both modes
    checked = 0
    for source, target in _generated_pairs():
        full = computation(source, target)
        if not 0 < full.stats.s or full.stats.layer_bound > engine._BEAM:
            continue
        full._sweep(keep=False)
        for ops in (None, []):
            comp = computation(source, target)
            comp.solve(ops)
            assert not comp.cut, (source, target)
            result = correction_distance(source, target, with_script=ops is not None)
            assert result.memo_entries == full.priced, (source, target)
        checked += 1
    assert checked >= 80


@pytest.mark.parametrize("beam, alphabet, max_n, max_m", [(1, 3, 3, 5), (4, 2, 4, 7)])
def test_exhaustive_check_passes_under_a_narrow_beam(monkeypatch, beam, alphabet, max_n, max_m):
    # the trust anchor with the beam and the bound on for tiny pairs too.
    # Over three symbols no box exceeds 4 states before m = 6, and checking
    # up to m = 6 takes 23 s, so width 4 runs over two symbols up to m = 7
    monkeypatch.setattr(engine, "_BEAM", beam)
    sweep = _Computation._sweep
    beams = []

    def counted(self, keep=True, width=inf, bound=inf):
        beams.append(width < inf)
        return sweep(self, keep, width, bound)
    monkeypatch.setattr(_Computation, "_sweep", counted)
    assert exhaustive_oracle_check(max_n=max_n, max_m=max_m, alphabet_size=alphabet).ok
    assert sum(beams) >= 1000


def test_hard_pair_prices_under_a_million_states():
    # balanced-g d = 4, n = 400 prices 6.49 M states unpruned; a count is
    # asserted because, unlike a time, it does not vary between runs.  Both
    # pairs are the CI hard-pair probes', pinned exactly
    for d, pinned in ((4, (297, 166_026)), (5, (281, 618_195))):
        source, target = generate_instance(
            GeneratorSpec(d=d, n=400, m=600, profile="balanced-g", seed=0))
        result = correction_distance(source, target)
        assert result.stats.layer_bound > engine._BEAM
        assert (result.distance.value, result.memo_entries) == pinned, d


def test_bounded_beam_stays_wide_on_a_five_symbol_pair():
    # s = 3 of d = 5: the 64-wide beam under the narrow beam's bound prices
    # 46,080 states here; narrowing that bounded beam too prices 289,688
    source, target = generate_instance(
        GeneratorSpec(d=5, n=200, m=300, profile="balanced-g", seed=0))
    result = correction_distance(source, target)
    assert result.stats.s == 3
    assert result.memo_entries < 100_000


@pytest.mark.parametrize("d, passes", [
    (4, [(64, False, True, 2652, 154), (64, True, True, 6093, 154),
         (inf, True, False, 6235, 154)]),
    (5, [(64, False, True, 2787, 289), (64, True, True, 17747, 144),
         (inf, True, False, 46080, 144)]),
])
@pytest.mark.parametrize("with_script", [False, True])
def test_solve_pass_sequence_on_hard_pairs(monkeypatch, d, passes, with_script):
    # each pass as (width, bounded, cut, priced, value): an unbounded beam
    # that narrows after its first cut, a 64-wide beam bounded by its
    # value, then the unbeamed bounded sweep, which cuts nothing
    sweep = _Computation._sweep
    calls = []

    def recorded(self, keep=True, width=inf, bound=inf):
        value = sweep(self, keep, width, bound)
        calls.append((width, bound < inf, self.cut, self.priced, value))
        return value
    monkeypatch.setattr(_Computation, "_sweep", recorded)
    source, target = generate_instance(
        GeneratorSpec(d=d, n=200, m=300, profile="balanced-g", seed=0))
    correction_distance(source, target, with_script=with_script)
    assert calls == passes


def test_narrow_first_beam_prices_few_states_on_memo_specs(monkeypatch):
    # every pass of a distance-only solve over the benchmark's memo specs:
    # a beam kept 64 wide to the end prices 59,160 states, one that
    # narrows to 8 after its first cut 26,712
    sweep = _Computation._sweep
    priced = []

    def counted(self, keep=True, width=inf, bound=inf):
        value = sweep(self, keep, width, bound)
        priced.append(self.priced)
        return value
    monkeypatch.setattr(_Computation, "_sweep", counted)
    for profile, d, n in (("balanced-g", 3, 160), ("balanced-g", 4, 160),
                          ("max-g", 3, 120), ("max-g", 4, 100)):
        for seed in (0, 1):
            correction_distance(*generate_instance(GeneratorSpec(
                d=d, n=n, m=n * 3 // 2, profile=profile, seed=seed)))
    assert sum(priced) <= 35_000, priced
    # exactly: a sweep that relaxes a layer's children in another order
    # keeps other tied states in its beams and prices another count
    assert (len(priced), sum(priced)) == (13, 26_712), priced


def test_box_check_catches_a_layer_that_outgrows_its_box(monkeypatch, unpruned):
    # a sweep that may insert any code at any time lets each matched count
    # leave its window of g_a + 1 values, so its layers outgrow their box;
    # the paper's looser memo bound lets that count through, the box does not
    source, target = "babaaaaaabbaabbbbb", "aaaabbabaabbbabbabba"
    stats = instance_stats(source, target)
    box = (stats.m + 1) * stats.layer_bound
    assert (stats.g_per_symbol, box) == ((1, 1), 84)
    _uncap_inserts(monkeypatch)
    assert box < _unboxed_sweep(source, target).priced <= stats.predicted_state_bound
    with pytest.raises(RuntimeError, match="internal error: layer 4 holds 5 states"):
        computation(source, target)._sweep(keep=False)
    with pytest.raises(RuntimeError, match="over its box of 4"):
        correction_distance(source, target)


def _uncap_inserts(monkeypatch):
    # let every code be inserted at any time
    init = _Computation.__init__

    def uncapped(self, *args):
        init(self, *args)
        self.spare = [self.m] * len(self.spare)
    monkeypatch.setattr(_Computation, "__init__", uncapped)


def _unboxed_sweep(source, target):
    # the sweep with a box too large to check anything, keeping its layers
    comp = computation(source, target)
    comp.stats = dataclasses.replace(comp.stats, layer_bound=10 ** 9)
    comp._sweep(keep=True)
    return comp


def test_box_check_catches_one_layer_over_its_box_within_m_plus_1_boxes(monkeypatch):
    # uncapped, this pair's sweep builds one layer of 8 states against a
    # box of 6, yet prices 49 states in all, within the m + 1 = 10 boxes
    # of 60: only a check of each layer catches it, here in a script solve
    source, target = "abbbba", "bbbaaabba"
    stats = instance_stats(source, target)
    _uncap_inserts(monkeypatch)
    unboxed = _unboxed_sweep(source, target)
    assert (stats.layer_bound, max(map(len, unboxed.layers))) == (6, 8)
    assert unboxed.priced == 49 < (stats.m + 1) * stats.layer_bound == 60
    with pytest.raises(RuntimeError, match="internal error: layer 5 holds 8 states"):
        computation(source, target)._sweep(keep=True)
    with pytest.raises(RuntimeError, match="over its box of 6"):
        correction_distance(source, target, with_script=True)


@pytest.mark.parametrize("ops", [None, []])
def test_sweep_that_reaches_no_end_fails_loudly(ops):
    # ("ba", "aab") told that a occurs once in the target may not insert
    # its a; the state that matched a then has no move, so no state
    # reaches the end, and neither pass may return a distance
    S, L = indexed_pair("ba", "aab")
    stats = InstanceStats.of(S, L)
    comp = _Computation(S, L, dataclasses.replace(stats, m_counts=(1, 1)))
    assert comp.stats.s == 1
    with pytest.raises(RuntimeError, match="internal error"):
        comp.solve(ops)


def test_solvers_never_report_unreachable():
    # ("ab", "a") is infeasible, which the engine settles from the counts
    # before any solve; handed to a solver anyway (s = 0, so the walk),
    # it must fail loudly rather than return a distance
    comp = computation("ab", "a")
    assert comp.stats.s == 0 and not comp.stats.feasible
    with pytest.raises(RuntimeError, match="internal error"):
        comp.solve()


def test_branching_state_without_imbalance_is_rejected():
    # ("ba", "aab") has s = 1 and branches at its start state; told that no
    # symbol is imbalanced, the walk runs without layers and must not guess
    S, L = indexed_pair("ba", "aab")
    stats = InstanceStats.of(S, L)
    assert stats.s == 1
    comp = _Computation(S, L, dataclasses.replace(stats, s=0))
    with pytest.raises(RuntimeError, match="branching state"):
        comp.solve()
    assert not comp.layers


def test_scripts_replay_on_random_instances(rng):
    for _ in range(150):
        source, target = random_feasible_pair(rng, max_d=4, max_n=10, max_m=14)
        result = correction_distance(source, target, with_script=True)
        assert apply_script(source, result.script) == target
        assert len(result.script) == result.distance.value
        assert result.script.insert_count == len(target) - len(source)


def test_swap_runs_move_one_symbol_left_monotonically(rng):
    # each run of consecutive swaps must walk a single occurrence down to
    # the boundary: positions decrease by exactly one within a run, and no
    # occurrence is ever the moved party twice
    for _ in range(80):
        source, target = random_feasible_pair(rng, max_d=3, max_n=8, max_m=10)
        result = correction_distance(source, target, with_script=True)
        work = [(sym, idx) for idx, sym in enumerate(source)]
        moved_ids = set()
        previous = None  # (position, moved id) of the preceding swap
        for op in result.script.ops:
            if isinstance(op, Insert):
                work.insert(op.position - 1, (op.symbol, None))
                previous = None
                continue
            left, right = work[op.position - 1], work[op.position]
            assert left[0] != right[0], "equal symbols swapped"
            work[op.position - 1], work[op.position] = right, left
            mover = right  # the committed occurrence moves left
            if previous is not None and previous[0] == op.position + 1:
                assert previous[1] == mover, "run switched its moved symbol"
            else:
                assert mover[1] is not None
                assert mover[1] not in moved_ids, "occurrence committed twice"
                moved_ids.add(mover[1])
            previous = (op.position, mover)
        assert [sym for sym, _ in work] == list(target)


# -- fast path ----------------------------------------------------------------

def test_equal_length_instances_never_branch(rng):
    for _ in range(40):
        target = [rng.choice("abcd") for _ in range(rng.randint(1, 40))]
        source = target[:]
        rng.shuffle(source)
        result = correction_distance("".join(source), "".join(target),
                                     with_script=True)
        assert result.memo_entries == 0
        assert result.script.insert_count == 0


# -- weighted ----------------------------------------------------------------

def test_weighted_examples():
    S, L = indexed_pair("ba", "ab")
    assert weighted_distance(S, L, 5, 1) == Cost.finite(1)
    S, L = indexed_pair("", "ab")
    assert weighted_distance(S, L, 3, 7) == Cost.finite(6)
    # delta = 2 with one insert and one swap, confirmed by the weighted oracle
    assert ucs_distance("ba", "aab", weights=(2, 3)) == Cost.finite(5)
    S, L = indexed_pair("ba", "aab")
    assert weighted_distance(S, L, 2, 3) == Cost.finite(5)


def test_weighted_unreachable():
    S, L = indexed_pair("aa", "a")
    assert weighted_distance(S, L, 1, 1) == Cost.unreachable()


def test_weighted_rejects_negative():
    # nan and inf would give a Cost that is not finite or not equal to itself
    S, L = indexed_pair("a", "ab")
    result = correction_distance("ba", "aab")
    for weight in (-1, nan, inf):
        for weights in ((weight, 1), (1, weight)):
            with pytest.raises(ValueError):
                weighted_distance(S, L, *weights)
            with pytest.raises(ValueError):
                result.weighted_cost(*weights)


def test_result_carries_the_instance_stats_and_weighted_cost(rng):
    infeasible = 0
    for _ in range(300):
        source, target = random_pair(rng, max_d=4, max_n=7, max_m=8)
        result = correction_distance(source, target)
        assert result.stats == instance_stats(source, target)
        infeasible += not result.stats.feasible
        S, L = indexed_pair(source, target)
        for weights in ((1, 1), (2, 3), (Fraction(3, 2), 0)):
            assert result.weighted_cost(*weights) == weighted_distance(S, L, *weights)
    assert 0 < infeasible < 300


def test_weighted_matches_oracle(rng):
    for _ in range(60):
        source, target = random_pair(rng, max_n=5, max_m=7)
        S, L = indexed_pair(source, target)
        for weights in ((1, 1), (2, 3), (5, 1)):
            assert weighted_distance(S, L, *weights) == \
                ucs_distance(source, target, weights=weights)


# -- swap-delete ----------------------------------------------------------------

def test_swap_delete_examples():
    result = swap_delete_correction("aab", "ba")
    assert result.distance == Cost.finite(2)
    assert swap_delete_correction("ab", "ab").distance == Cost.finite(0)
    assert swap_delete_correction("a", "aa").distance == Cost.unreachable()


def test_swap_delete_script_replays():
    result = swap_delete_correction("aab", "ba")
    assert apply_script("aab", result.script) == "ba"
    assert result.script.delete_count == 1
    assert result.script.insert_count == 0


def test_swap_delete_is_the_mirrored_insert_solve(rng):
    # the reversed insert script, each Insert(p, _) turned into Delete(p)
    for _ in range(300):
        source, target = random_pair(rng, max_d=4)
        result = swap_delete_correction(source, target)
        forward = correction_distance(target, source, with_script=True)
        assert (result.distance, result.memo_entries, result.stats) == \
            (forward.distance, forward.memo_entries, forward.stats)
        if forward.script is None:
            assert result.script is None
        else:
            assert result.script.ops == tuple(
                Delete(op.position) if isinstance(op, Insert) else op
                for op in reversed(forward.script.ops))
        amap = build_alphabet(target, source)
        assert swap_delete_distance(index_string(source, amap),
                                    index_string(target, amap)) == result


def test_swap_delete_matches_forward_distance(rng):
    for _ in range(100):
        source, target = random_pair(rng)
        forward = correction_distance(source, target).distance
        mirrored = swap_delete_correction(target, source)
        assert mirrored.distance == forward
        if mirrored.distance.is_finite:
            assert apply_script(target, mirrored.script) == source
