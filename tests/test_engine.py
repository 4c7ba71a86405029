import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import pytest

from swapinsert import (
    Cost,
    Insert,
    InstanceStats,
    Script,
    ScriptUnavailable,
    Swap,
    apply_script,
    build_alphabet,
    correction_distance,
    distance_with_script,
    feasible,
    generate_instance,
    GeneratorSpec,
    index_string,
    instance_stats,
    matching_distance,
    memo_bound,
    swap_delete_correction,
    ucs_distance,
    weighted_distance,
)
from swapinsert import engine
from swapinsert.engine import _Computation

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
    assert not feasible(*indexed_pair("aa", "a"))
    assert feasible(*indexed_pair("", "abc"))
    assert feasible(*indexed_pair("ab", "ba"))


def test_mismatched_alphabets_rejected():
    amap1 = build_alphabet("a", "a")
    amap2 = build_alphabet("b", "b")
    with pytest.raises(ValueError):
        feasible(index_string("a", amap1), index_string("b", amap2))


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
        assert result.distance.is_finite == feasible(S, L), (source, target)


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
    assert comp.layers[2] == {(): 3}
    assert not any(comp.layers[3:])
    for _ in range(100):
        comp = computation(*random_feasible_pair(rng, max_d=4, max_n=6, max_m=8))
        comp._sweep()
        for q, layer in enumerate(_naive_layers(comp)):
            for key, moves in layer.items():
                if not moves:
                    assert comp.layers[q][key] == comp.m - q


def test_target_exhausted_requires_all_remaining_ignored(rng):
    # the last layer holds only the state with every source occurrence matched
    comp = computation("ab", "aab")
    assert comp._sweep() == 1
    assert comp.layers[-1] == {(1,): 0}
    for _ in range(100):
        comp = computation(*random_feasible_pair(rng, max_d=4, max_n=6, max_m=8))
        comp._sweep()
        assert len(comp.layers) == comp.m + 1
        full = tuple(comp.stats.n_counts[a - 1] for a in imbalanced_codes(comp))
        assert comp.layers[-1] in ({}, {full: 0})


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


def test_zero_counter_invariant_in_every_visited_state(rng):
    # an imbalanced code's matched count lies in its window: at most its
    # source and target counts so far, at least what the inserts left over
    for _ in range(60):
        source, target = random_feasible_pair(rng, max_d=4, max_n=8, max_m=10)
        comp = computation(source, target)
        # run the sweep on every pair, chain-scan pairs too
        assert comp._sweep() == correction_distance(source, target).distance.value
        assert comp.layers
        for q, layer in enumerate(comp.layers):
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


def test_memo_entries_match_distinct_codec_keys():
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
        comp.solve()
        naive = _naive_values(comp, _naive_layers(comp))
        assert comp.layers == naive, (source, target)
        reachable = sum(map(len, naive))
        assert reachable <= comp.stats.predicted_state_bound, (source, target)
        assert correction_distance(source, target).memo_entries == reachable
    assert full >= 100


def test_memo_bound_formula():
    # s = d: drop the smallest imbalance from the product and keep the d factor
    assert memo_bound(3, (2, 1), (4, 2)) == 2 * 4 * (1 + 2 + 1) * 3
    # s < d: no leading d factor, product over the positive imbalances
    assert memo_bound(2, (1, 0), (2, 1)) == 3 * (1 + 1 + 1) * 2
    assert memo_bound(5, (0, 0), (3, 3)) == 0


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
    with pytest.raises(ScriptUnavailable):
        distance_with_script(*indexed_pair("aa", "a"))


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


def _shuffled_zero_imbalance_pair():
    # 100 codes, 10 of them absent from the source, which is a full random
    # shuffle of the target's other symbols: dozens of codes have matched
    # occurrences ahead of the walk at once
    rng = random.Random(41)
    symbols = [chr(0x4E00 + code) for code in range(100)]
    present, absent = symbols[:90], symbols[90:]
    kept = present + [rng.choice(present) for _ in range(910)]
    target = kept + absent * 3
    rng.shuffle(target)
    return "".join(rng.sample(kept, len(kept))), "".join(target)


def test_large_alphabet_zero_imbalance_matches_forced_matching():
    generated = generate_instance(
        GeneratorSpec(d=4096, n=20_000, m=22_000, profile="zero-g", seed=3))
    for (source, target), d in ((generated, 4096), (_shuffled_zero_imbalance_pair(), 100)):
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
        assert comp._walk(ops) == comp.layers[0][start_key(comp)], (source, target)
        assert len(ops) == value
        walked += 1
    assert walked >= 1000


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
    S, L = indexed_pair("a", "ab")
    with pytest.raises(ValueError):
        weighted_distance(S, L, -1, 1)


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


def test_swap_delete_matches_forward_distance(rng):
    for _ in range(100):
        source, target = random_pair(rng)
        forward = correction_distance(source, target).distance
        mirrored = swap_delete_correction(target, source)
        assert mirrored.distance == forward
        if mirrored.distance.is_finite:
            assert apply_script(target, mirrored.script) == source
