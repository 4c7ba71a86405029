"""The benchmark's reference solver and replayer, checked against swapinsert's oracles."""

import random
from itertools import product

import pytest

from reference import ReplayError, inversions, reference_distance, replay
from swapinsert import matching_distance, ucs_distance


def _oracle_value(cost):
    return cost.value if cost.is_finite else None


def _agree(source, target):
    expected = _oracle_value(ucs_distance(source, target))
    assert _oracle_value(matching_distance(source, target)) == expected
    assert reference_distance(source, target) == expected, (source, target)


def _strings(alphabet, max_len):
    for length in range(max_len + 1):
        for letters in product(alphabet, repeat=length):
            yield "".join(letters)


def test_every_two_symbol_pair_matches_both_oracles():
    for target in _strings("ab", 6):
        for source in _strings("ab", 4):
            _agree(source, target)


def test_random_pairs_up_to_five_symbols_match_both_oracles():
    rng = random.Random(1504)
    for _ in range(600):
        alphabet = "abcde"[:rng.randint(1, 5)]
        n = rng.randint(0, 5)
        m = rng.randint(n, 7)
        target = [rng.choice(alphabet) for _ in range(m)]
        # mostly feasible pairs: a shuffled sub-multiset of the target
        if rng.random() < 0.8:
            source = rng.sample(target, n)
        else:
            source = [rng.choice(alphabet) for _ in range(n)]
        _agree("".join(source), "".join(target))


def test_pair_the_engine_overestimates():
    assert reference_distance("eac", "acae") == 3
    _agree("eac", "acae")


def test_inversions_match_the_quadratic_count():
    rng = random.Random(7)
    for size in (0, 1, 2, 3, 17, 64, 100):
        values = [rng.randrange(50) for _ in range(size)]
        slow = sum(1 for i in range(size) for j in range(i + 1, size)
                   if values[i] > values[j])
        assert inversions(values) == slow


def test_replay_applies_inserts_swaps_and_deletes():
    assert replay("ba", [("ins", 1, "a"), ("swap", 2, None)]) == list("aab")
    assert replay("aab", [("swap", 2, None), ("del", 1, None)]) == list("ba")


@pytest.mark.parametrize("ops", [
    [("swap", 1, None)],          # equal symbols
    [("swap", 2, None)],          # past the end
    [("ins", 4, "b")],
    [("del", 0, None)],
    [("move", 1, None)],
])
def test_replay_rejects_inapplicable_operations(ops):
    with pytest.raises(ReplayError):
        replay("aa", ops)
