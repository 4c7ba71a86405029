import random
from math import inf, nan

import pytest

from swapinsert import Cost, InstanceTooLarge, matching_distance, ucs_distance

from conftest import random_pair


def test_ucs_examples():
    assert ucs_distance("ba", "aab") == Cost.finite(2)
    assert ucs_distance("aa", "a") == Cost.unreachable()
    assert ucs_distance("ab", "ab") == Cost.finite(0)


def test_matching_examples():
    # one target arrangement, a single crossing
    assert matching_distance("ba", "ab") == Cost.finite(1)
    assert matching_distance("ab", "ab") == Cost.finite(0)
    # one insertion plus one crossing
    assert matching_distance("ba", "aab") == Cost.finite(2)


def test_matching_infeasible():
    assert matching_distance("aa", "a") == Cost.unreachable()
    assert matching_distance("c", "ab") == Cost.unreachable()


def test_empty_source():
    assert ucs_distance("", "abc") == Cost.finite(3)
    assert matching_distance("", "abc") == Cost.finite(3)


def test_unit_weights_match_unweighted(rng):
    for _ in range(60):
        source, target = random_pair(rng, max_n=4, max_m=6)
        assert ucs_distance(source, target, weights=(1, 1)) == \
            ucs_distance(source, target)


def test_weighted_examples():
    assert ucs_distance("ba", "ab", weights=(5, 1)) == Cost.finite(1)
    assert ucs_distance("", "ab", weights=(3, 7)) == Cost.finite(6)
    assert ucs_distance("ba", "aab", weights=(2, 3)) == Cost.finite(5)


def test_negative_weights_rejected():
    # checked before the search, which would return Cost(nan) or Cost(inf)
    for weight in (-1, nan, inf):
        for weights in ((weight, 1), (1, weight)):
            with pytest.raises(ValueError):
                ucs_distance("ba", "aab", weights=weights)


def test_state_budget_enforced():
    with pytest.raises(InstanceTooLarge):
        ucs_distance("abcabc", "abcabcabcb", state_budget=5)


def test_combination_budget_enforced():
    with pytest.raises(InstanceTooLarge):
        matching_distance("ab" * 6, "ab" * 12, combination_budget=10)


def test_oracles_agree_on_random_instances():
    rng = random.Random(1234)
    for _ in range(1000):
        source, target = random_pair(rng, max_d=3, max_n=6, max_m=8)
        assert ucs_distance(source, target) == matching_distance(source, target), \
            (source, target)


def test_equal_lengths_count_zero_insertions(rng):
    # with n = m the matching value is a pure crossing count
    for _ in range(40):
        target = [rng.choice("abc") for _ in range(rng.randint(1, 7))]
        source = target[:]
        rng.shuffle(source)
        value = matching_distance("".join(source), "".join(target))
        assert value.is_finite
        swaps_only = ucs_distance("".join(source), "".join(target), weights=(10**6, 1))
        assert value == swaps_only
