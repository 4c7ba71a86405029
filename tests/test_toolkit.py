import csv
import hashlib
import json
import random
from itertools import permutations
from math import inf

import pytest

from swapinsert import (
    GeneratorSpec,
    InfeasibleProfile,
    correction_distance,
    exhaustive_oracle_check,
    generate_instance,
    instance_stats,
    run_bench,
    toolkit,
)
from swapinsert.engine import _Computation
from swapinsert.oracles import DEFAULT_BUDGET
from swapinsert.toolkit import CSV_COLUMNS


# -- instance_stats -----------------------------------------------------------

def test_stats_balanced_pair():
    stats = instance_stats("ab", "ab")
    assert stats.g == 0
    assert stats.s == 0
    assert stats.feasible
    assert stats.predicted_state_bound == 0


def test_stats_empty_source():
    stats = instance_stats("", "abc")
    assert stats.g_per_symbol == (0, 0, 0)
    assert stats.feasible


def test_stats_counts_example():
    stats = instance_stats("aab", "aaabab")
    assert stats.n_counts == (2, 1)
    assert stats.m_counts == (4, 2)
    assert stats.g_per_symbol == (2, 1)
    assert stats.g == 2
    assert stats.feasible


def test_stats_infeasible():
    assert not instance_stats("aa", "a").feasible


def test_sigma_plus_drops_one_argmin_when_all_positive():
    stats = instance_stats("aab", "aaabab")
    # both symbols imbalanced: the smaller-imbalance code is dropped
    assert stats.s == 2
    assert stats.sigma_plus == (1,)


def test_stats_invariant_under_code_permutation(rng):
    for _ in range(40):
        letters = "abcd"
        target = "".join(rng.choice(letters) for _ in range(12))
        source = "".join(rng.sample(list(target), 6))
        base = instance_stats(source, target)
        for perm in permutations(letters):
            table = str.maketrans(dict(zip(letters, perm)))
            other = instance_stats(source.translate(table), target.translate(table))
            assert sorted(other.g_per_symbol) == sorted(base.g_per_symbol)
            assert other.g == base.g
            assert other.s == base.s
            assert other.predicted_state_bound == base.predicted_state_bound
        break


def test_equal_lengths_collapse_to_no_table():
    stats = instance_stats("bab", "abb")
    assert stats.g == 0
    assert stats.predicted_state_bound == 0


def test_g_bounded_by_length_and_surplus(rng):
    for _ in range(50):
        target = [rng.choice("abcd") for _ in range(rng.randint(1, 12))]
        source = rng.sample(target, rng.randint(0, len(target)))
        stats = instance_stats("".join(source), "".join(target))
        assert stats.g <= stats.n
        assert stats.g <= max(ma - na for na, ma
                              in zip(stats.n_counts, stats.m_counts))


# -- generate_instance ----------------------------------------------------------

def test_zero_g_empty_source():
    source, target = generate_instance(
        GeneratorSpec(d=2, n=0, m=5, profile="zero-g", seed=1))
    assert source == ""
    assert len(target) == 5
    assert instance_stats(source, target).d == 2


def test_max_g_reaches_attainable_maximum():
    spec = GeneratorSpec(d=3, n=6, m=8, profile="max-g", seed=7)
    source, target = generate_instance(spec)
    stats = instance_stats(source, target)
    # best global imbalance over every allocation against the drawn counts
    best = 0
    for counts in _allocations(stats.m_counts, 6):
        best = max(best, max(min(nc, mc - nc)
                             for nc, mc in zip(counts, stats.m_counts)))
    assert stats.g == best


def _allocations(m_counts, total):
    if len(m_counts) == 1:
        if 0 <= total <= m_counts[0]:
            yield (total,)
        return
    for head in range(0, min(m_counts[0], total) + 1):
        for rest in _allocations(m_counts[1:], total - head):
            yield (head,) + rest


def test_generation_is_deterministic():
    spec = GeneratorSpec(d=3, n=6, m=8, profile="max-g", seed=7)
    assert generate_instance(spec) == generate_instance(spec)
    other = GeneratorSpec(d=3, n=6, m=8, profile="max-g", seed=8)
    assert generate_instance(spec) != generate_instance(other)


def test_generated_instances_are_always_feasible(rng):
    for trial in range(120):
        d = rng.randint(1, 5)
        n = rng.randint(0, 18)
        m = rng.randint(max(n, d), 26)
        profile = rng.choice(("zero-g", "balanced-g", "max-g"))
        try:
            source, target = generate_instance(
                GeneratorSpec(d=d, n=n, m=m, profile=profile, seed=trial))
        except InfeasibleProfile:
            continue
        stats = instance_stats(source, target)
        assert stats.feasible
        assert len(source) == n and len(target) == m
        if profile == "zero-g":
            assert stats.g == 0


def test_custom_profile_targets():
    spec = GeneratorSpec(d=2, n=4, m=8, profile="custom", seed=3, g_targets=(2, 1))
    source, target = generate_instance(spec)
    realized = instance_stats(source, target).g_per_symbol
    assert all(abs(r - t) <= 1 for r, t in zip(realized, (2, 1)))


PINNED_DIGEST = "d29bddd81eddd66004067cdb8ff2d082bc095c4436f5af7dd308f164bced5445"


def _pinned_specs():
    # the benchmark's memo-dp specs, the first 150 cli-small shapes, custom
    # imbalance targets, and a wide max-g alphabet that nudges many codes
    specs = [GeneratorSpec(d=d, n=n, m=n * 3 // 2, profile=profile, seed=seed)
             for profile, d, n in (("balanced-g", 3, 160), ("balanced-g", 4, 160),
                                   ("max-g", 3, 120), ("max-g", 4, 100))
             for seed in (0, 1)]
    rng = random.Random(2015)
    for k in range(150):
        d = 2 + k % 5
        n = rng.randint(d, 30)
        specs.append(GeneratorSpec(d=d, n=n, m=rng.randint(n, n + n // 2),
                                   profile=("zero-g", "balanced-g", "max-g")[k // 5 % 3],
                                   seed=k))
    specs += [GeneratorSpec(d=3, n=20, m=30, profile="custom", seed=seed, g_targets=(g,) * 3)
              for g in range(4) for seed in range(5)]
    specs += [GeneratorSpec(d=20, n=300, m=450, profile=profile, seed=seed)
              for profile in ("zero-g", "balanced-g", "max-g") for seed in range(2)]
    return specs


def test_generated_instances_are_pinned():
    # the digest of every pair above, recorded before the generator was
    # last changed: the benchmark's inputs must not move with its code
    digest = hashlib.sha256()
    for spec in _pinned_specs():
        source, target = generate_instance(spec)
        digest.update(f"{source}|{target}\n".encode())
    assert digest.hexdigest() == PINNED_DIGEST


LARGE_DIGEST = "a25a4d57b16e8524b52574304435a9db7ec0073daaafc0a678e4ebbf35ae1998"


def test_generated_instances_are_pinned_at_scale():
    # the chain-long benchmark's three zero-g specs, which keep every code
    # whole or absent, and two specs that keep codes in part: recorded
    # while the generator still called Random.shuffle and Random.randrange
    specs = [GeneratorSpec(d=4, n=10**5, m=10**5, profile="zero-g", seed=0),
             GeneratorSpec(d=4, n=10**5, m=120_000, profile="zero-g", seed=0),
             GeneratorSpec(d=1000, n=10**4, m=10**4, profile="zero-g", seed=0),
             GeneratorSpec(d=4, n=2000, m=3000, profile="balanced-g", seed=0),
             GeneratorSpec(d=12, n=2000, m=3000, profile="max-g", seed=3)]
    digest = hashlib.sha256()
    for spec in specs:
        source, target = generate_instance(spec)
        digest.update(f"{source}|{target}\n".encode())
    assert digest.hexdigest() == LARGE_DIGEST


def _stdlib_generate_instance(spec):
    # the generator as it read while it called Random.shuffle, sample and
    # randrange: the reference for the draws it now writes out
    if spec.d < 1:
        raise InfeasibleProfile("need at least one symbol")
    if not 0 <= spec.n <= spec.m:
        raise InfeasibleProfile("need 0 <= n <= m")
    if spec.m < spec.d:
        raise InfeasibleProfile("target too short to use every symbol")
    if spec.profile not in toolkit.PROFILES:
        raise InfeasibleProfile(f"unknown profile {spec.profile!r}")
    rng = random.Random(spec.seed)
    n_counts, m_counts = toolkit._profile_counts(rng, spec)
    target_list = []
    for idx, cnt in enumerate(m_counts):
        target_list.extend(toolkit._symbol(idx) * cnt)
    rng.shuffle(target_list)
    occurrences = {}
    for pos, sym in enumerate(target_list):
        occurrences.setdefault(sym, []).append(pos)
    kept = []
    for idx, cnt in enumerate(n_counts):
        if cnt:
            kept.extend(rng.sample(occurrences[toolkit._symbol(idx)], cnt))
    kept.sort()
    source_list = [target_list[pos] for pos in kept]
    if len(source_list) > 1:
        for _ in range(len(source_list)):
            pos = rng.randrange(len(source_list) - 1)
            if source_list[pos] != source_list[pos + 1]:
                source_list[pos], source_list[pos + 1] = source_list[pos + 1], source_list[pos]
    return "".join(source_list), "".join(target_list)


def _outcome(generate, spec):
    try:
        return generate(spec)
    except Exception as exc:
        return type(exc), str(exc)


def test_generator_draws_equal_the_stdlib_methods():
    # the written-out draws must equal this Python's own shuffle, sample
    # and randrange, infeasible specs and custom targets included
    rng = random.Random(25)
    profiles = (*toolkit.PROFILES, "no-such-profile")
    for k in range(2000):
        d = rng.randint(0, 9)
        m = rng.randint(0, 60)
        n = rng.randint(-1, m + 1)
        profile = profiles[k % len(profiles)]
        g_targets = None
        if profile == "custom" and rng.random() < 0.9:
            size = d if rng.random() < 0.9 else rng.randint(0, 9)
            g_targets = tuple(rng.randint(-1 if rng.random() < 0.05 else 0, 4)
                              for _ in range(size))
        spec = GeneratorSpec(d=d, n=n, m=m, profile=profile, seed=k, g_targets=g_targets)
        assert _outcome(generate_instance, spec) == _outcome(_stdlib_generate_instance, spec), spec


def test_infeasible_profiles_rejected():
    with pytest.raises(InfeasibleProfile):
        generate_instance(GeneratorSpec(d=3, n=1, m=2, profile="zero-g", seed=0))
    with pytest.raises(InfeasibleProfile):
        generate_instance(GeneratorSpec(d=0, n=0, m=0, profile="zero-g", seed=0))
    with pytest.raises(InfeasibleProfile):
        generate_instance(GeneratorSpec(d=1, n=2, m=1, profile="zero-g", seed=0))
    with pytest.raises(InfeasibleProfile):
        generate_instance(GeneratorSpec(d=2, n=1, m=4, profile="custom", seed=0))


# -- run_bench -------------------------------------------------------------------

def test_bench_writes_expected_records(tmp_path):
    csv_path = tmp_path / "bench.csv"
    json_path = tmp_path / "bench.json"
    specs = [
        GeneratorSpec(d=4, n=100, m=100, profile="zero-g", seed=0),
        GeneratorSpec(d=4, n=200, m=200, profile="zero-g", seed=1),
    ]
    records = run_bench(specs, csv_path=str(csv_path), json_path=str(json_path),
                        repeats=2)
    assert len(records) == 2
    assert all(rec.error is None for rec in records)
    assert all(rec.memo_entries <= rec.predicted_bound for rec in records)
    with open(csv_path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 3
    with open(json_path) as handle:
        blob = json.load(handle)
    assert len(blob) == 2
    assert blob[0]["distance"] == records[0].distance
    assert blob[0]["wall_time_ns"] == records[0].wall_time_ns


def test_bench_distance_agrees_with_engine():
    spec = GeneratorSpec(d=3, n=12, m=16, profile="balanced-g", seed=5)
    [record] = run_bench([spec], repeats=1)
    source, target = generate_instance(spec)
    assert record.distance == correction_distance(source, target).distance.value


def test_bench_survives_bad_specs():
    records = run_bench([GeneratorSpec(d=3, n=1, m=2, profile="zero-g", seed=0)],
                        repeats=1)
    assert len(records) == 1
    assert records[0].error is not None


def test_memo_entries_grow_with_imbalance():
    # the same sizes, increasingly imbalanced: memo usage must not shrink
    sizes = dict(d=3, n=20, m=30)
    entries = []
    for profile in ("zero-g", "max-g"):
        total = 0
        for seed in range(10):
            source, target = generate_instance(
                GeneratorSpec(profile=profile, seed=seed, **sizes))
            total += correction_distance(source, target).memo_entries
        entries.append(total)
    assert entries[0] < entries[1]


def test_memo_entries_nondecreasing_in_state_bound():
    # sweeping the per-symbol imbalance target upward raises the predicted
    # bound; mean memo usage must follow
    levels = []
    for g in range(4):
        bounds = []
        entries = []
        for seed in range(5):
            spec = GeneratorSpec(d=3, n=20, m=30, profile="custom",
                                 seed=seed, g_targets=(g, g, g))
            source, target = generate_instance(spec)
            stats = instance_stats(source, target)
            bounds.append(stats.predicted_state_bound)
            entries.append(correction_distance(source, target).memo_entries)
        levels.append((sum(bounds) / 5, sum(entries) / 5))
    levels.sort()
    means = [entry for _bound, entry in levels]
    assert all(a <= b for a, b in zip(means, means[1:])), levels


@pytest.mark.parametrize("kwargs", [{"alphabet_size": 0}, {"alphabet_size": -3},
                                    {"alphabet_size": 63}, {"max_n": -1}, {"max_m": -1}])
def test_exhaustive_check_rejects_bounds_it_cannot_honour(kwargs):
    with pytest.raises(ValueError):
        exhaustive_oracle_check(**{"max_n": 1, "max_m": 1, **kwargs})


def test_exhaustive_check_passes_one_budget_to_both_oracles(monkeypatch):
    budgets = []

    def ucs(source, target, state_budget):
        budgets.append(("ucs", state_budget))
        return correction_distance(source, target).distance

    def matching(source, target, combination_budget):
        budgets.append(("matching", combination_budget))
        return correction_distance(source, target).distance
    monkeypatch.setattr(toolkit, "ucs_distance", ucs)
    monkeypatch.setattr(toolkit, "matching_distance", matching)
    assert exhaustive_oracle_check(max_n=1, max_m=1, budget=7).ok
    assert budgets and set(budgets) == {("ucs", 7), ("matching", 7)}
    budgets.clear()
    assert exhaustive_oracle_check(max_n=0, max_m=0).ok
    assert set(budgets) == {("ucs", DEFAULT_BUDGET), ("matching", DEFAULT_BUDGET)}


def test_exhaustive_check_accepts_the_whole_symbol_pool():
    report = exhaustive_oracle_check(max_n=0, max_m=1, alphabet_size=62)
    assert report.ok
    assert report.pairs == 63


@pytest.mark.parametrize("skew", ["distance", "memo entries"])
def test_exhaustive_check_reports_a_live_pass_that_disagrees(monkeypatch, skew):
    # the trust anchor also runs the distance-only pass, which holds one
    # live layer; a wrong value or state count there is a mismatch
    sweep = _Computation._sweep

    def skewed(self, keep=True, width=inf, bound=inf):
        value = sweep(self, keep, width, bound)
        if keep:
            return value
        if skew == "distance":
            return value + 1
        self.priced += 1
        return value
    monkeypatch.setattr(_Computation, "_sweep", skewed)
    report = exhaustive_oracle_check(max_n=2, max_m=3, alphabet_size=2)
    assert not report.ok
    assert report.mismatches
    for _source, _target, engine, ucs, _matching in report.mismatches:
        assert "distance only" in engine
        assert engine.startswith(ucs)


def test_exhaustive_check_reports_a_script_it_cannot_replay(unreplayable_script):
    # a script the replay rejects is a script failure, not an exception
    report = exhaustive_oracle_check(max_n=2, max_m=2, alphabet_size=2)
    assert not report.ok
    assert not report.mismatches
    assert [(source, target) for source, target, _script in report.script_failures] \
        == [("ab", "ab")]
