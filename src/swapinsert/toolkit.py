"""Instance difficulty measures, seeded generators, and benchmark sweeps.

The per-symbol imbalance min(n_a, m_a - n_a) drives how hard an instance
is for the engine; the generator manufactures instances whose imbalance
profile is controlled, and the bench harness times the engine on them
and records memo usage against the predicted bound.  ``InstanceStats``
lives in ``engine``, which returns it on every result; it is re-exported
here, and ``instance_stats`` reads it for a raw pair.

The generator draws from ``random.Random(spec.seed)``.  Its shuffles
and whole-code samples are written out as Fisher-Yates and rejection
loops: a draw below ``k`` is ``getrandbits(k.bit_length())``, redrawn
while it is ``k`` or more.  These are the draws of ``Random.shuffle``,
``Random.sample`` and ``Random.randrange`` on CPython 3.10-3.13.  The
count draws and a code kept in part still call ``Random``'s methods,
and digests in the tests pin the generated pairs.
"""

import csv
import gc
import json
import random
import statistics
import string
import time
from dataclasses import dataclass
from itertools import compress, product, repeat
from typing import Iterable, List, Optional, Sequence, Tuple

from .engine import InstanceStats, correction_distance
from .indexing import build_alphabet, index_string
from .oracles import DEFAULT_BUDGET, matching_distance, ucs_distance
from .scripts import verify_script


class InfeasibleProfile(ValueError):
    """The requested generator profile contradicts the requested sizes."""


def instance_stats(source: Sequence, target: Sequence) -> InstanceStats:
    """Sizes, per-symbol counts and imbalances, and the memo bound of a raw pair."""
    alphabet = build_alphabet(source, target)
    return InstanceStats.of(index_string(source, alphabet), index_string(target, alphabet))


PROFILES = ("zero-g", "balanced-g", "max-g", "custom")

_SYMBOL_POOL = string.ascii_lowercase + string.ascii_uppercase + string.digits


def _symbol(index: int) -> str:
    if index < len(_SYMBOL_POOL):
        return _SYMBOL_POOL[index]
    return chr(0x100 + index - len(_SYMBOL_POOL))


@dataclass(frozen=True)
class GeneratorSpec:
    """Requested shape of one synthetic instance."""

    d: int
    n: int
    m: int
    profile: str = "balanced-g"
    seed: int = 0
    g_targets: Optional[Tuple[int, ...]] = None


def _composition(rng: random.Random, total: int, parts: int) -> List[int]:
    """Split ``total`` into ``parts`` positive summands uniformly at random."""
    if parts == 0:
        if total:
            raise InfeasibleProfile(f"cannot split {total} into zero parts")
        return []
    if total < parts:
        raise InfeasibleProfile(f"cannot split {total} into {parts} positive parts")
    if parts == 1:
        return [total]
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    edges = [0] + cuts + [total]
    return [b - a for a, b in zip(edges, edges[1:])]


def _g_after(nc: int, mc: int) -> int:
    return min(nc, mc - nc)


def _nudge_counts(rng: random.Random, n_counts: List[int], m_counts: List[int],
                  target_sum: int, maximize_g: bool) -> None:
    """Adjust n_counts in +-1 steps until they sum to target_sum.

    With ``maximize_g`` each step picks the move that keeps the global
    imbalance, then the total imbalance, as high as possible; otherwise a
    random movable index is taken.
    """
    d = len(n_counts)
    diff = target_sum - sum(n_counts)
    while diff != 0:
        step = 1 if diff > 0 else -1
        movable = [
            idx for idx in range(d)
            if (0 <= n_counts[idx] + step <= m_counts[idx])
        ]
        if not movable:
            raise InfeasibleProfile("cannot reach the requested source length")
        if maximize_g:
            def score(idx):
                trial = n_counts.copy()
                trial[idx] += step
                gs = [_g_after(nc, mc) for nc, mc in zip(trial, m_counts)]
                return (max(gs), sum(gs))
            scores = [score(idx) for idx in movable]
            best = max(scores)
            choice = rng.choice([idx for idx, sc in zip(movable, scores) if sc == best])
        else:
            choice = rng.choice(movable)
        n_counts[choice] += step
        diff -= step


def _profile_counts(rng: random.Random, spec: GeneratorSpec) -> Tuple[List[int], List[int]]:
    d, n, m = spec.d, spec.n, spec.m
    if spec.profile == "zero-g":
        # pick which codes are fully present in the source; the rest are absent
        if n == 0:
            full = 0
        else:
            lo = max(1, d - (m - n))
            hi = min(d if m == n else d - 1, n)
            if lo > hi:
                raise InfeasibleProfile(
                    f"no zero-imbalance split of n={n}, m={m} over {d} symbols"
                )
            full = rng.randint(lo, hi)
        full_codes = set(rng.sample(range(d), full))
        source_parts = _composition(rng, n, full)
        rest_parts = _composition(rng, m - n, d - full)
        n_counts = [0] * d
        m_counts = [0] * d
        src_it = iter(source_parts)
        rest_it = iter(rest_parts)
        for idx in range(d):
            if idx in full_codes:
                part = next(src_it)
                n_counts[idx] = part
                m_counts[idx] = part
            else:
                m_counts[idx] = next(rest_it)
        return n_counts, m_counts
    m_counts = _composition(rng, m, d)
    if spec.profile == "max-g":
        n_counts = [mc // 2 for mc in m_counts]
        _nudge_counts(rng, n_counts, m_counts, n, maximize_g=True)
        return n_counts, m_counts
    if spec.profile == "balanced-g":
        n_counts = []
        for mc in m_counts:
            mode = rng.choice(("absent", "full", "half"))
            n_counts.append(0 if mode == "absent" else mc if mode == "full" else mc // 2)
        _nudge_counts(rng, n_counts, m_counts, n, maximize_g=False)
        return n_counts, m_counts
    # generate_instance admits only PROFILES, so this is "custom"
    return _custom_counts(rng, spec)


def _custom_counts(rng: random.Random, spec: GeneratorSpec) -> Tuple[List[int], List[int]]:
    """Realize per-symbol imbalance targets within +-1.

    Every symbol sits at either its low point (the target itself) or its
    high point (count minus target); both realize the target exactly, and
    a final one-unit nudge per distinct symbol absorbs the remainder while
    moving each imbalance by at most one.
    """
    d, n, m = spec.d, spec.n, spec.m
    targets = spec.g_targets
    if targets is None or len(targets) != d:
        raise InfeasibleProfile("custom profile needs one imbalance target per symbol")
    if any(t < 0 for t in targets):
        raise InfeasibleProfile("imbalance targets must be non-negative")
    minimum = [max(1, 2 * t) for t in targets]
    extra = m - sum(minimum)
    if extra < 0:
        raise InfeasibleProfile("imbalance targets do not fit the target length")
    for _attempt in range(100):
        m_counts = minimum.copy()
        for _ in range(extra):
            m_counts[rng.randrange(d)] += 1
        lows = list(targets)
        highs = [mc - t for t, mc in zip(targets, m_counts)]
        gap, mask = _closest_choice(rng, lows, highs, n)
        if abs(gap) > d:
            continue
        n_counts = [
            highs[idx] if mask >> idx & 1 else lows[idx] for idx in range(d)
        ]
        order = list(range(d))
        rng.shuffle(order)
        step = 1 if gap > 0 else -1
        for idx in order:
            if gap == 0:
                break
            if 0 <= n_counts[idx] + step <= m_counts[idx]:
                n_counts[idx] += step
                gap -= step
        if gap == 0:
            return n_counts, m_counts
    raise InfeasibleProfile("could not realize the imbalance targets within +-1")


def _closest_choice(rng: random.Random, lows: List[int], highs: List[int],
                    wanted: int) -> Tuple[int, int]:
    """Pick low or high per symbol so the sum lands nearest ``wanted``.

    Returns (remaining gap, chosen bitmask).  Exact for small alphabets,
    greedy beyond that.
    """
    d = len(lows)
    base = sum(lows)
    deltas = [h - l for l, h in zip(lows, highs)]
    if d <= 12:
        best = None
        for mask in range(1 << d):
            total = base + sum(deltas[idx] for idx in range(d) if mask >> idx & 1)
            gap = wanted - total
            if best is None or abs(gap) < abs(best[0]):
                best = (gap, mask)
        return best
    order = sorted(range(d), key=lambda idx: -deltas[idx])
    rng.shuffle(order)
    mask = 0
    total = base
    for idx in order:
        if abs(wanted - (total + deltas[idx])) <= abs(wanted - total):
            mask |= 1 << idx
            total += deltas[idx]
    return wanted - total, mask


def generate_instance(spec: GeneratorSpec) -> Tuple[str, str]:
    """Build a feasible (source, target) pair realizing the profile.

    The target is a uniformly random arrangement of the drawn per-symbol
    counts; the source keeps a random subset of the target's occurrences
    in order and is then locally shuffled so that swaps do real work.
    The same spec always produces the same pair, on every supported
    Python.  Each draw below ``k`` is ``getrandbits(k.bit_length())``,
    redrawn while it is ``k`` or more, the rule of CPython's
    ``Random._randbelow``: the target's Fisher-Yates shuffle makes
    ``Random.shuffle``'s draws, a code kept whole the draws of
    ``Random.sample`` over all its occurrences, and the local shuffle
    ``Random.randrange``'s.  A code kept in part still calls
    ``Random.sample``, over the indices of its occurrences.  Digests in
    the tests pin the pairs.
    """
    if spec.d < 1:
        raise InfeasibleProfile("need at least one symbol")
    if not 0 <= spec.n <= spec.m:
        raise InfeasibleProfile("need 0 <= n <= m")
    if spec.m < spec.d:
        raise InfeasibleProfile("target too short to use every symbol")
    if spec.profile not in PROFILES:
        raise InfeasibleProfile(f"unknown profile {spec.profile!r}")
    rng = random.Random(spec.seed)
    getrandbits = rng.getrandbits
    n_counts, m_counts = _profile_counts(rng, spec)
    target_list: List[str] = []
    for idx, cnt in enumerate(m_counts):
        target_list.extend(_symbol(idx) * cnt)
    # Fisher-Yates, each index drawn below i + 1; i + 1 has one bit
    # length for every i in [low, 2 * low], so each such run is one loop
    top = len(target_list) - 1
    while top > 0:
        bits = (top + 1).bit_length()
        low = (1 << bits - 1) - 1
        for i in range(top, low - 1, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            target_list[i], target_list[j] = target_list[j], target_list[i]
        top = low - 1
    # a code kept in part marks which of its occurrences, in target order,
    # the source keeps; a code kept whole costs only its draws
    marks = {}
    for idx, (cnt, total) in enumerate(zip(n_counts, m_counts)):
        if cnt == total:
            # sample() of a whole population draws below total, ..., 1
            top = total
            while top > 0:
                bits = top.bit_length()
                low = 1 << bits - 1
                for size in range(top, low - 1, -1):
                    while getrandbits(bits) >= size:
                        pass
                top = low - 1
        elif cnt:
            kept = bytearray(total)
            for k in rng.sample(range(total), cnt):
                kept[k] = 1
            marks[_symbol(idx)] = iter(kept)
    for idx, cnt in enumerate(n_counts):
        marks.setdefault(_symbol(idx), repeat(cnt > 0))
    source_list = list(compress(target_list, map(next, map(marks.__getitem__, target_list))))
    last = len(source_list) - 1
    if last > 0:
        # bounded local shuffles; counts are untouched so the pair stays
        # feasible, and a swap of equal neighbours changes nothing
        bits = last.bit_length()
        for _ in range(last + 1):
            pos = getrandbits(bits)
            while pos >= last:
                pos = getrandbits(bits)
            source_list[pos], source_list[pos + 1] = source_list[pos + 1], source_list[pos]
    return "".join(source_list), "".join(target_list)


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark measurement; wall time is the median over repeats."""

    d: int
    n: int
    m: int
    g: int
    s: int
    profile: str
    seed: int
    distance: Optional[int]
    memo_entries: int
    predicted_bound: int
    wall_time_ns: int
    error: Optional[str] = None


CSV_COLUMNS = (
    "d", "n", "m", "g", "s", "profile", "seed",
    "distance", "memo_entries", "predicted_bound", "wall_time_ns",
)


def run_bench(
    specs: Iterable[GeneratorSpec],
    csv_path: Optional[str] = None,
    json_path: Optional[str] = None,
    repeats: int = 5,
) -> List[BenchRecord]:
    """Generate, solve, and time every spec; optionally write CSV and JSON.

    Each instance is solved ``repeats`` times on a fresh computation (no
    warm memo survives between runs) and the median wall time is kept.
    A failing instance produces a record with its error message instead
    of aborting the sweep.
    """
    records: List[BenchRecord] = []
    for spec in specs:
        try:
            source, target = generate_instance(spec)
            runs = []
            for _ in range(max(1, repeats)):
                # a clean heap keeps runs comparable: no collection debt
                # from earlier instances lands inside the timed region
                gc.collect()
                t0 = time.perf_counter_ns()
                result = correction_distance(source, target)
                runs.append(time.perf_counter_ns() - t0)
            stats = result.stats
            records.append(BenchRecord(
                d=stats.d, n=stats.n, m=stats.m, g=stats.g, s=stats.s,
                profile=spec.profile, seed=spec.seed,
                distance=result.distance.value if result.distance.is_finite else None,
                memo_entries=result.memo_entries,
                predicted_bound=stats.predicted_state_bound,
                wall_time_ns=int(statistics.median(runs)),
            ))
        except Exception as exc:
            records.append(BenchRecord(
                d=spec.d, n=spec.n, m=spec.m, g=0, s=0,
                profile=spec.profile, seed=spec.seed,
                distance=None, memo_entries=0, predicted_bound=0,
                wall_time_ns=0, error=str(exc),
            ))
    if csv_path is not None:
        with open(csv_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_COLUMNS)
            for rec in records:
                writer.writerow([_csv_cell(rec, column) for column in CSV_COLUMNS])
    if json_path is not None:
        with open(json_path, "w") as handle:
            json.dump([_json_record(rec) for rec in records], handle, indent=2)
            handle.write("\n")
    return records


def _csv_cell(record: BenchRecord, column: str):
    value = getattr(record, column)
    if column == "distance" and value is None:
        return "error" if record.error else "unreachable"
    return value


def _json_record(record: BenchRecord) -> dict:
    data = {column: getattr(record, column) for column in CSV_COLUMNS}
    if record.error:
        data["error"] = record.error
    return data


@dataclass(frozen=True)
class EquivalenceReport:
    """Result of sweeping engine and oracles over many instances."""

    pairs: int
    mismatches: Tuple[Tuple[str, str, str, str, str], ...]
    script_failures: Tuple[Tuple[str, str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.script_failures


def _all_strings(alphabet: str, max_len: int):
    for length in range(max_len + 1):
        for tup in product(alphabet, repeat=length):
            yield "".join(tup)


def exhaustive_oracle_check(
    max_n: int = 4,
    max_m: int = 6,
    alphabet_size: int = 2,
    budget: int = DEFAULT_BUDGET,
) -> EquivalenceReport:
    """Compare the engine against both oracles on every small pair.

    Both engine passes run: the distance-only solve and the solve with a
    script must agree with the oracles and price the same number of
    states.  Also audits the reconstructed script of every feasible pair.
    This is the trust anchor the rest of the test suite leans on.  Raises
    ``ValueError`` for an alphabet outside [1..62] or a negative length.
    """
    if not 1 <= alphabet_size <= len(_SYMBOL_POOL):
        raise ValueError(f"alphabet size must be in [1..{len(_SYMBOL_POOL)}], got {alphabet_size}")
    if max_n < 0 or max_m < 0:
        raise ValueError(f"maximum lengths must be non-negative, got {max_n} and {max_m}")
    alphabet = _SYMBOL_POOL[:alphabet_size]
    mismatches = []
    script_failures = []
    pairs = 0
    for target in _all_strings(alphabet, max_m):
        for source in _all_strings(alphabet, max_n):
            pairs += 1
            result = correction_distance(source, target, with_script=True)
            # the distance-only solve holds one live layer, a pass of its own
            live = correction_distance(source, target)
            ucs = ucs_distance(source, target, state_budget=budget)
            matching = matching_distance(source, target, combination_budget=budget)
            split = (live.distance, live.memo_entries) != (result.distance, result.memo_entries)
            if split or not result.distance == ucs == matching:
                engine = repr(result.distance)
                if split:
                    engine += (f" (distance only {live.distance!r}, memo entries"
                               f" {live.memo_entries} against {result.memo_entries})")
                mismatches.append((source, target, engine, repr(ucs), repr(matching)))
                continue
            if result.distance.is_finite:
                verdict = verify_script(source, target, result.script)
                if (not verdict.valid
                        or verdict.cost != result.distance.value
                        or verdict.insert_count != len(target) - len(source)):
                    script_failures.append((source, target, repr(result.script)))
    return EquivalenceReport(pairs, tuple(mismatches), tuple(script_failures))
