"""Correction distance for insert + adjacent-swap editing, with scripts.

The distance is (m - n) plus the fewest crossings over per-symbol
order-preserving matchings of the source into the target.

Both solvers move through one set of states.  A state of layer q (q
target positions produced) holds the matched count k_a of each code a,
whose first k_a source occurrences are matched.  At target q + 1 = b a
state may match b to its next source occurrence r, at the cost of the
unmatched source positions before r, or insert b at cost 1 while fewer
than m_b - n_b b's were inserted.  A zero-cost match is forced, and a
state with every source position matched is terminal.

A pair whose per-symbol imbalance is zero everywhere never has a choice,
so a forward walk along its one path solves it, with no layer at all;
that is what makes the equal-length, swap-only case effectively linear.
The walk passes matched source positions as it reaches them, and a match
costs one bisect per code with a matched occurrence still ahead, so a
source that scatters many codes far from their targets costs up to d
bisects per step.  Any other pair first runs a sweep over target
positions whose key is the k_a of the imbalanced codes only: a balanced
code's count is fixed by q, and its matched positions sit in one Fenwick
tree the layer's states share.  A layer holds at most the product of
(g_a + 1), so the m + 1 layers stay within the paper's adaptive bound
``memo_bound``, which the engine checks on every solve.  For a script,
the walk then follows the sweep's cost-to-go where the insert and the
match both apply, taking the insert on a tie.

The pair's difficulty profile (counts, imbalances, memo bound) is the
``InstanceStats`` defined here.  It is read once per solve off the
indexes' per-symbol counts, picks the solver, and is returned as
``EngineResult.stats``; the weighted cost is arithmetic on the result
(``EngineResult.weighted_cost``).
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from .cost import Cost
from .indexing import AlphabetMap, IndexedString, build_alphabet, index_string
from .scripts import Delete, Insert, Script, Swap


class ScriptUnavailable(ValueError):
    """No correction script exists because the distance is unreachable."""


def memo_bound(n: int, g_by_code: Sequence[int], m_by_code: Sequence[int]) -> int:
    """The paper's adaptive bound on one instance's memo entries.

    It is at most d (n + 1)(m + 1)(g + 1)^(d - 1) for the largest
    per-symbol imbalance g.

    Zero when no symbol is imbalanced: such instances are evaluated
    without a memo.
    """
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


@dataclass(frozen=True)
class InstanceStats:
    """Difficulty profile of one (source, target) pair."""

    n: int
    m: int
    d: int
    n_counts: Tuple[int, ...]
    m_counts: Tuple[int, ...]
    g_per_symbol: Tuple[int, ...]
    g: int
    sigma_plus: Tuple[int, ...]
    s: int
    predicted_state_bound: int
    feasible: bool
    alphabet: AlphabetMap

    @classmethod
    def of(cls, source: IndexedString, target: IndexedString) -> "InstanceStats":
        """Read the profile off the per-symbol counts of an indexed pair."""
        if source.alphabet != target.alphabet:
            raise ValueError("source and target must be indexed over a common alphabet map")
        d = source.alphabet.d
        n_counts = tuple(source.per_symbol_count)
        m_counts = tuple(target.per_symbol_count)
        g_per_symbol = tuple(min(na, ma - na) for na, ma in zip(n_counts, m_counts))
        s = sum(1 for g in g_per_symbol if g > 0)
        if d and s == d:
            # every code contributes, except one smallest-imbalance code
            dropped = min(range(1, d + 1), key=lambda a: (g_per_symbol[a - 1], a))
            sigma_plus = tuple(a for a in range(1, d + 1) if a != dropped)
        else:
            sigma_plus = tuple(a for a in range(1, d + 1) if g_per_symbol[a - 1] > 0)
        return cls(
            n=len(source),
            m=len(target),
            d=d,
            n_counts=n_counts,
            m_counts=m_counts,
            g_per_symbol=g_per_symbol,
            g=max(g_per_symbol, default=0),
            sigma_plus=sigma_plus,
            s=s,
            predicted_state_bound=memo_bound(len(source), g_per_symbol, m_counts),
            feasible=all(na <= ma for na, ma in zip(n_counts, m_counts)),
            alphabet=source.alphabet,
        )


@dataclass(frozen=True)
class EngineResult:
    """Outcome of one distance computation.

    ``memo_entries`` counts the states the sweep priced; it is 0 for
    a pair with no imbalanced symbol and for an infeasible pair, and never
    exceeds ``stats.predicted_state_bound``.  ``stats`` is the pair's
    difficulty profile, set on every result.  ``script`` is one optimal
    correction script when one was asked for and the distance is finite.
    """

    distance: Cost
    memo_entries: int
    stats: InstanceStats
    script: Optional[Script] = None

    def weighted_cost(self, c_ins, c_swap) -> Cost:
        """Cost of an optimal script at per-operation prices.

        Every minimal correction uses exactly m - n insertions (deletions,
        for a swap-delete result), so insertions and swaps never trade off
        against each other and the unweighted optimum fixes both
        operation counts.
        """
        if c_ins < 0 or c_swap < 0:
            raise ValueError("weights must be non-negative")
        if not self.distance.is_finite:
            return Cost.unreachable()
        inserts = self.stats.m - self.stats.n
        return Cost.finite(c_ins * inserts + c_swap * (self.distance.value - inserts))


class _Computation:
    """Single-use solve of one feasible pair; owns its layers exclusively.

    ``stats`` picks the solver: a pair with no imbalanced code runs only
    the forward walk and builds no layer, any other runs the sweep, after
    which the walk writes the script along one of its optimal paths.
    ``layers[q]`` maps each state of layer q, keyed by the imbalanced
    codes' matched counts, to its cost-to-go once the sweep is done.
    """

    def __init__(self, source: IndexedString, target: IndexedString,
                 stats: InstanceStats) -> None:
        self.source = source
        self.target = target
        self.stats = stats
        self.n = stats.n
        self.m = stats.m
        self.imbalanced = [a for a, g in enumerate(stats.g_per_symbol, 1) if g > 0]
        # read by both passes; lists are indexed by code
        self.slot = {a: idx for idx, a in enumerate(self.imbalanced)}
        self.select_s = [()] + source.select_table
        self.spare = [0] + [ma - na for na, ma in zip(stats.n_counts, stats.m_counts)]
        self.layers: List[dict] = []

    def _sweep(self) -> int:
        # The forward pass collects each layer's states, keyed by the
        # imbalanced codes' matched counts.  A state first holds (edge,
        # child, can_insert): the match cost and child (edge None when no
        # source b is left) and whether b may be inserted, keeping the key;
        # the backward pass overwrites it with its cost-to-go.  Positions
        # are 1-based, lists are indexed by code.
        n, m, d = self.n, self.m, self.stats.d
        l_syms = self.target.symbols
        select_s, spare, slot = self.select_s, self.spare, self.slot
        imbalanced = self.imbalanced
        tree = [0] * (n + 1)  # Fenwick tree over the balanced codes' matched positions
        before_l = [0] * (d + 1)
        rest = n  # source positions no balanced code has matched
        layers = self.layers
        start = (0,) * len(imbalanced)
        layer = {start: None}
        for q in range(m):
            layers.append(layer)
            following = {}
            b = l_syms[q]
            idx = slot.get(b)
            occurrences = select_s[b]
            # b's matched count -> (positions before r that no balanced code
            # matched, rank of r in each imbalanced code), shared by the layer
            cache = {}
            for key in layer:
                if sum(key) == rest:
                    # every source position is matched: only inserts remain
                    layer[key] = m - q
                    continue
                k = before_l[b] if idx is None else key[idx]
                edge = child = None
                if k < len(occurrences):
                    found = cache.get(k)
                    if found is None:
                        r = occurrences[k]
                        at, matched = r - 1, 0
                        while at:
                            matched += tree[at]
                            at &= at - 1
                        found = cache[k] = (r - 1 - matched, [
                            bisect_left(select_s[u], r) for u in imbalanced])
                    edge = found[0] - sum(map(min, key, found[1]))
                    child = key if idx is None else key[:idx] + (k + 1,) + key[idx + 1:]
                    following[child] = None
                # a zero-cost match is forced
                can_insert = before_l[b] - k < spare[b] and edge != 0
                if can_insert:
                    following[key] = None
                layer[key] = (edge, child, can_insert)
            if idx is None and occurrences:
                # a balanced code present in the source matches its next occurrence
                at = occurrences[before_l[b]]
                while at <= n:
                    tree[at] += 1
                    at += at & -at
                rest -= 1
            before_l[b] += 1
            layer = following
        layers.append(dict.fromkeys(layer, 0))
        for q in range(m - 1, -1, -1):
            layer, following = layers[q], layers[q + 1]
            for key, entry in layer.items():
                if entry.__class__ is int:
                    continue
                edge, child, can_insert = entry
                if edge is None:
                    layer[key] = 1 + following[key]
                elif can_insert:
                    layer[key] = min(1 + following[key], edge + following[child])
                else:
                    layer[key] = edge + following[child]
        return layers[0][start]

    def _walk(self, ops: Optional[List]) -> int:
        # One path through the sweep's states, from the start state,
        # appending the script to ``ops`` when given.  ``k[a]`` counts the
        # matched source a's, always the first ones; those at or after
        # source position p are passed when reached, and a code is live
        # while it has one.  A match costs one bisect per live code.  Equal
        # heads are the sweep's forced zero-cost match; elsewhere at most
        # one move applies, except where the insert test and a free source
        # b both hold: there the sweep's layers pick the cheaper child, and
        # a tie goes to the insert.  Without layers (no imbalanced symbol)
        # such a state must not occur.  Positions p and q are 0-based.
        n, m, d = self.n, self.m, self.stats.d
        layers = self.layers
        s_syms = self.source.symbols
        l_syms = self.target.symbols
        select_s, spare, slot = self.select_s, self.spare, self.slot
        raw_of = self.source.alphabet.raw_of
        k = [0] * (d + 1)
        live = set()
        # occurrences of each code before source position p / target position q
        before_s = [0] * (d + 1)
        before_l = [0] * (d + 1)
        p = q = total = 0
        while True:
            if p == n:
                if ops is not None:
                    ops.extend(Insert(pos, raw_of(l_syms[pos - 1])) for pos in range(q + 1, m + 1))
                return total + (m - q)
            if q == m:
                if sum(k) < n:
                    raise RuntimeError("internal error: the walk left a source position unmatched")
                return total
            a = s_syms[p]
            if before_s[a] < k[a]:
                # matched by an earlier swap: pass it
                before_s[a] += 1
                if before_s[a] == k[a]:
                    live.discard(a)
                p += 1
                continue
            b = l_syms[q]
            if a == b:
                before_s[a] += 1
                before_l[a] += 1
                k[a] += 1
                p += 1
                q += 1
                continue
            kb = k[b]
            occurrences = select_s[b]
            # with no free b left in the source the insert test holds
            swap = kb < len(occurrences)
            if swap:
                r = occurrences[kb]
                edge = r - p - 1
                for t in live:
                    edge -= bisect_right(select_s[t], r, before_s[t], k[t]) - before_s[t]
                # the insert test: fewer than m_b - n_b b's inserted so far
                if before_l[b] - kb < spare[b]:
                    if not layers:
                        raise RuntimeError(
                            "branching state reached in a zero-imbalance instance"
                        )
                    key = [k[u] for u in self.imbalanced]
                    following = layers[q + 1]
                    ins_value = following[tuple(key)]
                    key[slot[b]] += 1
                    swap = edge + following[tuple(key)] < 1 + ins_value
            if swap:
                if ops is not None:
                    ops.extend(Swap(pos) for pos in range(q + edge, q, -1))
                total += edge
                k[b] = kb + 1
                live.add(b)
            else:
                if ops is not None:
                    ops.append(Insert(q + 1, raw_of(b)))
                total += 1
            before_l[b] += 1
            q += 1

    def solve(self, ops: Optional[List] = None) -> int:
        """Distance of the whole pair, which the caller has found feasible.

        Given ``ops``, one optimal script is appended to it by the walk:
        on a pair with no imbalanced symbol the walk is the whole solve,
        otherwise it runs after the sweep and follows the sweep's values.
        Target positions are produced left to right; matching the source
        occurrence at position r becomes an immediate run of adjacent
        swaps walking it down to the boundary.
        """
        if self.stats.s == 0:
            return self._walk(ops)
        value = self._sweep()
        if ops is not None:
            self._walk(ops)
        return value


def feasible(source: IndexedString, target: IndexedString) -> bool:
    """True when no symbol occurs more often in the source than the target."""
    return InstanceStats.of(source, target).feasible


def _run(source: IndexedString, target: IndexedString, with_script: bool) -> EngineResult:
    stats = InstanceStats.of(source, target)
    if not stats.feasible:
        # detected from the counts alone, before any state is evaluated
        return EngineResult(distance=Cost.unreachable(), memo_entries=0, stats=stats)
    comp = _Computation(source, target, stats)
    ops: Optional[List] = [] if with_script else None
    value = comp.solve(ops)
    entries = sum(map(len, comp.layers))
    bound = stats.predicted_state_bound
    if entries > bound:
        raise RuntimeError(
            f"internal error: {entries} memo entries exceed the bound {bound}"
        )
    script = None
    if with_script:
        script = Script(tuple(ops))
        if len(script) != value:
            raise RuntimeError(
                f"internal error: script cost {len(script)} != distance {value}"
            )
    return EngineResult(
        distance=Cost.finite(value),
        memo_entries=entries,
        stats=stats,
        script=script,
    )


def distance(source: IndexedString, target: IndexedString) -> EngineResult:
    """Minimum number of insertions plus adjacent swaps turning source into target.

    Unreachable exactly when some symbol occurs more often in the source
    than in the target.
    """
    return _run(source, target, with_script=False)


def distance_with_script(source: IndexedString, target: IndexedString) -> EngineResult:
    """Like distance(), but also reconstructs one optimal correction script."""
    result = _run(source, target, with_script=True)
    if result.script is None:
        raise ScriptUnavailable("the distance is unreachable, no script exists")
    return result


def weighted_distance(source: IndexedString, target: IndexedString,
                      c_ins, c_swap) -> Cost:
    """Cheapest weighted correction cost for per-operation prices.

    One unweighted solve fixes both operation counts; see
    ``EngineResult.weighted_cost``.
    """
    return distance(source, target).weighted_cost(c_ins, c_swap)


def swap_delete_distance(long_string: IndexedString, short_string: IndexedString) -> EngineResult:
    """Distance from ``long_string`` to ``short_string`` with deletes and swaps.

    Mirrors the insert-based computation in the opposite direction: the
    reconstructed script is reversed, and every insertion is undone as a
    deletion at the same position.
    """
    result = _run(short_string, long_string, with_script=True)
    if result.script is None:
        return result
    mirrored = tuple(
        Delete(op.position) if isinstance(op, Insert) else op
        for op in reversed(result.script.ops)
    )
    return replace(result, script=Script(mirrored))


def correction_distance(source: Sequence, target: Sequence,
                        with_script: bool = False) -> EngineResult:
    """Distance between raw strings; builds the alphabet map and indexes.

    With ``with_script`` the script is included whenever the distance is
    finite (an unreachable pair simply comes back without one).
    """
    alphabet = build_alphabet(source, target)
    return _run(
        index_string(source, alphabet),
        index_string(target, alphabet),
        with_script=with_script,
    )


def swap_delete_correction(source: Sequence, target: Sequence) -> EngineResult:
    """Swap-delete distance between raw strings (source is the longer side)."""
    alphabet = build_alphabet(target, source)
    return swap_delete_distance(
        index_string(source, alphabet),
        index_string(target, alphabet),
    )
