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
The walk flags each source position a swap matches and passes a run of
flags in one step.  It finds b's next free occurrence by a forward scan
from past the one a swap last matched for b, so one code's scans read
each position once, or, for a code rare in the source, in the select
table, built only once the rare codes' scans have read 4n positions.  A
swap costs the positions it passes less their flags, counted in C over a
short span, from the last count when the span moved little, else from
per-block counts of about sqrt(n) positions, so no step's cost grows
with d.  Any other pair first runs a sweep over target positions whose
key holds the k_a of the imbalanced codes only: a balanced code's count
is fixed by q, and its matched positions sit in
one Fenwick tree the layer's states share.  The key is one int: each k_a
has a bit field n_a.bit_length() wide, and their sum, the state's
matched total, sits in a field above them all, so the total is
``key >> top``, and a match child is ``key + step`` with one step per
imbalanced code.  A match of b's next free occurrence r then costs
r - 1, less the tree's matched positions before r, less the matched
total, plus one for each of the imbalanced codes' matched occurrences
that lies past r.  A solve's first sweep counts those codes' occurrences
before each r in one pass over the source, and each imbalanced code
keeps the tree's part of its match costs by matched count from layer
to layer until a balanced match changes the tree.  On a layer whose
code is balanced a state has one move and keeps its key: the match,
when the code occurs in the source, else the insert.  A layer lies in
a box of the product of (g_a + 1) states,
``InstanceStats.layer_bound``, which the sweep checks for each layer it
builds, and the states priced stay within the paper's adaptive bound
``memo_bound``, which every solve checks.  Each state carries its cost
from the start, and its moves relax the next layer's states; a
distance-only sweep then drops it and holds one live layer, in the
manner of Hirschberg (1975).

The sweep is a branch and bound (Land & Doig 1960).  A state's cost plus
its remaining inserts, (m - n) minus the inserts made so far, is its
swaps plus m - n: it never falls along a move and never exceeds the
cost of a full path through the state, an admissible estimate in the
sense of A* (Hart, Nilsson & Raphael 1968).  A solve runs the one sweep
in up to three passes and stops at the first that cuts no layer, whose
value is exact:

1. a beam that keeps the ``_BEAM`` (64) cheapest states of each layer
   by cost.  Uncut, it was the unpruned sweep; a pair whose box holds
   at most 64 states is always such a pair.  From its first cut on it
   keeps only ``_BEAM // 8`` (at least 1) states per layer, since its
   value U1, the cost of a real path, serves only as a bound;
2. a ``_BEAM``-wide beam that drops every match whose child's estimate
   exceeds U1.  Uncut, it was the sweep bounded by U1; a cut one may
   end with no state, value inf;
3. a sweep bounded by the smaller of the two values, with no beam.

A bounded pass never drops a state of an optimal path and keeps their
costs exact, so distances and scripts are those of the unpruned sweep,
and an uncut bounded pass prices exactly the reachable states whose
estimate is at most its bound.  ``memo_entries`` counts the states of
the last pass: the uncut first beam's, which are all the reachable
states, or a bounded pass's, never more than the unpruned sweep prices.
For a script the last pass keeps every layer of the states it priced,
one int per state: its match cost and two flags, whether the match child
survived the bound and whether the insert applies; the child's key is
rebuilt from the state's own.  A backward pass turns each int into the
state's cost-to-go, a dropped child counting as unreachable, and the
walk then follows those values where the insert and the match both
apply, taking the insert on a tie.

The pair's difficulty profile (counts, imbalances, memo bound, box) is the
``InstanceStats`` defined here.  It is read once per solve off the
indexes' per-symbol counts, picks the solver, and is returned as
``EngineResult.stats``; the weighted cost is arithmetic on the result
(``EngineResult.weighted_cost``).  A pair that the counts show
unreachable is settled before any solve, and comes back without a script
from every entry point.
"""

from dataclasses import dataclass, replace
from math import inf, prod
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from .cost import Cost
from .indexing import AlphabetMap, IndexedString, build_alphabet, index_string
from .scripts import Delete, Insert, Script, Swap


# The beams' width; inf turns the beams and the bounds off everywhere.
_BEAM = 64

# A code with fewer than one source occurrence in this many positions
# reads the select table, once the scans of such codes have read
# ``_SCANNED`` times n positions: a table costs about 100 ns per source
# position to build, a scan about 5 ns per position it reads (CPython
# 3.11, x86-64), and a locally shuffled pair's scans stay short.
_SCAN = 64
_SCANNED = 4


def _sigma_plus(g_by_code: Sequence[int]) -> Tuple[int, ...]:
    # the codes of the paper's product: the imbalanced codes, less the
    # first code of smallest imbalance when every code is imbalanced
    codes = [a for a, g in enumerate(g_by_code, 1) if g > 0]
    if codes and len(codes) == len(g_by_code):
        codes.remove(min(codes, key=lambda a: g_by_code[a - 1]))
    return tuple(codes)


def memo_bound(n: int, g_by_code: Sequence[int], m_by_code: Sequence[int]) -> int:
    """The paper's adaptive bound on one instance's memo entries.

    It is at most d (n + 1)(m + 1)(g + 1)^(d - 1) for the largest
    per-symbol imbalance g.

    Zero when no symbol is imbalanced: such instances are evaluated
    without a memo.
    """
    imbalanced = sum(g > 0 for g in g_by_code)
    if not imbalanced:
        return 0
    sigma_plus = _sigma_plus(g_by_code)
    span = 1 + sum(m - g for g, m in zip(g_by_code, m_by_code))
    # the code left out of the product may be any of the d
    choices = len(g_by_code) if len(sigma_plus) < imbalanced else 1
    return choices * (n + 1) * span * prod(g_by_code[a - 1] + 1 for a in sigma_plus)


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
    layer_bound: int
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
        # a symbol the source holds more often than the target makes the
        # pair infeasible, and counts as balanced here
        g_per_symbol = tuple(max(0, min(na, ma - na)) for na, ma in zip(n_counts, m_counts))
        # a sweep layer lies in a box of one matched count per imbalanced code
        positive = [g for g in g_per_symbol if g > 0]
        feasible = all(na <= ma for na, ma in zip(n_counts, m_counts))
        return cls(
            n=len(source),
            m=len(target),
            d=d,
            n_counts=n_counts,
            m_counts=m_counts,
            g_per_symbol=g_per_symbol,
            g=max(g_per_symbol, default=0),
            sigma_plus=_sigma_plus(g_per_symbol),
            s=len(positive),
            # an infeasible pair is settled before any state is priced
            predicted_state_bound=memo_bound(len(source), g_per_symbol, m_counts) if feasible else 0,
            layer_bound=prod(g + 1 for g in positive),
            feasible=feasible,
            alphabet=source.alphabet,
        )


@dataclass(frozen=True)
class EngineResult:
    """Outcome of one distance computation.

    ``memo_entries`` counts the states the solve's last pass priced: every
    reachable state when the first beam cut no layer, otherwise those of
    the bounded pass that settled the value.  It is the same with and
    without a script, never larger than the unpruned sweep's count, 0 for
    a pair with no imbalanced symbol and for an infeasible pair, and never
    exceeds ``stats.predicted_state_bound``; no layer of a sweep holds
    more than ``stats.layer_bound`` states.  ``stats`` is the pair's
    difficulty profile, set on every result.  ``script`` is one optimal
    correction script when one was asked for and the distance is finite:
    an unreachable pair comes back without one from every entry point.
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
        if not (0 <= c_ins < inf and 0 <= c_swap < inf):
            raise ValueError("weights must be non-negative and finite")
        if not self.distance.is_finite:
            return Cost.unreachable()
        inserts = self.stats.m - self.stats.n
        return Cost.finite(c_ins * inserts + c_swap * (self.distance.value - inserts))


def _matched_before(tree: List[int], at: int) -> int:
    # the balanced codes' matched positions in [1..at], read off their Fenwick tree
    matched = 0
    while at:
        matched += tree[at]
        at &= at - 1
    return matched


class _Computation:
    """Single-use solve of one feasible pair; owns its layers exclusively.

    The last pass retains its layers only for a script, which the walk
    then writes along one of its optimal paths:
    ``layers[q]`` maps each state of layer q that the bound let through,
    keyed by the imbalanced codes' matched counts, to its cost-to-go.  A
    key is one int laid out once per solve: the count of the code in slot
    idx fills bits [shift[idx], shift[idx] + n_a.bit_length()), masked by
    ``mask[idx]``, and the matched total fills the bits from ``top`` up.
    A match of that code adds ``step[idx]``, one to its field and one to
    the total, and the start state is 0.  A distance-only sweep holds one
    live layer at a time and leaves ``layers`` empty.  ``priced`` counts
    the states the last pass priced, the same in both modes; ``cut``
    records that it dropped states for its width.
    """

    def __init__(self, source: IndexedString, target: IndexedString,
                 stats: InstanceStats) -> None:
        self.source = source
        self.target = target
        self.stats = stats
        self.n = stats.n
        self.m = stats.m
        self.imbalanced = [a for a, g in enumerate(stats.g_per_symbol, 1) if g > 0]
        # read by both passes; lists are indexed by code, or by slot
        self.slot = {a: idx for idx, a in enumerate(self.imbalanced)}
        # the key layout: slot idx's matched count fills bits [shift[idx],
        # shift[idx] + width) with width n_a.bit_length(), and the matched
        # total sits above every field, from bit ``top``
        self.shift, self.mask = [], []
        top = 0
        for a in self.imbalanced:
            width = stats.n_counts[a - 1].bit_length()
            self.shift.append(top)
            self.mask.append((1 << width) - 1)
            top += width
        self.top = top
        # a match of slot idx's code adds one to its field and to the total
        self.step = [(1 << top) + (1 << at) for at in self.shift]
        self.spare = [0] + [ma - na for na, ma in zip(stats.n_counts, stats.m_counts)]
        self.matches = None  # the first sweep's ``_match_table``, shared by every pass
        self.layers: List[dict] = []
        self.priced = 0  # states the sweep priced
        self.cut = False  # the beam dropped a state

    def _match_table(self) -> List[List[Tuple[int, tuple]]]:
        # By code b, k -> (r, crossings): r is the 1-based position of the
        # source's b that follows its first k, and crossings holds, for each
        # imbalanced code u other than b that occurs after r, the triple
        # (field, R_u << shift, shift): the mask of u's bits in a key and
        # R_u, the u's before r, shifted in place.  A state with k_u > R_u
        # has matched k_u - R_u u's past r, and a match of r crosses each.
        # One pass over the source counts the R_u as it goes.
        table = [[] for _ in range(self.stats.d + 1)]
        # by slot, the triple at its code's occurrences seen so far, made
        # once per count and shared; None once all are seen
        current = [(mask << at, 0, at) for at, mask in zip(self.shift, self.mask)]
        crossings = tuple(current)
        slot, counts = self.slot, self.stats.n_counts
        for r, b in enumerate(self.source.symbols, 1):
            idx = slot.get(b)
            if idx is None:
                table[b].append((r, crossings))
                continue
            field, _, at = own = current[idx]
            listed = table[b]
            listed.append((r, tuple(f for f in crossings if f is not own)))
            current[idx] = (field, len(listed) << at, at) if len(listed) < counts[b - 1] else None
            crossings = tuple(f for f in current if f is not None)
        return table

    def _sweep(self, keep: bool = True, width=inf, bound=inf) -> int:
        # The forward pass visits each layer's states, keyed by the imbalanced
        # codes' matched counts in one int, and counts them in ``priced``.  A
        # state holds its cost from the start state: its moves relax the next
        # layer's states, a terminal state folds its inserts into ``best``,
        # and only the layer in hand is alive.  A state's matched total is
        # ``key >> top``, the count k of slot idx ``key >> shift[idx] &
        # mask[idx]``, and its match child ``key + step[idx]``.  A match of
        # b's next free occurrence r costs ``base`` - total plus its
        # crossings, the k_u - R_u of ``matches``, read in place as ``key &
        # field`` against R_u << shift: ``base`` counts the positions before r
        # that no balanced code matched.  Each imbalanced code caches ``base``
        # and the crossings by its matched count from layer to layer; a
        # balanced match changes the Fenwick tree and clears every cache.  On
        # a layer whose code b is balanced each state has one move, which
        # keeps its key: the match when b occurs in the source, where no state
        # is terminal, else the insert.  A match is dropped when its child's
        # cost plus remaining inserts, which never falls along a move, exceeds
        # ``bound``; an insert leaves that sum as it is.  A layer of more than
        # ``width`` states keeps the ``width`` cheapest, sets ``cut`` and
        # stops keeping layers; an unbounded pass then narrows ``width`` to an
        # eighth, and a cut pass may end with no state and return inf.  With
        # ``keep`` every layer is kept in ``layers``, and each state, once
        # relaxed, holds one int: ``edge << 2 | survived << 1 | can_insert``,
        # the match cost (0 when no match is left), whether the match child
        # exists and the bound let it through, and whether b may be inserted,
        # keeping the key; a terminal state holds q - m - 1 < 0.  The backward
        # pass rebuilds each match child as ``key + step[idx]`` and overwrites
        # every entry with its cost-to-go for the walk.  A layer of more
        # states than its box, ``stats.layer_bound``, is an internal error.
        # Positions are 1-based; lists are indexed by code, the layout's by slot.
        n, m, d = self.n, self.m, self.stats.d
        box = self.stats.layer_bound
        l_syms = self.target.symbols
        matches = self.matches
        if matches is None:
            matches = self.matches = self._match_table()
        spare, slot = self.spare, self.slot
        top, shift, mask, step = self.top, self.shift, self.mask, self.step
        self.cut = False
        tree = [0] * (n + 1)  # Fenwick tree over the balanced codes' matched positions
        before_l = [0] * (d + 1)
        rest = n  # source positions no balanced code has matched
        layers = self.layers
        layer = {0: 0}  # the start state, every count 0
        best = inf  # the cheapest terminal state's full cost
        priced = 0
        bounded = bound < inf
        # per imbalanced code, by slot: matched count k -> ``base`` and the
        # crossings of its k-th occurrence
        caches = [{} for _ in slot]
        for q in range(m):
            priced += len(layer)
            if bounded:
                # a match's child has cost plus remaining inserts
                # cost + total + m - q - rest, with total the parent's
                limit = bound - m + q + rest
            if keep:
                layers.append(layer)
            following = {}
            b = l_syms[q]
            idx = slot.get(b)
            occurrences = matches[b]
            k = before_l[b]
            if idx is None and occurrences:
                # a balanced code present in the source matches its next occurrence
                r, ranks = occurrences[k]
                base = r - 1 - _matched_before(tree, r - 1)
                for key, value in layer.items():
                    total = key >> top
                    edge = base - total
                    for field, rank, at in ranks:
                        if key & field > rank:
                            edge += (key & field) - rank >> at
                    cost = value + edge
                    survived = not bounded or cost + total <= limit
                    if survived:
                        following[key] = cost
                    if keep:
                        layer[key] = edge << 2 | survived << 1
                while r <= n:
                    tree[r] += 1
                    r += r & -r
                rest -= 1
                for cache in caches:
                    cache.clear()
            elif idx is None:
                # a code absent from the source is inserted
                for key, value in layer.items():
                    if key >> top == rest:
                        # every source position is matched: only inserts remain
                        if value + m - q < best:
                            best = value + m - q
                        if keep:
                            layer[key] = q - m - 1
                        continue
                    following[key] = value + 1
                    if keep:
                        layer[key] = 1
            else:
                left = len(occurrences)
                # b may be inserted while its matched count k exceeds this
                floor = k - spare[b]
                cache = caches[idx]
                at, ones, step_b = shift[idx], mask[idx], step[idx]
                for key, value in layer.items():
                    total = key >> top
                    if total == rest:
                        # every source position is matched: only inserts remain
                        if value + m - q < best:
                            best = value + m - q
                        if keep:
                            layer[key] = q - m - 1
                        continue
                    k = key >> at & ones
                    edge = None
                    survived = 0
                    if k < left:
                        found = cache.get(k)
                        if found is None:
                            r, ranks = occurrences[k]
                            found = cache[k] = (r - 1 - _matched_before(tree, r - 1), ranks)
                        edge = found[0] - total
                        for field, rank, u_at in found[1]:
                            if key & field > rank:
                                edge += (key & field) - rank >> u_at
                        cost = value + edge
                        if not bounded or cost + total <= limit:
                            child = key + step_b
                            if following.setdefault(child, cost) > cost:
                                following[child] = cost
                            survived = 2
                    # a zero-cost match is forced
                    can_insert = k > floor and edge != 0
                    if can_insert:
                        cost = value + 1
                        if following.setdefault(key, cost) > cost:
                            following[key] = cost
                    if keep:
                        layer[key] = (edge or 0) << 2 | survived | can_insert
            before_l[b] += 1
            if len(following) > box:
                raise RuntimeError(f"internal error: layer {q + 1} holds "
                                   f"{len(following)} states, over its box of {box}")
            if len(following) > width:
                following = dict(sorted(following.items(), key=itemgetter(1))[:width])
                if not (self.cut or bounded):
                    # an unbounded beam needs only some path's cost once it cuts
                    width = width // 8 or 1
                self.cut = True
                # cut layers cannot serve the walk: a later pass keeps its own
                keep = False
                layers.clear()
            layer = following
        self.priced = priced + len(layer)
        if best == inf and not layer and not self.cut:
            raise RuntimeError("internal error: no state of the sweep reached the end")
        value = min(best, min(layer.values(), default=best))
        if not keep:
            return value
        layers.append(dict.fromkeys(layer, 0))
        for q in range(m - 1, -1, -1):
            layer, following = layers[q], layers[q + 1]
            idx = slot.get(l_syms[q])
            # a balanced match keeps the key
            step_b = 0 if idx is None else step[idx]
            for key, entry in layer.items():
                if entry < 0:
                    layer[key] = -1 - entry
                    continue
                if entry & 2:
                    value = (entry >> 2) + following[key + step_b]
                else:
                    # no match is left, or the bound dropped it: it leads nowhere
                    value = inf
                if entry & 1 and 1 + following[key] < value:
                    value = 1 + following[key]
                layer[key] = value
        return layers[0][0]

    def _key(self, k: List[int]) -> int:
        # the sweep's key of the matched counts k, indexed by code
        key = total = 0
        for a, at in zip(self.imbalanced, self.shift):
            key |= k[a] << at
            total += k[a]
        return total << self.top | key

    def _walk(self, ops: Optional[List]) -> int:
        # One path through the sweep's states, from the start state,
        # appending the script to ``ops`` when given.  ``k[a]`` counts the
        # matched source a's, always the first ones, and every source
        # position before p is matched; a position that a swap matched is
        # flagged in ``swapped``, and p passes a run of flags in one step.
        # b's next free occurrence r is found by a forward scan of the
        # source from past the occurrence a swap last matched for b, or
        # from p, so the scans of one code read each position at most once;
        # a code with fewer than one occurrence in ``_SCAN`` positions reads
        # the select table instead, once the scans of such codes have read
        # ``_SCANNED`` * n positions.  A swap costs
        # r - p less the flags in [p, r): counted directly over a span of
        # at most ``window`` positions, from the previous count when the
        # span's ends moved by at most that much, else from the flags'
        # per-block counts.  Equal
        # heads are the sweep's forced zero-cost match; elsewhere at most
        # one move applies, except where the insert test and a free source
        # b both hold: there the sweep's layers pick the cheaper child, a
        # match child the bound dropped reading as +inf, and a tie goes to
        # the insert.  Without layers (no imbalanced symbol) such a state
        # must not occur.  Positions p, q and r are 0-based.
        n, m, d = self.n, self.m, self.stats.d
        layers = self.layers
        s_syms = self.source.symbols
        l_syms = self.target.symbols
        spare, slot = self.spare, self.slot
        raw = self.source.alphabet.external_symbols
        counts = (0,) + self.stats.n_counts
        rare = [count * _SCAN < n for count in counts]
        # the source's select table, built once the rare codes' scans have
        # read this many positions
        table = None
        budget = _SCANNED * n
        starts = [0] * (d + 1)  # per code, past the occurrence a swap last matched
        # blocks of 2 ** shift positions, about the square root of n
        shift = n.bit_length() >> 1
        window = 1 << shift
        swapped = bytearray(n + 1)  # the 0 at n ends every run of flags
        blocks = [0] * ((n >> shift) + 1)
        count, find, index = swapped.count, swapped.find, s_syms.index
        last_p = last_r = last_count = 0  # the previous count's span and value
        k = [0] * (d + 1)
        inserted = [0] * (d + 1)
        p = q = total = 0
        while True:
            if p == n:
                if ops is not None:
                    ops.extend(map(Insert, range(q + 1, m + 1),
                                   [raw[code - 1] for code in l_syms[q:]]))
                return total + (m - q)
            if q == m:
                if sum(k) < n:
                    raise RuntimeError("internal error: the walk left a source position unmatched")
                return total
            if swapped[p]:
                p = find(0, p)
                continue
            a = s_syms[p]
            b = l_syms[q]
            if a == b:
                k[a] += 1
                p += 1
                q += 1
                continue
            kb = k[b]
            # with no free b left in the source the insert test holds
            swap = kb < counts[b]
            if swap:
                if rare[b] and table is not None:
                    r = table[b - 1][kb] - 1
                else:
                    start = starts[b]
                    if start < p:
                        start = p
                    r = index(b, start)
                    if rare[b]:
                        budget -= r - start
                        if budget < 0:
                            table = self.source.select_table
                edge = r - p
                if edge <= window:
                    # p is free, so a span of one position holds no flag
                    flagged = count(1, p, r) if edge > 1 else 0
                elif p - last_p + abs(r - last_r) <= window:
                    flagged = last_count - count(1, last_p, p)
                    if r < last_r:
                        flagged -= count(1, r, last_r)
                    else:
                        flagged += count(1, last_r, r)
                else:
                    lo, hi = (p >> shift) + 1, r >> shift
                    flagged = (count(1, p, lo << shift) + sum(blocks[lo:hi])
                               + count(1, hi << shift, r))
                last_p, last_r, last_count = p, r, flagged
                edge -= flagged
                # the insert test: fewer than m_b - n_b b's inserted so far
                if inserted[b] < spare[b]:
                    if not layers:
                        raise RuntimeError(
                            "branching state reached in a zero-imbalance instance"
                        )
                    key = self._key(k)
                    following = layers[q + 1]
                    swap = (edge + following.get(key + self.step[slot[b]], inf)
                            < 1 + following[key])
            if swap:
                if ops is not None:
                    ops.extend(map(Swap, range(q + edge, q, -1)))
                total += edge
                k[b] = kb + 1
                swapped[r] = 1
                blocks[r >> shift] += 1
                starts[b] = r + 1
            else:
                if ops is not None:
                    ops.append(Insert(q + 1, raw[b - 1]))
                total += 1
                inserted[b] += 1
            q += 1

    def solve(self, ops: Optional[List] = None) -> int:
        """Distance of the whole pair, which the caller has found feasible.

        Given ``ops``, one optimal script is appended to it by the walk:
        on a pair with no imbalanced symbol the walk is the whole solve,
        otherwise it runs after a sweep that keeps every layer and follows
        their values.  Without ``ops`` the sweep keeps only its live layer.
        Target positions are produced left to right; matching the source
        occurrence at position r becomes an immediate run of adjacent
        swaps walking it down to the boundary.
        """
        if self.stats.s == 0:
            return self._walk(ops)
        keep = ops is not None
        value = inf
        for width in (_BEAM, _BEAM, inf):
            # a cut pass's value is the cost of a real path, or inf, and
            # bounds the next; an uncut one is exact
            value = min(value, self._sweep(keep, width, value))
            if not self.cut:
                break
        if keep:
            self._walk(ops)
        return value


def _run(source: IndexedString, target: IndexedString, with_script: bool) -> EngineResult:
    stats = InstanceStats.of(source, target)
    if not stats.feasible:
        # detected from the counts alone, before any state is evaluated
        return EngineResult(distance=Cost.unreachable(), memo_entries=0, stats=stats)
    comp = _Computation(source, target, stats)
    ops: Optional[List] = [] if with_script else None
    value = comp.solve(ops)
    entries = comp.priced
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
    """Like distance(), but also reconstructs one optimal correction script.

    An unreachable pair comes back without one, as from every entry point.
    """
    return _run(source, target, with_script=True)


def weighted_distance(source: IndexedString, target: IndexedString,
                      c_ins, c_swap) -> Cost:
    """Cheapest weighted correction cost for per-operation prices.

    One unweighted solve fixes both operation counts; see
    ``EngineResult.weighted_cost``.
    """
    return distance(source, target).weighted_cost(c_ins, c_swap)


def _mirrored(result: EngineResult) -> EngineResult:
    # the insert-based script reversed, each insertion undone as a deletion
    # at the same position
    if result.script is None:
        return result
    mirrored = tuple(
        Delete(op.position) if isinstance(op, Insert) else op
        for op in reversed(result.script.ops)
    )
    return replace(result, script=Script(mirrored))


def swap_delete_distance(long_string: IndexedString, short_string: IndexedString) -> EngineResult:
    """Distance from ``long_string`` to ``short_string`` with deletes and swaps.

    Mirrors the insert-based computation in the opposite direction: the
    reconstructed script is reversed, and every insertion is undone as a
    deletion at the same position.
    """
    return _mirrored(_run(short_string, long_string, with_script=True))


def correction_distance(source: Sequence, target: Sequence,
                        with_script: bool = False) -> EngineResult:
    """Distance between raw strings; builds the alphabet map and indexes.

    With ``with_script`` the script is included whenever the distance is
    finite.
    """
    alphabet = build_alphabet(source, target)
    return _run(
        index_string(source, alphabet),
        index_string(target, alphabet),
        with_script=with_script,
    )


def swap_delete_correction(source: Sequence, target: Sequence) -> EngineResult:
    """Swap-delete distance between raw strings (source is the longer side)."""
    return _mirrored(correction_distance(target, source, with_script=True))
