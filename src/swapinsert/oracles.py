"""Independent brute-force distance oracles for desk-scale instances.

Both oracles are deliberately naive.  The uniform-cost search explores
raw working strings edge by edge; the matching oracle enumerates, per
symbol, which target occurrences the source occurrences map to.  They
share no code with the engine and exist to anchor trust in it.
"""

import heapq
from collections import Counter
from itertools import combinations, product
from math import comb, inf
from typing import Optional, Sequence, Tuple

from .cost import Cost

# states searched or combinations enumerated before InstanceTooLarge
DEFAULT_BUDGET = 1_000_000


class InstanceTooLarge(ValueError):
    """The oracle would exceed its configured search budget."""


def ucs_distance(
    source: Sequence,
    target: Sequence,
    weights: Optional[Tuple] = None,
    state_budget: int = DEFAULT_BUDGET,
) -> Cost:
    """Exact minimum correction cost by uniform-cost search over strings.

    Neighbors insert any symbol the target still needs at any position, or
    swap an adjacent unequal pair (swapping equal symbols never helps, so
    those edges are pruned).  States whose symbol counts exceed the
    target's are never generated, which keeps the space finite.
    """
    c_ins, c_swap = weights if weights is not None else (1, 1)
    if not (0 <= c_ins < inf and 0 <= c_swap < inf):
        raise ValueError("weights must be non-negative and finite")
    start = tuple(source)
    goal = tuple(target)
    goal_counts = Counter(goal)
    start_counts = Counter(start)
    if any(cnt > goal_counts.get(sym, 0) for sym, cnt in start_counts.items()):
        return Cost.unreachable()
    alphabet = tuple(goal_counts)
    m = len(goal)
    best = {start: 0}
    tie = 0
    heap = [(0, tie, start)]
    while heap:
        cost_here, _, state = heapq.heappop(heap)
        if cost_here > best.get(state, cost_here):
            continue
        if state == goal:
            return Cost.finite(cost_here)
        length = len(state)
        children = []
        if length < m:
            counts = Counter(state)
            for sym in alphabet:
                if counts[sym] < goal_counts[sym]:
                    for pos in range(length + 1):
                        children.append(
                            (cost_here + c_ins, state[:pos] + (sym,) + state[pos:])
                        )
        for pos in range(length - 1):
            if state[pos] != state[pos + 1]:
                child = list(state)
                child[pos], child[pos + 1] = child[pos + 1], child[pos]
                children.append((cost_here + c_swap, tuple(child)))
        for child_cost, child in children:
            known = best.get(child)
            if known is None or child_cost < known:
                if known is None and len(best) >= state_budget:
                    raise InstanceTooLarge(
                        f"uniform-cost search exceeded {state_budget} states"
                    )
                best[child] = child_cost
                tie += 1
                heapq.heappush(heap, (child_cost, tie, child))
    return Cost.unreachable()


def _crossings(mapped: Sequence[int]) -> int:
    total = 0
    for a in range(len(mapped)):
        for b in range(a + 1, len(mapped)):
            if mapped[a] > mapped[b]:
                total += 1
    return total


def matching_distance(
    source: Sequence,
    target: Sequence,
    combination_budget: int = DEFAULT_BUDGET,
) -> Cost:
    """Exact distance via minimum-crossing injective matchings.

    Within one symbol an optimal matching is order preserving, so only
    the choice of which target occurrences are matched is enumerated.
    The distance is the forced insertion count plus the best crossing
    count over all combined choices.
    """
    src = tuple(source)
    tgt = tuple(target)
    src_counts = Counter(src)
    tgt_positions = {}
    for pos, sym in enumerate(tgt):
        tgt_positions.setdefault(sym, []).append(pos)
    if any(cnt > len(tgt_positions.get(sym, ())) for sym, cnt in src_counts.items()):
        return Cost.unreachable()
    total_combos = 1
    for sym, cnt in src_counts.items():
        total_combos *= comb(len(tgt_positions[sym]), cnt)
        if total_combos > combination_budget:
            raise InstanceTooLarge(
                f"matching enumeration exceeds {combination_budget} combinations"
            )
    symbols = tuple(src_counts)
    per_symbol_choices = [
        list(combinations(tgt_positions[sym], src_counts[sym])) for sym in symbols
    ]
    src_slots = {sym: [] for sym in symbols}
    for pos, sym in enumerate(src):
        src_slots[sym].append(pos)
    best = None
    for combo in product(*per_symbol_choices):
        mapped = [0] * len(src)
        for sym, chosen in zip(symbols, combo):
            for src_pos, tgt_pos in zip(src_slots[sym], chosen):
                mapped[src_pos] = tgt_pos
        cross = _crossings(mapped)
        if best is None or cross < best:
            best = cross
    if best is None:
        best = 0
    return Cost.finite((len(tgt) - len(src)) + best)
