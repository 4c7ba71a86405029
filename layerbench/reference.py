"""Reference swap-insert distance and script replayer, independent of swapinsert.

Nothing here imports the package: the benchmark checks the package's
answers against these functions, so they must not share its code or its
faults.

The distance is (m - n) plus the fewest crossings of a matching that
pairs every source occurrence with a target occurrence of the same
symbol, order-preserving within each symbol.  When every symbol present
in the source occurs equally often in the target, that matching is
forced and the crossings are its inversions.  Otherwise a dynamic
program runs over target prefixes, keyed by how many occurrences of
each source symbol are already matched.
"""

from itertools import accumulate
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple


class ReplayError(ValueError):
    """A script operation cannot be applied to the working string."""


def _positions(seq: Sequence) -> Dict[Hashable, List[int]]:
    positions: Dict[Hashable, List[int]] = {}
    for pos, sym in enumerate(seq):
        positions.setdefault(sym, []).append(pos)
    return positions


def inversions(values: Sequence[int]) -> int:
    """Number of pairs i < j with values[i] > values[j] (bottom-up merge sort)."""
    vals = list(values)
    size = len(vals)
    buf = [0] * size
    total = 0
    width = 1
    while width < size:
        for lo in range(0, size, 2 * width):
            mid = min(lo + width, size)
            hi = min(lo + 2 * width, size)
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if vals[j] < vals[i]:
                    buf[k] = vals[j]
                    j += 1
                    total += mid - i
                else:
                    buf[k] = vals[i]
                    i += 1
                k += 1
            buf[k:k + mid - i] = vals[i:mid]
            k += mid - i
            buf[k:k + hi - j] = vals[j:hi]
        vals, buf = buf, vals
        width *= 2
    return total


def _min_crossings(source: Sequence, target: Sequence,
                   src_pos: Dict[Hashable, List[int]]) -> int:
    symbols = list(src_pos)
    slot = {sym: t for t, sym in enumerate(symbols)}
    occ = [src_pos[sym] for sym in symbols]
    need = tuple(len(o) for o in occ)
    d = len(symbols)
    # rank[t][p]: occurrences of symbol t in source[0..p], inclusive
    rank = []
    for o in occ:
        hits = [0] * len(source)
        for p in o:
            hits[p] = 1
        rank.append(list(accumulate(hits)))
    left_in_target = {sym: 0 for sym in target}
    for sym in target:
        left_in_target[sym] += 1
    layer = {(0,) * d: 0}
    for sym in target:
        left_in_target[sym] -= 1
        t = slot.get(sym)
        if t is None:
            continue
        left = left_in_target[sym]
        o, nt = occ[t], need[t]
        nxt: Dict[Tuple[int, ...], int] = {}
        for k, cost in layer.items():
            kt = k[t]
            # leave this target position unmatched while the rest still fits
            if nt - kt <= left:
                old = nxt.get(k)
                if old is None or cost < old:
                    nxt[k] = cost
            if kt < nt:
                # match it to the next source occurrence p of sym; every
                # already-matched source position after p is one crossing
                p = o[kt]
                extra = 0
                for u in range(d):
                    ku = k[u]
                    if ku:
                        r = rank[u][p]
                        if ku > r:
                            extra += ku - r
                key = k[:t] + (kt + 1,) + k[t + 1:]
                total = cost + extra
                old = nxt.get(key)
                if old is None or total < old:
                    nxt[key] = total
        layer = nxt
    return layer[need]


def reference_distance(source: Sequence, target: Sequence) -> Optional[int]:
    """Swap-insert distance from source to target, or None when unreachable."""
    src_pos = _positions(source)
    tgt_pos = _positions(target)
    if any(len(occ) > len(tgt_pos.get(sym, ())) for sym, occ in src_pos.items()):
        return None
    inserts = len(target) - len(source)
    if all(len(occ) == len(tgt_pos[sym]) for sym, occ in src_pos.items()):
        mapped = [0] * len(source)
        for sym, occ in src_pos.items():
            for p, q in zip(occ, tgt_pos[sym]):
                mapped[p] = q
        return inserts + inversions(mapped)
    return inserts + _min_crossings(source, target, src_pos)


def replay(source: Sequence, ops: Iterable[Tuple[str, int, object]]) -> list:
    """Apply ("ins", pos, symbol), ("swap", pos, _) and ("del", pos, _) in order.

    Positions are 1-based into the current working string.  A position
    out of range, a swap of two equal symbols or an unknown operation
    raises ReplayError.
    """
    work = list(source)
    for idx, (kind, pos, symbol) in enumerate(ops):
        if kind == "ins":
            if not 1 <= pos <= len(work) + 1:
                raise ReplayError(f"op {idx}: insert at {pos} outside [1..{len(work) + 1}]")
            work.insert(pos - 1, symbol)
        elif kind == "swap":
            if not 1 <= pos < len(work):
                raise ReplayError(f"op {idx}: swap at {pos} outside [1..{len(work) - 1}]")
            left, right = work[pos - 1], work[pos]
            if left == right:
                raise ReplayError(f"op {idx}: swap at {pos} exchanges equal symbols")
            work[pos - 1], work[pos] = right, left
        elif kind == "del":
            if not 1 <= pos <= len(work):
                raise ReplayError(f"op {idx}: delete at {pos} outside [1..{len(work)}]")
            del work[pos - 1]
        else:
            raise ReplayError(f"op {idx}: unknown operation {kind!r}")
    return work
