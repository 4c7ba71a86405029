"""Dense alphabet coding plus rank/select/count queries over strings.

An index takes O(n) space for any alphabet size: it keeps, per code, the
sorted positions of that code's occurrences.  ``select`` reads them in
O(1); ``rank`` and ``count`` bisect them in O(log n).

Symbol codes live in [1..d] and string positions are 1-based everywhere.
Maps and indexes are immutable after construction and safe to share
between threads and computations.
"""

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import List, Optional, Sequence, Tuple

MAX_ALPHABET = 1 << 16


class UnknownSymbol(ValueError):
    """A string contains a symbol absent from the alphabet map."""


class AlphabetTooLarge(ValueError):
    """The inputs contain more distinct symbols than supported."""


class AlphabetMap:
    """Bijection between raw symbols and dense codes in [1..d]."""

    __slots__ = ("external_symbols", "d", "_codes")

    def __init__(self, external_symbols: Sequence) -> None:
        self.external_symbols = tuple(external_symbols)
        self.d = len(self.external_symbols)
        if self.d > MAX_ALPHABET:
            raise AlphabetTooLarge(
                f"{self.d} distinct symbols exceed the {MAX_ALPHABET} limit"
            )
        self._codes = {sym: code for code, sym in enumerate(self.external_symbols, 1)}
        if len(self._codes) != self.d:
            raise ValueError("alphabet symbols must be distinct")

    def code_of(self, symbol) -> int:
        try:
            return self._codes[symbol]
        except KeyError:
            raise UnknownSymbol(f"symbol {symbol!r} has no code") from None

    def raw_of(self, code: int):
        if not 1 <= code <= self.d:
            raise ValueError(f"code {code} outside [1..{self.d}]")
        return self.external_symbols[code - 1]

    def encode(self, raw: Sequence) -> Tuple[int, ...]:
        try:
            return tuple(map(self._codes.__getitem__, raw))
        except KeyError as exc:
            raise UnknownSymbol(f"symbol {exc.args[0]!r} has no code") from None

    def __len__(self) -> int:
        return self.d

    def __eq__(self, other) -> bool:
        # maps over the same symbols in the same order code alike
        if not isinstance(other, AlphabetMap):
            return NotImplemented
        return self is other or self.external_symbols == other.external_symbols

    def __hash__(self) -> int:
        return hash(self.external_symbols)

    def __repr__(self) -> str:
        return f"AlphabetMap(d={self.d})"


def build_alphabet(source: Sequence, target: Sequence) -> AlphabetMap:
    """Collect the distinct symbols of both strings into dense codes.

    Codes follow first-occurrence order scanning the target then the
    source, so a given input pair always produces the same coding.
    """
    return AlphabetMap(tuple(dict.fromkeys(chain(target, source))))


class IndexedString:
    """A coded string with its per-code occurrence positions.

    ``select_table`` lists, per code, the 1-based positions of its
    occurrences in order, so the whole index holds n positions however
    large the alphabet is.
    """

    __slots__ = ("alphabet", "symbols", "select_table", "per_symbol_count")

    def __init__(self, symbols: Tuple[int, ...], alphabet: AlphabetMap) -> None:
        self.alphabet = alphabet
        self.symbols = symbols
        positions: List[List[int]] = [[] for _ in range(alphabet.d)]
        for pos, code in enumerate(symbols, 1):
            positions[code - 1].append(pos)
        self.select_table = positions
        self.per_symbol_count = [len(occ) for occ in positions]

    def __len__(self) -> int:
        return len(self.symbols)

    def code_at(self, position: int) -> int:
        """Symbol code at a 1-based position."""
        if not 1 <= position <= len(self.symbols):
            raise ValueError(f"position {position} outside [1..{len(self.symbols)}]")
        return self.symbols[position - 1]

    def __repr__(self) -> str:
        return f"IndexedString(len={len(self.symbols)}, d={self.alphabet.d})"


def index_string(raw: Sequence, alphabet: AlphabetMap) -> IndexedString:
    """Code a raw string and precompute its query tables."""
    return IndexedString(alphabet.encode(raw), alphabet)


def rank(indexed: IndexedString, i: int, code: int) -> int:
    """Number of occurrences of ``code`` in the length-``i`` prefix."""
    if not 0 <= i <= len(indexed.symbols):
        raise ValueError(f"prefix length {i} outside [0..{len(indexed.symbols)}]")
    if not 1 <= code <= indexed.alphabet.d:
        raise ValueError(f"code {code} outside [1..{indexed.alphabet.d}]")
    return bisect_right(indexed.select_table[code - 1], i)


def select(indexed: IndexedString, k: int, code: int) -> Optional[int]:
    """Position of the k-th occurrence of ``code``, or None if there is none."""
    if k < 1:
        raise ValueError(f"occurrence index {k} must be at least 1")
    if not 1 <= code <= indexed.alphabet.d:
        raise ValueError(f"code {code} outside [1..{indexed.alphabet.d}]")
    occurrences = indexed.select_table[code - 1]
    if k > len(occurrences):
        return None
    return occurrences[k - 1]


def count(indexed: IndexedString, i: int, code: int) -> int:
    """Number of occurrences of ``code`` in the suffix starting at position ``i``."""
    if not 1 <= i <= len(indexed.symbols) + 1:
        raise ValueError(f"suffix start {i} outside [1..{len(indexed.symbols) + 1}]")
    if not 1 <= code <= indexed.alphabet.d:
        raise ValueError(f"code {code} outside [1..{indexed.alphabet.d}]")
    occurrences = indexed.select_table[code - 1]
    return len(occurrences) - bisect_left(occurrences, i)
