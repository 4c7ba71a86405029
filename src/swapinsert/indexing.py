"""Dense alphabet coding plus rank/select/count queries over strings.

An index counts each code's occurrences when it is built.  Its table of
per-code occurrence positions is built on first read and cached, so it
costs O(n) space, for any alphabet size, only for a string whose table
is read: a solve never reads the target's, and reads the source's for a
pair with an imbalanced code or a source with a rare code.  ``select``
reads the table in O(1); ``rank`` and ``count`` bisect it in O(log n).

Symbol codes live in [1..d] and string positions are 1-based everywhere.
Maps and indexes are immutable after construction, apart from that
cache, and safe to share between threads and computations: two threads
that read a table for the first time may each build an equal table, and
one of them is kept.
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
        return self.external_symbols[_code_index(self, code)]

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


def _code_index(alphabet: AlphabetMap, code: int) -> int:
    # the one code-range check of raw_of, rank, select and count
    if not 1 <= code <= alphabet.d:
        raise ValueError(f"code {code} outside [1..{alphabet.d}]")
    return code - 1


def build_alphabet(source: Sequence, target: Sequence) -> AlphabetMap:
    """Collect the distinct symbols of both strings into dense codes.

    Codes follow first-occurrence order scanning the target then the
    source, so a given input pair always produces the same coding.
    """
    return AlphabetMap(tuple(dict.fromkeys(chain(target, source))))


class IndexedString:
    """A coded string with its per-code counts and occurrence positions.

    ``per_symbol_count`` lists, per code, its number of occurrences.
    ``select_table`` lists, per code, the 1-based positions of its
    occurrences in order, so it holds n positions however large the
    alphabet is; it is built on first read and cached.
    """

    __slots__ = ("alphabet", "symbols", "per_symbol_count", "_select_table")

    def __init__(self, symbols: Tuple[int, ...], alphabet: AlphabetMap) -> None:
        self.alphabet = alphabet
        self.symbols = symbols
        counts = [0] * (alphabet.d + 1)
        for code in symbols:
            counts[code] += 1
        self.per_symbol_count = counts[1:]
        self._select_table: Optional[List[List[int]]] = None

    @property
    def select_table(self) -> List[List[int]]:
        table = self._select_table
        if table is None:
            table = [[] for _ in range(self.alphabet.d)]
            for pos, code in enumerate(self.symbols, 1):
                table[code - 1].append(pos)
            self._select_table = table
        return table

    def __len__(self) -> int:
        return len(self.symbols)

    def __repr__(self) -> str:
        return f"IndexedString(len={len(self.symbols)}, d={self.alphabet.d})"


def index_string(raw: Sequence, alphabet: AlphabetMap) -> IndexedString:
    """Code a raw string and precompute its query tables."""
    return IndexedString(alphabet.encode(raw), alphabet)


def _occurrences(indexed: IndexedString, code: int) -> List[int]:
    return indexed.select_table[_code_index(indexed.alphabet, code)]


def rank(indexed: IndexedString, i: int, code: int) -> int:
    """Number of occurrences of ``code`` in the length-``i`` prefix."""
    if not 0 <= i <= len(indexed.symbols):
        raise ValueError(f"prefix length {i} outside [0..{len(indexed.symbols)}]")
    return bisect_right(_occurrences(indexed, code), i)


def select(indexed: IndexedString, k: int, code: int) -> Optional[int]:
    """Position of the k-th occurrence of ``code``, or None if there is none."""
    if k < 1:
        raise ValueError(f"occurrence index {k} must be at least 1")
    occurrences = _occurrences(indexed, code)
    if k > len(occurrences):
        return None
    return occurrences[k - 1]


def count(indexed: IndexedString, i: int, code: int) -> int:
    """Number of occurrences of ``code`` in the suffix starting at position ``i``."""
    if not 1 <= i <= len(indexed.symbols) + 1:
        raise ValueError(f"suffix start {i} outside [1..{len(indexed.symbols) + 1}]")
    occurrences = _occurrences(indexed, code)
    return len(occurrences) - bisect_left(occurrences, i)
