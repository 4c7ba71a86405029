"""Dense alphabet coding plus rank/select/count queries over strings.

An index counts each code's occurrences when it is built.  Its table of
per-code occurrence positions is built on first read and cached, so it
costs O(n) space, for any alphabet size, only for a string whose table
is read: a solve never reads the target's, and reads the source's only
for a source with rare codes whose scans run long; the sweep prices its
matches from a table of its own.  ``select`` reads the table in O(1); ``rank`` and
``count`` bisect it in O(log n).

Symbol codes live in [1..d] and string positions are 1-based everywhere.
Maps and indexes are immutable after construction, apart from their
caches, and safe to share between threads and computations: two threads
that read a table for the first time may each build an equal table, and
one of them is kept.

ASCII ``str`` and ``bytes`` are coded and counted in C once a string, or
for the alphabet a pair, holds at least ``_C_PATH`` symbols.  Each symbol
then fits one byte.  ``build_alphabet`` finds each string's symbols with
one memchr-fast ``find`` per possible symbol, 128 or 256, and orders them
by first occurrence.  ``AlphabetMap.encode`` codes the string with
``translate`` through a 256-byte table cached on the map, while every
code fits a byte (d < 256); the table follows the select table's sharing
rule.  An index counts such coded bytes, for d up to ``_COUNTED``, with
one ``bytes.count`` for each of the first d - 1 codes, and gives the
last code what they leave of the length.  Any other input keeps the
generic code, dictionary lookups and a pass over the codes, with the
same codes, counts and errors: a shorter string, a ``str`` with a
non-ASCII symbol, any other sequence, and for the alphabet a pair that
mixes ``str`` and ``bytes``.  ``IndexedString.symbols`` is a tuple of
ints either way: the zero-imbalance walk scans it with ``tuple.index``,
which ran about 15 % faster than on ``bytes`` symbols on a d = 4,
n = 10**5 pair.
"""

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import List, Optional, Sequence, Tuple, Union

MAX_ALPHABET = 1 << 16

# The C path's threshold in symbols, of a string for coding and of a pair
# for the alphabet.  The alphabet's 128 or 256 ``find`` calls, 20-80 us,
# cost as much as the generic build over about 1,000 (str) to 2,000
# (bytes) symbols, and the coding table's 256 lookups, about 17 us, as
# much as the generic coding of about 350 (CPython 3.11.7, x86-64)
_C_PATH = 1024
# The largest d whose coded bytes are counted by one ``bytes.count`` per
# code: at n = 10**5 the counts took 3.7 ms at d = 32 and broke even with
# one pass over the tuple, 5 to 6 ms, near d = 64
_COUNTED = 32
# per kind of string, the symbols it can hold in one byte each, by byte value
_CANDIDATES = {str: tuple(map(chr, range(128))), bytes: range(256)}
_NO_CODES = (0,) * 256


class UnknownSymbol(ValueError):
    """A string contains a symbol absent from the alphabet map."""


class AlphabetTooLarge(ValueError):
    """The inputs contain more distinct symbols than supported."""


class AlphabetMap:
    """Bijection between raw symbols and dense codes in [1..d]."""

    __slots__ = ("external_symbols", "d", "_codes", "_tables")

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
        # kind of string -> its coding table, built on first use
        self._tables = {}

    def code_of(self, symbol) -> int:
        try:
            return self._codes[symbol]
        except KeyError:
            raise UnknownSymbol(f"symbol {symbol!r} has no code") from None

    def raw_of(self, code: int):
        return self.external_symbols[_code_index(self, code)]

    def encode(self, raw: Sequence) -> Tuple[int, ...]:
        return tuple(self._coded(raw))

    def _coded(self, raw: Sequence) -> Union[bytes, Tuple[int, ...]]:
        # the codes of raw: bytes on the C path, else a tuple
        kind = _byte_kind(raw)
        if kind is None or len(raw) < _C_PATH or self.d > 255:
            try:
                return tuple(map(self._codes.__getitem__, raw))
            except KeyError as exc:
                raise UnknownSymbol(f"symbol {exc.args[0]!r} has no code") from None
        table = self._tables.get(kind)
        if table is None:
            # byte value -> its symbol's code, by the same lookups as above;
            # a value with no symbol, or past the kind's 128 or 256, gets
            # 0, which is no code
            table = self._tables[kind] = bytes(
                map(self._codes.get, _CANDIDATES[kind], _NO_CODES)).ljust(256, b"\0")
        coded = (raw.encode() if kind is str else raw).translate(table)
        if 0 in coded:
            raise UnknownSymbol(f"symbol {raw[coded.index(0)]!r} has no code")
        return coded

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
    kind = _byte_kind(target)
    if kind is None or _byte_kind(source) is not kind or len(source) + len(target) < _C_PATH:
        return AlphabetMap(tuple(dict.fromkeys(chain(target, source))))
    symbols = _first_occurrences(target, _CANDIDATES[kind])
    known = set(symbols)
    return AlphabetMap(symbols + _first_occurrences(
        source, [sym for sym in _CANDIDATES[kind] if sym not in known]))


def _byte_kind(raw: Sequence) -> Optional[type]:
    # the type of a string whose every symbol fits one byte, bytes or an
    # ASCII str; None for any other input
    kind = type(raw)
    return kind if kind is bytes or kind is str and raw.isascii() else None


def _first_occurrences(raw, candidates) -> List:
    # the candidates found in raw, in order of their first occurrence
    found = sorted((at, sym) for sym in candidates if (at := raw.find(sym)) >= 0)
    return [sym for _, sym in found]


class IndexedString:
    """A coded string with its per-code counts and occurrence positions.

    ``symbols`` holds the codes as a tuple, given as a tuple or as bytes;
    bytes over at most ``_COUNTED`` codes are counted in C, all but the
    last code, whose count is what the others leave of the length.
    ``per_symbol_count`` lists, per code, its number of occurrences.
    ``select_table`` lists, per code, the 1-based positions of its
    occurrences in order, so it holds n positions however large the
    alphabet is; it is built on first read and cached.
    """

    __slots__ = ("alphabet", "symbols", "per_symbol_count", "_select_table")

    def __init__(self, symbols: Union[bytes, Tuple[int, ...]], alphabet: AlphabetMap) -> None:
        self.alphabet = alphabet
        self.symbols = tuple(symbols)
        d = alphabet.d
        if type(symbols) is bytes and 0 < d <= _COUNTED:
            # every byte is a code, so the last code's count is what the
            # others leave of the length
            counts = list(map(symbols.count, range(1, d)))
            counts.append(len(symbols) - sum(counts))
            self.per_symbol_count = counts
        else:
            counts = [0] * (d + 1)
            for code in self.symbols:
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
    """Code a raw string and count its codes."""
    return IndexedString(alphabet._coded(raw), alphabet)


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
