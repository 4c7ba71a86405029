"""Edit operations, correction scripts, and a replayer that audits them.

Operation positions always address the current working string, 1-based,
at the moment the operation is applied.
"""

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union


class InvalidPosition(ValueError):
    """An operation addressed a position outside the working string."""

    def __init__(self, op_index: int, message: str) -> None:
        super().__init__(f"op {op_index}: {message}")
        self.op_index = op_index


class EqualSymbolSwap(ValueError):
    """A swap touched two equal symbols; no minimal correction ever does."""

    def __init__(self, op_index: int, position: int) -> None:
        super().__init__(f"op {op_index}: swap at {position} exchanges equal symbols")
        self.op_index = op_index
        self.position = position


@dataclass(frozen=True, slots=True)
class Insert:
    """Insert ``symbol`` so that it lands at ``position``."""

    position: int
    symbol: object


@dataclass(frozen=True, slots=True)
class Swap:
    """Exchange the symbols at ``position`` and ``position + 1``."""

    position: int


@dataclass(frozen=True, slots=True)
class Delete:
    """Remove the symbol at ``position`` (appears in swap-delete scripts only)."""

    position: int


EditOp = Union[Insert, Swap, Delete]


@dataclass(frozen=True)
class Script:
    """An ordered list of edit operations; the unweighted cost is its length."""

    ops: Tuple[EditOp, ...]

    @property
    def total_cost(self) -> int:
        return len(self.ops)

    @property
    def insert_count(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, Insert))

    @property
    def swap_count(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, Swap))

    @property
    def delete_count(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, Delete))

    def __len__(self) -> int:
        return len(self.ops)


def apply_script(source: Sequence, script: Script):
    """Replay ``script`` on ``source`` and return the corrected string.

    str and bytes inputs come back as the same type; any other sequence
    comes back as a tuple.  Raises InvalidPosition or EqualSymbolSwap as
    soon as an operation is inapplicable.
    """
    work = list(source)
    for idx, op in enumerate(script.ops):
        if isinstance(op, Insert):
            if not 1 <= op.position <= len(work) + 1:
                raise InvalidPosition(
                    idx, f"insert at {op.position} outside [1..{len(work) + 1}]"
                )
            work.insert(op.position - 1, op.symbol)
        elif isinstance(op, Swap):
            if not 1 <= op.position <= len(work) - 1:
                raise InvalidPosition(
                    idx, f"swap at {op.position} outside [1..{len(work) - 1}]"
                )
            left, right = work[op.position - 1], work[op.position]
            if left == right:
                raise EqualSymbolSwap(idx, op.position)
            work[op.position - 1], work[op.position] = right, left
        elif isinstance(op, Delete):
            if not 1 <= op.position <= len(work):
                raise InvalidPosition(
                    idx, f"delete at {op.position} outside [1..{len(work)}]"
                )
            del work[op.position - 1]
        else:
            raise TypeError(f"unknown edit operation {op!r}")
    if isinstance(source, str):
        return "".join(work)
    if isinstance(source, (bytes, bytearray)):
        return bytes(work)
    return tuple(work)


@dataclass(frozen=True)
class Verdict:
    """Outcome of auditing a script against a source/target pair."""

    valid: bool
    cost: int
    insert_count: int
    swap_count: int
    delete_count: int = 0
    reason: Optional[str] = None


def verify_script(source: Sequence, target: Sequence, script: Script) -> Verdict:
    """Check that replaying ``script`` on ``source`` produces ``target``.

    Inapplicable operations, including any swap of two equal symbols,
    make the verdict invalid; the reason says why.  A valid verdict does
    not imply minimality: compare ``cost`` against a computed distance
    for that.
    """
    cost = script.total_cost
    inserts = script.insert_count
    swaps = script.swap_count
    deletes = script.delete_count
    try:
        result = apply_script(source, script)
    except (InvalidPosition, EqualSymbolSwap) as exc:
        return Verdict(False, cost, inserts, swaps, deletes, reason=str(exc))
    if list(result) != list(target):
        return Verdict(False, cost, inserts, swaps, deletes,
                       reason="result does not match target")
    return Verdict(True, cost, inserts, swaps, deletes)
