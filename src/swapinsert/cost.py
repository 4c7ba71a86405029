"""Distance values with an explicit unreachable variant.

Keeping unreachable out of the integers means saturating arithmetic can
never silently leak a sentinel into a real cost.
"""

from functools import total_ordering
from math import inf


@total_ordering
class Cost:
    """A non-negative correction cost, or the distinguished unreachable value.

    Addition saturates at unreachable, and the ordering treats unreachable
    as larger than every finite cost, so ``min`` and ``+`` behave like
    extended arithmetic.
    """

    __slots__ = ("_value",)

    def __init__(self, value):
        if value is None:
            raise ValueError("use Cost.unreachable() for the unreachable value")
        # also rejects nan, which equals nothing, and inf, which is not finite
        if not 0 <= value < inf:
            raise ValueError("cost must be non-negative and finite")
        self._value = value

    @classmethod
    def finite(cls, value):
        return cls(value)

    @classmethod
    def unreachable(cls):
        return _UNREACHABLE

    @property
    def is_finite(self):
        return self._value is not None

    @property
    def value(self):
        if self._value is None:
            raise ValueError("unreachable cost has no finite value")
        return self._value

    def __add__(self, other):
        rhs = other._value if isinstance(other, Cost) else other
        if self._value is None or rhs is None:
            return _UNREACHABLE
        return Cost(self._value + rhs)

    __radd__ = __add__

    def __eq__(self, other):
        if isinstance(other, Cost):
            return self._value == other._value
        return NotImplemented

    def __hash__(self):
        return hash(self._value)

    def __lt__(self, other):
        if not isinstance(other, Cost):
            return NotImplemented
        if self._value is None:
            return False
        if other._value is None:
            return True
        return self._value < other._value

    def __repr__(self):
        if self._value is None:
            return "Cost.unreachable()"
        return f"Cost({self._value!r})"


def _make_unreachable():
    obj = Cost.__new__(Cost)
    obj._value = None
    return obj


_UNREACHABLE = _make_unreachable()
