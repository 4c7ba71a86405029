from fractions import Fraction
from math import inf, nan

import pytest

from swapinsert import Cost


def test_finite_value():
    assert Cost.finite(3).value == 3
    assert Cost.finite(0).is_finite


def test_negative_rejected():
    # nan equals nothing, itself included, and inf is no finite cost
    for value in (-1, -inf, nan, inf):
        with pytest.raises(ValueError):
            Cost(value)


def test_none_rejected():
    with pytest.raises(ValueError):
        Cost(None)


def test_unreachable_is_singleton_without_value():
    u = Cost.unreachable()
    assert u is Cost.unreachable()
    assert not u.is_finite
    with pytest.raises(ValueError):
        u.value


def test_addition_saturates():
    u = Cost.unreachable()
    assert (u + Cost.finite(5)) is u
    assert (Cost.finite(5) + u) is u
    assert (Cost.finite(2) + Cost.finite(3)) == Cost.finite(5)
    assert (Cost.finite(2) + 3) == Cost.finite(5)
    assert (4 + Cost.finite(2)) == Cost.finite(6)


def test_min_prefers_finite():
    u = Cost.unreachable()
    assert min(u, Cost.finite(7)) == Cost.finite(7)
    assert min(Cost.finite(7), u) == Cost.finite(7)
    assert min(u, u) is u
    assert min(Cost.finite(2), Cost.finite(9)) == Cost.finite(2)


def test_ordering():
    assert Cost.finite(1) < Cost.finite(2)
    assert Cost.finite(10**9) < Cost.unreachable()
    assert not Cost.unreachable() < Cost.finite(10**9)
    assert Cost.unreachable() <= Cost.unreachable()


def test_equality_and_hash():
    assert Cost.finite(4) == Cost.finite(4)
    assert Cost.finite(4) != Cost.finite(5)
    assert Cost.unreachable() == Cost.unreachable()
    assert hash(Cost.finite(4)) == hash(Cost.finite(4))
    assert Cost.finite(4) != 4


def test_fraction_costs():
    c = Cost.finite(Fraction(3, 2))
    assert c + Cost.finite(Fraction(1, 2)) == Cost.finite(2)
