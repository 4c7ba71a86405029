import dataclasses
import random

import pytest

from swapinsert import Script, Swap, correction_distance, toolkit


def random_pair(rng: random.Random, max_d: int = 3, max_n: int = 6, max_m: int = 8):
    """A random (source, target) pair, feasible or not."""
    d = rng.randint(1, max_d)
    alphabet = "abcde"[:d]
    n = rng.randint(0, max_n)
    m = rng.randint(n, max_m)
    source = "".join(rng.choice(alphabet) for _ in range(n))
    target = "".join(rng.choice(alphabet) for _ in range(m))
    return source, target


def random_feasible_pair(rng: random.Random, max_d: int = 3, max_n: int = 6,
                         max_m: int = 8):
    """A random feasible pair: the source is a shuffled sub-multiset of the target."""
    d = rng.randint(1, max_d)
    alphabet = "abcde"[:d]
    n = rng.randint(0, max_n)
    m = rng.randint(n, max_m)
    target = list(rng.choice(alphabet) for _ in range(m))
    source = rng.sample(target, n)
    return "".join(source), "".join(target)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def unreplayable_script(monkeypatch):
    """The trust anchor's engine answers ab -> ab with a swap past the end."""
    def broken(source, target, with_script=False):
        result = correction_distance(source, target, with_script=with_script)
        if with_script and (source, target) == ("ab", "ab"):
            return dataclasses.replace(result, script=Script((Swap(5),)))
        return result
    monkeypatch.setattr(toolkit, "correction_distance", broken)
