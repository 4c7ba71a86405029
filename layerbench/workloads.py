"""The benchmark's workloads: fixed generator specs, seeded relabeling, CLI argv.

Each workload is a fixed list of generator specs, so the set of pair
shapes, and with it every pair the engine gets wrong, is the same in
every run.  ``--seed`` draws a bijective relabeling of each pair's
symbols.  The engine codes symbols by first occurrence, so a relabeled
pair takes exactly the same computation: the inputs change with the
seed while the work, and the count of over-long answers, does not.
"""

import random
import string
from dataclasses import dataclass
from typing import List, Tuple

# d = 4 at n = 1e5 with m = n and m > n, plus a 1000-symbol alphabet whose
# dense rank tables make indexing the largest layer.
CHAIN_LONG = (
    (4, 100_000, 100_000, "zero-g", 0),
    (4, 100_000, 120_000, "zero-g", 0),
    (1000, 10_000, 10_000, "zero-g", 0),
)

# m = 1.5 n; two consecutive generator seeds per (profile, d, n).
MEMO_DP = tuple(
    (d, n, n * 3 // 2, profile, seed)
    for profile, d, n in (("balanced-g", 3, 160), ("balanced-g", 4, 160),
                          ("max-g", 3, 120), ("max-g", 4, 100))
    for seed in (0, 1)
)

CLI_PAIRS = 1000
CLI_MAX_N = 30
CLI_WEIGHTS = ("2", "3/2")

_ASCII_POOL = string.ascii_letters + string.digits
# one block of CJK ideographs: alphabets too large for the ASCII pool
_WIDE_POOL = "".join(chr(code) for code in range(0x4E00, 0x4E00 + 4096))


def _cli_small() -> Tuple[Tuple[int, int, int, str, int], ...]:
    # n >= d keeps every profile feasible: generate_instance never refuses a spec
    rng = random.Random(2015)
    specs = []
    for k in range(CLI_PAIRS):
        d = 2 + k % 5
        profile = ("zero-g", "balanced-g", "max-g")[k // 5 % 3]
        n = rng.randint(d, CLI_MAX_N)
        m = rng.randint(n, n + n // 2)
        specs.append((d, n, m, profile, k))
    return tuple(specs)


CLI_SMALL = _cli_small()

SPECS = {"chain-long": CHAIN_LONG, "memo-dp": MEMO_DP, "cli-small": CLI_SMALL}


@dataclass(frozen=True)
class Pair:
    """One (source, target) input and, on cli-small, the flags its calls carry."""

    source: str
    target: str
    weighted: bool = False
    swap_delete: bool = False

    def argv(self, with_script: bool) -> List[str]:
        """`swapinsert dist` arguments for this pair."""
        if self.swap_delete:
            argv = ["dist", "--ops", "swap-delete", self.target, self.source, "--json"]
        else:
            argv = ["dist", self.source, self.target, "--json"]
        if self.weighted:
            argv += ["--c-ins", CLI_WEIGHTS[0], "--c-swap", CLI_WEIGHTS[1]]
        if with_script:
            argv.append("--script")
        return argv


def specs(api, workload: str) -> list:
    """The workload's generator specs, built with the package's GeneratorSpec."""
    return [api.GeneratorSpec(d=d, n=n, m=m, profile=profile, seed=seed)
            for d, n, m, profile, seed in SPECS[workload]]


def relabel(workload: str, raw: List[Tuple[str, str]], seed: int) -> List[Pair]:
    """Apply a seeded symbol bijection per pair and attach the CLI flags."""
    rng = random.Random(seed)
    pairs = []
    for k, (source, target) in enumerate(raw):
        symbols = sorted(set(target))
        pool = _ASCII_POOL if len(symbols) <= len(_ASCII_POOL) else _WIDE_POOL
        table = str.maketrans(dict(zip(symbols, rng.sample(pool, len(symbols)))))
        cli = workload == "cli-small"
        pairs.append(Pair(
            source.translate(table), target.translate(table),
            weighted=cli and k % 3 == 1,
            swap_delete=cli and k % 4 == 2,
        ))
    return pairs
