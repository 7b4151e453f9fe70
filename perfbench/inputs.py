"""Seeded inputs for the benchmark workloads.

Everything here depends only on the seed and on the recorded input lists
in data/inputs.json, never on the program under test, so one seed always
yields the same requests.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent

CATALOG_P_MAX = 2000
READS_PER_ROUND = 16      # loads per build: read time of the same order as the build
READ_BATCH = 100          # area queries and perimeter queries per load

# find_cycles bounds: more distinct values than the 8 entries the
# _cycle_core cache holds.
CYCLE_BOUNDS = tuple(range(1000, 5000, 250))
SMOOTH_PRIMES = (2, 3, 5, 7, 11, 13)
WORD_LENGTHS = tuple(range(2, 23))

# One block of the query-mix stream. Every block has this composition; the
# seed picks the arguments and the order. Arguments are drawn by strata
# (one log-uniform area per slice of [1, 1e13], one perimeter per slice of
# [4, 3000], ...) and word lengths and cycle bounds are dealt from decks,
# so the cost of a run depends little on the seed, while the areas still
# spread over both cost axes of the area query: sqrt(area) and the
# divisor count.
BLOCK = {
    "area": 18,        # log-uniform in [1, 1e13]
    "smooth_area": 3,  # products of primes <= 13, many divisors
    "chain_area": 4,   # areas equal to a catalog perimeter
    "perimeter": 6,    # even p in [4, 3000]
    "trace": 5,        # trace_chain(t, PREDECESSOR, 6)
    "cycles": 2,       # find_cycles(n, p_max) twice at one new bound
    "words": 2,        # enumerate_words(n), n in 2..22
}
BLOCK_SIZE = sum(BLOCK.values())


def load_inputs() -> dict:
    with open(HERE / "data" / "inputs.json", encoding="utf-8") as fh:
        return json.load(fh)


def _stratum(rng: random.Random, k: int, strata: int, lo: float, hi: float) -> float:
    width = (hi - lo) / strata
    return lo + width * (k + rng.random())


def _smooth(rng: random.Random, log10_limit: float) -> int:
    n = 1
    while True:
        p = rng.choice(SMOOTH_PRIMES)
        if n * p > 10 ** log10_limit:
            return n
        n *= p


class _Deck:
    """Deals values in shuffled rounds.

    With halves=True each new round reshuffles the first and the second
    half of the previous round separately. Between two deals of a value at
    least half the values are dealt, so with 16 cycle bounds a dealt bound
    is never still in the 8-entry _cycle_core cache: every dealt bound is a
    cold build, whatever the seed.
    """

    def __init__(self, rng: random.Random, values, halves: bool = False) -> None:
        self.rng = rng
        self.order = list(values)
        rng.shuffle(self.order)
        self.halves = halves
        self.pending = list(self.order)

    def deal(self):
        if not self.pending:
            if self.halves:
                half = len(self.order) // 2
                first, second = self.order[:half], self.order[half:]
                self.rng.shuffle(first)
                self.rng.shuffle(second)
                self.order = first + second
            else:
                self.rng.shuffle(self.order)
            self.pending = list(self.order)
        return self.pending.pop(0)


def query_blocks(seed: int, n_blocks: int, inputs: dict) -> list[list[list]]:
    """The first n_blocks blocks of the query-mix stream for a seed.

    A request is [op, arg] with op one of area, perimeter, trace, cycles
    and words. The two cycle queries of a block share a freshly dealt
    bound, so one builds a cycle core and the other hits the cache.
    """
    rng = random.Random(seed)
    perimeters = inputs["catalog_perimeters"]
    starts = inputs["chain_starts"]
    words = _Deck(rng, WORD_LENGTHS)
    bounds = _Deck(rng, CYCLE_BOUNDS, halves=True)
    log_hi = math.log(1e13)
    blocks = []
    for _ in range(n_blocks):
        block = []
        n = BLOCK["area"]
        for k in range(n):
            block.append(["area", max(1, int(math.exp(_stratum(rng, k, n, 0.0, log_hi))))])
        n = BLOCK["smooth_area"]
        for k in range(n):
            block.append(["area", _smooth(rng, _stratum(rng, k, n, 2.0, 8.0))])
        for _ in range(BLOCK["chain_area"]):
            block.append(["area", rng.choice(perimeters)])
        n = BLOCK["perimeter"]
        for k in range(n):
            block.append(["perimeter", 2 * int(_stratum(rng, k, n, 2, 1501))])
        for _ in range(BLOCK["trace"]):
            block.append(["trace", rng.choice(starts)])
        bound = bounds.deal()
        for _ in range(BLOCK["cycles"]):
            block.append(["cycles", [rng.randint(2, 8), bound]])
        for _ in range(BLOCK["words"]):
            block.append(["words", words.deal()])
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def read_requests(seed: int, path: str, count: int) -> list[list]:
    """count catalog reads, each a load of path plus a seeded query batch.

    Perimeters run past the built bound so the completeness flag is
    exercised both ways. Areas are mostly multiples of 6 (every Heronian
    area is one), with a few tiny ones whose answers are complete.
    """
    rng = random.Random(seed)
    reads = []
    for _ in range(count):
        perimeters = [rng.randint(1, 2400) for _ in range(READ_BATCH)]
        areas = [
            rng.randint(1, 40) if rng.random() < 0.1 else 6 * rng.randint(1, 8000)
            for _ in range(READ_BATCH)
        ]
        reads.append(["read", {"path": path, "perimeters": perimeters, "areas": areas}])
    return reads
