"""Seeded random generators feeding the sampling probes and suites.

Everything takes an explicit random.Random so that callers own the seed
and reports can promise reproducibility.
"""

from __future__ import annotations

import random

from .coloring import Coloring
from .errors import OutOfRange
from .poset import Poset, _is_id, _top_down

RELATION_PROBABILITY = 0.35     # of each pair i < j in random_poset


def random_poset(rng: random.Random, n: int) -> Poset:
    """Random n-element poset: ids are a topological order and each pair
    i < j is related with probability `RELATION_PROBABILITY`, then closed
    transitively. OutOfRange unless n is a plain int >= 0."""
    if not (_is_id(n) and n >= 0):
        raise OutOfRange(f"need an int n >= 0, got {n!r}")
    rows = [1 << x for x in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if rng.random() < RELATION_PROBABILITY:
                rows[i] |= rows[j]
    return Poset.from_leq(n, rows)


def random_weak_coloring(rng: random.Random, p: Poset, n: int) -> Coloring:
    """Uniform-ish weak coloring: sweep from the maximal elements down,
    drawing each color as a random submask of the meet of the colors
    already placed on the immediate successors."""
    colors = [0] * p.n
    for x in _top_down(p):
        ceiling = (1 << n) - 1
        for y in p.covers_up(x):
            ceiling &= colors[y]
        colors[x] = rng.getrandbits(n) & ceiling if n else 0
    return Coloring.of(p, n, colors)
