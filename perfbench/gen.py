"""Seeded inputs for the benchmark workloads.

The generator is the benchmark's own: it never calls the library's
`randgen`, `enumerate_posets` or census sampler, so a change to the
library cannot change what a workload feeds it. Inputs are plain data
(sizes, pair lists, color lists); the library only ever sees them as
arguments. The structured spaces are the one exception: their cover lists
come from the library's generators, and the input fingerprint includes
them, so a change to those generators is caught before anything runs.
"""

from __future__ import annotations

import hashlib
import json
import random

DENSITY = 0.35


def random_order(rng: random.Random, n: int, density: float = DENSITY) -> list[tuple[int, int]]:
    """Random n-element order: each pair i < j is related with probability
    `density`, then closed transitively. Returns every strict pair (x, y),
    x below y; the ids are a linear extension."""
    rel = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rel[i][j] = rng.random() < density
    for k in range(n):
        for i in range(k):
            if rel[i][k]:
                for j in range(k + 1, n):
                    if rel[k][j]:
                        rel[i][j] = True
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rel[i][j]]


def relabel(rng: random.Random, n: int, pairs) -> list[tuple[int, int]]:
    """The same order with its ids permuted at random."""
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((perm[x], perm[y]) for x, y in pairs)


def cover_lists(n: int, pairs) -> list[list[int]]:
    """Immediate successors of each element of a transitively closed
    relation given as strict pairs."""
    above = [set() for _ in range(n)]
    for x, y in pairs:
        above[x].add(y)
    return [sorted(y for y in above[x]
                   if not any(y in above[z] for z in above[x]))
            for x in range(n)]


def top_down(n: int, ups: list[list[int]]) -> list[int]:
    """Elements ordered so that each comes after all its covers."""
    pending = [len(u) for u in ups]
    below = [[] for _ in range(n)]
    for x in range(n):
        for y in ups[x]:
            below[y].append(x)
    ready = [x for x in range(n) if pending[x] == 0]
    out = []
    while ready:
        y = ready.pop()
        out.append(y)
        for x in below[y]:
            pending[x] -= 1
            if pending[x] == 0:
                ready.append(x)
    if len(out) != n:
        raise ValueError("cover relation has a cycle")
    return out


def weak_coloring(rng: random.Random, n: int, ups: list[list[int]], bits: int) -> list[int]:
    """Top-down weak coloring: each color is a random submask of the meet
    of the colors of its covers."""
    full = (1 << bits) - 1
    colors = [0] * n
    for x in top_down(n, ups):
        ceiling = full
        for y in ups[x]:
            ceiling &= colors[y]
        colors[x] = rng.getrandbits(bits) & ceiling if bits else 0
    return colors


def fingerprint(data) -> str:
    """sha256 of the canonical JSON form of `data`."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
