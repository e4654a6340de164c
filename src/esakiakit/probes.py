"""Desk-scale probes: censuses of colorable quotients, the size-bound
arithmetic, the excluded-middle cardinality probe, and exact enumeration
of small posets up to isomorphism.

Negative or boundedness observations never rest silently on truncated
search: every report says whether its sweep was exhaustive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .algebra import parse_equation, upset_algebra, validates
from .coloring import (Coloring, enumerate_weak_colorings, is_coloring,
                       is_n_colorable, search_coloring)
from .errors import (BudgetExceeded, OutOfRange, Overflow,
                     PropertyFalsified)
from .poset import Poset, _is_id
from .randgen import random_weak_coloring
from .reduction import EPartition, coarsest_color_respecting, quotient
from .spaces import level_size

INT_CAP = 2**63 - 1
EXHAUSTIVE_LIMIT = 12
DEFAULT_SAMPLE = 100
STRICT_SEARCH_BUDGET = 200_000
# Weak colorings an exhaustive census may examine when given no budget.
EXHAUSTIVE_CENSUS_LIMIT = 100_000


# ----- poset enumeration up to isomorphism ----------------------------------


@lru_cache(maxsize=None, typed=True)
def enumerate_posets(n: int) -> tuple[Poset, ...]:
    """All posets with exactly n elements, one per isomorphism class.

    Each class representative is grown by planting a new maximal element
    over every downset of every (n-1)-element representative, then
    deduplicated by canonical form. OutOfRange unless n is a plain int
    >= 0; the cache is typed, so True never reads the entry of 1.
    """
    if type(n) is not int or n < 0:
        raise OutOfRange(f"need an int n >= 0, got {n!r}")
    if n == 0:
        return (Poset.from_covers(0, []),)
    found: dict = {}
    for q in enumerate_posets(n - 1):
        rows = [q.up_mask(x) for x in range(q.n)]
        for d in q.downsets():
            new_rows = [rows[x] | (1 << q.n if (d >> x) & 1 else 0)
                        for x in range(q.n)]
            new_rows.append(1 << q.n)
            p = Poset.from_leq(n, new_rows)
            found.setdefault(p.canonical_form(), p)
    return tuple(found[k] for k in sorted(found, key=repr))


def enumerate_rooted_posets(max_n: int) -> tuple[Poset, ...]:
    """All rooted posets with 1..max_n elements, one per isomorphism
    class: a rooted poset is its root-complement with a bottom added, so
    the classes are in bijection with arbitrary posets one size down.
    OutOfRange unless max_n is a plain int >= 0."""
    if type(max_n) is not int or max_n < 0:
        raise OutOfRange(f"need an int max_n >= 0, got {max_n!r}")
    out = []
    for n in range(max_n):
        for q in enumerate_posets(n):
            out.append(q.with_bottom())
    return tuple(out)


# ----- census of colorable quotients -----------------------------------------


@dataclass(frozen=True)
class CensusEntry:
    """One quotient-isomorphism class: a representative partition, its
    quotient, and a coloring witnessing that the quotient is colorable."""

    partition: EPartition
    quotient: Poset
    witness: Coloring


@dataclass
class QuotientCensus:
    source: Poset
    n: int
    entries: tuple[CensusEntry, ...]
    partitions: tuple[EPartition, ...]
    record: dict


def quotient_census(p: Poset, n: int, budget: int | None = None, *,
                    seed: int = 0) -> QuotientCensus:
    """Collect the quotients of p that admit a coloring of order n.

    Partitions are reached as coarsest_color_respecting over weak
    colorings: exhaustively when p has at most 12 elements (cut short if
    the budget runs out, and marked incomplete; with no budget, BudgetExceeded
    past EXHAUSTIVE_CENSUS_LIMIT colorings), otherwise over a seeded
    sample of `budget` colorings preceded by the least strict coloring
    when one exists. Entries are deduplicated by quotient isomorphism;
    all distinct partitions seen are kept alongside. OutOfRange for a
    budget that is not a plain int.
    """
    if budget is not None and not _is_id(budget):
        raise OutOfRange(f"census budget {budget!r} is not an int")
    if budget is not None and budget <= 0:
        raise BudgetExceeded("census budget must be positive")
    exhaustive = p.n <= EXHAUSTIVE_LIMIT
    limit = budget if budget is not None else EXHAUSTIVE_CENSUS_LIMIT
    complete = True
    examined = 0
    if exhaustive:
        mode = "exhaustive"
        source = enumerate_weak_colorings(p, n)
    else:
        mode = "sampled"
        complete = False
        rng = random.Random(seed)
        size = budget if budget is not None else DEFAULT_SAMPLE

        def sampler():
            try:
                strict = search_coloring(p, n, STRICT_SEARCH_BUDGET)
            except BudgetExceeded:
                strict = None
            if strict is not None:
                yield strict
            for _ in range(size):
                yield random_weak_coloring(rng, p, n)

        source = sampler()

    partitions: dict[EPartition, None] = {}
    entries: dict = {}
    for f in source:
        if exhaustive and examined >= limit:
            if budget is None:
                raise BudgetExceeded(
                    f"exhaustive census spent {examined}/{limit} weak "
                    "colorings; pass a budget for a partial sweep")
            complete = False
            break
        examined += 1
        part = coarsest_color_respecting(p, f)
        if part in partitions:
            continue
        partitions[part] = None
        q, proj = quotient(p, part)
        wcolors = [0] * q.n
        for x in range(p.n):
            wcolors[proj[x]] = f.colors[x]
        witness = Coloring.of(q, n, wcolors)
        if not is_coloring(q, witness):
            raise PropertyFalsified(
                "coarsest color-respecting quotient rejected its own coloring")
        entries.setdefault(q.canonical_form(), CensusEntry(part, q, witness))
    ordered = sorted(entries.values(),
                     key=lambda e: (e.quotient.n, repr(e.quotient.canonical_form())))
    record = {"mode": mode, "examined": examined, "budget": budget,
              "seed": seed if mode == "sampled" else None,
              "complete": complete}
    return QuotientCensus(p, n, tuple(ordered),
                          tuple(sorted(partitions, key=lambda r: r.blocks)),
                          record)


# ----- bound arithmetic -------------------------------------------------------


def size_bound(n: int, k: int, t: int) -> int:
    """k + 1 + (3 + t) * (2^(n+3) + 2), the cardinality ceiling that the
    collapse argument contradicts. Overflow-checked against 2^63 - 1;
    OutOfRange unless n, k and t are plain ints >= 0."""
    if not all(_is_id(v) and v >= 0 for v in (n, k, t)):
        raise OutOfRange("size_bound needs nonnegative int arguments")
    value = k + 1 + (3 + t) * level_size(n)
    if value > INT_CAP:
        raise Overflow(f"{value} exceeds {INT_CAP}")
    return value


def size_bound_by_levels(n: int, k: int, t: int) -> int:
    """The same ceiling assembled the long way: k plus one plus the sizes
    of levels q .. q+t+2, one addition per level."""
    if not all(_is_id(v) and v >= 0 for v in (n, k, t)):
        raise OutOfRange("size_bound needs nonnegative int arguments")
    if k + 1 + (3 + t) * level_size(n) > INT_CAP:
        raise Overflow("sum exceeds the checked integer range")
    total = k + 1
    for _ in range(t + 3):
        total += level_size(n)
    return total


# ----- excluded-middle probe --------------------------------------------------


KC_MAX_SIZE = 7
_WEM = parse_equation("~x0 | ~~x0 = 1")


@dataclass(frozen=True)
class KcReport:
    max_size: int
    maximum: int
    entries: tuple[tuple[int, int], ...]   # (poset size, algebra size)


def kc_probe(max_size: int) -> KcReport:
    """Largest upset algebra among rooted posets of at most max_size
    elements that validates the weak excluded middle and is generated by
    a single element. Rootedness makes every candidate subdirectly
    irreducible; one-generation is read off a coloring of order 1."""
    if not 1 <= max_size <= KC_MAX_SIZE:
        raise OutOfRange(f"max_size must be within 1..{KC_MAX_SIZE}")
    entries = []
    for p in enumerate_rooted_posets(max_size):
        a = upset_algebra(p)
        ok, _ = validates(a, *_WEM)
        if ok and is_n_colorable(p, 1):
            entries.append((p.n, len(a)))
    entries.sort()
    return KcReport(max_size, max(size for _, size in entries), tuple(entries))
