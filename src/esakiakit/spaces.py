"""Generators for the two structured poset families used by the toolkit.

Both families are graded: every element lives on a level, every cover
either stays on its level or climbs to the previous one, and level 0
holds the maximal elements. Truncating at a maximum level therefore
yields an upward-closed subposet, which is exactly the finite shape the
rest of the toolkit consumes.

The first family ("abomination") has six kinds of elements per level
(a, b, c, d, ea, eb); two of its per-level hooks (which c's sit above a
and b) rotate through a fixed enumeration of index triples. The second
family ("ladder") has one kind, y, with y(m, i) below y(m-1, j) exactly
when i != j.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass

from .coloring import Coloring
from .errors import InvalidId, OutOfRange
from .poset import Poset, _is_id

KIND_ORDER = ("a", "b", "c", "d", "ea", "eb")
_LABEL_RE = re.compile(r"^(ea|eb|a|b|c|d|y)(\d+)(?:_(\d+))?$")


@dataclass(frozen=True)
class SpaceLabel:
    """Symbolic name of a generated element: kind, level, optional index.
    InvalidId unless the level and any index are plain ints >= 0."""

    kind: str
    level: int
    index: int | None = None

    def __post_init__(self):
        if self.kind not in KIND_ORDER + ("y",):
            raise InvalidId(f"unknown kind {self.kind!r}")
        if (self.index is None) != (self.kind in ("a", "b")):
            raise InvalidId(f"kind {self.kind!r} and index {self.index!r} disagree")
        if not (_is_id(self.level) and self.level >= 0) or not (
                self.index is None or _is_id(self.index) and self.index >= 0):
            raise InvalidId(f"level {self.level!r} or index {self.index!r} "
                            "is not an int >= 0")

    def __str__(self) -> str:
        if self.index is None:
            return f"{self.kind}{self.level}"
        return f"{self.kind}{self.level}_{self.index}"

    @staticmethod
    def parse(text: str) -> "SpaceLabel":
        """The label `str` prints as `text`; InvalidId for anything else.
        Parses of strings are cached: the result is a frozen value, and a
        label that raises is never cached, so it raises again each time."""
        if not isinstance(text, str):
            raise InvalidId(f"bad label {text!r}")
        return _parse_label(text)


@functools.lru_cache(maxsize=None)
def _parse_label(text: str) -> SpaceLabel:
    m = _LABEL_RE.match(text)
    if not m:
        raise InvalidId(f"bad label {text!r}")
    kind, level, index = m.group(1), int(m.group(2)), m.group(3)
    return SpaceLabel(kind, level, None if index is None else int(index))


@dataclass(frozen=True)
class TripleTable:
    """All ordered triples of pairwise-distinct indices below the width."""

    n: int
    triples: tuple[tuple[int, int, int], ...]

    def assigned(self, m: int) -> tuple[int, int, int]:
        """Triple attached to level m (cyclic through the table)."""
        return self.triples[m % len(self.triples)]


def triple_table(n: int) -> TripleTable:
    w = width_of(n)
    if n < 2:
        raise OutOfRange("triple table needs n >= 2")
    return TripleTable(n, tuple(itertools.permutations(range(w), 3)))


def width_of(n: int) -> int:
    """Indices per kind and level: 2^(n+1). OutOfRange unless n is a plain
    int >= 0; the rest of the id arithmetic goes through it."""
    if not (_is_id(n) and n >= 0):
        raise OutOfRange(f"need an int n >= 0, got {n!r}")
    return 1 << (n + 1)


def level_size(n: int) -> int:
    return 4 * width_of(n) + 2


def abomination_cover_count(n: int, M: int) -> int:
    """Covers of abomination_truncation(n, M): 4 + 3w(w-1) + 2w per level,
    plus w(w-1) + w^2 from each level m >= 1 into level m-1. OutOfRange
    unless n and M are plain ints >= 0."""
    w = width_of(n)
    if not (_is_id(M) and M >= 0):
        raise OutOfRange(f"need an int M >= 0, got {M!r}")
    return (M + 1) * (4 + 3 * w * (w - 1) + 2 * w) + M * (w * (w - 1) + w * w)


def level_members(n: int, p: int) -> list[SpaceLabel]:
    w = width_of(n)
    out = [SpaceLabel("a", p), SpaceLabel("b", p)]
    for kind in ("c", "d", "ea", "eb"):
        out.extend(SpaceLabel(kind, p, k) for k in range(w))
    return out


def abomination_id(n: int, label: SpaceLabel) -> int:
    """Deterministic element id inside any truncation of width n.
    InvalidId for anything but a SpaceLabel of one of the six kinds."""
    w = width_of(n)
    if not (isinstance(label, SpaceLabel) and label.kind in KIND_ORDER):
        raise InvalidId(f"not an abomination label: {label!r}")
    base = label.level * level_size(n)
    kind_pos = KIND_ORDER.index(label.kind)
    if label.index is None:
        return base + kind_pos
    if label.index >= w:
        raise OutOfRange(f"index {label.index} exceeds width {w}")
    return base + 2 + (kind_pos - 2) * w + label.index


def abomination_truncation(n: int, M: int) -> Poset:
    """Levels 0..M of the abomination; level 0 carries the maximals.

    Covers, with (k1, k2, k3) the triple assigned to the element's level
    and indices ranging over 0..2^(n+1)-1:
      a(m)     < c(m, k1), c(m, k2)
      b(m)     < c(m, k1), c(m, k3)
      c(m, k)  < ea(m-1, j) for j != k, and eb(m-1, i) for every i
      d(m, k)  < c(m, j) for j != k
      ea(m, k) < d(m, j) for j != k, and a(m)
      eb(m, k) < d(m, j) for j != k, and b(m)
    The bottom point of the infinite space is deliberately absent.
    OutOfRange unless n and M are plain ints (not bools or floats) with
    n >= 2 and M >= 0.
    """
    if not (_is_id(n) and _is_id(M) and n >= 2 and M >= 0):
        raise OutOfRange("needs n >= 2 and M >= 0")
    w = width_of(n)
    size = level_size(n)
    # The first M+1 triples of triple_table(n), wrapping like assigned(),
    # without building the whole table (about 2^(3n+3) triples).
    triples = itertools.islice(
        itertools.cycle(itertools.permutations(range(w), 3)), M + 1)
    # Each kind's first id on level 0: n and M are checked, so a cover's
    # ends are plain offsets from these, with no label built per cover.
    first = {kind: abomination_id(n, SpaceLabel(
        kind, 0, None if kind in ("a", "b") else 0)) for kind in KIND_ORDER}

    def eid(kind, m, k=0):
        return m * size + first[kind] + k

    covers = []
    for m, (k1, k2, k3) in enumerate(triples):
        covers.append((eid("a", m), eid("c", m, k1)))
        covers.append((eid("a", m), eid("c", m, k2)))
        covers.append((eid("b", m), eid("c", m, k1)))
        covers.append((eid("b", m), eid("c", m, k3)))
        for k in range(w):
            for j in range(w):
                if j != k:
                    covers.append((eid("d", m, k), eid("c", m, j)))
                    covers.append((eid("ea", m, k), eid("d", m, j)))
                    covers.append((eid("eb", m, k), eid("d", m, j)))
            covers.append((eid("ea", m, k), eid("a", m)))
            covers.append((eid("eb", m, k), eid("b", m)))
            if m >= 1:
                for j in range(w):
                    if j != k:
                        covers.append((eid("c", m, k), eid("ea", m - 1, j)))
                    covers.append((eid("c", m, k), eid("eb", m - 1, j)))
    labels = [str(lab) for p in range(M + 1) for lab in level_members(n, p)]
    return Poset.from_covers((M + 1) * size, covers, labels)


def abomination_level_ids(n: int, p: int) -> list[int]:
    return [abomination_id(n, lab) for lab in level_members(n, p)]


def ladder_id(n: int, m: int, i: int) -> int:
    """The id of y(m, i). OutOfRange unless n, m and i are plain ints >= 0
    and i is below the width 2^(n+1)."""
    w = width_of(n)
    if not (_is_id(m) and m >= 0):
        raise OutOfRange(f"level {m!r} is not an int >= 0")
    if not (_is_id(i) and 0 <= i < w):
        raise OutOfRange(f"index {i!r} outside width {w}")
    return m * w + i


def ladder_truncation(n: int, M: int) -> Poset:
    """Levels 0..M of the ladder: y(m, i) < y(m-1, j) iff i != j.
    OutOfRange unless n and M are plain ints (not bools or floats) with
    n >= 0 and M >= 0."""
    if not (_is_id(n) and _is_id(M) and n >= 0 and M >= 0):
        raise OutOfRange("needs n >= 0 and M >= 0")
    w = width_of(n)
    covers = []
    for m in range(1, M + 1):
        above = [ladder_id(n, m - 1, j) for j in range(w)]
        for i in range(w):
            x = ladder_id(n, m, i)
            covers.extend((x, y) for j, y in enumerate(above) if j != i)
    labels = [str(SpaceLabel("y", m, i)) for m in range(M + 1) for i in range(w)]
    return Poset.from_covers((M + 1) * w, covers, labels)


def ladder_cover_count(n: int, M: int) -> int:
    """Covers of ladder_truncation(n, M): w(w-1) per level below level 0.
    OutOfRange unless n and M are plain ints >= 0."""
    w = width_of(n)
    if not (_is_id(M) and M >= 0):
        raise OutOfRange(f"need an int M >= 0, got {M!r}")
    return M * w * (w - 1)


def canonical_coloring(n: int, M: int) -> Coloring:
    """Maximal elements get their own index as color, everyone else 0.

    Uses colors of order n+1, so the 2^(n+1) maximals are pairwise
    distinct; this is the standard witness that the truncations stay
    (n+1)-colorable at every depth.
    """
    p = abomination_truncation(n, M)
    colors = [0] * p.n
    for k in range(width_of(n)):
        colors[abomination_id(n, SpaceLabel("c", 0, k))] = k
    return Coloring.of(p, n + 1, colors)


def verify_downset_claim(n: int, M: int, m: int, k: int) -> bool:
    """Does the whole of level m+1 sit below eb(m, k) in the truncation?"""
    if m < 0 or m + 1 > M:
        raise OutOfRange("need 0 <= m and m+1 <= M")
    if not 0 <= k < width_of(n):
        raise OutOfRange(f"index {k} exceeds width {width_of(n)}")
    p = abomination_truncation(n, M)
    below = p.down_mask(abomination_id(n, SpaceLabel("eb", m, k)))
    return all((below >> x) & 1 for x in abomination_level_ids(n, m + 1))
