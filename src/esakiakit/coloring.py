"""Colorings of finite posets by bit-vector colors.

Colors of order n are the integers 0..2^n-1 ordered by bit inclusion
(the free distributive structure on n bits). A weak coloring is an order
preserving map into that lattice. A coloring must additionally break
every possible single-pair merge: since each nontrivial E-partition
starts with an alpha or beta merge, it suffices that no mergeable pair
shares a color.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .errors import (BudgetExceeded, InvalidId, NotColoring, OutOfRange,
                     PropertyFalsified)
from .poset import Poset, _id_items, _is_id, _top_down
from .reduction import _Replay


def color_leq(a: int, b: int) -> bool:
    """Bit inclusion order on colors."""
    return a & ~b == 0


def color_bits(c: int, n: int) -> str:
    """Most significant bit first, width n (the empty string at n = 0)."""
    if not 0 <= c < (1 << n):
        raise OutOfRange(f"color {c} needs more than {n} bits")
    return format(c, f"0{n}b") if n else ""


@dataclass(frozen=True)
class Coloring:
    base: Poset
    n: int
    colors: tuple[int, ...]

    @staticmethod
    def of(base: Poset, n: int, colors: Sequence[int]) -> "Coloring":
        """A checked coloring: OutOfRange unless the order and every color
        are plain ints (no bools or floats), each color below 2^n."""
        if not _is_id(n) or n < 0:
            raise OutOfRange(f"color order {n!r} is not a non-negative int")
        cols = tuple(colors)
        if len(cols) != base.n:
            raise InvalidId("one color per element required")
        top = 1 << n
        for c in cols:
            if type(c) is not int or not 0 <= c < top:
                raise OutOfRange(f"color {c!r} outside order {n}")
        return Coloring(base, n, cols)

    def color(self, x: int) -> int:
        return self.colors[self.base._id(x)]

    def bits(self, x: int) -> str:
        return color_bits(self.color(x), self.n)

    def to_json_dict(self) -> dict:
        return {"n": self.n,
                "colors": {str(x): color_bits(c, self.n)
                           for x, c in enumerate(self.colors)}}

    @staticmethod
    def from_json_dict(base: Poset, data: Mapping) -> "Coloring":
        """Read {"n": int, "colors": {"id": "bits", ...} or ["bits", ...]};
        InvalidId on any other shape (bools are not integers)."""
        if not isinstance(data, Mapping):
            raise InvalidId("coloring JSON must be an object")
        n = data.get("n")
        if not _is_id(n):
            raise InvalidId(f"n must be an integer, got {n!r}")
        raw = data.get("colors")
        if not isinstance(raw, (Mapping, list)):
            raise InvalidId("colors must be a list or an id-to-bits map")
        items = _id_items(base.n, raw)
        if len(items) != base.n:
            raise InvalidId("colors missing for some elements")
        cols = [0] * base.n
        for x, bits in items:
            if not isinstance(bits, str) or len(bits) != n \
                    or any(ch not in "01" for ch in bits):
                raise OutOfRange(f"color string {bits!r} is not {n} bits")
            cols[x] = int(bits, 2) if n else 0
        return Coloring.of(base, n, cols)


def _check_base(p: Poset, f: Coloring) -> None:
    """InvalidId unless f is a `Coloring` of p (or of a poset equal to
    it)."""
    if not isinstance(f, Coloring):
        raise InvalidId(f"{type(f).__name__} is not a Coloring")
    if f.base is not p and f.base != p or len(f.colors) != p.n:
        raise InvalidId("coloring built on a different poset")


def is_weak_coloring(p: Poset, f: Coloring) -> bool:
    """Order preserving: `color_leq(colors[x], colors[y])` on every cover
    x < y, read off the stored successor rows; False at the first cover
    whose lower color has a bit the upper one lacks. InvalidId for a
    coloring built on another poset."""
    _check_base(p, f)
    colors = f.colors
    for x, ys in enumerate(p._succ):
        c = colors[x]
        for y in ys:
            if c & ~colors[y]:
                return False
    return True


def monochrome_mergeable_pair(p: Poset, f: Coloring) -> tuple[str, int, int] | None:
    """The least same-colored move (kind, x, y), in `_Replay.least` order,
    or None; InvalidId for a coloring built on another poset."""
    _check_base(p, f)
    return _Replay(p).least(f.colors)


def is_coloring(p: Poset, f: Coloring) -> bool:
    """Weak, and no single merge move can preserve all colors."""
    return is_weak_coloring(p, f) and monochrome_mergeable_pair(p, f) is None


def _weak_walk(p: Poset, n: int, groups: Sequence[int] | None,
               budget: int | None) -> Iterator[list[int]]:
    """Depth-first over the weak colorings of order n along the top-down
    order, yielding the color list at each leaf. Each element tries the
    submasks of its upper covers' color meet in ascending order (Knuth,
    TAOCP 4A 7.1.3). Given `groups`, a twin-group id per element (twins
    share their upper covers), the walk is strict: one mask per group holds
    the colors of its placed members, and an element skips those and the
    color of its only upper cover; its other partners come later in the
    order. The walk keeps one candidate and one ceiling per placed element
    on its own lists, so its depth is not bounded by the interpreter's
    recursion limit."""
    if type(n) is not int or n < 0:
        raise OutOfRange(f"color order {n!r} is not a non-negative int")
    if budget is not None and type(budget) is not int:
        raise OutOfRange(f"search budget {budget!r} is not an int")
    order = _top_down(p)
    size = len(order)
    succ = p._succ
    colors = [-1] * p.n
    full = (1 << n) - 1
    cands = [0] * size
    ceilings = [0] * size
    used = [0] * p.n            # per twin group: a bit per color held

    def walk() -> Iterator[list[int]]:
        spent = 0
        i, entered = 0, True    # entered: order[i] has tried no candidate
        while i >= 0:
            if i == size:
                yield colors
                i, entered = i - 1, False
                continue
            x = order[i]
            if entered:
                ceiling = full
                for y in succ[x]:
                    ceiling &= colors[y]
                ceilings[i] = ceiling
                cand = 0
            else:
                ceiling = ceilings[i]
                cand = ((cands[i] | ~ceiling) + 1) & ceiling or -1
                # -1: the submasks wrapped round to 0, so all have been tried
            if groups is not None:
                g = groups[x]
                if not entered:
                    used[g] ^= 1 << cands[i]
                # An only upper cover's color is the ceiling itself.
                skip = used[g] | (1 << ceiling if len(succ[x]) == 1 else 0)
                while cand >= 0 and skip >> cand & 1:
                    cand = ((cand | ~ceiling) + 1) & ceiling or -1
            if cand < 0:
                colors[x] = -1
                i, entered = i - 1, False
                continue
            if budget is not None and spent >= budget:
                raise BudgetExceeded(f"coloring search spent {spent}/{budget} "
                                     "assignments")
            spent += 1
            colors[x] = cands[i] = cand
            if groups is not None:
                used[g] |= 1 << cand
            i, entered = i + 1, True

    return walk()


def search_coloring(p: Poset, n: int, budget: int | None = None) -> Coloring | None:
    """Backtracking search for a coloring of order n.

    Returns the lexicographically least solution along the top-down
    order, or None. A budget, a plain int, bounds the number of color
    assignments tried; exhausting it raises BudgetExceeded rather than
    answering, and a budget that is not an int raises OutOfRange.
    """
    ids: dict[tuple[int, ...], int] = {}
    groups = [ids.setdefault(ys, len(ids)) for ys in p._succ]
    colors = next(_weak_walk(p, n, groups, budget), None)
    return None if colors is None else Coloring.of(p, n, colors)


def is_n_colorable(p: Poset, n: int) -> bool:
    return search_coloring(p, n) is not None


def enumerate_weak_colorings(p: Poset, n: int) -> Iterator[Coloring]:
    """All weak colorings of order n, in deterministic order. The count
    grows exponentially; consumers are expected to impose their own cap."""
    walk = _weak_walk(p, n, None, None)
    return (Coloring.of(p, n, colors) for colors in walk)


def promote_subspace_coloring(p: Poset, f: Coloring, x: int
                              ) -> tuple[Poset, dict[int, int], Coloring]:
    """Restrict a coloring to the upset of x, zeroing out x's own color.

    Elements of the upset whose color equals that of x are recolored to
    0; everyone else keeps their color. The result is again a coloring
    of the subposet. That fact is structural, so its failure is reported
    as PropertyFalsified instead of a plain False.
    """
    if not is_coloring(p, f):
        raise NotColoring("promotion needs a coloring, not just a weak one")
    base_color = f.color(x)
    sub, remap = p.principal_upset(x)
    new_colors = [0] * sub.n
    for old, new in remap.items():
        c = f.colors[old]
        new_colors[new] = 0 if c == base_color else c
    g = Coloring.of(sub, f.n, new_colors)
    if not is_coloring(sub, g):
        raise PropertyFalsified(
            "promoted coloring on an upset failed to be a coloring")
    return sub, remap, g
