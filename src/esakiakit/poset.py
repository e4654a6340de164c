"""Finite posets on dense integer ids.

Reachability is stored as one Python-int bitmask row per element, so order
tests, upset arithmetic, and antichain search are all bit operations. Covers
handed to the constructor are transitively reduced; cyclic input is rejected.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import CycleDetected, InvalidId


# Largest n a poset JSON file may declare. CLI `gen` refuses a truncation
# above it, so every poset the CLI writes reads back; a dense order at the
# limit holds about 13 MB of reachability rows in each direction.
JSON_SIZE_LIMIT = 10_000
# Most cover pairs a poset JSON file may list: admits the 785,924 covers of
# the widest abomination level the generators emit (n = 8); n = 9 has 3.1M.
JSON_COVER_LIMIT = 1_000_000
# What a cover may be: an ordered pair. A set or dict of two would unpack
# as well, in an order that says nothing about which end is below.
_PAIR_TYPES = (tuple, list)


def mask_of(ids: Iterable[int]) -> int:
    """Pack non-negative element ids into a bitmask."""
    m = 0
    try:
        for x in ids:
            m |= 1 << x
    except ValueError:
        raise InvalidId(f"negative id {x}") from None
    return m


def ids_of(mask: int) -> list[int]:
    """Unpack a non-negative bitmask into a sorted id list."""
    if mask < 0:
        raise InvalidId(f"negative mask {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Poset:
    """Immutable finite poset. Build with :meth:`from_covers`."""

    __slots__ = ("n", "labels", "_up", "_down", "_succ", "_depths", "_canon")

    def __init__(self, n, labels, up, down, succ, depths):
        self.n = n
        self.labels = labels
        self._up = up
        self._down = down
        self._succ = succ
        self._depths = depths
        self._canon = None

    # ----- construction ---------------------------------------------------

    @classmethod
    def from_covers(cls, n: int, covers: Iterable[Sequence[int]],
                    labels: Mapping[int, str] | Sequence[str] | None = None) -> "Poset":
        """Build a poset from cover pairs (x, y) meaning x < y.

        The input may contain transitively redundant pairs; they are dropped.
        A pair (x, x) or any directed cycle raises CycleDetected; a size or
        endpoint that is not a plain int (a bool, a float) raises InvalidId,
        and so does a cover that is not a tuple or list of two (a set or a
        dict of two is refused).
        """
        if not _is_id(n) or n < 0:
            raise InvalidId(f"size {n!r} is not a non-negative int")
        above = [0] * n
        for c in covers:
            if type(c) not in _PAIR_TYPES:
                raise InvalidId(f"cover {c!r} is not a pair")
            try:
                x, y = c
            except ValueError:
                raise InvalidId(f"cover {c!r} is not a pair") from None
            # _is_id, inline: this loop runs once per cover.
            if not (type(x) is int and type(y) is int
                    and 0 <= x < n and 0 <= y < n):
                raise InvalidId(f"cover ({x!r}, {y!r}) outside 0..{n - 1}")
            above[x] |= 1 << y
        return cls._from_above(n, above, labels)

    @classmethod
    def from_leq(cls, n: int, leq_rows: Sequence[int],
                 labels: Mapping[int, str] | Sequence[str] | None = None) -> "Poset":
        """Build from one row per element x, masking elements above x.

        A row need not be reflexive or transitively closed; a cycle raises
        CycleDetected. InvalidId for a size or a row that is not a plain
        int.
        """
        if not _is_id(n):
            raise InvalidId(f"size {n!r} is not an int")
        if len(leq_rows) != n or any(type(row) is not int or row >> n
                                     for row in leq_rows):
            raise InvalidId(f"rows must be {n} int masks over 0..{n - 1}")
        return cls._from_above(
            n, [row & ~(1 << x) for x, row in enumerate(leq_rows)], labels)

    @classmethod
    def _from_above(cls, n, above, labels) -> "Poset":
        """The one constructor: above[x] masks elements strictly above x,
        redundant pairs allowed. A depth-first stack walk (Tarjan 1976)
        closes x from successors not yet reached; x that meets an open one
        is entered and retried under it, and meets one again only on a
        cycle. Ascending ids pop first, so quotients never push. A member
        of above[x] never picked lies in the strict up set of a pick, so
        the covers of x are the picks outside the strict up sets of the
        others, in ascending order, and x's depth follows from theirs. Down
        masks are closed over the covers in reverse closing order."""
        up = [0] * n
        depth = [1] * n
        succ: list[tuple[int, ...]] = [()] * n
        entered = [False] * n
        closed = []
        stack = list(range(n - 1, -1, -1))
        while stack:
            x = stack.pop()
            if up[x]:
                continue
            reach = strict = 0
            picked = []
            rest = above[x]
            while rest:
                low = rest & -rest
                y = low.bit_length() - 1
                u = up[y]
                if not u:
                    break
                picked.append(y)
                reach |= u
                strict |= u ^ low
                rest &= ~reach
            if rest:
                if entered[x]:
                    raise CycleDetected("cover relation contains a cycle")
                entered[x] = True
                stack += [x] + ids_of(rest)     # retry x once these close
                continue
            up[x] = reach | 1 << x
            closed.append(x)
            if picked:
                succ[x] = ys = tuple([y for y in picked if not strict >> y & 1])
                depth[x] = 1 + max(depth[y] for y in ys)
        down = [1 << x for x in range(n)]
        for x in reversed(closed):
            for y in succ[x]:
                down[y] |= down[x]
        return cls(n, _norm_labels(n, labels), up, down, tuple(succ),
                   tuple(depth))

    # ----- order queries ----------------------------------------------------

    @property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Pairs (x, y) with y covering x, ordered by x and then by y."""
        return tuple((x, y) for x in range(self.n) for y in self._succ[x])

    def _id(self, x: int) -> int:
        """x itself when it names an element; InvalidId for anything else,
        bools and floats included."""
        if type(x) is not int or not 0 <= x < self.n:
            raise InvalidId(f"element {x!r} outside 0..{self.n - 1}")
        return x

    def leq(self, x: int, y: int) -> bool:
        return bool(self._up[self._id(x)] >> self._id(y) & 1)

    def up_mask(self, x: int) -> int:
        return self._up[self._id(x)]

    def down_mask(self, x: int) -> int:
        return self._down[self._id(x)]

    def covers_up(self, x: int) -> tuple[int, ...]:
        """Immediate successors of x."""
        return self._succ[self._id(x)]

    def _ids(self, mask: int) -> list[int]:
        """The ids in a mask over 0..n-1; InvalidId for any other int."""
        if mask >> self.n:
            raise InvalidId(f"mask {mask:#x} names elements outside 0..{self.n - 1}")
        return ids_of(mask)

    def down_set(self, mask: int) -> int:
        out = 0
        for x in self._ids(mask):
            out |= self._down[x]
        return out

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def minimal_mask(self) -> int:
        return mask_of(x for x in range(self.n) if self._down[x] == 1 << x)

    def has_root(self) -> bool:
        """True iff there is a least element."""
        m = self.minimal_mask()
        return self.n > 0 and m & (m - 1) == 0 and m != 0

    def depths(self) -> tuple[int, ...]:
        """Per element x, the number of elements in the longest chain
        inside the upset of x."""
        return self._depths

    # ----- antichains and width ---------------------------------------------

    def max_antichain_size(self) -> int:
        """Largest antichain of the whole poset."""
        return self._antichain_in(self.full_mask())

    def width(self) -> int:
        """Max over elements x of the largest antichain inside the upset of
        x. If y <= x then up(x) is inside up(y), so the maximum is reached
        at a minimal element, and only those are tried."""
        return max((self._antichain_in(self._up[r])
                    for r in ids_of(self.minimal_mask())), default=0)

    def _antichain_in(self, mask: int) -> int:
        """Largest antichain inside an upset mask, via Dilworth: its size
        minus a maximum matching on the strict comparabilities (Fulkerson
        1956). A member's strict up set lies in the upset, so its edges are
        read straight off its up mask; other elements get none."""
        up = self._up
        adj = [ids_of(up[x] ^ 1 << x) if mask >> x & 1 else ()
               for x in range(self.n)]
        return mask.bit_count() - _max_matching(self.n, adj)

    # ----- subposets and rebuilds --------------------------------------------

    def induced(self, mask: int) -> tuple["Poset", dict[int, int]]:
        """Induced subposet on an element mask. Returns (poset, old->new map)."""
        keep = self._ids(mask)
        remap = {x: i for i, x in enumerate(keep)}
        rows = [mask_of(remap[y] for y in ids_of(self._up[x] & mask))
                for x in keep]
        labels = None if self.labels is None else [self.labels[x] for x in keep]
        return Poset.from_leq(len(keep), rows, labels), remap

    def principal_upset(self, x: int) -> tuple["Poset", dict[int, int]]:
        return self.induced(self._up[self._id(x)])

    def with_bottom(self) -> "Poset":
        """Adjoin a fresh least element below everything, as id 0; on a
        labeled poset it is unlabeled."""
        covers = [(x + 1, y + 1) for x, y in self.covers]
        covers.extend((0, x + 1) for x in ids_of(self.minimal_mask()))
        labels = None if self.labels is None else [None, *self.labels]
        return Poset.from_covers(self.n + 1, covers, labels)

    # ----- upset enumeration ---------------------------------------------------

    def upsets(self) -> list[int]:
        """All upsets as bitmasks, one per antichain of minimal generators."""
        out = []
        up, down = self._up, self._down
        n = self.n

        def rec(start: int, mask: int, forbidden: int) -> None:
            out.append(mask)
            for a in range(start, n):
                if not (forbidden >> a) & 1:
                    rec(a + 1, mask | up[a], forbidden | up[a] | down[a])

        rec(0, 0, 0)
        return out

    def downsets(self) -> list[int]:
        full = self.full_mask()
        return [full & ~u for u in self.upsets()]

    # ----- canonical form --------------------------------------------------------

    def canonical_form(self):
        """Hashable key equal across isomorphic posets: (n, the least
        sorted cover list) over the leaves of a search tree. Color
        refinement splits cells by the colors of covers up and down,
        rebuilding keys only in the cells next to a cell that split;
        individualization branches on each member of the first
        non-singleton cell. Twin pruning skips a candidate with the covers
        of one already tried; automorphism pruning skips one in the orbit
        of a tried candidate under the automorphisms found so far (from
        leaves with equal cover lists) that fix the individualized
        prefix (McKay 1981; McKay & Piperno 2014)."""
        if self._canon is None:
            self._canon = _canonical_form(self)
        return self._canon

    # ----- serialization ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        d = {"n": self.n, "covers": [list(c) for c in self.covers]}
        if self.labels is not None:
            d["labels"] = {str(i): lab for i, lab in enumerate(self.labels)
                           if lab is not None}
        return d

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "Poset":
        """Read {"n": int, "covers": [[int, int], ...], "labels": ...}, where
        labels is {"<id>": str | null, ...} or [str | null, ...]; InvalidId
        on any other shape (bools are not ids), on n above JSON_SIZE_LIMIT
        and on more than JSON_COVER_LIMIT covers. Each cover is checked by
        `from_covers`."""
        if not isinstance(d, Mapping):
            raise InvalidId("poset JSON must be an object")
        n = d.get("n")
        if not _is_id(n):
            raise InvalidId(f"n must be an integer, got {n!r}")
        if n > JSON_SIZE_LIMIT:
            raise InvalidId(f"n = {n} exceeds the poset JSON limit "
                            f"of {JSON_SIZE_LIMIT}")
        covers = d.get("covers")
        if not isinstance(covers, (list, tuple)):
            raise InvalidId("covers must be a list of [lower, upper] pairs")
        if len(covers) > JSON_COVER_LIMIT:
            raise InvalidId(f"{len(covers)} covers exceed the poset JSON "
                            f"limit of {JSON_COVER_LIMIT}")
        labels = d.get("labels") or None
        if labels is not None and not isinstance(labels, (Mapping, list)):
            raise InvalidId("labels must be a list or an id-to-label map")
        return cls.from_covers(n, covers, labels)

    def to_dot(self) -> str:
        """Cover-only DOT, drawn upward."""
        lines = ["digraph poset {", "  rankdir=BT;"]
        for x in range(self.n):
            lab = None if self.labels is None else self.labels[x]
            text = f"{x}" if lab is None else f"{lab}"
            lines.append(f'  n{x} [label="{text}"];')
        for x, y in self.covers:
            lines.append(f"  n{x} -> n{y};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    # ----- dunder ----------------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Poset) and self.n == other.n
                and self._succ == other._succ and self.labels == other.labels)

    def __hash__(self):
        return hash((self.n, self._succ))

    def __repr__(self):
        return f"Poset(n={self.n}, covers={len(self.covers)})"


# ----- helpers ------------------------------------------------------------------


def _is_id(v) -> bool:
    """The one id rule: a plain int. Bools, floats and int subclasses such
    as an IntEnum are not ids. The hottest checks (`Poset._id`, the cover
    loop of `from_covers`, the color loop of `Coloring.of`) inline it."""
    return type(v) is int


def _top_down(p: Poset) -> list[int]:
    """The ids by (depth, id), so every element comes after all its
    covers: the one top-down order of the library. The sort is stable, so
    ids break the depth ties."""
    return sorted(range(p.n), key=p._depths.__getitem__)


def _id_items(n: int, entries) -> list[tuple[int, object]]:
    """The (id, value) pairs of `entries`, a sequence of n values or a map
    keyed by element id, where a digit string names the id it spells: the
    one reader of the id-keyed fields of poset and coloring JSON. InvalidId
    on a sequence of another length, a key that is not an id of 0..n-1,
    and an id keyed twice ("1" and "01"). A sequence's ids are its
    positions, so its entries take no check."""
    if not isinstance(entries, Mapping):
        if len(entries) != n:
            raise InvalidId(f"{len(entries)} entries for {n} elements")
        return list(enumerate(entries))
    out: dict[int, object] = {}
    for key, v in entries.items():
        x = int(key) if isinstance(key, str) and key.isascii() \
            and key.isdigit() else key
        if not (_is_id(x) and 0 <= x < n):
            raise InvalidId(f"key {key!r} is not an element id")
        if x in out:
            raise InvalidId(f"key {key!r} repeats element {x}")
        out[x] = v
    return list(out.items())


def _norm_labels(n, labels):
    if labels is None:
        return None
    out = [None] * n
    for x, v in _id_items(n, labels):
        if v is not None and not isinstance(v, str):
            raise InvalidId(f"label {v!r} is neither a string nor null")
        out[x] = v
    # no label on any element is the same as no labels
    return tuple(out) if any(v is not None for v in out) else None


def _max_matching(n, adj):
    """Size of a maximum matching between left and right copies of 0..n-1,
    adj[u] listing the right partners of left u. Each left vertex takes a
    free partner if it has one, and otherwise searches for one augmenting
    path (Berge 1957; Kuhn 1955)."""
    match = [-1] * n                    # right vertex -> its left partner

    def augment(u, seen):
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                if match[v] == -1 or augment(match[v], seen):
                    match[v] = u
                    return True
        return False

    for u in range(n):
        free = next((v for v in adj[u] if match[v] == -1), None)
        if free is not None:
            match[free] = u
        else:
            augment(u, set())
    return n - match.count(-1)


def _canonical_form(p: Poset):
    """Colors are always dense ranks 0..count-1, so a discrete coloring is
    itself a leaf's order. Each node keeps its cells' members, so a pass
    of `refine` touches only the cells next to a split: at the root every
    cell, and after individualizing v the cells of v's covers up and down.
    A skipped candidate's subtree is the image of a tried one under an
    automorphism fixing the node, so it holds the same encodings and the
    least one is found without it."""
    n = p.n
    if n == 0:
        return (0, ())
    succ = p._succ
    below = [[] for _ in range(n)]
    for x in range(n):
        for y in succ[x]:
            below[y].append(x)
    pred = [tuple(row) for row in below]
    near = [succ[x] + pred[x] for x in range(n)]

    def refine(colors, cells, hit):
        """Split cells by the sorted colors of covers up and down until a
        pass splits none, rebuilding keys only in the hit cells: every cell
        at the root, and then those that hold a cover of an element whose
        cell split in the last pass. Any other cell cannot split: its
        members had equal keys, and the colors they read were only
        renumbered monotonically. A split cell's children take its place,
        ordered by (ups, downs), and the cells after them shift up, so the
        ranks are those of rounds that sort (color, ups, downs) over every
        element. `colors` is updated in place; `cells[c]` lists the members
        of color c in id order."""
        while len(cells) < n:
            split = {}
            for c in hit:
                members = cells[c]
                if len(members) < 2:
                    continue
                groups: dict = {}
                for x in members:
                    key = (tuple(sorted([colors[y] for y in succ[x]])),
                           tuple(sorted([colors[y] for y in pred[x]])))
                    groups.setdefault(key, []).append(x)
                if len(groups) > 1:
                    split[c] = [groups[k] for k in sorted(groups)]
            if not split:
                break
            first = min(split)
            new = cells[:first]
            moved = []
            for c in range(first, len(cells)):
                parts = split.get(c)
                if parts is None:
                    new.append(cells[c])
                else:
                    new += parts
                    moved += cells[c]
            for c in range(first, len(new)):
                for x in new[c]:
                    colors[x] = c
            cells = new
            hit = {colors[y] for x in moved for y in near[x]}
        return colors, cells

    depths, up, down = p._depths, p._up, p._down
    init = [(depths[x], len(succ[x]), len(pred[x]), up[x].bit_count(),
             down[x].bit_count()) for x in range(n)]
    ranks = {k: i for i, k in enumerate(sorted(set(init)))}
    colors = [ranks[k] for k in init]
    cells = [[] for _ in ranks]
    for x, c in enumerate(colors):
        cells[c].append(x)
    best = None
    first_leaf: dict = {}           # encoding -> the first leaf giving it
    autos: list[list[int]] = []     # automorphisms, as image lists

    def children(colors, cells, prefix):
        """The refined children of an inner node, one at a time, so each
        candidate reads the automorphisms found under the ones before."""
        t = next(c for c, members in enumerate(cells) if len(members) > 1)
        target = cells[t]
        gens = []
        seen = 0                    # autos already read at this node
        tried = 0                   # orbits of the candidates tried so far
        tried_twins = []
        for v in target:
            key = (succ[v], pred[v])        # sorted tuples, equal as sets
            if key in tried_twins:
                continue  # swapping twin candidates is an automorphism
            if seen < len(autos):
                fixing = [g for g in autos[seen:]
                          if all(g[u] == u for u in prefix)]
                seen = len(autos)
                if fixing:
                    gens += fixing
                    tried = _orbit(tried, gens)
            if tried >> v & 1:
                continue
            tried_twins.append(key)
            tried = _orbit(tried | 1 << v, gens)
            branched = colors[:]
            branched[v] = len(cells)
            rest = cells[:]
            rest[t] = target[:]
            rest[t].remove(v)
            rest.append([v])
            yield (*refine(branched, rest, {colors[y] for y in near[v]}),
                   prefix + [v])

    # Depth first on a stack of child iterators, one per open node, the
    # root the one child of the bottom entry: the search goes one level
    # deeper per individualized element.
    stack = [iter([(*refine(colors, cells, range(len(cells))), [])])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        colors, cells, prefix = node
        if len(cells) < n:
            stack.append(children(colors, cells, prefix))
            continue
        enc = tuple(sorted([(colors[x], colors[y])
                            for x in range(n) for y in succ[x]]))
        first = first_leaf.setdefault(enc, colors)
        if first is colors:
            if best is None or enc < best:
                best = enc
        else:
            at = [0] * n
            for x, c in enumerate(colors):
                at[c] = x
            autos.append([at[c] for c in first])
    return (n, best)


def _orbit(mask, gens):
    """Close an element mask under a list of permutations."""
    todo = ids_of(mask)
    while todo:
        x = todo.pop()
        for g in gens:
            y = g[x]
            if not mask >> y & 1:
                mask |= 1 << y
                todo.append(y)
    return mask
