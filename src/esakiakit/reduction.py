"""E-partitions, quotients, p-morphisms, and the two reduction moves.

An equivalence on a finite poset is an E-partition when related elements
see the same blocks above them. Quotients of E-partitions are again
posets, and every surjective p-morphism between finite posets factors
into single-pair merges of two kinds: alpha (an element is merged into
its unique immediate successor) and beta (two elements with identical
immediate successor sets are merged).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

from .coloring import _check_base, _least_move, is_weak_coloring
from .errors import (CycleDetected, InvalidId, NotEPartition, NotMergeable,
                     NotPMorphism, NotSurjective, NotWeakColoring,
                     PropertyFalsified, TooLarge)
from .poset import Poset, _cover_masks, _is_id, _top_down, ids_of, mask_of

ALL_EPARTITIONS_LIMIT = 8
# Sorted id tuple of every element mask all_epartitions can place.
_IDS = tuple(tuple(ids_of(m)) for m in range(1 << ALL_EPARTITIONS_LIMIT))
# Pair masks give the ordered pair (x, y) the bit x * ALL_EPARTITIONS_LIMIT
# + y; `_SPREAD[m]` has the bit of (y, 0) for every y in m.
_SPREAD = tuple(sum(1 << ALL_EPARTITIONS_LIMIT * y for y in ids) for ids in _IDS)


class _cached:
    """A property computed on first read and stored in the instance
    `__dict__`, which later reads find first, as with
    `functools.cached_property`, but without its lock: under Python 3.11
    that lock costs about half a microsecond per first read."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True)
class EPartition:
    """Partition of a poset's elements, blocks sorted and tupled. Its
    verdict and quotient read one top-down pass of block masks, `_sees`;
    the brute-force oracle reads only its pair mask, `_pairs`."""

    base: Poset
    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_blocks(base: Poset, blocks: Iterable[Iterable[int]]) -> "EPartition":
        """Check and normalize blocks given from outside; partitions built
        from a map go through `kernel`. InvalidId on a member that is not an
        integer (bools are not ids)."""
        seen = set()
        norm = []
        for b in blocks:
            bb = tuple(b)
            if not bb:
                raise InvalidId("empty block")
            for x in bb:
                if not _is_id(x):
                    raise InvalidId(f"block member {x!r} is not an integer")
            bb = tuple(sorted(bb))
            norm.append(bb)
            seen.update(bb)
        if seen != set(range(base.n)):
            raise InvalidId("blocks do not partition 0..n-1")
        if sum(len(b) for b in norm) != base.n:
            raise InvalidId("blocks overlap")
        return EPartition(base, tuple(sorted(norm)))

    @staticmethod
    def identity(base: Poset) -> "EPartition":
        return EPartition(base, tuple((x,) for x in range(base.n)))

    def block_of(self, x: int) -> int:
        return self._lookup[self.base._id(x)]

    def refines(self, other: "EPartition") -> bool:
        """True when every block of self sits inside a block of other;
        InvalidId when other is not an EPartition of the same poset."""
        _check_part(self.base, other)
        look = other._lookup
        return all(look[x] == look[b[0]] for b in self.blocks for x in b)

    # Each cache below is computed once, from `base` alone: an equal poset
    # has the same covers, so it has the same verdict and quotient too.

    @_cached
    def _lookup(self) -> tuple[int, ...]:
        """The block index of each element."""
        look = [0] * self.base.n
        for i, b in enumerate(self.blocks):
            for x in b:
                look[x] = i
        return tuple(look)

    @_cached
    def _pairs(self) -> int:
        """The pair mask: bit x * ALL_EPARTITIONS_LIMIT + y for every
        ordered pair x != y that shares a block. `all_epartitions` stores
        it at each leaf. TooLarge past that limit, where the stride would
        alias: at stride 8 the pair (1, 8) lands on the bit of (2, 0)."""
        if self.base.n > ALL_EPARTITIONS_LIMIT:
            raise TooLarge(f"pair masks limited to {ALL_EPARTITIONS_LIMIT} elements")
        pairs = 0
        for b in self.blocks:
            m = mask_of(b)
            for x in b:
                pairs |= (m ^ 1 << x) << ALL_EPARTITIONS_LIMIT * x
        return pairs

    @_cached
    def _sees(self) -> tuple[int, ...]:
        """For each element, the mask of block indices (as in `_lookup`)
        meeting its up set. Each element starts with its own block's bit;
        one `_top_down` pass then ORs in the masks of its covers, which
        come before it."""
        succ = self.base._succ
        sees = [1 << i for i in self._lookup]
        for x in _top_down(self.base):
            s = sees[x]
            for y in succ[x]:
                s |= sees[y]
            sees[x] = s
        return tuple(sees)

    @_cached
    def _verdict(self) -> bool:
        """`is_epartition` on `base`: every member sees the blocks its
        block's first member sees."""
        sees = self._sees
        return all(sees[x] == sees[b[0]]
                   for b in self.blocks if len(b) > 1 for x in b)

    @_cached
    def _quotient(self) -> tuple[Poset, tuple[int, ...]]:
        """`quotient` of `base`, once `is_epartition` has passed. Blocks
        are ranked by (depth of the shallowest member, first member): the
        blocks are sorted by first member and the sort is stable, so their
        index breaks the ties.

        The quotient order is the closure of "some member of B <= some
        member of C". B's row is the OR of its members' masks, renumbered
        by rank. In an E-partition every member sees what the first one
        sees, so the row is B's row of the closed order. Otherwise the
        rows still hold every step of that relation, so the constructor's
        cycle check refuses any cycle in it."""
        p = self.base
        depths = p.depths()
        blocks, sees = self.blocks, self._sees
        shallowest = [min(map(depths.__getitem__, b)) for b in blocks]
        order = sorted(range(len(blocks)), key=shallowest.__getitem__)
        proj = [0] * p.n
        ranked = {}         # a block's bit -> the bit of its rank
        unions = []
        for r, i in enumerate(order):
            ranked[1 << i] = 1 << r
            s = 0
            for x in blocks[i]:
                proj[x] = r
                s |= sees[x]
            unions.append(s)
        rows = []
        for s in unions:
            row = 0
            while s:
                low = s & -s
                row |= ranked[low]
                s ^= low
            rows.append(row)
        try:
            q = Poset.from_leq(len(rows), rows)
        except CycleDetected as exc:
            raise NotEPartition("quotient relation is not antisymmetric") from exc
        return q, tuple(proj)


def _check_part(p: Poset, part: EPartition) -> None:
    """InvalidId unless part is an `EPartition` of p (or an equal poset)."""
    if not isinstance(part, EPartition):
        raise InvalidId(f"{type(part).__name__} is not an EPartition")
    if part.base is not p and part.base != p:
        raise InvalidId("partition built on a different poset")


def is_epartition(p: Poset, part: EPartition) -> bool:
    """Back-and-forth check: the set of blocks meeting the up set of x
    must be constant on each block. InvalidId unless `part` is an
    `EPartition` of p. The verdict is computed once, on the partition
    (`EPartition._verdict`, from one top-down pass of block masks), so a
    repeated call only reads it."""
    _check_part(p, part)
    return part._verdict


def quotient(p: Poset, part: EPartition) -> tuple[Poset, tuple[int, ...]]:
    """Quotient poset plus the projection map (element -> new block id).

    Block ids are renumbered by (depth of the block's shallowest member,
    smallest original id), so quotients are deterministic. InvalidId
    unless `part` is an `EPartition` of p, and NotEPartition when
    `is_epartition` rejects `part`, on every call. The quotient is built
    once, on the partition (`EPartition._quotient`, from the verdict's
    block masks), so a repeated call returns the same one.
    """
    if not is_epartition(p, part):
        raise NotEPartition("blocks fail the back-and-forth condition")
    return part._quotient


def is_pmorphism(p: Poset, q: Poset, f: Sequence[int]) -> bool:
    """Order preserving plus the back condition
    (everything above f(x) is hit from above x). InvalidId for a map of
    another length or an image that is not an element of q (bools are not
    ids)."""
    if len(f) != p.n:
        raise InvalidId("map length mismatch")
    for v in f:
        if not (_is_id(v) and 0 <= v < q.n):
            raise InvalidId(f"image {v!r} outside codomain")
    for x, y in p.covers:
        if not q.leq(f[x], f[y]):
            return False
    for x in range(p.n):
        image_up = mask_of(f[z] for z in ids_of(p.up_mask(x)))
        if q.up_mask(f[x]) & ~image_up:
            return False
    return True


def kernel(p: Poset, f: Sequence[int]) -> EPartition:
    """The fibres of a map on p's elements. They open in ascending order
    of their least member, so the blocks come out sorted."""
    if len(f) != p.n:
        raise InvalidId(f"map of length {len(f)} on a poset of {p.n} elements")
    groups: dict[int, list[int]] = {}
    for x, v in enumerate(f):
        groups.setdefault(v, []).append(x)
    return EPartition(p, tuple(map(tuple, groups.values())))


# ----- single-pair moves ------------------------------------------------------


def _check_pair(p: Poset, x: int, y: int) -> None:
    """InvalidId unless x and y are plain ints naming elements of p."""
    if not (_is_id(x) and _is_id(y) and 0 <= x < p.n and 0 <= y < p.n):
        raise InvalidId(f"pair ({x!r}, {y!r}) outside 0..{p.n - 1}")


def alpha_mergeable(p: Poset, x: int, y: int) -> bool:
    """x may be folded into y when y is x's only immediate successor."""
    _check_pair(p, x, y)
    return x != y and p.covers_up(x) == (y,)


def beta_mergeable(p: Poset, x: int, y: int) -> bool:
    """x and y have exactly the same immediate successors (maximal pairs
    included)."""
    _check_pair(p, x, y)
    return x != y and p.covers_up(x) == p.covers_up(y)


@dataclass(frozen=True)
class ReductionStep:
    """One merge. `pair` holds original ids of the two merged elements;
    replaying the steps in order on the original poset re-derives every
    intermediate poset."""

    kind: str                    # 'alpha' or 'beta'
    pair: tuple[int, int]


class _Replay:
    """A poset under a sequence of merges, updated in place.

    The state is kept per slot: the original id that names a current
    element in recorded steps, the name of its lowest-numbered preimage
    one merge back. Lists indexed by slot hold the reflexive `down` masks,
    the cover masks `succ` and `pred` (each the transpose of the other)
    and the `depth` of each live slot, all over slots, plus `members`, the
    originals a slot holds; `level[d]` masks the live slots at depth d.
    `names` lists the live slots in current-id order and `pos` is its
    inverse; `owner` maps each original id to the slot of its current
    element. A dropped slot is never cleared from the `down` masks;
    `succ`, `pred` and `level` name live slots only. Current ids are those
    a quotient per merge would give: after a merge they are re-sorted by
    (pre-merge depth, pre-merge id), and the merged element takes the
    smaller of each and keeps the slot of the lower current id. Since they
    follow pre-merge depth, `names` need not be in current-depth order; it
    is, and no sort is needed, while no depth has moved since the last
    sort. No poset is built: the current poset is the `quotient` of the
    base by `kernel`, up to the numbering of its blocks. A new replay
    starts from list copies of the base's stored down masks and depths
    and of its memoized cover masks (`poset._cover_masks`), so the merges
    in place never touch the poset or its memo.

    The greedy finds each least move with `coloring._least_move`, which
    the strictness check calls too: one pass over the live slots, and no
    list of moves is ever built.

    Merging x and y into m, with D the strict down set of m: m's covers
    are y's for alpha and x's for beta. Only the immediate predecessors
    of x and y change covers: each drops x and y, and it covers m unless
    another of its covers lies in D. A predecessor that covers both x and
    y (beta), or y (alpha), has no other cover in D, since that cover
    would lie between it and x or y; so only the predecessors of x but not
    y, or of y but not x (beta), are checked. Those covering m are m's
    `pred`. Only an alpha merge changes depths, and only below x. It
    shortens a chain by at most one, the one step from x to y, so a depth
    falls by one or not at all: a slot z keeps its depth when `succ[z]`
    meets `level[depth[z] - 1]`, and falls by one when it does not.
    `kernel` checks the accumulated kernel with `is_epartition`
    (NotEPartition if it fails), since no quotient checks a merge.
    """

    __slots__ = ("base", "owner", "members", "names", "pos", "down", "succ",
                 "pred", "depth", "level", "_unsorted")

    def __init__(self, p: Poset):
        n = p.n
        self.base = p
        self.owner = list(range(n))
        self.members = [[x] for x in range(n)]
        self.names = list(range(n))
        self.pos = list(range(n))
        self.down = list(p._down)
        self.depth = depth = list(p._depths)
        self.level = level = [0] * (n + 1)     # depths run 1..n
        for x, d in enumerate(depth):
            level[d] |= 1 << x
        succ, pred = _cover_masks(p)
        self.succ = list(succ)      # copies: merges update them in place
        self.pred = list(pred)
        self._unsorted = True       # base ids need not follow depth

    def merge(self, kind: str, x: int, y: int) -> ReductionStep:
        """Merge the current elements holding original ids x and y.

        Neither m's strict up set nor its strict down set is visited:
        besides renumbering the current ids after the dropped slot's (all
        of them, with a sort, when a depth has moved since the last sort),
        a merge touches the covers and immediate predecessors of x and y,
        the dropped slot's originals and, for alpha, the elements below x
        whose depth moved and their immediate predecessors."""
        _check_pair(self.base, x, y)
        sx, sy = self.owner[x], self.owner[y]
        if sx == sy:
            raise NotMergeable(f"pair {(x, y)} already identified")
        pos, down, succ, pred, depth, level = (self.pos, self.down, self.succ,
                                               self.pred, self.depth, self.level)
        if kind == "alpha":
            ok = succ[sx] == 1 << sy
        elif kind == "beta":
            ok = succ[sx] == succ[sy]
        else:
            raise InvalidId(f"unknown step kind {kind!r}")
        if not ok:
            raise NotMergeable(f"pair {(x, y)} is not {kind}-mergeable")
        alpha = kind == "alpha"
        keep, drop = (sx, sy) if pos[sx] < pos[sy] else (sy, sx)
        pair = 1 << sx | 1 << sy
        m = 1 << keep
        # The dropped slot's bits stay behind in the down masks; `below` is
        # only ever intersected with covers, which name live slots.
        down[keep] |= down[drop]
        below = down[keep] & ~pair
        from_x = pred[sx]
        if alpha:
            kept, checked = pred[sy] & ~pair, from_x
        else:
            kept, checked = pred[sx] & pred[sy], pred[sx] ^ pred[sy]
        succ[keep] = c = succ[sy] if alpha else succ[sx]
        if not alpha or drop == sy:     # m's covers still name the dropped slot
            for t in ids_of(c):
                pred[t] = pred[t] & ~pair | m
        for z in ids_of(kept & pred[drop]):    # kept, but named the dropped slot
            succ[z] = succ[z] & ~pair | m
        # The others drop x and y and take m, unless another cover lies in D.
        while checked:
            low = checked & -checked
            checked ^= low
            z = low.bit_length() - 1
            succ[z] &= ~pair
            if not succ[z] & below:
                succ[z] |= m
                kept |= low
        pred[keep] = kept
        level[depth[drop]] &= ~(1 << drop)
        if depth[keep] > depth[drop]:       # alpha, with x the lower current id
            level[depth[keep]] &= ~m
            level[depth[drop]] |= m
            depth[keep] = depth[drop]
        names = self.names
        if self._unsorted:
            names.remove(drop)
            names.sort(key=depth.__getitem__)  # stable: ties keep id order
            start = 0
            self._unsorted = False
        else:
            start = pos[drop]
            del names[start]
        for i in range(start, len(names)):
            pos[names[i]] = i
        owner, members = self.owner, self.members
        for o in members[drop]:
            owner[o] = keep
        members[keep] += members[drop]
        members[drop] = None
        if alpha:
            # An alpha merge shortens the chains through x by one, so a
            # depth falls by one or not at all. Popping by pre-merge depth
            # settles every cover of z before z, so z is checked when a
            # cover of it was x or lost depth.
            heap = [(depth[z], z) for z in ids_of(from_x)]
            heapify(heap)
            queued = from_x
            while heap:
                d, z = heappop(heap)
                if succ[z] & level[d - 1]:
                    continue
                low = 1 << z
                level[d] ^= low
                level[d - 1] |= low
                depth[z] = d - 1
                self._unsorted = True
                for w in ids_of(pred[z] & ~queued):
                    heappush(heap, (depth[w], w))
                queued |= pred[z]
        return ReductionStep(kind, (x, y))

    def greedy(self, values: Sequence) -> list[ReductionStep]:
        """Merge same-valued pairs, least move first, until none remain.
        `values` is indexed by original id; only equal values are merged,
        so a current element's value is the value of its name.

        Each round passes `_least_move` the depth d of the last move's
        merged-from element, read before the merge, as its floor: the least
        move's depth never decreases. m's moves were x's (beta) or y's
        (alpha) and so not below d; an alpha merge leaves every member of
        m's strict down set at depth d or deeper, and a beta merge moves no
        depth; no other element changes its covers, depth or twins."""
        steps = []
        floor = 0
        while (move := _least_move(self.names, self.pos, self.succ, self.depth,
                                   values, floor)) is not None:
            kind, x, y = move
            s = self.names[x]
            floor = self.depth[s]
            steps.append(self.merge(kind, s, self.names[y]))
        return steps

    def kernel(self) -> EPartition:
        """The kernel on the base poset of the merges so far, checked with
        `is_epartition`; the verdict stays on it, so a quotient of it on
        the same base does not check it again."""
        part = kernel(self.base, self.owner)
        if not is_epartition(self.base, part):
            raise NotEPartition("replayed merges ended on a kernel that fails "
                                "the back-and-forth condition")
        return part


def decompose_pmorphism(p: Poset, q: Poset, f: Sequence[int]) -> list[ReductionStep]:
    """Factor a surjective p-morphism into single-pair merges.

    Greedy: repeatedly take the first mergeable pair identified by the
    map. Composing the returned steps reproduces the kernel of f.
    """
    if not is_pmorphism(p, q, f):
        raise NotPMorphism("input map")
    if set(f) != set(range(q.n)):
        raise NotSurjective("image misses codomain elements")
    replay = _Replay(p)
    steps = replay.greedy(f)
    if len({f[v] for v in replay.names}) != len(replay.names):
        raise NotPMorphism("no mergeable identified pair; factorization stuck")
    return steps


def compose_steps(p: Poset, steps: Iterable[ReductionStep]) -> EPartition:
    """Replay steps (validating each) and return their accumulated kernel
    on p, checked with `is_epartition`. No poset is built; the final poset
    is `quotient(p, kernel)`, and since the verdict stays on the kernel,
    that quotient does not check it again."""
    replay = _Replay(p)
    for step in steps:
        replay.merge(step.kind, *step.pair)
    return replay.kernel()


# ----- color-respecting reduction ------------------------------------------------


def coarsest_color_respecting(p: Poset, coloring) -> EPartition:
    """Largest E-partition that never merges two colors. NotWeakColoring
    for a coloring that is not order preserving, InvalidId for a coloring
    of another poset or an argument that is not a `Coloring`.

    One pass, top down (by ascending depth), in the manner of the
    rank-by-rank bisimulation algorithm of Dovier, Piazza & Policriti
    (TCS 311, 2004). Each block keeps `sig`, the mask of blocks its
    members see, itself included.

    Each placed prefix U is an upset, and the coarsest partition
    restricted to U is U's own coarsest. The restriction of an
    E-partition to an upset is one of the upset, so it refines U's
    coarsest. Conversely U's coarsest, with a singleton for each element
    outside U, is a single-colored E-partition of p; its join with p's
    coarsest is one too, so it refines p's coarsest. Hence the next
    element x joins a block of U's coarsest partition or opens its own.
    x's up set sees S, the OR of its covers' block `sig`s, and no placed
    element lies below x, so x may join a block b of its color exactly
    when `sig[b]` is S plus b: either b is in S and `sig[b]` is S
    (`seen`), or b is not and `sig[b]` less b is S (`twin`). At most one
    block qualifies, since two that did could be merged into a coarser
    E-partition of U. If none does, x opens a block with `sig` S plus
    itself.

    The result equals the kernel of the merge greedy
    `color_respecting_reduction`, which alone gives the steps; the two
    share only `kernel` and `is_epartition`. It is checked once with
    `is_epartition` (NotEPartition if it fails), and the verdict
    stays on it, so a quotient of it does not check it again.
    """
    if not is_weak_coloring(p, coloring):
        raise NotWeakColoring("input coloring is not order preserving")
    succ, colors = p._succ, coloring.colors
    block = [0] * p.n
    sig: list[int] = []         # per block: the blocks its members see
    seen: dict = {}             # (color, sig) -> block
    twin: dict = {}             # (color, sig less the block's own bit) -> block
    for x in _top_down(p):
        s = 0
        for y in succ[x]:
            s |= sig[block[y]]
        key = (colors[x], s)
        b = seen.get(key)
        if b is None:
            b = twin.get(key)
            if b is None:
                b = len(sig)
                sig.append(s | 1 << b)
                seen[colors[x], s | 1 << b] = b
                twin[key] = b
        block[x] = b
    part = kernel(p, block)
    if not is_epartition(p, part):
        raise NotEPartition("color classes placed top down fail the "
                            "back-and-forth condition")
    return part


def color_respecting_reduction(p: Poset, coloring) -> tuple[EPartition, list[ReductionStep]]:
    """The coarsest color-respecting partition by the merge greedy, with
    its steps in original ids: same-colored alpha/beta pairs are merged,
    least move of `coloring._least_move` first, until none remain. The
    fixpoint does not depend on the order of the merges, and its kernel
    equals the one top-down pass of `coarsest_color_respecting`, which is
    the library's path when no steps are needed. NotWeakColoring for a
    coloring that is not order preserving.

    The merges are replayed in place by `_Replay.greedy`, so no poset is
    built per merge, and the final kernel is checked once with
    `is_epartition`; NotEPartition if it fails.
    """
    if not is_weak_coloring(p, coloring):
        raise NotWeakColoring("input coloring is not order preserving")
    replay = _Replay(p)
    steps = replay.greedy(coloring.colors)
    return replay.kernel(), steps


def all_epartitions(p: Poset) -> list[EPartition]:
    """Every E-partition of a small poset.

    Depth-first search that places elements top down (by ascending depth),
    so the strict up set of x is placed before x. x may open a new block,
    or join a block whose members see exactly the blocks x sees above
    itself, plus that block. A block's signature is fixed when it opens:
    everything above its first member is already placed. Placed prefixes
    are upsets and an E-partition restricted to an upset is again one, so
    every E-partition is reached and every leaf is one.

    Each leaf stores its pair mask, `EPartition._pairs`, built on the way
    down: x joining a block with member mask m adds the pairs (x, y) and
    (y, x) for each y in m, `m << 8x | _SPREAD[m] << x` at stride 8.

    The order of the list is unspecified.
    """
    if p.n > ALL_EPARTITIONS_LIMIT:
        raise TooLarge(f"all_epartitions limited to {ALL_EPARTITIONS_LIMIT}")
    order = _top_down(p)
    above = [p.up_mask(x) & ~(1 << x) for x in range(p.n)]
    members: list[int] = []     # element mask per open block
    sigs: list[int] = []        # block-index mask each block's members see
    leaves: list[EPartition] = []
    new = object.__new__

    def place(i: int, pairs: int) -> None:
        if i == len(order):
            # Filled in place: the frozen dataclass `__init__` costs about
            # twice these three stores.
            part = new(EPartition)
            d = part.__dict__
            d["base"] = p
            d["blocks"] = tuple(sorted([_IDS[m] for m in members]))
            d["_pairs"] = pairs
            leaves.append(part)
            return
        x = order[i]
        up = above[x]
        sig = 0
        for b, m in enumerate(members):
            if up & m:
                sig |= 1 << b
        for b, s in enumerate(sigs):
            if s == sig | 1 << b:
                m = members[b]
                members[b] = m | 1 << x
                place(i + 1, pairs | m << ALL_EPARTITIONS_LIMIT * x
                      | _SPREAD[m] << x)
                members[b] = m
        sigs.append(sig | 1 << len(members))
        members.append(1 << x)
        place(i + 1, pairs)
        members.pop()
        sigs.pop()

    place(0, 0)
    return leaves


def brute_coarsest_color_respecting(p: Poset, coloring) -> EPartition:
    """Reference oracle for coarsest_color_respecting: scan every
    E-partition with `_coarsest_among`, one AND of pair masks per
    partition, and return the single-colored one that every other
    single-colored one refines. InvalidId for a coloring built on another
    poset; TooLarge past the enumeration limit; PropertyFalsified if no
    unique coarsest exists (it always should)."""
    _check_base(p, coloring)
    return _coarsest_among(all_epartitions(p), coloring)


def _coarsest_among(parts: Sequence[EPartition], coloring) -> EPartition:
    """The oracle's scan over `parts`, every E-partition of the coloring's
    poset: the E-partitions do not depend on the coloring, so a caller
    with many colorings of one poset enumerates them once, and their pair
    masks (`EPartition._pairs`) with them.

    `same` masks the same-colored ordered pairs. A partition is kept,
    single-colored, when its pair mask lies inside `same`: one AND per
    partition. The answer is the kept partition least by (number of
    blocks, blocks); every kept one refines it exactly when the OR of the
    kept masks lies inside its mask, and PropertyFalsified otherwise, or
    when none is kept. TooLarge for a partition of more than
    ALL_EPARTITIONS_LIMIT elements, whose pair mask would alias. The scan
    reads only `blocks` and the pair masks made from them: no `refines`,
    `_lookup` or `_sees`."""
    colors = coloring.colors
    classes: dict = {}          # color -> mask of its elements
    for x, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | 1 << x
    same = 0
    for x, c in enumerate(colors):
        same |= classes[c] << ALL_EPARTITIONS_LIMIT * x
    outside = ~same
    kept = [part for part in parts if not part._pairs & outside]
    if not kept:
        raise PropertyFalsified("no color-respecting partition given")
    best = min(kept, key=lambda e: (len(e.blocks), e.blocks))
    union = 0
    for part in kept:
        union |= part._pairs
    if union & ~best._pairs:
        raise PropertyFalsified(
            "color-respecting partitions lack a greatest element")
    return best
