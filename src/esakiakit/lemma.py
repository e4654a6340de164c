"""Merge scheduling on ladder subspaces and its transport along an embedding.

Given a weak coloring of an upward-closed piece of a ladder, the
scheduler produces a sequence of same-color beta merges whose kernel
puts a merged pair into every full level. The strategy sweeps levels
from the top, fusing blocks that agree on color and on immediate
successors; when a level refuses to fuse completely, the colors in play
provably lose at least one bit, and the scheduler recurses on a
narrower column set whose width is twice the number of surviving color
bits.

The delta embedding sends ladder columns onto the c/d/ea rows of the
companion space, three ladder levels per row level. Replaying a ladder
schedule through it yields, for every full c-row, a merged c-pair. The
scheduler, `verify_schedule` and the transport do not trust the
combinatorial argument. Each replays its steps once, through one checked
replay on `compose_steps`, which refuses any step that is not a beta
merge and checks the replayed kernel alone; no poset is built. A
divergence raises PropertyFalsified.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .coloring import Coloring, _check_base, is_coloring, is_weak_coloring
from .errors import (EmbeddingMismatch, InvalidId, NotMergeable,
                     NotUpset, NotWeakColoring, OutOfRange,
                     PropertyFalsified, QuotientNotColorable)
from .poset import Poset, _is_id, mask_of
from .reduction import (EPartition, ReductionStep, _check_part,
                        coarsest_color_respecting, compose_steps, quotient)
from .spaces import SpaceLabel, ladder_truncation, width_of


@dataclass(frozen=True)
class Schedule:
    """Ordered beta merges on `source`, with their accumulated kernel."""

    source: Poset
    steps: tuple[ReductionStep, ...]
    kernel: EPartition


# A row map, level -> {index -> element}: read-only at both depths.
_Rows = Mapping[int, Mapping[int, int]]


def _label_rows(p: Poset, kind: str) -> _Rows:
    """level -> {index -> element} for the `kind`-labeled points of p;
    InvalidId when p is unlabeled or a label names two elements. Parsed
    once per poset and kind and kept in the poset's memo as read-only
    maps; a poset whose labels raise is parsed, and raises, each time."""
    rows = p._memo.get(("label_rows", kind))
    if rows is not None:
        return rows
    if p.labels is None:
        raise InvalidId("expected generated labels")
    parsed: dict[int, dict[int, int]] = {}
    for x, text in enumerate(p.labels):
        lab = SpaceLabel.parse(text)
        if lab.kind == kind:
            row = parsed.setdefault(lab.level, {})
            if lab.index in row:
                raise InvalidId(f"label {text!r} names elements {row[lab.index]} and {x}")
            row[lab.index] = x
    rows = p._memo["label_rows", kind] = MappingProxyType(
        {m: MappingProxyType(row) for m, row in parsed.items()})
    return rows


def _ladder_rows(v: Poset, width: int) -> _Rows:
    """Validate that v is an upward-closed chunk of a ladder and return
    level -> {column -> element}, the y-rows of `_label_rows`. Validated
    once per poset and width: the rows are kept in the poset's memo once
    they pass, and a poset that fails is checked, and raises, each time."""
    key = ("ladder_rows", width)
    rows = v._memo.get(key)
    if rows is not None:
        return rows
    rows = _label_rows(v, "y")
    if sum(map(len, rows.values())) != v.n:
        raise InvalidId("a ladder subspace holds only y-labeled points")
    for m, row in rows.items():
        above = rows.get(m - 1, {})
        for i, x in row.items():
            if i >= width:
                raise OutOfRange(f"column {i} exceeds width {width}")
            if m and len(above) - (i in above) != width - 1:
                raise NotUpset(f"level {m - 1} misses successors of column {i}")
            if v.covers_up(x) != tuple(sorted(y for j, y in above.items() if j != i)):
                raise NotUpset("cover relation does not match the ladder pattern")
    v._memo[key] = rows
    return rows


def _full(rows: _Rows, width: int) -> list[int]:
    """Levels of a row map holding all `width` indices, ascending."""
    return sorted(m for m, row in rows.items() if len(row) == width)


def _merged_pair(part: EPartition, row: Mapping[int, int]) -> tuple[int, int] | None:
    """The first two indices of `row` whose elements share a block of
    `part`, or None."""
    seen: dict[int, int] = {}
    for i in sorted(row):
        b = part.block_of(row[i])
        if b in seen:
            return seen[b], i
        seen[b] = i
    return None


def _checked_replay(p: Poset, steps: tuple[ReductionStep, ...], f: Coloring,
                    rows: _Rows, full: list[int],
                    row: str) -> tuple[EPartition, dict[int, tuple[int, int]]]:
    """The one checked replay of a schedule and of its lift: the kernel of
    `steps` on p, replayed by `compose_steps`, and the merged index pair
    of each `full` row of `rows`. PropertyFalsified, naming the step's
    position, for a step that is not a beta merge or does not replay;
    PropertyFalsified when a kernel block mixes colors of f, or a full row
    has no merged pair."""
    at = 0

    def beta_steps():
        nonlocal at
        for at, step in enumerate(steps):
            if step.kind != "beta":
                raise PropertyFalsified(
                    f"step {at} {step.pair} is {step.kind!r}, not a beta merge")
            yield step

    try:
        ker = compose_steps(p, beta_steps())
    except NotMergeable as exc:
        u, v = (p.labels[x] for x in steps[at].pair)
        raise PropertyFalsified(
            f"step {at} ({u}, {v}) stopped being beta-valid: {exc}") from exc
    for block in ker.blocks:
        if len({f.colors[x] for x in block}) > 1:
            raise PropertyFalsified(f"kernel block {block} mixes colors")
    levels = {m: _merged_pair(ker, rows[m]) for m in full}
    for m, pair in levels.items():
        if pair is None:
            raise PropertyFalsified(f"full {row} {m} has no merged pair")
    return ker, levels


def _lowest(col: list) -> int:
    """Bit of the column's smallest original index; orders columns by it."""
    return col[0] & -col[0]


def schedule_beta_reductions(v: Poset, f: Coloring) -> Schedule:
    """Same-color beta merges leaving a merged pair in every full level.

    The sweep descends level by level, fusing blocks with equal color and
    equal immediate-successor sets. A level where some color splits into
    several successor classes triggers the narrowing recursion described
    in the module docstring. The steps are then replayed once, by the
    checked replay `verify_schedule` uses, on the ladder rows already read,
    and the Schedule keeps the kernel that replay computed: a returned
    Schedule is always valid and needs no second check.
    """
    if not is_weak_coloring(v, f):
        raise NotWeakColoring("scheduler needs an order preserving coloring")
    width = width_of(f.n)
    rows = _ladder_rows(v, width)

    # The levels are 0..len(rows)-1: a ladder chunk is upward closed. Each
    # level keeps its columns as [index mask, color, representative], and
    # the mask of its indices still unfused (alone in their column).
    columns = [[[1 << i, f.colors[x], x] for i, x in rows[m].items()]
               for m in range(len(rows))]
    unfused = [mask_of(rows[m]) for m in range(len(rows))]
    steps: list[ReductionStep] = []

    def fuse(m: int, group: list[list]) -> None:
        group = sorted(group, key=_lowest)
        head = group[0]
        for other in group[1:]:
            steps.append(ReductionStep("beta", tuple(sorted((head[2], other[2])))))
            head[0] |= other[0]
            head[2] = min(head[2], other[2])
            columns[m].remove(other)
        unfused[m] &= ~head[0]

    def run(active: int, lo: int, bits: int) -> None:
        for m in range(lo, len(columns)):
            blocks = [c for c in columns[m] if not c[0] & ~active]
            if not blocks:
                break
            # The successor class: a column's own bit when it is one index
            # still unfused at level m-1 (above it lies all of that level
            # but its own index), else 0 (all of level m-1, or the top).
            above = unfused[m - 1] if m else 0
            classes: dict[tuple[int, int], list[list]] = {}
            for c in blocks:
                mask = c[0]
                succ = mask if mask & above and not mask & (mask - 1) else 0
                classes.setdefault((c[1], succ), []).append(c)
            if len({color for color, _succ in classes}) == len(classes):
                for group in classes.values():
                    if len(group) > 1:
                        fuse(m, group)
                continue
            covered = joined = 0
            for c in blocks:
                covered |= c[0]
                joined |= c[1]
            if covered != active:
                return                      # no further full levels below
            surviving = joined.bit_count()
            if surviving >= bits:
                raise PropertyFalsified(
                    f"level {m}: colors kept all {bits} bits while split")
            goal = 1 << (surviving + 1)
            chosen: list[list] = []
            for color in sorted({c[1] for c in blocks}):
                best = max(
                    (g for (col, _s), g in classes.items() if col == color),
                    key=lambda g: (len(g), -min(map(_lowest, g))))
                best = sorted(best, key=_lowest)
                take = min(len(best), goal - len(chosen))
                chosen.extend(best[:take])
                if len(chosen) == goal:
                    break
            if len(chosen) < goal:
                raise PropertyFalsified(
                    f"level {m}: only {len(chosen)} columns available, "
                    f"need {goal}")
            # the chosen columns are disjoint, so their sum is their union
            run(sum(c[0] for c in chosen), m, surviving)
            return

    run((1 << width) - 1, 0, f.n)
    done = tuple(steps)
    ker, _levels = _checked_replay(v, done, f, rows, _full(rows, width), "level")
    return Schedule(v, done, ker)


def full_levels(v: Poset, width: int) -> list[int]:
    """Levels of a labeled ladder subspace holding all `width` columns."""
    return _full(_ladder_rows(v, width), width)


def verify_schedule(v: Poset, f: Coloring, schedule: Schedule) -> None:
    """Independent replay: each step a beta merge that replays
    (`compose_steps`), the replayed kernel equal to the stored one,
    color-respecting, and with a merged pair inside every full level.
    Builds no poset. InvalidId, before any merge, for a schedule of
    another poset or a coloring of another poset; PropertyFalsified on any
    failed claim, a step that does not replay included."""
    if schedule.source != v:
        raise InvalidId("schedule was built on a different poset")
    _check_base(v, f)
    width = width_of(f.n)
    rows = _ladder_rows(v, width)
    ker, _levels = _checked_replay(v, schedule.steps, f, rows,
                                   _full(rows, width), "level")
    if ker != schedule.kernel:
        raise PropertyFalsified("stored kernel disagrees with replay")


@dataclass(frozen=True)
class DeltaMap:
    """Embedding of a full ladder prefix onto the c, d, ea rows."""

    n: int
    depth: int                    # deepest c-row reached
    source: Poset
    target: Poset
    mapping: tuple[int, ...]      # source element -> target element

    def __call__(self, x: int) -> int:
        """The image of ladder id x; InvalidId for anything but a plain
        int in 0..n-1 of the source (bools and floats included)."""
        if not (_is_id(x) and 0 <= x < self.source.n):
            raise InvalidId(f"ladder id {x!r} outside 0..{self.source.n - 1}")
        return self.mapping[x]


_ROW_KINDS = ("c", "d", "ea")


def delta_map(n: int, depth: int, target: Poset) -> DeltaMap:
    """Build the embedding y(3r+s, i) -> {c, d, ea}(r, i) into `target`.

    The target must carry generated labels and contain every image; the
    map is checked to be an order embedding, element by element.
    """
    if target.labels is None:
        raise EmbeddingMismatch("target carries no labels to match against")
    source = ladder_truncation(n, 3 * depth)
    lookup = {lab: x for x, lab in enumerate(target.labels)}
    mapping = []
    for x in range(source.n):
        lab = SpaceLabel.parse(source.labels[x])
        r, s = divmod(lab.level, 3)
        image = str(SpaceLabel(_ROW_KINDS[s], r, lab.index))
        if image not in lookup:
            raise EmbeddingMismatch(f"target misses {image}")
        mapping.append(lookup[image])
    for x in range(source.n):
        for y in range(source.n):
            if source.leq(x, y) != target.leq(mapping[x], mapping[y]):
                raise EmbeddingMismatch(
                    f"comparability of ({source.labels[x]}, {source.labels[y]}) "
                    "not preserved")
    return DeltaMap(n, depth, source, target, tuple(mapping))


@dataclass(frozen=True)
class LiftCertificate:
    """Outcome of transporting a ladder schedule: one merged index pair
    per full c-row, the ladder schedule's steps (in ladder ids), and the
    kernel of their delta images on z."""

    levels: dict[int, tuple[int, int]]
    steps: tuple[ReductionStep, ...]
    kernel: EPartition


def c_rows(z: Poset) -> _Rows:
    """level -> {index -> element} for the c-labeled points of z, as
    read-only maps parsed once per poset (`_label_rows`)."""
    return _label_rows(z, "c")


def full_c_levels(z: Poset, n: int) -> list[int]:
    return _full(c_rows(z), width_of(n))


def merges_every_full_c_row(z: Poset, part: EPartition, n: int) -> bool:
    """Does every full c-row of z hold two elements in one block of `part`?
    InvalidId unless `part` is an `EPartition` of z."""
    _check_part(z, part)
    rows = c_rows(z)
    return all(_merged_pair(part, rows[p]) is not None
               for p in _full(rows, width_of(n)))


def lift_schedule(z: Poset, f: Coloring, delta: DeltaMap,
                  schedule: Schedule) -> LiftCertificate:
    """Replay a ladder schedule on the delta images inside z.

    The steps are mapped through delta, then replayed on z by the same
    checked replay as `verify_schedule`, so no poset is built. The
    structure of the two spaces guarantees that every image is a beta
    merge that replays, so a failure is reported as PropertyFalsified,
    naming the step's position, not as a plain error. The kernel check is
    the schedule's: no block of the kernel mixes colors of f (the two ends
    of a step share a block, so this covers every step), and every full
    c-row of z ends up with a merged pair. The kernel must also sit inside
    the coarsest color-respecting partition. InvalidId, before any merge,
    when the schedule and delta were built on different ladders, delta
    embeds into a poset other than z, or a step names an id outside the
    ladder.
    """
    if schedule.source != delta.source:
        raise InvalidId("schedule and delta built on different ladders")
    if delta.target is not z and delta.target != z:
        raise InvalidId("delta embeds into a different poset than z")
    if not is_weak_coloring(z, f):
        raise NotWeakColoring("lift needs an order preserving coloring on z")
    rows = c_rows(z)
    full = _full(rows, width_of(delta.n))
    if any(p > delta.depth for p in full):
        raise OutOfRange("delta embedding stops above a full c-row of z")

    lifted = tuple(ReductionStep(s.kind, tuple(map(delta, s.pair)))
                   for s in schedule.steps)
    ker, levels = _checked_replay(z, lifted, f, rows, full, "c-row")
    if not ker.refines(coarsest_color_respecting(z, f)):
        raise PropertyFalsified(
            "lifted kernel escapes the coarsest color-respecting partition")
    return LiftCertificate(levels, schedule.steps, ker)


def corollary_certificate(z: Poset, f: Coloring, n: int) -> LiftCertificate:
    """End-to-end transport: pick the deepest full c-row of z, build the
    embedding and the ladder schedule for the pulled-back coloring, and
    lift it. With no full c-row the certificate is empty. InvalidId
    unless f is a `Coloring` of z."""
    _check_base(z, f)
    full = full_c_levels(z, n)
    if not full:
        return LiftCertificate({}, (), EPartition.identity(z))
    delta = delta_map(n, max(full), z)
    pulled = Coloring.of(delta.source, n,
                         [f.colors[delta(x)] for x in range(delta.source.n)])
    schedule = schedule_beta_reductions(delta.source, pulled)
    return lift_schedule(z, f, delta, schedule)


def corollary_check(z: Poset, part: EPartition, n: int,
                    witness: Coloring) -> bool:
    """Does every full c-row of z contain a pair merged by `part`?

    `witness` must be a coloring of order n of the quotient by `part`
    (as a census entry carries), or QuotientNotColorable is raised; no
    coloring is searched for; InvalidId if it is not a `Coloring`, or if
    `part` is not an `EPartition` of z (checked by `quotient`). The
    structural claim is that the answer is always yes; callers treat a
    False as a falsification event.
    """
    if not isinstance(witness, Coloring):
        raise InvalidId(f"witness {type(witness).__name__} is not a Coloring")
    quot = quotient(z, part)[0]
    if not is_coloring(quot, Coloring.of(quot, n, witness.colors)):
        raise QuotientNotColorable("provided witness is not a valid coloring")
    return merges_every_full_c_row(z, part, n)
