"""The per-poset memo: data derived from a poset alone (its top-down
order, cover masks, canonical form and generated-label rows) is computed
once per poset, kept immutable, and read by every later call. Each memo
value must equal a fresh computation, must survive every caller that
updates a copy of it, must not enter `==` or `hash`, and is never an
exception."""

import copy
import pickle
import random
from types import MappingProxyType

import pytest

from esakiakit import (Coloring, InvalidId, NotUpset, OutOfRange, Poset,
                       abomination_truncation, color_respecting_reduction,
                       compose_steps, ladder_id, ladder_truncation,
                       schedule_beta_reductions, verify_schedule)
from esakiakit.lemma import _label_rows, _ladder_rows, c_rows
from esakiakit.poset import _canonical_form, _cover_masks, _top_down
from esakiakit.randgen import random_poset, random_weak_coloring
from esakiakit.spaces import SpaceLabel, width_of

LADDERS = [(n, depth) for n in (0, 1, 2) for depth in range(6)]
TRUNCATIONS = [(2, 0), (2, 1), (2, 2), (3, 0)]


def seeded_posets(count=40, seed=34):
    rng = random.Random(seed)
    return [random_poset(rng, rng.randint(0, 12)) for _ in range(count)]


def reference_top_down(p):
    depths = p.depths()
    return sorted(range(p.n), key=lambda x: (depths[x], x))


def reference_cover_masks(p):
    succ, pred = [0] * p.n, [0] * p.n
    for x, y in p.covers:
        succ[x] |= 1 << y
        pred[y] |= 1 << x
    return succ, pred


def reference_rows(p, kind):
    rows = {}
    for x, text in enumerate(p.labels):
        lab = SpaceLabel.parse(text)
        if lab.kind == kind:
            rows.setdefault(lab.level, {})[lab.index] = x
    return rows


def frozen(value):
    """Whether a memo value is immutable all the way down: tuples and
    read-only maps of ints, strings and other such values."""
    if isinstance(value, (int, str, type(None))):
        return True
    if type(value) is tuple:
        return all(map(frozen, value))
    if type(value) is MappingProxyType:
        return all(map(frozen, value.keys())) and all(map(frozen, value.values()))
    return False


def assert_poset_helpers(p):
    order = _top_down(p)
    assert list(order) == reference_top_down(p)
    assert _top_down(p) is order
    masks = _cover_masks(p)
    succ, pred = masks
    assert (list(succ), list(pred)) == reference_cover_masks(p)
    assert _cover_masks(p) is masks
    form = p.canonical_form()
    assert form == _canonical_form(p)
    assert p.canonical_form() is form


def test_poset_helpers_equal_a_fresh_computation():
    spaces = [abomination_truncation(n, depth) for n, depth in TRUNCATIONS]
    spaces += [ladder_truncation(n, depth) for n, depth in LADDERS]
    for p in seeded_posets() + spaces:
        assert_poset_helpers(p)


def test_label_rows_equal_a_fresh_parse():
    for n, depth in TRUNCATIONS:
        z = abomination_truncation(n, depth)
        rows = c_rows(z)
        assert rows == reference_rows(z, "c")
        assert c_rows(z) is rows and _label_rows(z, "c") is rows
        assert _label_rows(z, "d") == reference_rows(z, "d")


def test_ladder_rows_equal_a_fresh_parse_on_every_ladder():
    for n, depth in LADDERS:
        v = ladder_truncation(n, depth)
        width = width_of(n)
        rows = _ladder_rows(v, width)
        assert rows == reference_rows(v, "y") == {
            m: {i: ladder_id(n, m, i) for i in range(width)}
            for m in range(depth + 1)}
        assert _ladder_rows(v, width) is rows
        assert _label_rows(v, "y") is rows


def warm(p):
    """Fill every memo entry that applies to p."""
    _top_down(p)
    _cover_masks(p)
    p.canonical_form()
    if p.labels is not None:
        for kind in ("c", "y"):
            _label_rows(p, kind)
        if all(lab.startswith("y") for lab in p.labels):
            _ladder_rows(p, max(len(row) for row in _label_rows(p, "y").values()))


def test_memo_values_are_immutable():
    spaces = [abomination_truncation(2, 1), ladder_truncation(2, 3),
              random_poset(random.Random(5), 9)]
    for p in spaces:
        warm(p)
        assert p._memo
        assert all(frozen(value) for value in p._memo.values())
    rows = c_rows(spaces[0])
    with pytest.raises(TypeError):
        rows[0] = {}
    with pytest.raises(TypeError):
        rows[0][0] = 1
    with pytest.raises(TypeError):
        _cover_masks(spaces[1])[0][0] = 0


def fresh(p):
    return Poset.from_covers(p.n, p.covers, p.labels)


def test_replays_in_turn_on_one_poset_match_replays_on_fresh_posets():
    """Replays update list copies of the memoized cover masks: running
    one after another on one poset gives the steps and kernels that each
    gives on a poset of its own, and the memo keeps its masks."""
    rng = random.Random(17)
    spaces = seeded_posets(30, seed=17) + [
        abomination_truncation(2, 1), ladder_truncation(2, 3),
        ladder_truncation(1, 5)]
    for p in spaces:
        before = _cover_masks(p)
        for _ in range(3):
            f = random_weak_coloring(rng, p, rng.randint(0, 2))
            q = fresh(p)
            part, steps = color_respecting_reduction(p, f)
            ref_part, ref_steps = color_respecting_reduction(
                q, Coloring.of(q, f.n, f.colors))
            assert steps == ref_steps and part.blocks == ref_part.blocks
            assert compose_steps(p, steps).blocks == ref_part.blocks
        assert _cover_masks(p) is before
        assert (list(before[0]), list(before[1])) == reference_cover_masks(p)


def test_schedules_in_turn_on_one_ladder_match_fresh_ladders():
    rng = random.Random(3)
    for n, depth in LADDERS:
        v = ladder_truncation(n, depth)
        for _ in range(3):
            f = random_weak_coloring(rng, v, n)
            sched = schedule_beta_reductions(v, f)
            verify_schedule(v, f, sched)
            w = ladder_truncation(n, depth)
            ref = schedule_beta_reductions(w, Coloring.of(w, n, f.colors))
            assert sched.steps == ref.steps
            assert sched.kernel.blocks == ref.kernel.blocks


def test_a_warm_memo_changes_neither_equality_nor_hash():
    builds = [lambda: abomination_truncation(2, 1),
              lambda: ladder_truncation(2, 3),
              lambda: random_poset(random.Random(7), 9)]
    for build in builds:
        cold, warmed = build(), build()
        before = hash(warmed)
        warm(warmed)
        assert warmed._memo and not cold._memo
        assert warmed == cold and cold == warmed
        assert hash(warmed) == hash(cold) == before


def test_a_warm_poset_pickles_and_copies_without_its_memo():
    z = abomination_truncation(2, 0)
    warm(z)
    for twin in (pickle.loads(pickle.dumps(z)), copy.deepcopy(z),
                 copy.copy(z)):
        assert twin == z and hash(twin) == hash(z) and twin.labels == z.labels
        assert not twin._memo
        assert c_rows(twin) == c_rows(z)


def test_a_mislabelled_ladder_raises_on_each_call():
    """A failed label parse or ladder check is never memoized: each call
    checks again, and raises again."""
    v = ladder_truncation(1, 2)
    f = Coloring.of(v, 1, [0] * v.n)
    labels = list(v.labels)
    a, b = ladder_id(1, 0, 0), ladder_id(1, 1, 0)
    labels[a], labels[b] = labels[b], labels[a]
    swapped = Poset.from_covers(v.n, v.covers, labels)
    labels = list(v.labels)
    labels[b] = labels[a]
    twice = Poset.from_covers(v.n, v.covers, labels)
    for bad, error in ((swapped, NotUpset), (twice, InvalidId)):
        g = Coloring.of(bad, 1, f.colors)
        for _ in range(2):
            with pytest.raises(error):
                schedule_beta_reductions(bad, g)
        assert ("ladder_rows", 4) not in bad._memo
    # A width the ladder fails is checked afresh beside one it passed.
    rows = _ladder_rows(v, 4)
    for _ in range(2):
        with pytest.raises(OutOfRange):
            _ladder_rows(v, 2)
    assert _ladder_rows(v, 4) is rows
