"""The in-place merge replay against the per-merge replay it replaced.

`ReferenceReplay` rebuilds the current poset through `merge_step` below
(and so `quotient`) after every merge and rescans it with
`mergeable_pairs`, the full sorted list of moves, also below. The replay
in `esakiakit.reduction` updates masks, covers and depths in place and
builds no poset; its final poset here is `current_poset`, the quotient
by its kernel renumbered to its current ids. It must give the same
steps, kernels, final posets and errors, and its per-slot state must
describe the current poset after every merge. Other test modules import
both references and `current_poset` from here."""

import random
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import esakiakit.reduction as reduction
from esakiakit import (Coloring, NotEPartition, Poset, ReductionStep,
                       Schedule, abomination_truncation,
                       color_respecting_reduction, compose_steps,
                       decompose_pmorphism, delta_map, ladder_id,
                       ladder_truncation, lift_schedule, quotient,
                       schedule_beta_reductions)
from esakiakit.errors import EsakiaKitError, InvalidId, NotMergeable
from esakiakit.poset import ids_of, mask_of
from esakiakit.randgen import random_poset, random_weak_coloring
from esakiakit.reduction import (EPartition, _check_pair, alpha_mergeable,
                                 beta_mergeable, kernel)

from test_poset import covers_down, permuted


def mergeable_pairs(p: Poset) -> list[tuple[str, int, int]]:
    """Every single-pair move, deterministically ordered by
    (depth of the merged-from element, ids, kind)."""
    depths = p.depths()
    out = []
    twins: dict[tuple[int, ...], list[int]] = {}
    for x in range(p.n):
        succ = p.covers_up(x)
        if len(succ) == 1:
            out.append((depths[x], x, succ[0], 0, "alpha"))
        twins.setdefault(succ, []).append(x)
    for group in twins.values():
        for i, x in enumerate(group):
            for y in group[i + 1:]:
                out.append((depths[x], x, y, 1, "beta"))
    out.sort()
    return [(kind, x, y) for _, x, y, _, kind in out]


def merge_step(p: Poset, kind: str, x: int, y: int) -> tuple[Poset, tuple[int, ...]]:
    """Apply one alpha or beta merge by taking a quotient; returns (reduced
    poset, projection). `quotient` is looked up on the module at call time,
    so a test that patches `reduction.quotient` sees these calls."""
    if kind == "alpha":
        ok = alpha_mergeable(p, x, y)
    elif kind == "beta":
        ok = beta_mergeable(p, x, y)
    else:
        raise InvalidId(f"unknown step kind {kind!r}")
    if not ok:
        raise NotMergeable(f"pair ({x}, {y}) is not {kind}-mergeable")
    return reduction.quotient(
        p, kernel(p, [x if z == y else z for z in range(p.n)]))


def current_poset(replay) -> Poset:
    """The in-place replay's current poset in its current ids: the
    `quotient` of the base by the replay's kernel, each block renamed from
    the quotient's id to `pos` of its slot. InvalidId when those names are
    not a permutation of the blocks."""
    q, proj = quotient(replay.base, replay.kernel())
    perm = [0] * q.n
    for x, s in enumerate(replay.owner):
        perm[proj[x]] = replay.pos[s]
    return permuted(q, perm)


class ReferenceReplay:
    """A poset under a sequence of merges, one quotient per merge.

    Tracks the original -> current projection and, for each current
    element, the original id that names it in recorded steps: the name of
    its lowest-numbered preimage one merge back.
    """

    def __init__(self, p: Poset):
        self.base = p
        self.cur = p
        self.proj = list(range(p.n))
        self.names = list(range(p.n))

    def merge(self, kind: str, x: int, y: int) -> ReductionStep:
        _check_pair(self.base, x, y)
        bx, by = self.proj[x], self.proj[y]
        if bx == by:
            raise NotMergeable(f"pair {(x, y)} already identified")
        try:
            self.cur, pi = merge_step(self.cur, kind, bx, by)
        except NotMergeable:
            raise NotMergeable(f"pair {(x, y)} is not {kind}-mergeable") from None
        names = [0] * self.cur.n
        for z in reversed(range(len(pi))):      # lowest preimage written last
            names[pi[z]] = self.names[z]
        self.names = names
        self.proj = [pi[v] for v in self.proj]
        return ReductionStep(kind, (x, y))

    def greedy(self, values: Sequence) -> list[ReductionStep]:
        steps = []
        while moves := same_valued_moves(self, values):
            kind, x, y = moves[0]
            steps.append(self.merge(kind, self.names[x], self.names[y]))
        return steps

    def kernel(self) -> EPartition:
        return kernel(self.base, self.proj)


def same_valued_moves(ref, values):
    """The reference's same-valued single-pair moves, in current ids and
    in `mergeable_pairs` order."""
    cur_values = [values[v] for v in ref.names]
    return [(kind, x, y) for kind, x, y in mergeable_pairs(ref.cur)
            if cur_values[x] == cur_values[y]]


def lockstep(p, values, pick):
    """Step the in-place replay and the reference on p together. At every
    state `pick(replay, moves, merges)` gets the reference's same-valued
    moves and the number of merges so far, and returns one of the moves,
    or None to stop. At every state `least` must find the reference's
    least move; after every merge both must record the same step and
    name the same slots. Returns both replays and the number of merges."""
    replay, ref = reduction._Replay(p), ReferenceReplay(p)
    merges = 0
    while True:
        moves = same_valued_moves(ref, values)
        assert replay.least(values) == (moves[0] if moves else None), \
            (p, values, merges)
        move = pick(replay, moves, merges)
        if move is None:
            return replay, ref, merges
        kind, x, y = move
        step = replay.merge(kind, replay.names[x], replay.names[y])
        assert step == ref.merge(kind, ref.names[x], ref.names[y])
        assert replay.names == ref.names
        merges += 1


def assert_same_greedy(p, values, seed=None):
    """Both replays reduce p by `values` with their own greedy; with a
    seed, both take the same moves, drawn at random from the reference's
    same-valued moves, in lockstep. They must end on the same steps,
    kernels and final posets."""
    if seed is None:
        replay, ref = reduction._Replay(p), ReferenceReplay(p)
        steps = replay.greedy(values)
        assert steps == ref.greedy(values), (p, values)
        merges = len(steps)
    else:
        rng = random.Random(seed)
        replay, ref, merges = lockstep(
            p, values,
            lambda _replay, moves, _merges: rng.choice(moves) if moves else None)
    cur = current_poset(replay)
    assert (replay.kernel(), cur, cur.depths()) == \
        (ref.kernel(), ref.cur, ref.cur.depths()), (p, values)
    return merges


def test_greedy_matches_the_reference_on_seeded_posets():
    rng = random.Random(83)
    steps = 0
    for _ in range(3000):
        p = random_poset(rng, rng.randint(0, 30))
        f = random_weak_coloring(rng, p, rng.randint(1, 3))
        steps += assert_same_greedy(p, f.colors)
    assert steps > 25000


@pytest.mark.parametrize("n,depth", [(2, 1), (2, 2), (3, 1)])
def test_greedy_matches_the_reference_on_truncations(n, depth):
    z = abomination_truncation(n, depth)
    rng = random.Random(f"truncation {n} {depth}")
    for _ in range(8):
        assert assert_same_greedy(z, random_weak_coloring(rng, z, n).colors)


def test_greedy_matches_the_reference_on_every_ladder():
    rng = random.Random(89)
    for n in (0, 1, 2):
        for depth in range(6):
            v = ladder_truncation(n, depth)
            for order in range(n + 1):
                for _ in range(3):
                    assert_same_greedy(v, random_weak_coloring(rng, v, order).colors)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 24), st.integers(1, 3),
       st.integers(0, 2**32 - 1))
def test_scrambled_greedy_matches_the_reference(seed, n, order, scramble):
    rng = random.Random(seed)
    p = random_poset(rng, n)
    assert_same_greedy(p, random_weak_coloring(rng, p, order).colors, scramble)


def assert_state_matches_cur(replay):
    """Every live slot's down mask, covers and depth, read through the
    live slots `names` and mapped to current ids by `pos`, are those of
    `current_poset`; `pred` is the transpose of `succ`; `members` holds
    exactly the originals a slot owns; no dead slot is anyone's cover;
    every live slot lies in the level of its depth and in no other, and
    the levels together are the live slots; and while no depth has moved
    since the last sort, `names` is in depth order."""
    cur, pos, names = current_poset(replay), replay.pos, replay.names
    live = mask_of(names)
    down, succ, pred, level = replay.down, replay.succ, replay.pred, replay.level

    def current(mask):
        return mask_of(pos[t] for t in ids_of(mask))

    owned = {}
    for x, s in enumerate(replay.owner):
        owned.setdefault(s, []).append(x)
    assert sorted(owned) == sorted(names)
    for s in names:
        x = pos[s]
        assert names[x] == s
        assert current(down[s] & live) == cur.down_mask(x)
        assert not (succ[s] | pred[s]) & ~live
        assert current(succ[s]) == mask_of(cur.covers_up(x))
        assert current(pred[s]) == mask_of(covers_down(cur, x))
        assert all(pred[t] >> s & 1 for t in ids_of(succ[s]))
        assert replay.depth[s] == cur.depths()[x]
        assert [d for d, row in enumerate(level) if row >> s & 1] == [cur.depths()[x]]
        assert sorted(replay.members[s]) == owned[s]
    union = 0
    for row in level:
        union |= row
    assert union == live
    if not replay._unsorted:
        depths = [replay.depth[s] for s in names]
        assert depths == sorted(depths)


def assert_state_holds_after_every_merge(p, values, rng=None):
    """Merge by the least move, or with `rng` by a random one of the
    reference's same-valued moves, and check the replay's state after
    every merge."""
    def pick(replay, moves, _merges):
        assert_state_matches_cur(replay)
        if not moves:
            return None
        return moves[0] if rng is None else rng.choice(moves)
    lockstep(p, values, pick)


def test_replay_state_matches_the_current_poset():
    rng = random.Random(101)
    for i in range(400):
        p = random_poset(rng, rng.randint(0, 30))
        f = random_weak_coloring(rng, p, rng.randint(1, 3))
        assert_state_holds_after_every_merge(
            p, f.colors, random.Random(i) if i % 2 else None)
    for n, depth in ((2, 1), (2, 2), (3, 1)):
        z = abomination_truncation(n, depth)
        for _ in range(2):
            assert_state_holds_after_every_merge(
                z, random_weak_coloring(rng, z, n).colors)
    for n in (0, 1, 2):
        for depth in range(6):
            v = ladder_truncation(n, depth)
            for order in range(n + 1):
                assert_state_holds_after_every_merge(
                    v, random_weak_coloring(rng, v, order).colors)


def assert_least_is_the_least_candidate(p, values, rng):
    """Stop the greedy after a random number of merges; the one-pass pick
    at the state reached, and at every state before it, is the least of
    the reference's same-valued moves."""
    stop = rng.randint(0, p.n)
    return lockstep(p, values, lambda _replay, moves, merges:
                    None if merges == stop or not moves else moves[0])[2]


def least_move_inputs(rng):
    """Seeded posets and truncation colorings as (poset, values), drawn
    lazily from `rng`, so a caller's own draws between inputs stay in
    sequence."""
    for _ in range(1500):
        p = random_poset(rng, rng.randint(0, 30))
        yield p, random_weak_coloring(rng, p, rng.randint(1, 3)).colors
    for n, depth in ((2, 1), (2, 2), (3, 1)):
        z = abomination_truncation(n, depth)
        for _ in range(4):
            yield z, random_weak_coloring(rng, z, n).colors


def test_least_move_matches_the_candidate_list():
    rng = random.Random(97)
    states = 0
    for p, values in least_move_inputs(rng):
        states += assert_least_is_the_least_candidate(p, values, rng) + 1
    assert states > 10000


class FloorCheckingReplay(reduction._Replay):
    """Checks every floor the greedy passes to `least`: it skips no move
    that the unfloored scan finds, and it is the depth of the move before."""

    __slots__ = ("depths",)

    def least(self, values, floor=0):
        move = super().least(values)
        assert super().least(values, floor) == move
        assert floor == (self.depths[-1] if self.depths else 0)
        if move is not None:
            self.depths.append(self.depth[self.names[move[1]]])
        return move


def test_the_least_move_depth_never_decreases():
    """The floor is sound: the default greedy's moves come in
    non-decreasing depth, and `least` above the last move's depth finds
    the same move as without a floor."""
    rng = random.Random(97)
    moves = 0
    for p, values in least_move_inputs(rng):
        rng.randint(0, p.n)     # the candidate-list test's stop draw
        replay = FloorCheckingReplay(p)
        replay.depths = []
        steps = replay.greedy(values)
        assert replay.depths == sorted(replay.depths)
        assert len(steps) == len(replay.depths)
        moves += len(steps)
    assert moves > 10000


def outcome(fn, *args):
    """(exception type, message), or the result when nothing was raised."""
    try:
        return fn(*args)
    except EsakiaKitError as exc:
        return type(exc), str(exc)


def chain(n):
    return Poset.from_covers(n, [(i, i + 1) for i in range(n - 1)])


def error_outcomes():
    """The error paths of the replay's callers, with ids renumbered by an
    earlier merge where that shows in a message."""
    v = Poset.from_covers(3, [(0, 1), (0, 2)])
    c4 = chain(4)
    out = []

    def merges(p, *moves):
        replay = reduction._Replay(p)
        return [outcome(replay.merge, *move) for move in moves]

    out += merges(v, ("beta", 1, 2), ("beta", 2, 1), ("gamma", 0, 1),
                  ("beta", -1, 1), ("beta", 1, 3), ("alpha", 0, 1))
    # After alpha (2, 3) the current ids of originals 0 and 1 are 2 and 1;
    # the messages name the originals.
    out += merges(c4, ("alpha", 2, 3), ("beta", 0, 1), ("alpha", 3, 2),
                  ("gamma", 0, 3), ("alpha", 4, 0))
    for pairs in ([("beta", (1, 2)), ("beta", (1, 2))], [("gamma", (1, 2))],
                  [("beta", (-1, 1))], [("beta", (1, 3))], [("beta", (0, 1))]):
        out.append(outcome(compose_steps, v, [ReductionStep(*s) for s in pairs]))
    out.append(outcome(compose_steps, c4, [ReductionStep("alpha", (2, 3)),
                                           ReductionStep("beta", (0, 1))]))
    for p, q, f in ((v, chain(2), (0, 1, 0)), (chain(2), chain(2), (1, 1)),
                    (v, chain(2), (0, 1)), (v, chain(2), (0, 1, 2)),
                    (v, chain(2), (0, 1, 1))):
        out.append(outcome(decompose_pmorphism, p, q, f))

    z = abomination_truncation(2, 1)
    delta = delta_map(2, 1, z)
    f = Coloring.of(z, 2, [0] * z.n)
    sched = schedule_beta_reductions(delta.source, Coloring.of(
        delta.source, 2, [0] * delta.source.n))
    first = sched.steps[:3]
    apart = ReductionStep("beta", (ladder_id(2, 0, 0), ladder_id(2, 1, 0)))
    # test_reduction imports this module, so its helper is read at call time
    from test_reduction import from_pairs
    for steps in (first + first[:1], first + (apart,)):
        bad = Schedule(delta.source, steps,
                       from_pairs(delta.source, (s.pair for s in steps)))
        out.append(outcome(lift_schedule, z, f, delta, bad))
    return out


def test_error_paths_match_the_reference(monkeypatch):
    got = error_outcomes()
    monkeypatch.setattr(reduction, "_Replay", ReferenceReplay)   # the lift's too
    expected = error_outcomes()
    assert got == expected
    messages = [o[1] for o in got if isinstance(o, tuple) and len(o) == 2
                and isinstance(o[0], type)]
    assert messages.count("pair (0, 1) is not beta-mergeable") == 3
    assert "pair (2, 1) is not beta-mergeable" not in messages
    assert "pair (1, 2) already identified" in messages
    assert "unknown step kind 'gamma'" in messages
    assert sum("stopped being beta-valid" in m for m in messages) == 2


def test_a_kernel_failing_the_final_check_is_refused(monkeypatch):
    """Every caller of the replay's kernel gets the final check."""
    p = chain(3)
    f = Coloring.of(p, 1, [0, 0, 0])
    z = abomination_truncation(2, 1)
    delta = delta_map(2, 1, z)
    sched = schedule_beta_reductions(delta.source, Coloring.of(
        delta.source, 2, [0] * delta.source.n))
    monkeypatch.setattr(reduction, "is_epartition", lambda q, part: False)
    with pytest.raises(NotEPartition):
        color_respecting_reduction(p, f)
    with pytest.raises(NotEPartition):
        compose_steps(p, [ReductionStep("alpha", (1, 2))])
    with pytest.raises(NotEPartition):
        lift_schedule(z, Coloring.of(z, 2, [0] * z.n), delta, sched)
