import hashlib
import random

import pytest

import esakiakit.lemma as lemma
import esakiakit.reduction as reduction
import esakiakit.suite as suite
from esakiakit import (Coloring, EmbeddingMismatch, EPartition, InvalidId,
                       NotMergeable, NotUpset, NotWeakColoring, OutOfRange,
                       Poset,
                       PropertyFalsified, QuotientNotColorable, ReductionStep,
                       Schedule, abomination_truncation, compose_steps,
                       corollary_certificate, corollary_check, delta_map,
                       full_c_levels, full_levels, ladder_id,
                       ladder_truncation, lift_schedule, quotient,
                       quotient_census, schedule_beta_reductions,
                       verify_schedule)
from esakiakit.lemma import _label_rows, c_rows, merges_every_full_c_row
from esakiakit.poset import _top_down
from esakiakit.randgen import random_weak_coloring
from esakiakit.suite import SCHEDULE_RUNS, check_ladder_schedules

from test_poset import permuted
from test_reduction import from_pairs


CENSUS_4_SEED = 0


def constant(p, n):
    return Coloring.of(p, n, [0] * p.n)


def test_constant_coloring_fuses_each_level():
    v = ladder_truncation(0, 2)
    sched = schedule_beta_reductions(v, constant(v, 0))
    assert [s.pair for s in sched.steps] == [(0, 1), (2, 3), (4, 5)]
    assert all(s.kind == "beta" for s in sched.steps)
    assert sorted(len(b) for b in sched.kernel.blocks) == [2, 2, 2]


def test_split_level_triggers_narrowing():
    v = ladder_truncation(2, 3)
    colors = [3, 3, 1, 2, 3, 3, 3, 3] + [0] * 24
    sched = schedule_beta_reductions(v, Coloring.of(v, 2, colors))
    assert [s.pair for s in sched.steps] == [
        (0, 1), (0, 4), (0, 5), (0, 6), (0, 7),
        (8, 9), (16, 17), (24, 25)]


def test_partial_chunk_gives_empty_schedule():
    v = ladder_truncation(0, 2)
    chunk, _ = v.principal_upset(ladder_id(0, 2, 0))
    sched = schedule_beta_reductions(chunk, constant(chunk, 0))
    assert sched.steps == ()
    assert full_levels(chunk, 2) == []


def test_full_levels():
    v = ladder_truncation(1, 2)
    assert full_levels(v, 4) == [0, 1, 2]


def test_coordinate_validation():
    z = abomination_truncation(2, 0)
    with pytest.raises(InvalidId):
        schedule_beta_reductions(z, constant(z, 2))
    antichain, _ = ladder_truncation(0, 1).induced(0b1100)
    with pytest.raises(NotUpset):
        schedule_beta_reductions(antichain, constant(antichain, 0))
    wide = ladder_truncation(1, 0)
    with pytest.raises(OutOfRange):
        schedule_beta_reductions(wide, constant(wide, 0))
    fake = Poset.from_covers(2, [], ["y0_0", "y1_1"])
    with pytest.raises(NotUpset):
        schedule_beta_reductions(fake, constant(fake, 0))
    partly = Poset.from_covers(2, [], ["y0_0", None])
    with pytest.raises(InvalidId, match="bad label None"):
        full_levels(partly, 2)


def test_scheduler_rejects_non_weak_colorings():
    v = ladder_truncation(0, 1)
    bad = Coloring.of(v, 1, [0, 0, 1, 1])
    with pytest.raises(NotWeakColoring):
        schedule_beta_reductions(v, bad)


def test_random_schedules_verify():
    rng = random.Random(7)
    runs = 0
    for n in (0, 1, 2):
        for depth in range(5):
            for _ in range(2):
                v = ladder_truncation(n, depth)
                f = random_weak_coloring(rng, v, n)
                sched = schedule_beta_reductions(v, f)
                verify_schedule(v, f, sched)
                for block in sched.kernel.blocks:
                    assert len({f.colors[x] for x in block}) == 1
                runs += 1
    assert runs == 30


SCHEDULE_DIGEST_SEED = 2028
# sha256 of the steps and kernel blocks of the 204 schedules that
# `schedule_digest_cases` feeds the scheduler, recorded on the scheduler
# that kept column objects and a (level, index) -> column map.
SCHEDULE_DIGEST = "a4b8fe8ae750856b83b84393adc0582db9e974a975ba34584a3bea5bb936e733"


def keen_coloring(rng, p, n):
    """A weak coloring that keeps the meet of its successors' colors with
    probability 0.6 and draws a random submask of it otherwise, so colors
    survive deep into a ladder and levels split."""
    colors = [0] * p.n
    for x in _top_down(p):
        ceiling = (1 << n) - 1
        for y in p.covers_up(x):
            ceiling &= colors[y]
        colors[x] = ceiling if rng.random() < 0.6 else rng.getrandbits(n) & ceiling
    return Coloring.of(p, n, colors)


def shuffled(rng, p):
    perm = list(range(p.n))
    rng.shuffle(perm)
    return permuted(p, perm)


def schedule_digest_cases(rng):
    """Seeded colorings of the full ladders at n = 0-2 and depths 0-4, of
    upward-closed chunks of them, and of the same ladders again. Chunks
    and repeats have shuffled ids, so a column's representative does not
    follow its index."""
    for n in (0, 1, 2):
        for depth in range(5):
            v = ladder_truncation(n, depth)
            for _ in range(6):
                yield v, keen_coloring(rng, v, n)
            for _ in range(6):
                up = 0
                for x in range(v.n):
                    if rng.random() < 0.15:
                        up |= v.up_mask(x)
                if up:
                    chunk = shuffled(rng, v.induced(up)[0])
                    yield chunk, keen_coloring(rng, chunk, n)
            w = shuffled(rng, v)
            for _ in range(3):
                yield w, keen_coloring(rng, w, n)


def test_schedules_match_the_recorded_digest():
    """The same steps, in the same order, and the same kernels as the
    scheduler the digest was recorded on."""
    digest = hashlib.sha256()
    count = steps = 0
    for p, f in schedule_digest_cases(random.Random(SCHEDULE_DIGEST_SEED)):
        sched = schedule_beta_reductions(p, f)
        digest.update(repr(([(s.kind, s.pair) for s in sched.steps],
                            sched.kernel.blocks)).encode())
        count += 1
        steps += len(sched.steps)
    assert (count, steps, digest.hexdigest()) == (204, 1231, SCHEDULE_DIGEST)


def test_verify_rejects_tampering():
    v = ladder_truncation(0, 2)
    f = constant(v, 0)
    sched = schedule_beta_reductions(v, f)
    with pytest.raises(PropertyFalsified):
        verify_schedule(v, f, Schedule(v, sched.steps[:-1], sched.kernel))
    with pytest.raises(PropertyFalsified):
        verify_schedule(v, f, Schedule(v, sched.steps, EPartition.identity(v)))
    other = ladder_truncation(0, 1)
    with pytest.raises(InvalidId):
        verify_schedule(other, constant(other, 0),
                        Schedule(v, sched.steps, sched.kernel))
    top = ladder_truncation(0, 0)           # two maximal beta twins
    steps = (ReductionStep("beta", (0, 1)),)
    mixed = Schedule(top, steps, from_pairs(top, [(0, 1)]))
    with pytest.raises(PropertyFalsified, match=r"kernel block \(0, 1\) mixes colors"):
        verify_schedule(top, Coloring.of(top, 1, [0, 1]), mixed)
    apart = (ReductionStep("beta", (0, 2)),)       # y0_0 and y1_0
    with pytest.raises(PropertyFalsified,
                       match=r"step 0 \(y0_0, y1_0\) stopped being beta-valid"):
        verify_schedule(v, f, Schedule(v, apart, from_pairs(v, [(0, 2)])))


def test_a_step_that_does_not_replay_is_named_by_its_original_ids():
    """The first merge renumbers the current elements; the failing step
    is still reported by the ids it was given, (3, 4), not by its current
    ones, (2, 3)."""
    v = ladder_truncation(0, 2)
    steps = (ReductionStep("beta", (0, 1)), ReductionStep("beta", (3, 4)))
    with pytest.raises(NotMergeable,
                       match=r"^pair \(3, 4\) is not beta-mergeable$"):
        compose_steps(v, steps)
    sched = Schedule(v, steps, from_pairs(v, [(0, 1), (3, 4)]))
    with pytest.raises(PropertyFalsified,
                       match=r"^step 1 \(y1_1, y2_0\) stopped being beta-valid: "
                             r"pair \(3, 4\) is not beta-mergeable$"):
        verify_schedule(v, constant(v, 0), sched)


def test_verify_refuses_alpha_steps():
    """Every step of a schedule must be a beta merge, even when alpha
    steps replay and leave a merged pair in every full level."""
    v = ladder_truncation(0, 2)
    f = constant(v, 0)
    steps = tuple(ReductionStep(kind, pair) for kind, pair in (
        ("alpha", (2, 1)), ("beta", (0, 1)), ("alpha", (3, 0)),
        ("alpha", (5, 3)), ("alpha", (4, 3))))
    alphas = Schedule(v, steps, compose_steps(v, steps))
    with pytest.raises(PropertyFalsified,
                       match=r"step 0 \(2, 1\) is 'alpha', not a beta merge"):
        verify_schedule(v, f, alphas)
    late = (ReductionStep("beta", (0, 1)), ReductionStep("alpha", (2, 0)))
    with pytest.raises(PropertyFalsified, match=r"step 1 \(2, 0\) is 'alpha'"):
        verify_schedule(v, f, Schedule(v, late, compose_steps(v, late)))


def test_verify_refuses_a_coloring_of_another_poset(monkeypatch):
    """The coloring must color the schedule's poset: one of a smaller or a
    larger ladder is bad input, refused before any merge."""
    v = ladder_truncation(0, 2)
    sched = schedule_beta_reductions(v, constant(v, 0))
    merged = spy_merges(monkeypatch)
    for other in (ladder_truncation(0, 1), ladder_truncation(0, 3)):
        with pytest.raises(InvalidId, match="coloring built on a different poset"):
            verify_schedule(v, constant(other, 0), sched)
    assert merged == []


def test_delta_map_images():
    z = abomination_truncation(2, 1)
    delta = delta_map(2, 1, z)
    assert delta.source.n == 32
    for m, i, image in ((0, 3, "c0_3"), (1, 2, "d0_2"),
                        (2, 5, "ea0_5"), (3, 0, "c1_0")):
        assert z.labels[delta(ladder_id(2, m, i))] == image


def test_delta_map_refuses_ids_outside_the_ladder():
    z = abomination_truncation(2, 1)
    delta = delta_map(2, 1, z)
    n = delta.source.n
    assert delta(0) == delta.mapping[0] and delta(n - 1) == delta.mapping[-1]
    for x in (-1, n, -n, True, 1.0):
        with pytest.raises(InvalidId, match=f"ladder id {x!r} outside 0..{n - 1}"):
            delta(x)


def spy_merges(monkeypatch):
    """The merges replayed from now on by `compose_steps`, through which
    `verify_schedule` and the lift replay, in order."""
    merged = []

    class Spy(reduction._Replay):
        def merge(self, kind, x, y):
            merged.append((kind, x, y))
            return super().merge(kind, x, y)

    monkeypatch.setattr(reduction, "_Replay", Spy)
    return merged


def test_lift_refuses_steps_outside_the_ladder(monkeypatch):
    """A step naming a ladder id outside the source is bad input: it is
    refused before any merge, and never read as another ladder element."""
    merged = spy_merges(monkeypatch)
    z = abomination_truncation(2, 1)
    delta = delta_map(2, 1, z)
    n = delta.source.n
    f = constant(z, 2)
    for pair in ((-1, n - 2), (n, 0), (1.0, 0)):
        bad = Schedule(delta.source, (ReductionStep("beta", pair),),
                       EPartition.identity(delta.source))
        with pytest.raises(InvalidId, match=f"ladder id {pair[0]!r} outside"):
            lift_schedule(z, f, delta, bad)
    assert merged == []


def test_lift_refuses_a_delta_into_another_poset(monkeypatch):
    """A delta built on z names z's elements: lifting it onto a relabelled
    copy of z is a caller's mix-up, refused before any merge, not a
    falsified claim about a step."""
    z = abomination_truncation(2, 1)
    delta = delta_map(2, 1, z)
    sched = schedule_beta_reductions(delta.source, constant(delta.source, 2))
    moved = permuted(z, list(range(z.n))[::-1])
    merged = spy_merges(monkeypatch)
    with pytest.raises(InvalidId, match="delta embeds into a different poset"):
        lift_schedule(moved, constant(moved, 2), delta, sched)
    assert merged == []
    lifted = lift_schedule(z, constant(z, 2), delta, sched)
    assert len(merged) == len(sched.steps) and sorted(lifted.levels) == [0, 1]


def test_scheduling_and_verifying_build_no_poset(built_posets):
    """The schedule is checked on its replayed kernel alone: scheduling
    and verifying on a ladder build no poset."""
    v = ladder_truncation(2, 5)
    f = random_weak_coloring(random.Random(5), v, 2)
    built_posets.clear()
    sched = schedule_beta_reductions(v, f)
    verify_schedule(v, f, sched)
    assert sched.steps and built_posets == []
    quotient(v, sched.kernel)          # the counter does see a build
    assert built_posets == [v.n - len(sched.steps)]


def test_criterion_3_replays_and_reads_each_ladder_once(monkeypatch):
    """Criterion 3 reads the ladder rows and replays the steps once per
    schedule: the scheduler checks its own schedule, and nothing checks
    it again."""
    calls = {"_ladder_rows": 0, "compose_steps": 0}
    for name in calls:
        def counting(*args, _real=getattr(lemma, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(lemma, name, counting)
    assert check_ladder_schedules(42)["pass"]
    assert calls == {"_ladder_rows": SCHEDULE_RUNS, "compose_steps": SCHEDULE_RUNS}


def test_a_schedule_keeps_the_kernel_its_replay_computed(monkeypatch):
    """The scheduler builds no kernel of its own: each schedule criterion 3
    gets back holds the very kernel that its checked replay returned."""
    kernels, schedules = [], []

    def replay(*args, _real=lemma.compose_steps):
        kernels.append(_real(*args))
        return kernels[-1]

    def schedule(*args, _real=suite.schedule_beta_reductions):
        schedules.append(_real(*args))
        return schedules[-1]

    monkeypatch.setattr(lemma, "compose_steps", replay)
    monkeypatch.setattr(suite, "schedule_beta_reductions", schedule)
    assert check_ladder_schedules(42)["pass"]
    assert len(schedules) == len(kernels) == SCHEDULE_RUNS
    assert all(s.kernel is k for s, k in zip(schedules, kernels))


def test_delta_map_mismatches():
    z = abomination_truncation(2, 1)
    with pytest.raises(EmbeddingMismatch, match="target misses c2_0"):
        delta_map(2, 2, z)
    with pytest.raises(EmbeddingMismatch):
        delta_map(2, 0, Poset.from_covers(1, []))


def test_certificate_on_constant_coloring():
    z = abomination_truncation(2, 1)
    cert = corollary_certificate(z, constant(z, 2), 2)
    assert cert.levels == {0: (0, 1), 1: (0, 1)}
    assert len(cert.steps) == 28
    assert cert.steps[0] == ReductionStep("beta", (0, 1))


def test_certificate_empty_without_full_rows():
    lad = ladder_truncation(0, 1)
    cert = corollary_certificate(lad, constant(lad, 0), 0)
    assert cert.levels == {} and cert.steps == ()
    assert cert.kernel == EPartition.identity(lad)


def test_lift_guards():
    z = abomination_truncation(2, 1)
    f = constant(z, 2)
    shallow = delta_map(2, 0, z)
    sched0 = schedule_beta_reductions(shallow.source, constant(shallow.source, 2))
    with pytest.raises(OutOfRange):
        lift_schedule(z, f, shallow, sched0)
    deep = delta_map(2, 1, z)
    with pytest.raises(InvalidId):
        lift_schedule(z, f, deep, sched0)


def test_lift_rechecks_colors_per_step():
    z = abomination_truncation(2, 1)
    delta = delta_map(2, 1, z)
    sched = schedule_beta_reductions(delta.source, constant(delta.source, 2))
    colors = [0] * z.n
    colors[z.labels.index("c0_0")] = 1
    skewed = Coloring.of(z, 2, colors)
    # the first step lifts to (c0_0, c0_1); the kernel block holding both
    # is the one reported
    assert z.labels[2] == "c0_0"
    with pytest.raises(PropertyFalsified,
                       match=r"kernel block \(2, 3, 4, 5, 6, 7, 8, 9\) mixes colors"):
        lift_schedule(z, skewed, delta, sched)


def test_lift_refuses_alpha_steps():
    """A lifted step must be a beta merge: the lift replays each step as
    its kind says, through the same replay as `verify_schedule`."""
    z = abomination_truncation(2, 1)
    delta = delta_map(2, 1, z)
    sched = schedule_beta_reductions(delta.source, constant(delta.source, 2))
    first = sched.steps[0]
    steps = (ReductionStep("alpha", first.pair),) + sched.steps[1:]
    alpha = Schedule(delta.source, steps, sched.kernel)
    with pytest.raises(PropertyFalsified,
                       match=rf"step 0 \({delta(first.pair[0])}, "
                             rf"{delta(first.pair[1])}\) is 'alpha'"):
        lift_schedule(z, constant(z, 2), delta, alpha)


def test_c_rows_and_full_levels():
    z = abomination_truncation(2, 1)
    rows = c_rows(z)
    assert sorted(rows) == [0, 1]
    assert len(rows[0]) == len(rows[1]) == 8
    assert z.labels[rows[1][5]] == "c1_5"
    assert full_c_levels(z, 2) == [0, 1]
    assert full_c_levels(ladder_truncation(1, 2), 1) == []


def test_corollary_check_on_census_partitions():
    z = abomination_truncation(2, 0)
    census = quotient_census(z, 2, budget=10, seed=1)
    assert census.entries
    for entry in census.entries:
        assert corollary_check(z, entry.partition, 2, witness=entry.witness)


def test_census_of_the_depth_one_truncation_is_pinned():
    """Criterion 4's census: 79 partitions in 38 isomorphism classes at
    seed 42, and each entry passes the corollary check, which takes the
    quotient the census already built."""
    z = abomination_truncation(2, 1)
    census = quotient_census(z, 2, budget=80, seed=42)
    assert len(census.partitions) == 79 and len(census.entries) == 38
    for entry in census.entries:
        assert corollary_check(z, entry.partition, 2, witness=entry.witness)
        q, _proj = quotient(z, entry.partition)
        assert q is entry.quotient


def test_corollary_check_demands_colorable_quotient():
    z = abomination_truncation(2, 1)
    with pytest.raises(QuotientNotColorable):
        corollary_check(z, EPartition.identity(z), 2, witness=constant(z, 2))
    with pytest.raises(TypeError):      # the witness is required
        corollary_check(z, EPartition.identity(z), 2)


def test_census_collapse_at_order_3():
    """The census claim one order up: every sampled colorable quotient of
    the 132-element depth-1 truncation merges a pair in every full c-row."""
    z = abomination_truncation(3, 1)
    assert full_c_levels(z, 3) == [0, 1]
    census = quotient_census(z, 3, budget=10, seed=0)
    assert census.record["mode"] == "sampled" and census.entries
    for entry in census.entries:
        assert corollary_check(z, entry.partition, 3, witness=entry.witness)
    assert all(merges_every_full_c_row(z, part, 3)
               for part in census.partitions)


def test_census_collapse_at_order_4():
    """The census claim at n = 4 on the 260-element depth-1 truncation,
    with the full budget of 80 seeded colorings: 80 distinct partitions in
    61 quotient classes, the largest quotient of 90 elements, and every
    partition merges a pair in both full c-rows. About 1-1.3 s on a 2-CPU
    host: 0.45-0.55 s is the strict search spending STRICT_SEARCH_BUDGET
    before it gives up (no strict coloring of order 4 exists), 0.25 s the
    80 canonical forms, and 0.1-0.15 s the 80 coarsest partitions. With
    twin pruning alone the census took 86 s."""
    z = abomination_truncation(4, 1)
    assert full_c_levels(z, 4) == [0, 1]
    census = quotient_census(z, 4, budget=80, seed=CENSUS_4_SEED)
    assert census.record["examined"] == 80
    assert len(census.partitions) == 80
    assert len(census.entries) == 61
    assert max(e.quotient.n for e in census.entries) == 90
    for entry in census.entries:
        assert corollary_check(z, entry.partition, 4, witness=entry.witness)
    assert all(merges_every_full_c_row(z, part, 4)
               for part in census.partitions)


def test_certificates_at_order_3():
    z = abomination_truncation(3, 1)
    rng = random.Random(3)
    for _ in range(3):
        cert = corollary_certificate(z, random_weak_coloring(rng, z, 3), 3)
        assert sorted(cert.levels) == [0, 1]


def test_a_label_naming_two_elements_is_rejected():
    twice = Poset.from_covers(4, [(2, 1), (3, 1)],
                              ["y0_0", "y0_1", "y1_0", "y1_0"])
    with pytest.raises(InvalidId, match="'y1_0' names elements 2 and 3"):
        schedule_beta_reductions(twice, constant(twice, 0))
    z = abomination_truncation(2, 0)
    labels = list(z.labels)
    labels[labels.index("c0_1")] = "c0_0"
    relabelled = Poset.from_covers(z.n, z.covers, labels)
    with pytest.raises(InvalidId, match="'c0_0' names elements"):
        c_rows(relabelled)
    with pytest.raises(InvalidId):
        merges_every_full_c_row(relabelled, EPartition.identity(relabelled), 2)
    rows = _label_rows(z, "c")
    for _ in range(3):
        with pytest.raises(InvalidId, match="'c0_0' names elements"):
            _label_rows(relabelled, "c")
        with pytest.raises(InvalidId, match="'y1_0' names elements 2 and 3"):
            _label_rows(twice, "y")
        assert _label_rows(z, "c") == rows


def test_a_full_row_without_a_merged_pair_is_reported():
    v = ladder_truncation(0, 2)
    f = constant(v, 0)
    steps = schedule_beta_reductions(v, f).steps[:-1]
    short = Schedule(v, steps, from_pairs(v, (s.pair for s in steps)))
    with pytest.raises(PropertyFalsified, match="full level 2 has no merged pair"):
        verify_schedule(v, f, short)

    z = abomination_truncation(2, 1)
    delta = delta_map(2, 1, z)
    f = constant(z, 2)
    sched = schedule_beta_reductions(delta.source, constant(delta.source, 2))
    lowest = ladder_id(2, 3, 0)         # ladder level 3 lands on c-row 1
    steps = tuple(s for s in sched.steps if s.pair[0] < lowest)
    truncated = Schedule(delta.source, steps,
                         from_pairs(delta.source, (s.pair for s in steps)))
    with pytest.raises(PropertyFalsified, match="full c-row 1 has no merged pair"):
        lift_schedule(z, f, delta, truncated)

    assert not merges_every_full_c_row(z, EPartition.identity(z), 2)
    lifted = lift_schedule(z, f, delta, sched)
    assert merges_every_full_c_row(z, lifted.kernel, 2)


def test_merges_every_full_c_row_refuses_a_partition_of_another_poset():
    """One block over a 68-element antichain merges every pair of the
    depth-1 truncation's full c-rows by id, but it partitions another
    poset."""
    z = abomination_truncation(2, 1)
    antichain = Poset.from_covers(z.n, [])
    part = EPartition(antichain, (tuple(range(z.n)),))
    with pytest.raises(InvalidId, match="partition built on a different poset"):
        merges_every_full_c_row(z, part, 2)
    assert merges_every_full_c_row(z, EPartition(z, part.blocks), 2)
