import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esakiakit import (Coloring, EPartition, InvalidId, NotEPartition,
                       NotMergeable, NotPMorphism, NotSurjective,
                       NotWeakColoring, Poset,
                       PropertyFalsified, TooLarge, abomination_truncation,
                       all_epartitions, alpha_mergeable,
                       beta_mergeable, brute_coarsest_color_respecting,
                       coarsest_color_respecting, color_respecting_reduction,
                       compose_steps, decompose_pmorphism, is_epartition,
                       is_pmorphism, kernel, ladder_truncation, quotient)
from esakiakit.coloring import (enumerate_weak_colorings, is_coloring,
                                is_weak_coloring, monochrome_mergeable_pair)
from esakiakit.lemma import (corollary_certificate, corollary_check,
                            merges_every_full_c_row, schedule_beta_reductions)
from esakiakit.poset import _top_down, ids_of, mask_of
from esakiakit.probes import enumerate_posets, quotient_census
from esakiakit.randgen import random_poset, random_weak_coloring
from esakiakit.reduction import _coarsest_among, _Replay

from test_poset import isomorphic, permuted, same, up_set
from test_replay import current_poset, merge_step, mergeable_pairs


def v_poset():
    return Poset.from_covers(3, [(0, 1), (0, 2)])


def chain(n):
    return Poset.from_covers(n, [(i, i + 1) for i in range(n - 1)])


def from_pairs(base, pairs):
    """The finest partition of `base` identifying every given pair, by
    union-find: a stored schedule kernel written apart from the replay.
    Ids are not checked; callers pass ids of `base`."""
    parent = list(range(base.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x, y in pairs:
        parent[find(x)] = find(y)
    return kernel(base, [find(x) for x in range(base.n)])


def test_epartition_validation():
    p = v_poset()
    with pytest.raises(InvalidId):
        EPartition.from_blocks(p, [[0, 1]])          # misses 2
    with pytest.raises(InvalidId):
        EPartition.from_blocks(p, [[0, 1], [1, 2]])  # overlap
    part = EPartition.from_blocks(p, [[1, 2], [0]])
    assert is_epartition(p, part)
    assert same(part, 1, 2) and not same(part, 0, 1)
    assert part.blocks[part.block_of(1)] == (1, 2)


def test_epartition_accessors_reject_ids_outside_the_poset():
    p = v_poset()
    part = EPartition.from_blocks(p, [[1, 2], [0]])
    for x in (-1, -3, 3, 10):
        with pytest.raises(InvalidId):
            part.block_of(x)
    for other in (chain(2), chain(4), Poset.from_covers(3, [])):
        foreign = EPartition.identity(other)
        with pytest.raises(InvalidId):
            part.refines(foreign)
        with pytest.raises(InvalidId):
            foreign.refines(part)
    twin = EPartition.from_blocks(v_poset(), [[0], [1, 2]])   # equal base
    assert part.refines(twin) and twin.refines(part)


def test_from_blocks_rejects_ids_that_are_not_integers():
    p = Poset.from_covers(3, [])
    for blocks in ([[0, 2], [True]], [[0, 1], [2.0]], [[False, 1], [2]],
                   [[0, 1], ["2"]], [[0, 1], [None]], [[0, 1, 2, 1.5]]):
        with pytest.raises(InvalidId):
            EPartition.from_blocks(p, blocks)
    assert EPartition.from_blocks(p, [[2, 0], [1]]).blocks == ((0, 2), (1,))


def test_pair_ids_must_be_plain_ints():
    """Bools and floats are rejected by every pair entry point: both
    mergeability tests and the replay."""
    p = chain(3)
    for bad in (True, False, 1.0, 0.0):
        for check in (alpha_mergeable, beta_mergeable):
            with pytest.raises(InvalidId):
                check(p, bad, 1)
            with pytest.raises(InvalidId):
                check(p, 0, bad)
        replay = _Replay(p)
        with pytest.raises(InvalidId):
            replay.merge("alpha", bad, 2)
        with pytest.raises(InvalidId):
            replay.merge("alpha", 0, bad)
        assert replay.names == [0, 1, 2]
    assert alpha_mergeable(p, 0, 1)


def test_brute_coarsest_rejects_a_coloring_of_another_poset():
    p = chain(3)
    for other, colors in ((chain(2), [0, 1]), (chain(4), [0, 0, 1, 1]),
                          (Poset.from_covers(3, []), [0, 1, 1])):
        with pytest.raises(InvalidId):
            brute_coarsest_color_respecting(p, Coloring.of(other, 1, colors))
    same = Coloring.of(chain(3), 1, [0, 0, 1])     # equal base is accepted
    assert brute_coarsest_color_respecting(p, same).blocks == ((0, 1), (2,))


def test_epartition_from_pairs_closes_transitively():
    p = Poset.from_covers(4, [])
    part = from_pairs(p, [(0, 1), (1, 2)])
    assert part.blocks == ((0, 1, 2), (3,))
    assert from_pairs(chain(3), [(1, 2)]).blocks == ((0,), (1, 2))


def test_a_kept_verdict_keeps_the_base_check():
    """The verdict and the quotient are kept on the partition; a later call
    with another poset still raises InvalidId, and an equal poset reads
    the kept answer."""
    p = v_poset()
    part = EPartition.from_blocks(p, [[0], [1, 2]])
    assert is_epartition(p, part)
    q, proj = quotient(p, part)
    for other in (chain(3), Poset.from_covers(3, []), chain(2)):
        with pytest.raises(InvalidId):
            is_epartition(other, part)
        with pytest.raises(InvalidId):
            quotient(other, part)
    assert is_epartition(v_poset(), part)
    assert quotient(v_poset(), part) == (q, proj)


def test_non_epartition_detected():
    p = chain(2)
    part = EPartition.from_blocks(p, [[0, 1]])
    assert is_epartition(p, part)        # merging a covering pair is fine
    q = v_poset()
    bad = EPartition.from_blocks(q, [[0, 1], [2]])
    assert not is_epartition(q, bad)     # root merged with one arm only


def test_all_epartition_counts():
    assert len(all_epartitions(chain(3))) == 4
    assert len(all_epartitions(Poset.from_covers(3, []))) == 5
    assert len(all_epartitions(v_poset())) == 3
    for p in (Poset.from_covers(9, []), chain(9)):
        with pytest.raises(TooLarge):
            all_epartitions(p)
        with pytest.raises(TooLarge):
            brute_coarsest_color_respecting(p, Coloring.of(p, 0, [0] * 9))


def test_quotient_of_v_by_arm_merge():
    p = v_poset()
    part = EPartition.from_blocks(p, [[0], [1, 2]])
    q, proj = quotient(p, part)
    assert q.n == 2 and q.covers == ((1, 0),)   # block ids run top down
    assert proj == (1, 0, 0)
    with pytest.raises(NotEPartition):
        quotient(p, EPartition.from_blocks(p, [[0, 1], [2]]))


def test_quotient_rejects_a_cyclic_block_relation(monkeypatch):
    """Splitting a 3-chain as {0, 2}, {1} relates the two blocks both ways;
    the constructor's cycle check must still refuse it when the E-check is
    bypassed."""
    import esakiakit.reduction as reduction
    monkeypatch.setattr(reduction, "is_epartition", lambda p, part: True)
    p = chain(3)
    with pytest.raises(NotEPartition):
        quotient(p, EPartition.from_blocks(p, [[0, 2], [1]]))


def test_quotient_rejects_a_cyclic_block_relation_on_a_reversed_chain(monkeypatch):
    """The same split on a 3-chain whose ids run top-down: block {0, 2}
    reaches {1} only through its second member, 2 < 1 < 0."""
    import esakiakit.reduction as reduction
    monkeypatch.setattr(reduction, "is_epartition", lambda p, part: True)
    p = Poset.from_covers(3, [(2, 1), (1, 0)])
    with pytest.raises(NotEPartition):
        quotient(p, EPartition.from_blocks(p, [[0, 2], [1]]))


def up_set_quotient(p, part):
    """Reference: each block row is the projection of the union of its
    members' up sets, as the quotient was first computed."""
    if not is_epartition(p, part):
        raise NotEPartition("blocks fail the back-and-forth condition")
    depths = p.depths()
    order = sorted(range(len(part.blocks)),
                   key=lambda i: (min(depths[x] for x in part.blocks[i]),
                                  part.blocks[i][0]))
    rank = {old: new for new, old in enumerate(order)}
    proj = tuple(rank[part.block_of(x)] for x in range(p.n))
    rows = [0] * len(part.blocks)
    for old, block in enumerate(part.blocks):
        rows[rank[old]] = mask_of(proj[y] for y in ids_of(up_set(p, mask_of(block))))
    return Poset.from_leq(len(rows), rows), proj


def quotient_key(q, proj):
    return (q.n, q.covers, tuple(q.down_mask(x) for x in range(q.n)),
            q.depths(), proj)


def test_quotient_matches_the_up_set_formula(monkeypatch):
    """Same covers, down masks, depths and projection as the up-set rows,
    on every E-partition of every poset up to 6 elements and on every
    merge of seeded greedy reductions of the suite's spaces. The greedy
    replays merges in place, so its steps are replayed again through the
    tests' `merge_step`, which takes a quotient per merge; after every step the
    in-place replay's current ids must be its projection, and the quotient
    by the replay's kernel, renamed to those ids, its poset."""
    for k in range(7):
        for p in enumerate_posets(k):
            for part in all_epartitions(p):
                assert (quotient_key(*quotient(p, part))
                        == quotient_key(*up_set_quotient(p, part)))
    import esakiakit.reduction as reduction
    merges = 0

    def checked(p, part):
        nonlocal merges
        merges += 1
        got = quotient(p, part)
        assert quotient_key(*got) == quotient_key(*up_set_quotient(p, part))
        return got

    monkeypatch.setattr(reduction, "quotient", checked)
    spaces = [(abomination_truncation(n, depth), n)
              for n, depth in ((2, 1), (2, 2), (3, 1))]
    spaces += [(ladder_truncation(n, depth), n)
               for n in (0, 1, 2) for depth in range(6)]
    rng = random.Random(6)
    total = 0
    for z, n in spaces:
        _part, steps = color_respecting_reduction(
            z, random_weak_coloring(rng, z, n))
        total += len(steps)
        replay = reduction._Replay(z)
        p, proj = z, tuple(range(z.n))
        for step in steps:
            x, y = step.pair
            p, pi = merge_step(p, step.kind, proj[x], proj[y])
            proj = tuple(pi[v] for v in proj)
            replay.merge(step.kind, x, y)
            in_place = tuple(replay.pos[s] for s in replay.owner)
            assert quotient_key(current_poset(replay), in_place) == \
                quotient_key(p, proj)
    assert merges == total > 400


def inherited_order(p, proj, k):
    """Up-set rows, over the k blocks named by proj, of the transitive
    closure of "a member of one block lies below a member of the other"
    in p."""
    rows = [1 << i for i in range(k)]
    for x in range(p.n):
        for y in ids_of(p.up_mask(x)):
            rows[proj[x]] |= 1 << proj[y]
    grown = True
    while grown:
        grown = False
        for i in range(k):
            row = rows[i]
            for j in ids_of(rows[i]):
                row |= rows[j]
            grown |= row != rows[i]
            rows[i] = row
    return rows


@st.composite
def partitioned_posets(draw):
    """A relabelled `random_poset` of 7 or 8 elements and one of its
    E-partitions, drawn from `all_epartitions` in growth order."""
    n = draw(st.integers(7, 8))
    p = random_poset(draw(st.randoms(use_true_random=False)), n)
    p = permuted(p, draw(st.permutations(range(n))))
    return p, draw(st.sampled_from(in_growth_order(all_epartitions(p))))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(partitioned_posets())
def test_quotient_is_a_poset(case):
    """The quotient by an E-partition equals the up-set formula, and the
    order the blocks inherit from p has no cycle and is its order."""
    p, part = case
    q, proj = quotient(p, part)
    assert quotient_key(q, proj) == quotient_key(*up_set_quotient(p, part))
    rows = inherited_order(p, proj, q.n)
    assert not any(rows[i] >> j & 1 and rows[j] >> i & 1
                   for i in range(q.n) for j in range(i))
    assert [q.up_mask(i) for i in range(q.n)] == rows


def test_pmorphism_check_and_kernel():
    p, q = v_poset(), chain(2)
    f = (0, 1, 1)
    assert is_pmorphism(p, q, f)
    assert kernel(p, f).blocks == ((0,), (1, 2))
    assert kernel(p, (5, 3, 5)).blocks == ((0, 2), (1,))
    for wrong in ((0, 1), (0, 1, 1, 1)):
        with pytest.raises(InvalidId):
            kernel(p, wrong)
    assert not is_pmorphism(p, q, (0, 1, 0))        # back condition at the arm
    assert is_pmorphism(chain(2), chain(2), (1, 1))  # p-morphism, not onto
    assert not is_pmorphism(chain(2), chain(2), (0, 0))


def test_maps_with_non_id_images_are_refused():
    # Floats, strings and None are not ids, and True is not the id 1.
    p, q = v_poset(), chain(2)
    for f in ((0, 1.0, 1), (0, True, 1), (0, "1", 1), (0, None, 1), (0, 1, -1)):
        with pytest.raises(InvalidId):
            is_pmorphism(p, q, f)
        with pytest.raises(InvalidId):
            decompose_pmorphism(p, q, f)
    assert is_pmorphism(p, q, (0, 1, 1))


def test_mergeable_predicates():
    p = v_poset()
    assert beta_mergeable(p, 1, 2)
    assert not alpha_mergeable(p, 0, 1)        # root has two successors
    c = chain(2)
    assert alpha_mergeable(c, 0, 1)
    assert not beta_mergeable(c, 0, 1)


def test_mergeable_pairs_order_is_deterministic():
    p = v_poset()
    assert mergeable_pairs(p) == [("beta", 1, 2)]
    c = chain(3)
    assert mergeable_pairs(c) == [("alpha", 1, 2), ("alpha", 0, 1)]


def test_merge_step_and_errors():
    p = v_poset()
    q, proj = merge_step(p, "beta", 1, 2)
    assert q.n == 2 and proj[1] == proj[2]
    with pytest.raises(NotMergeable):
        merge_step(p, "alpha", 1, 2)
    with pytest.raises(NotMergeable):
        merge_step(p, "beta", 0, 1)
    for pair in ((-1, 1), (1, 3)):              # -1 would alias element 2
        with pytest.raises(InvalidId):
            merge_step(p, "beta", *pair)


def test_decompose_then_compose_roundtrip():
    p, q = v_poset(), chain(2)
    steps = decompose_pmorphism(p, q, (0, 1, 1))
    assert [(s.kind, s.pair) for s in steps] == [("beta", (1, 2))]
    ker = compose_steps(p, steps)
    assert ker == kernel(p, (0, 1, 1))
    assert isomorphic(quotient(p, ker)[0], q)


def test_decompose_rejects_bad_maps():
    p, q = v_poset(), chain(2)
    with pytest.raises(NotPMorphism):
        decompose_pmorphism(p, q, (0, 1, 0))
    with pytest.raises(NotSurjective):
        decompose_pmorphism(chain(2), chain(2), (1, 1))


def test_decompose_roundtrip_on_seeded_quotients():
    rng = random.Random(23)
    done = 0
    while done < 60:
        p = random_poset(rng, rng.randint(2, 6))
        parts = in_growth_order(all_epartitions(p))
        part = parts[rng.randrange(len(parts))]
        q, proj = quotient(p, part)
        steps = decompose_pmorphism(p, q, proj)
        ker = compose_steps(p, steps)
        assert ker.blocks == part.blocks
        assert quotient(p, ker)[0] == q     # the quotient by the same kernel
        done += 1


def test_compose_steps_validates_each_step():
    p = v_poset()
    from esakiakit import ReductionStep
    with pytest.raises(NotMergeable):
        compose_steps(p, [ReductionStep("beta", (0, 1))])
    for pair in ((-1, 1), (1, 3)):
        with pytest.raises(InvalidId):
            compose_steps(p, [ReductionStep("beta", pair)])


def test_coarsest_color_respecting_examples():
    p = v_poset()
    const = Coloring.of(p, 1, [0, 0, 0])
    part = coarsest_color_respecting(p, const)
    assert part.blocks == ((0, 1, 2),)
    strict = Coloring.of(p, 1, [0, 0, 1])
    assert coarsest_color_respecting(p, strict).blocks == ((0,), (1,), (2,))


def test_coarsest_matches_brute_force_on_seeded_instances():
    rng = random.Random(31)
    for _ in range(120):
        p = random_poset(rng, rng.randint(1, 6))
        f = random_weak_coloring(rng, p, 2)
        assert coarsest_color_respecting(p, f) == \
            brute_coarsest_color_respecting(p, f)


def test_refinement_takes_more_than_one_round():
    # x < p < t and y < q, y < t2; x, y, p, q share color 0 and t, t2 have
    # color 1. The first round of `refine_coarsest` puts x, y and p in one
    # block (each sees both colors), and only the second splits y off: y
    # sees q's block, which p does not. The one top-down pass splits y off
    # when it places y.
    x, y, p_, q, t, t2 = range(6)
    p = Poset.from_covers(6, [(x, p_), (p_, t), (y, q), (y, t2)])
    f = Coloring.of(p, 1, [0, 0, 0, 0, 1, 1])
    want = ((x, p_), (y,), (q,), (t, t2))
    assert coarsest_color_respecting(p, f).blocks == want
    assert color_respecting_reduction(p, f)[0].blocks == want
    assert refine_coarsest(p, f).blocks == want
    # 0 and 1 merge although their covers have different colors: the up
    # set of 0 reaches 2 through 1.
    c = chain(3)
    assert coarsest_color_respecting(c, Coloring.of(c, 1, [0, 0, 1])).blocks \
        == ((0, 1), (2,))


def test_refinement_rejects_colorings_the_greedy_rejects():
    p = v_poset()
    empty = Poset.from_covers(0, [])
    for coarsest in (coarsest_color_respecting,
                     lambda p, f: color_respecting_reduction(p, f)[0]):
        with pytest.raises(NotWeakColoring):
            coarsest(p, Coloring.of(p, 1, [1, 0, 0]))
        with pytest.raises(InvalidId):
            coarsest(p, Coloring.of(chain(3), 1, [0, 0, 0]))
        assert coarsest(empty, Coloring.of(empty, 0, [])).blocks == ()


@pytest.mark.parametrize("call", [
    coarsest_color_respecting, color_respecting_reduction,
    brute_coarsest_color_respecting, is_weak_coloring, is_coloring,
    monochrome_mergeable_pair,
    lambda p, f: corollary_check(p, EPartition.identity(p), 1, witness=f),
    lambda p, f: corollary_certificate(abomination_truncation(2, 0), f, 2),
], ids=["coarsest", "reduction", "brute", "weak", "coloring", "monochrome",
        "corollary_witness", "certificate"])
@pytest.mark.parametrize("f", [[0, 0, 1], (0, 0, 1), None, "001"],
                         ids=["list", "tuple", "none", "str"])
def test_a_coloring_argument_must_be_a_coloring(call, f):
    with pytest.raises(InvalidId, match="not a Coloring"):
        call(v_poset(), f)


def refine_coarsest(p, f):
    """Reference for `coarsest_color_respecting`: partition refinement in
    rounds (Paige & Tarjan 1987; Kanellakis & Smolka 1990), starting from
    the color classes. Each round takes, top down, the set of current
    blocks that x's up set meets (x's own block and its covers' sets),
    splits every block by that set, and stops when a round splits none.
    Every single-colored E-partition refines each round's blocks, and
    blocks no round splits form an E-partition, so the last is the
    coarsest. It shares no step with the one top-down pass but the
    library's `kernel`."""
    order = _top_down(p)
    ids = {}
    label = [ids.setdefault(c, len(ids)) for c in f.colors]
    sig = [0] * p.n
    count = 0
    while len(ids) > count:
        count = len(ids)
        for x in order:
            s = 1 << label[x]
            for y in p._succ[x]:
                s |= sig[y]
            sig[x] = s
        ids = {}
        label = [ids.setdefault(key, len(ids)) for key in zip(label, sig)]
    return kernel(p, label)


# Seeds of the one-pass-against-rounds checks, on posets past the brute
# oracle's ALL_EPARTITIONS_LIMIT.
ROUNDS_TRUNCATION_SEED = 101
ROUNDS_LADDER_SEED = 103


@pytest.mark.parametrize("n,depth", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)])
def test_one_pass_equals_the_rounds_on_truncations(n, depth):
    """40 weak colorings of orders 1..n of each truncation, seed
    ROUNDS_TRUNCATION_SEED; the 68- and 102-element ones are the
    large-reduction benchmark's spaces."""
    rng = random.Random(ROUNDS_TRUNCATION_SEED)
    z = abomination_truncation(n, depth)
    for _ in range(40):
        f = random_weak_coloring(rng, z, rng.randint(1, n))
        assert coarsest_color_respecting(z, f) == refine_coarsest(z, f), \
            f.colors


def test_one_pass_equals_the_rounds_on_ladders():
    """20 weak colorings of orders 0..n on each ladder with n <= 2 and
    depth <= 5, seed ROUNDS_LADDER_SEED: 360 colorings."""
    rng = random.Random(ROUNDS_LADDER_SEED)
    for n in range(3):
        for depth in range(6):
            v = ladder_truncation(n, depth)
            for _ in range(20):
                f = random_weak_coloring(rng, v, rng.randint(0, n))
                assert coarsest_color_respecting(v, f) == \
                    refine_coarsest(v, f), (n, depth, f.colors)


PREFIX_SEED = 107


def test_the_coarsest_partition_restricts_to_each_top_down_prefix():
    """The lemma the one pass rests on: on an upset U, the coarsest
    partition restricted to U is the coarsest partition of U as an
    induced subposet. Every top-down prefix is an upset; 300 seeded
    posets of 1-9 elements with shuffled ids, weak colorings of order 1
    or 2, seed PREFIX_SEED. The lemma is checked on `refine_coarsest`,
    which does not rely on it, and the pass must agree on every
    prefix."""
    rng = random.Random(PREFIX_SEED)
    for _ in range(300):
        n = rng.randint(1, 9)
        perm = list(range(n))
        rng.shuffle(perm)
        p = permuted(random_poset(rng, n), perm)
        f = random_weak_coloring(rng, p, rng.randint(1, 2))
        whole = refine_coarsest(p, f)
        order = _top_down(p)
        for k in range(1, n + 1):
            u = mask_of(order[:k])
            sub, remap = p.induced(u)
            g = Coloring.of(sub, f.n, [f.colors[x] for x in ids_of(u)])
            blocks = [[remap[x] for x in b if u >> x & 1] for b in whole.blocks]
            restricted = EPartition.from_blocks(sub, [b for b in blocks if b])
            assert restricted == refine_coarsest(sub, g) == \
                coarsest_color_respecting(sub, g), (p, f.colors, k)


def assert_greedy_is_the_refinement(p, f):
    part = coarsest_color_respecting(p, f)
    assert color_respecting_reduction(p, f)[0] == part, (p, f.colors)
    assert is_epartition(p, part)


# Seeds of the greedy-against-refinement checks past ALL_EPARTITIONS_LIMIT.
LARGE_REDUCTION_SEED = 79
TRUNCATION_SEED = 83
LADDER_SEED = 89
SEEDED_POSETS_SEED = 97


def test_greedy_equals_refinement_on_the_large_reduction_truncations():
    """160 order-2 weak colorings each of the 68- and 102-element
    truncations, the spaces of the large-reduction benchmark."""
    rng = random.Random(LARGE_REDUCTION_SEED)
    for depth in (1, 2):
        z = abomination_truncation(2, depth)
        for _ in range(160):
            assert_greedy_is_the_refinement(z, random_weak_coloring(rng, z, 2))


@pytest.mark.parametrize("n,depth", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
def test_greedy_equals_refinement_on_truncations(n, depth):
    rng = random.Random(TRUNCATION_SEED)
    z = abomination_truncation(n, depth)
    for _ in range(8):
        assert_greedy_is_the_refinement(z, random_weak_coloring(rng, z, n))


def test_greedy_equals_refinement_on_ladders():
    """20 weak colorings of order n on each ladder with n <= 2 and depth
    <= 5: 360 colorings."""
    rng = random.Random(LADDER_SEED)
    for n in range(3):
        for depth in range(6):
            v = ladder_truncation(n, depth)
            for _ in range(20):
                assert_greedy_is_the_refinement(v, random_weak_coloring(rng, v, n))


def test_greedy_equals_refinement_on_seeded_posets():
    """2,000 seeded posets of 0-30 elements at orders 0-3."""
    rng = random.Random(SEEDED_POSETS_SEED)
    for _ in range(2000):
        p = random_poset(rng, rng.randint(0, 30))
        assert_greedy_is_the_refinement(
            p, random_weak_coloring(rng, p, rng.randint(0, 3)))


def test_the_partition_path_does_not_replay_merges(monkeypatch):
    # The coarsest partition and the census that reads it must not drift
    # back onto the merge replay, which only `color_respecting_reduction`
    # and the factorizations need.
    import esakiakit.reduction as reduction

    z = abomination_truncation(2, 1)
    f = random_weak_coloring(random.Random(0), z, 2)
    part = coarsest_color_respecting(z, f)
    census = quotient_census(z, 2, budget=10)

    def forbidden(*args, **kwargs):
        raise AssertionError("the partition path reached the merge replay")
    monkeypatch.setattr(reduction, "_Replay", forbidden)
    assert coarsest_color_respecting(z, f) == part
    again = quotient_census(z, 2, budget=10)
    assert again.partitions == census.partitions
    assert [e.quotient.n for e in again.entries] == \
        [e.quotient.n for e in census.entries]
    with pytest.raises(AssertionError, match="merge replay"):
        color_respecting_reduction(z, f)


def scrambled_coarsest(p, f, rng):
    """The greedy fixpoint by random moves: each state's move is drawn from
    the same-colored moves of `mergeable_pairs` on the current poset and
    merged with `_Replay.merge`."""
    replay = _Replay(p)
    while True:
        colors = [f.colors[s] for s in replay.names]
        moves = [(kind, x, y) for kind, x, y in mergeable_pairs(current_poset(replay))
                 if colors[x] == colors[y]]
        if not moves:
            return replay.kernel()
        kind, x, y = rng.choice(moves)
        replay.merge(kind, replay.names[x], replay.names[y])


def test_coarsest_is_order_independent():
    rng = random.Random(47)
    p = chain(4)
    f = Coloring.of(p, 1, [0, 0, 1, 1])
    baseline = coarsest_color_respecting(p, f)
    for _ in range(10):
        assert scrambled_coarsest(p, f, rng) == baseline


def test_color_respecting_reduction_steps_replay():
    p = chain(4)
    f = Coloring.of(p, 1, [0, 0, 1, 1])
    part, steps = color_respecting_reduction(p, f)
    ker = compose_steps(p, steps)
    assert ker == part
    assert quotient(p, ker)[0].n == 2


def test_a_wide_twin_group_is_merged_pair_by_pair():
    # 1500 same-colored maximal elements form one twin group. Each round
    # merges its first two members, so the run takes 1499 rounds, not a
    # round per pair of the group.
    n = 1500
    p = Poset.from_covers(n, [])
    part, steps = color_respecting_reduction(p, Coloring.of(p, 0, [0] * n))
    assert [(s.kind, s.pair) for s in steps] == \
        [("beta", (0, y)) for y in range(1, n)]
    assert part.blocks == (tuple(range(n)),)


def step_list(steps):
    return [[s.kind, list(s.pair)] for s in steps]


def test_reduction_step_names_are_pinned():
    # Steps name each merged element by original id: its lowest-numbered
    # preimage one merge back, followed back to the start. Quotients
    # renumber blocks at every merge, so long replays pin this rule.
    p = abomination_truncation(2, 1)
    f = random_weak_coloring(random.Random(0), p, 2)
    part, steps = color_respecting_reduction(p, f)
    assert len(steps) == 54
    assert hashlib.sha256(json.dumps(step_list(steps)).encode()).hexdigest() == \
        "2c5b3b2e35af90dec889a09dabae4ab545edff4821ef9ddad8b743fa304dc90a"
    assert compose_steps(p, steps) == part


def test_reduction_step_names_are_pinned_on_the_depth_2_truncation():
    # The 102-element truncation's greedy ends on a run of 51 consecutive
    # alpha merges, each settling depths below the merged pair.
    p = abomination_truncation(2, 2)
    f = random_weak_coloring(random.Random(0), p, 2)
    part, steps = color_respecting_reduction(p, f)
    kinds = "".join("a" if s.kind == "alpha" else "b" for s in steps)
    assert (len(steps), kinds.count("a")) == (88, 53)
    assert max(len(run) for run in kinds.split("b")) == 51
    assert hashlib.sha256(json.dumps(step_list(steps)).encode()).hexdigest() == \
        "210110f1f4c07f9dfbd3daedcbd79672fd1023759ed81fa2498c7297ba3b1765"
    assert compose_steps(p, steps) == part


def test_decompose_step_names_are_pinned():
    rng = random.Random(3)
    p = random_poset(rng, 16)
    part = coarsest_color_respecting(p, random_weak_coloring(rng, p, 1))
    q, proj = quotient(p, part)
    steps = decompose_pmorphism(p, q, proj)
    assert step_list(steps) == [
        ["beta", [5, 15]], ["beta", [7, 10]], ["beta", [7, 13]],
        ["alpha", [9, 7]], ["alpha", [14, 5]], ["alpha", [11, 12]],
        ["alpha", [4, 12]], ["beta", [8, 0]], ["beta", [8, 2]],
        ["alpha", [6, 8]], ["alpha", [3, 8]], ["alpha", [1, 8]]]
    assert compose_steps(p, steps) == part


def set_partitions(items):
    """Every partition of items. The last item varies slowest; each item
    joins the blocks of the later ones in turn, then opens its own."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
        yield [[first]] + sub


def bell_filter(p):
    """Reference enumeration: every set partition, kept when it passes
    is_epartition."""
    parts = (EPartition.from_blocks(p, blocks)
             for blocks in set_partitions(list(range(p.n))))
    return [part for part in parts if is_epartition(p, part)]


def test_all_epartitions_matches_bell_filter():
    totals = []
    for n in range(7):
        total = 0
        for p in enumerate_posets(n):
            parts = in_growth_order(all_epartitions(p))
            assert parts == bell_filter(p), p
            total += len(parts)
        totals.append(total)
    # Equal to the subalgebra totals, by duality.
    assert totals == [1, 1, 4, 21, 144, 1214, 13085]
    rng = random.Random(59)
    for n in (7, 8):
        for _ in range(15):
            perm = list(range(n))
            rng.shuffle(perm)
            p = permuted(random_poset(rng, n), perm)
            assert in_growth_order(all_epartitions(p)) == bell_filter(p), p


def test_all_epartitions_does_not_use_the_greedy(monkeypatch):
    # The brute-force oracle must stay independent of the merge greedy and
    # of the refinement it checks: every function and class of `reduction`
    # outside the oracle's own is replaced, so a helper added later for
    # either is forbidden too.
    import esakiakit.reduction as reduction

    def forbidden(*args, **kwargs):
        raise AssertionError("all_epartitions reached the greedy")
    oracle = {"all_epartitions", "brute_coarsest_color_respecting",
              "_coarsest_among", "EPartition"}
    replaced = set()
    for name, obj in vars(reduction).copy().items():
        if callable(obj) and getattr(obj, "__module__", None) == \
                reduction.__name__ and name not in oracle:
            monkeypatch.setattr(reduction, name, forbidden)
            replaced.add(name)
    assert {"coarsest_color_respecting", "color_respecting_reduction",
            "_Replay", "kernel", "is_epartition"} <= replaced
    p = Poset.from_covers(8, [])
    assert len(all_epartitions(p)) == 4140   # Bell(8)
    f = Coloring.of(p, 1, [0, 1, 0, 1, 0, 1, 0, 1])
    assert brute_coarsest_color_respecting(p, f).blocks == \
        ((0, 2, 4, 6), (1, 3, 5, 7))


def block_set_is_epartition(p, part):
    """Reference: the set of block ids meeting the up set of x is constant
    on every block."""
    above = [frozenset(part.block_of(z) for z in ids_of(p.up_mask(x)))
             for x in range(p.n)]
    return all(above[x] == above[b[0]] for b in part.blocks for x in b)


def test_is_epartition_matches_block_set_definition():
    checked = 0
    for n in range(6):
        for p in enumerate_posets(n):
            for blocks in set_partitions(list(range(n))):
                part = EPartition.from_blocks(p, blocks)
                assert is_epartition(p, part) == \
                    block_set_is_epartition(p, part), (p, blocks)
                checked += 1
    assert checked == 3547     # sum of Bell(n) * A000112(n), n = 0..5


def test_kept_verdicts_and_quotients_repeat_the_first_answer():
    """`is_epartition` and `quotient` keep their answer on the partition
    for the poset they were handed. On every set partition of every poset
    up to 5 elements, repeated calls, a fresh partition with the same
    blocks and an equal but distinct poset all give the reference answer:
    a failing partition stays False and raises NotEPartition every time,
    and a passing one yields the up-set quotient every time."""
    checked = failing = 0
    for n in range(6):
        for p in enumerate_posets(n):
            twin = Poset.from_covers(p.n, p.covers)
            assert twin == p and twin is not p
            for blocks in set_partitions(list(range(n))):
                part = EPartition.from_blocks(p, blocks)
                fresh = EPartition.from_blocks(p, blocks)
                expected = block_set_is_epartition(p, fresh)
                want = expected and quotient_key(*up_set_quotient(p, fresh))
                for base in (p, p, twin, p, twin):
                    assert is_epartition(base, part) == expected, (p, blocks)
                    if expected:
                        assert quotient_key(*quotient(base, part)) == want
                    else:
                        with pytest.raises(NotEPartition):
                            quotient(base, part)
                if expected:
                    assert quotient(p, part)[0] is quotient(p, part)[0]
                failing += not expected
                checked += 1
    assert checked == 3547 and failing == 3547 - 1385   # 1385 E-partitions


@pytest.mark.parametrize("call", [
    is_epartition, quotient,
    lambda p, part: EPartition.identity(p).refines(part),
    lambda p, part: corollary_check(p, part, 1,
                                    witness=Coloring.of(p, 1, [0] * p.n)),
    lambda p, part: merges_every_full_c_row(p, part, 1),
], ids=["is_epartition", "quotient", "refines", "corollary", "full_rows"])
@pytest.mark.parametrize("part", [[(0,), (1, 2)], ((0,), (1, 2)), None],
                         ids=["list", "tuple", "none"])
def test_a_partition_argument_must_be_an_epartition(call, part):
    with pytest.raises(InvalidId, match="not an EPartition"):
        call(v_poset(), part)


# Seeds of the verdict and quotient checks at truncation size, past the
# exhaustive checks' 5 and 6 elements.
VERDICT_TRUNCATION_SEED = 109
VERDICT_LADDER_SEED = 113


def edited(rng, part):
    """Two partitions one edit away from `part`: a seeded member of a
    seeded merged block moved into the next block (by index, wrapping
    round), and a seeded merged block split in two at a seeded cut. Either
    may still be an E-partition; none when no block is merged."""
    blocks = [list(b) for b in part.blocks]
    merged = [i for i, b in enumerate(blocks) if len(b) > 1]
    if not merged:
        return []
    i = rng.choice(merged)
    moved = [list(b) for b in blocks]
    x = moved[i].pop(rng.randrange(len(moved[i])))
    moved[(i + 1) % len(moved)].append(x)
    j = rng.choice(merged)
    b = list(blocks[j])
    rng.shuffle(b)
    cut = rng.randint(1, len(b) - 1)
    split = blocks[:j] + [b[:cut], b[cut:]] + blocks[j + 1:]
    return [EPartition.from_blocks(part.base, bs) for bs in (moved, split)]


def matches_the_references(p, part):
    """`is_epartition` equals the block-set definition, and `quotient`
    equals the up-set formula or raises NotEPartition; the verdict."""
    expected = block_set_is_epartition(p, part)
    assert is_epartition(p, part) == expected, part.blocks
    if expected:
        assert quotient_key(*quotient(p, part)) == \
            quotient_key(*up_set_quotient(p, part)), part.blocks
    else:
        with pytest.raises(NotEPartition):
            quotient(p, part)
    return expected


def test_verdicts_and_quotients_match_the_references_on_truncations():
    """The coarsest partitions of 30 weak colorings of order n of each
    truncation (n, depth), seed VERDICT_TRUNCATION_SEED, and two edits of
    each: 68, 102 and 132 elements."""
    rng = random.Random(VERDICT_TRUNCATION_SEED)
    counts = {}     # (n, depth) -> [edits, E-partitions among them]
    for n, depth in ((2, 1), (2, 2), (3, 1)):
        z = abomination_truncation(n, depth)
        count = counts[n, depth] = [0, 0]
        for _ in range(30):
            part = coarsest_color_respecting(z, random_weak_coloring(rng, z, n))
            assert matches_the_references(z, part)
            for variant in edited(rng, part):
                count[0] += 1
                count[1] += matches_the_references(z, variant)
    assert counts == {(2, 1): [60, 9], (2, 2): [60, 12], (3, 1): [60, 15]}


def test_verdicts_and_quotients_match_the_references_on_ladder_kernels():
    """The kernels of the ladder schedules of 10 weak colorings of order n
    of each ladder with n <= 2 and depth <= 5, seed VERDICT_LADDER_SEED,
    and two edits of each."""
    rng = random.Random(VERDICT_LADDER_SEED)
    edits = passed = 0
    for n in range(3):
        for depth in range(6):
            v = ladder_truncation(n, depth)
            for _ in range(10):
                f = random_weak_coloring(rng, v, n)
                ker = schedule_beta_reductions(v, f).kernel
                assert matches_the_references(v, ker)
                for variant in edited(rng, ker):
                    edits += 1
                    passed += matches_the_references(v, variant)
    assert (edits, passed) == (360, 149)


def growth_key(blocks):
    """Sort key of a partition of 0..n-1 in the order that grows all of
    them by adding elements n-1 down to 0: each element joins one of the
    blocks already grown, taken by ascending largest member, or opens a
    new block after them. `bell_filter` lists the partitions in this
    order; `all_epartitions` gives them in no set order.

    For x from n-1 down to 0 the key holds the largest member of x's
    block, or n when x is that largest member. Among partitions that agree
    above x, this digit rises with the block x joins, and a new block
    sorts last. The key names the partition, so the order is total."""
    n = sum(map(len, blocks))
    key = [n] * n
    for b in blocks:
        top = b[-1]
        for x in b[:-1]:
            key[n - 1 - x] = top
    return key


def in_growth_order(parts):
    return sorted(parts, key=lambda part: growth_key(part.blocks))


def list_growth_key(blocks):
    """Reference: the growth order as first written, the grown blocks
    kept in a list by ascending largest member."""
    top = {}
    for b in blocks:
        for x in b:
            top[x] = b[-1]
    grown = []
    key = []
    for x in reversed(range(len(top))):
        if top[x] == x:
            key.append(len(grown))
            grown.insert(0, x)
        else:
            key.append(grown.index(top[x]))
    return key


def test_growth_key_matches_the_grown_block_list():
    checked = 0
    for n in range(9):
        parts = [tuple(sorted(tuple(sorted(b)) for b in blocks))
                 for blocks in set_partitions(list(range(n)))]
        assert sorted(parts, key=growth_key) == \
            sorted(parts, key=list_growth_key)
        checked += len(parts)
    assert checked == 5296      # Bell(0) + ... + Bell(8)


def set_refines(part, other):
    """Reference: every block of part meets exactly one block of other."""
    return all(len({other.block_of(x) for x in b}) == 1 for b in part.blocks)


def set_filter_oracle(parts, colors):
    """Reference: the oracle as first written, with one color set per
    block and set_refines."""
    candidates = [part for part in parts
                  if all(len({colors[x] for x in b}) == 1 for b in part.blocks)]
    best = min(candidates, key=lambda e: (len(e.blocks), e.blocks))
    for part in candidates:
        if not set_refines(part, best):
            raise PropertyFalsified("no coarsest candidate")
    return best


def color_pattern(colors):
    first = {}
    return tuple(first.setdefault(c, len(first)) for c in colors)


def test_brute_coarsest_matches_the_set_filter():
    """Every poset up to 5 elements with every weak coloring of orders 1-3,
    then seeded relabelled posets of 7 and 8 elements. The enumeration is
    pinned by test_all_epartitions_matches_bell_filter, so on the small
    posets each poset's list is taken once and the oracle's scan
    `_coarsest_among`, one AND of pair masks per partition and the union
    check, runs per coloring. The reference reads colors only through
    equality, so it runs once per color pattern."""
    checked = 0
    for n in range(6):
        for p in enumerate_posets(n):
            parts = all_epartitions(p)
            expected = {}
            for order in (1, 2, 3):
                for f in enumerate_weak_colorings(p, order):
                    key = color_pattern(f.colors)
                    if key not in expected:
                        expected[key] = set_filter_oracle(parts, f.colors).blocks
                    assert _coarsest_among(parts, f).blocks == \
                        expected[key], (p, f.colors)
                    checked += 1
    assert checked == 195053
    rng = random.Random(71)
    for n in (7, 8):
        for _ in range(12):
            perm = list(range(n))
            rng.shuffle(perm)
            p = permuted(random_poset(rng, n), perm)
            parts = all_epartitions(p)
            for order in (1, 2, 3):
                f = random_weak_coloring(rng, p, order)
                assert brute_coarsest_color_respecting(p, f) == \
                    set_filter_oracle(parts, f.colors), (p, f.colors)


def test_the_oracle_scan_needs_a_greatest_candidate():
    """Two single-colored partitions, neither refining the other, have no
    greatest element: the scan must refuse them, not return the least
    by its key. A block mixing colors is never a candidate."""
    p = Poset.from_covers(3, [])
    f = Coloring.of(p, 1, [0, 0, 0])
    parts = [EPartition.from_blocks(p, [[0, 1], [2]]),
             EPartition.from_blocks(p, [[0], [1, 2]])]
    with pytest.raises(PropertyFalsified):
        _coarsest_among(parts, f)
    whole = EPartition.from_blocks(p, [[0, 1, 2]])
    assert _coarsest_among(parts + [whole], f) == whole
    g = Coloring.of(p, 1, [0, 0, 1])
    assert _coarsest_among([whole, parts[0]], g) == parts[0]


def pair_mask(blocks):
    """Reference: bit 8x + y for every ordered pair x != y in one block."""
    return sum(1 << 8 * x + y for b in blocks for x in b for y in b if x != y)


def test_stored_pair_masks_equal_the_masks_of_their_blocks():
    """`all_epartitions` stores each leaf's pair mask; it must equal the
    mask `_pairs` computes from the blocks of a fresh partition, and the
    reference, on every E-partition of every poset up to 6 elements and of
    seeded relabelled posets of 7 and 8."""
    def check(p):
        for part in all_epartitions(p):
            assert "_pairs" in vars(part)      # stored, not computed on read
            fresh = EPartition(p, part.blocks)
            assert part._pairs == fresh._pairs == pair_mask(part.blocks), \
                (p, part.blocks)
        return len(all_epartitions(p))

    assert sum(check(p) for n in range(7) for p in enumerate_posets(n)) == \
        1 + 1 + 4 + 21 + 144 + 1214 + 13085
    rng = random.Random(61)
    for n in (7, 8):
        for _ in range(15):
            perm = list(range(n))
            rng.shuffle(perm)
            check(permuted(random_poset(rng, n), perm))


def test_pair_masks_refuse_a_poset_past_the_limit():
    """At stride 8 the pair (1, 8) would land on the bit of (2, 0), so a
    partition of 9 elements has no pair mask: TooLarge, not an alias."""
    assert 1 * 8 + 8 == 2 * 8 + 0
    p = Poset.from_covers(9, [])
    part = EPartition.from_blocks(p, [[1, 8], [0, 2, 3, 4, 5, 6, 7]])
    with pytest.raises(TooLarge):
        part._pairs
    with pytest.raises(TooLarge):
        _coarsest_among([part], Coloring.of(p, 1, [0] * 9))
    with pytest.raises(TooLarge):
        _coarsest_among([EPartition.identity(p)], Coloring.of(p, 1, [0] * 9))


def test_the_oracle_scan_refuses_a_list_without_the_coarsest():
    """With the true coarsest partition removed, three same-colored
    incomparable elements leave three incomparable candidates, and the
    scan must refuse them. Over every poset up to 5 elements and every
    weak coloring of order 2, the scan without the true coarsest refuses
    exactly when the set reference finds no greatest candidate among the
    rest, and otherwise returns that one."""
    p = Poset.from_covers(3, [])
    f = Coloring.of(p, 1, [0, 0, 0])
    parts = all_epartitions(p)
    top = _coarsest_among(parts, f)
    assert top.blocks == ((0, 1, 2),)
    with pytest.raises(PropertyFalsified):
        _coarsest_among([part for part in parts if part != top], f)
    outcomes = {"refused": 0, "returned": 0}
    for n in range(6):
        for p in enumerate_posets(n):
            parts = all_epartitions(p)
            for f in enumerate_weak_colorings(p, 2):
                top = _coarsest_among(parts, f)
                rest = [part for part in parts if part != top]
                try:
                    expected = set_filter_oracle(rest, f.colors)
                except (PropertyFalsified, ValueError):    # ValueError: none left
                    expected = None
                if expected is None:
                    with pytest.raises(PropertyFalsified):
                        _coarsest_among(rest, f)
                    outcomes["refused"] += 1
                else:
                    assert _coarsest_among(rest, f) == expected, (p, f.colors)
                    outcomes["returned"] += 1
    assert outcomes == {"refused": 7104, "returned": 4889}


def test_the_one_pass_matches_the_mask_oracle_on_six_elements():
    """Every weak coloring of order 2 of every 6-element poset: the
    top-down pass alone against the oracle's scan over the poset's
    E-partitions, enumerated once per poset. The report's sweeps stop at
    5 elements; this one reaches past them."""
    posets = instances = 0
    for p in enumerate_posets(6):
        posets += 1
        parts = all_epartitions(p)
        for f in enumerate_weak_colorings(p, 2):
            instances += 1
            assert coarsest_color_respecting(p, f) == _coarsest_among(parts, f), \
                (p, f.colors)
    assert (posets, instances) == (318, 107117)


def test_the_oracle_check_enumerates_each_poset_once(monkeypatch):
    """Criterion 7 takes the E-partitions of each of its 87 exhaustive
    posets (1 + 2 + 5 + 16 + 63, sizes 1-5) once, for all their colorings,
    and calls the public oracle once per sample, so it enumerates
    87 + 500 times in place of once per instance (11,992 + 500)."""
    import esakiakit.reduction as reduction
    import esakiakit.suite as suite
    calls = []

    def counting(p):
        calls.append(p.n)
        return all_epartitions(p)
    monkeypatch.setattr(reduction, "all_epartitions", counting)
    monkeypatch.setattr(suite, "all_epartitions", counting)
    assert suite.check_coarsest_oracle(42) == {
        "pass": True, "exhaustive_instances": 11992,
        "sampled_instances": suite.ORACLE_SAMPLES, "mismatches": 0,
        "seed": 42}
    assert len(calls) == 87 + suite.ORACLE_SAMPLES == 587


def test_refines_matches_the_set_definition():
    rng = random.Random(73)
    outcomes = set()
    for _ in range(400):
        n = rng.randint(1, 8)
        p = Poset.from_covers(n, [])
        labels = [rng.randrange(n) for _ in range(n)]
        part = kernel(p, labels)
        if rng.random() < 0.5:
            # A coarsening of part: merge its blocks by a random map.
            merge = [rng.randrange(len(part.blocks)) for _ in part.blocks]
            other = kernel(p, [merge[part.block_of(x)] for x in range(n)])
        else:
            other = kernel(p, [rng.randrange(n) for _ in range(n)])
        for a, b in ((part, other), (other, part)):
            assert a.refines(b) == set_refines(a, b)
            outcomes.add(a.refines(b))
    assert outcomes == {True, False}


@st.composite
def colored_posets(draw):
    """A relabelled random poset of up to 8 elements with a weak coloring
    of order 1-3, drawn top down below the colors of the covers."""
    n = draw(st.integers(0, 8))
    rows = [draw(st.integers(0, (1 << n) - 1)) >> (x + 1) << (x + 1)
            for x in range(n)]
    perm = draw(st.permutations(range(n)))
    p = permuted(Poset.from_leq(n, rows), perm)
    order = draw(st.integers(1, 3))
    colors = [0] * n
    for x in sorted(range(n), key=p.depths().__getitem__):
        ceiling = (1 << order) - 1
        for y in p.covers_up(x):
            ceiling &= colors[y]
        colors[x] = draw(st.integers(0, (1 << order) - 1)) & ceiling
    return p, Coloring.of(p, order, colors)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(colored_posets(), st.randoms(use_true_random=False))
def test_scrambled_greedy_equals_the_brute_force_oracle(case, rnd):
    p, f = case
    assert scrambled_coarsest(p, f, rnd) == brute_coarsest_color_respecting(p, f)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(colored_posets(), st.randoms(use_true_random=False))
def test_decompose_then_compose_gives_back_the_kernel(case, rnd):
    p, f = case
    part = scrambled_coarsest(p, f, rnd)
    q, proj = quotient(p, part)
    ker = compose_steps(p, decompose_pmorphism(p, q, proj))
    assert ker == kernel(p, proj) == part
