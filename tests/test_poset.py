import enum
import hashlib
import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esakiakit import (Coloring, CycleDetected, EPartition, InvalidId,
                       OutOfRange, Poset, TooLarge, abomination_truncation,
                       alpha_mergeable, beta_mergeable, color_bits,
                       coarsest_color_respecting, enumerate_posets, ids_of,
                       is_pmorphism, ladder_truncation, mask_of, quotient)
from esakiakit.poset import JSON_COVER_LIMIT
from esakiakit.randgen import random_poset, random_weak_coloring


def v_poset():
    return Poset.from_covers(3, [(0, 1), (0, 2)])


def chain(n):
    return Poset.from_covers(n, [(i, i + 1) for i in range(n - 1)])


# Helpers the tests read and the library does not, kept apart from the
# library's own tables; other test modules import them from here.


def covers_down(p: Poset, x: int) -> tuple[int, ...]:
    """Immediate predecessors of x, read off the down and up masks: the
    maximal elements of the strict down set of x."""
    below = p.down_mask(x) ^ 1 << x
    return tuple(y for y in ids_of(below)
                 if p.up_mask(y) & below == 1 << y)


def up_set(p: Poset, mask: int) -> int:
    """Upward closure of an element mask."""
    out = 0
    for x in ids_of(mask):
        out |= p.up_mask(x)
    return out


def is_upset(p: Poset, mask: int) -> bool:
    return up_set(p, mask) == mask


def maximal_mask(p: Poset) -> int:
    """The elements whose up set is themselves alone."""
    return mask_of(x for x in range(p.n) if p.up_mask(x) == 1 << x)


def coloring_json(f: Coloring) -> dict:
    """A coloring in the id-keyed file form that `Coloring.from_json_dict`
    reads."""
    return {"n": f.n, "colors": {str(x): color_bits(c, f.n)
                                 for x, c in enumerate(f.colors)}}


def permuted(p: Poset, perm) -> Poset:
    """Relabel p: old element x becomes perm[x], with its label.
    InvalidId for anything but a permutation of 0..n-1."""
    if sorted(perm) != list(range(p.n)):
        raise InvalidId("not a permutation of 0..n-1")
    labels = None
    if p.labels is not None:
        labels = [None] * p.n
        for x, lab in enumerate(p.labels):
            labels[perm[x]] = lab
    return Poset.from_covers(p.n, [(perm[x], perm[y]) for x, y in p.covers],
                             labels)


def isomorphic(p: Poset, q: Poset) -> bool:
    return p.canonical_form() == q.canonical_form()


def same(part: EPartition, x: int, y: int) -> bool:
    """Do x and y lie in one block of the partition?"""
    return any(x in b and y in b for b in part.blocks)


BRUTE_FORCE_LIMIT = 20


def max_antichain_size_brute(p: Poset) -> int:
    """Reference for `Poset.max_antichain_size`: branch-and-bound maximum
    independent set in the comparability graph. Only for small posets."""
    if p.n > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"brute force limited to {BRUTE_FORCE_LIMIT} elements")
    comp = [(p.up_mask(x) | p.down_mask(x)) & ~(1 << x) for x in range(p.n)]
    best = 0

    def rec(cand: int, size: int) -> None:
        nonlocal best
        if size + bin(cand).count("1") <= best:
            return
        if not cand:
            best = max(best, size)
            return
        x = cand.bit_length() - 1
        rec(cand & ~(1 << x) & ~comp[x], size + 1)
        rec(cand & ~(1 << x), size)

    rec(p.full_mask(), 0)
    return best


def test_from_covers_rejects_cycles():
    with pytest.raises(CycleDetected):
        Poset.from_covers(2, [(0, 1), (1, 0)])
    with pytest.raises(CycleDetected):
        Poset.from_covers(1, [(0, 0)])
    with pytest.raises(CycleDetected):
        Poset.from_leq(2, [0b11, 0b11])
    with pytest.raises(CycleDetected):
        Poset.from_leq(3, [0b011, 0b110, 0b101])   # rows not closed


def test_cycles_reached_late_or_deep_are_rejected():
    """The stack walk meets a cycle only after everything before it has
    closed: a cycle that only the last root reaches, and a cycle hanging off
    the top of a long chain, in both id directions."""
    late = [(0, 1), (1, 2), (5, 3), (3, 4), (4, 3)]
    deep = [(i, i + 1) for i in range(1001)] + [(1001, 999)]
    for n, covers in ((6, late), (1002, deep)):
        for pairs in (covers, [(n - 1 - x, n - 1 - y) for x, y in covers]):
            with pytest.raises(CycleDetected):
                Poset.from_covers(n, pairs)
            rows = [0] * n
            for x, y in pairs:
                rows[x] |= 1 << y
            with pytest.raises(CycleDetected):
                Poset.from_leq(n, rows)


@pytest.mark.parametrize("shape", ["star", "chain", "fan"])
def test_ten_thousand_element_shapes_build_in_both_id_directions(shape):
    """A bottom below 9,999 maximal elements, a 10,000-chain and 9,999
    minimal elements below one top. Each builds in about 0.1 s on 2 CPUs;
    a walk that re-closes x after every pushed successor would take
    minutes on the star."""
    n = 10_000
    covers = {"star": [(0, y) for y in range(1, n)],
              "chain": [(i, i + 1) for i in range(n - 1)],
              "fan": [(x, n - 1) for x in range(n - 1)]}[shape]
    depths = {"star": [2] + [1] * (n - 1),
              "chain": list(range(n, 0, -1)),
              "fan": [2] * (n - 1) + [1]}[shape]
    rev = [n - 1 - x for x in range(n)]
    for perm in (range(n), rev):
        start = time.monotonic()
        p = Poset.from_covers(n, [(perm[x], perm[y]) for x, y in covers])
        assert time.monotonic() - start < 10
        assert p.covers == tuple(sorted((perm[x], perm[y]) for x, y in covers))
        assert [p.depths()[perm[x]] for x in range(n)] == depths


def test_from_covers_rejects_bad_ids():
    with pytest.raises(InvalidId):
        Poset.from_covers(2, [(0, 2)])
    with pytest.raises(InvalidId):
        Poset.from_covers(2, [(-1, 0)])
    with pytest.raises(InvalidId):
        Poset.from_leq(2, [0b101, 0b10])
    with pytest.raises(InvalidId):
        Poset.from_leq(2, [-1, 0b10])
    with pytest.raises(InvalidId):
        Poset.from_leq(2, [0b1])


def test_transitive_pairs_are_reduced():
    p = Poset.from_covers(3, [(0, 1), (1, 2), (0, 2)])
    assert p.covers == ((0, 1), (1, 2))


def closure_of(n, covers):
    """Reachability rows of a cover list by plain graph search."""
    succ = [[] for _ in range(n)]
    for x, y in covers:
        succ[x].append(y)
    rows = []
    for x in range(n):
        seen, stack = {x}, [x]
        while stack:
            for y in succ[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        rows.append(sum(1 << y for y in seen))
    return rows


def longest_chains(up_rows):
    """Elements on the longest chain inside each up set, by plain recursion
    over strict up sets."""
    memo = {}

    def chain_len(x):
        if x not in memo:
            memo[x] = 1 + max((chain_len(y) for y in ids_of(up_rows[x])
                               if y != x), default=0)
        return memo[x]

    return tuple(chain_len(x) for x in range(len(up_rows)))


def check_derived_tables(p):
    """Down masks, lower covers and depths against the covers and up masks."""
    rows = [p.up_mask(x) for x in range(p.n)]
    assert [p.down_mask(y) for y in range(p.n)] == [
        sum(1 << x for x in range(p.n) if (rows[x] >> y) & 1)
        for y in range(p.n)]
    assert [covers_down(p, y) for y in range(p.n)] == [
        tuple(x for x, z in p.covers if z == y) for y in range(p.n)]
    assert p.depths() == longest_chains(rows)


def test_reduced_covers_keep_reachability():
    posets = [p for k in range(7) for p in enumerate_posets(k)]
    posets += [abomination_truncation(2, 2), abomination_truncation(3, 1)]
    posets += [ladder_truncation(n, depth)
               for n in (0, 1, 2) for depth in range(6)]
    for p in posets:
        assert closure_of(p.n, p.covers) == [p.up_mask(x) for x in range(p.n)]
        check_derived_tables(p)
    rng = random.Random(61)
    redundant = 0
    for _ in range(100):
        n = rng.randint(1, 12)
        rows = closure_of(n, [(x, y) for x in range(n) for y in range(x + 1, n)
                              if rng.random() < 0.35])
        p = Poset.from_leq(n, rows)           # every strict pair goes in
        assert closure_of(n, p.covers) == rows
        check_derived_tables(p)
        redundant += sum(r.bit_count() - 1 for r in rows) - len(p.covers)
    assert redundant > 0


def test_construction_is_pinned():
    """sha256 of (n, covers, down masks, depths), recorded before the
    constructors shared one core, over every poset up to 6 elements, the
    suite's truncations and ladders, and one reduced quotient."""
    posets = [p for k in range(7) for p in enumerate_posets(k)]
    posets += [abomination_truncation(n, depth)
               for n, depth in ((2, 0), (2, 1), (2, 2), (3, 1))]
    posets += [ladder_truncation(n, depth)
               for n in (0, 1, 2) for depth in range(6)]
    z = abomination_truncation(2, 1)
    f = random_weak_coloring(random.Random(0), z, 2)
    posets.append(quotient(z, coarsest_color_respecting(z, f))[0])
    h = hashlib.sha256()
    for p in posets:
        h.update(repr((p.n, p.covers, [p.down_mask(x) for x in range(p.n)],
                       p.depths())).encode())
    assert (len(posets), posets[-1].n) == (429, 14)
    assert h.hexdigest() == (
        "edfb9de994033cd684ab0f3b95b1f456a7fb505f5db3879e7ee487935d3a88f3")


def test_both_top_down_routes_build_the_same_poset():
    """Rows that mask only lower ids close in ascending id order without a
    push; rows that mask higher ids make the stack walk enter and push.
    Reversing the ids of seeded posets switches between the two and must
    map covers, masks, depths and cover order onto each other."""
    rng = random.Random(29)
    for _ in range(150):
        n = rng.randint(2, 24)
        p = random_poset(rng, n)        # ids ascend upward: the walk pushes
        assert all(p.up_mask(x) & ((1 << x) - 1) == 0 for x in range(n))
        rev = [n - 1 - x for x in range(n)]
        r = permuted(p, rev)            # ids ascend downward: no push
        assert all(r.up_mask(x) < 2 << x for x in range(n))
        back = permuted(r, rev)
        assert back.covers == p.covers
        for x in range(n):
            assert r.up_mask(rev[x]) == mask_of(rev[y] for y in ids_of(p.up_mask(x)))
            assert r.down_mask(rev[x]) == mask_of(rev[y] for y in ids_of(p.down_mask(x)))
            assert r.depths()[rev[x]] == p.depths()[x]
            assert list(r.covers_up(rev[x])) == sorted(rev[y] for y in p.covers_up(x))
        part = coarsest_color_respecting(p, random_weak_coloring(rng, p, 1))
        q, _ = quotient(p, part)        # blocks are numbered top down
        assert all(q.up_mask(x) < 2 << x for x in range(q.n))


def test_leq_and_masks_on_chain():
    p = chain(3)
    assert p.leq(0, 2) and not p.leq(2, 0)
    assert p.up_mask(0) == 0b111
    assert p.up_mask(1) == 0b110
    assert p.down_mask(2) == 0b111
    assert p.covers_up(0) == (1,)


def test_upset_and_downset_masks():
    p = v_poset()
    assert p.down_set(mask_of([1])) == 0b011


def test_element_set_methods_reject_masks_outside_the_poset():
    with pytest.raises(InvalidId, match="negative mask"):
        ids_of(-1)
    p = v_poset()
    for mask in (-1, -0b100, 0b1000, 0b1001):
        with pytest.raises(InvalidId):
            p.down_set(mask)
        with pytest.raises(InvalidId):
            p.induced(mask)
    assert p.induced(0)[0].n == 0


def test_element_ids_must_be_plain_ints():
    """Bools and floats are not ids, even when they equal one."""
    p = v_poset()
    for x in (True, False, 1.0, 0.0, "1", None):
        with pytest.raises(InvalidId):
            p.leq(x, 1)
        with pytest.raises(InvalidId):
            p.leq(0, x)
        with pytest.raises(InvalidId):
            p.up_mask(x)
        with pytest.raises(InvalidId):
            p.down_mask(x)
        with pytest.raises(InvalidId):
            p.covers_up(x)
        with pytest.raises(InvalidId):
            Poset.from_covers(2, [(x, 0)])
        with pytest.raises(InvalidId):
            Poset.from_covers(2, [(0, x)])
        with pytest.raises(InvalidId):
            Poset.from_covers(x, [])
        with pytest.raises(InvalidId):
            Poset.from_leq(x, [0b1, 0b10])
    assert p.leq(0, 1) and p.up_mask(1) == 0b010


def test_a_cover_of_three_values_is_refused():
    with pytest.raises(InvalidId, match="not a pair"):
        Poset.from_covers(3, [(0, 1, 2)])
    with pytest.raises(InvalidId, match="not a pair"):
        Poset.from_covers(3, [(0, 1), (1,)])


def test_a_cover_that_is_not_a_sequence_is_refused():
    with pytest.raises(InvalidId, match="not a pair"):
        Poset.from_covers(3, [5])
    with pytest.raises(InvalidId, match="not a pair"):
        Poset.from_covers(3, [(0, 1), None])


def test_an_unordered_cover_is_refused():
    """A set, frozenset or dict of two ids unpacks into two ints, in an
    order that does not say which end is below: it is not a cover."""
    for cover in ({1, 0}, frozenset({0, 1}), {0: "x", 1: "y"}):
        with pytest.raises(InvalidId, match="not a pair"):
            Poset.from_covers(2, [cover])
        with pytest.raises(InvalidId, match="not a pair"):
            Poset.from_covers(3, [(1, 2), cover])
    for cover in ((0, 1), [0, 1]):
        assert Poset.from_covers(2, [cover]).covers == ((0, 1),)


def test_leq_rows_must_be_plain_ints():
    for rows in ([1.0, 2], [1, 2.0], [True, 2], [1, "2"], [1, None]):
        with pytest.raises(InvalidId):
            Poset.from_leq(2, rows)
    assert Poset.from_leq(2, [0b11, 0b10]).covers == ((0, 1),)


def test_int_subclasses_are_not_ids():
    """One id rule everywhere: an IntEnum member equal to an id is refused
    by the element accessors, both constructors, partitions, maps, pairs
    and colorings."""
    class Id(enum.IntEnum):
        ZERO = 0
        ONE = 1
        TWO = 2

    p = v_poset()
    one = Id.ONE
    for call in (lambda: p.leq(one, 1), lambda: p.up_mask(one),
                 lambda: Poset.from_covers(2, [(0, one)]),
                 lambda: Poset.from_covers(Id.TWO, []),
                 lambda: Poset.from_leq(Id.TWO, [0b1, 0b10]),
                 lambda: Poset.from_leq(2, [0b1, Id.TWO]),
                 lambda: EPartition.from_blocks(p, [[0], [one, 2]]),
                 lambda: is_pmorphism(p, chain(2), (0, one, 1)),
                 lambda: alpha_mergeable(p, 0, one),
                 lambda: beta_mergeable(p, one, 2)):
        with pytest.raises(InvalidId):
            call()
    with pytest.raises(OutOfRange):
        Coloring.of(p, Id.ONE, [0, 1, 1])
    with pytest.raises(OutOfRange):
        Coloring.of(p, 1, [0, one, 1])
    assert p.leq(0, 1) and beta_mergeable(p, 1, 2)


def test_upsets_counts():
    assert len(v_poset().upsets()) == 5
    assert len(chain(3).upsets()) == 4
    assert len(Poset.from_covers(3, []).upsets()) == 8


def test_extremes_and_root():
    p = v_poset()
    assert p.minimal_mask() == 0b001
    assert p.has_root()
    assert not chain(0).has_root()
    two = Poset.from_covers(2, [])
    assert not two.has_root()


def test_depths_and_height():
    p = chain(4)
    assert p.depths() == (4, 3, 2, 1)
    assert max(p.depths()) == 4
    assert v_poset().depths() == (2, 1, 1)


def test_width_small_cases():
    assert chain(5).width() == 1
    four = Poset.from_covers(4, [])
    assert four.max_antichain_size() == 4
    assert four.width() == 1             # upsets of an antichain are points
    assert v_poset().width() == 2
    assert v_poset().max_antichain_size() == 2


def test_antichain_sizes_match_brute_force_on_seeded_posets():
    rng = random.Random(11)
    for _ in range(150):
        p = random_poset(rng, rng.randint(1, 7))
        assert p.max_antichain_size() == max_antichain_size_brute(p)


def test_width_is_the_upset_local_antichain_maximum():
    rng = random.Random(17)
    for _ in range(100):
        p = random_poset(rng, rng.randint(1, 7))
        expected = 0
        for x in range(p.n):
            sub, _ = p.principal_upset(x)
            expected = max(expected, max_antichain_size_brute(sub))
        assert p.width() == expected


WIDTH_SEED = 23


def antichain_reference(p: Poset) -> int:
    """Largest antichain by Dilworth, with Kuhn's augmenting paths from an
    empty matching, written apart from the library's greedy-start matching:
    n minus a maximum matching of elements to elements strictly above
    them. The branch-and-bound `max_antichain_size_brute` shares no step
    with either."""
    above = [ids_of(p.up_mask(x) & ~(1 << x)) for x in range(p.n)]
    match = {}                  # upper element -> the lower one matched to it

    def augment(x, seen):
        for y in above[x]:
            if y not in seen:
                seen.add(y)
                if y not in match or augment(match[y], seen):
                    match[y] = x
                    return True
        return False

    return p.n - sum(augment(x, set()) for x in range(p.n))


def width_reference(p: Poset) -> int:
    """The width as the library once computed it: the induced poset on the
    upset of every element, then its largest antichain."""
    return max((antichain_reference(p.induced(p.up_mask(x))[0])
                for x in range(p.n)), default=0)


def test_width_matches_the_reference_on_every_poset_up_to_7():
    count = 0
    for n in range(8):
        for p in enumerate_posets(n):
            assert p.width() == width_reference(p)
            assert p.max_antichain_size() == antichain_reference(p) \
                == max_antichain_size_brute(p)
            count += 1
    assert count == 2451


def test_width_matches_the_reference_on_seeded_posets():
    rng = random.Random(WIDTH_SEED)
    for _ in range(500):
        p = random_poset(rng, rng.randint(1, 20))
        assert p.width() == width_reference(p)
        assert p.max_antichain_size() == antichain_reference(p)


@pytest.mark.parametrize("space", [
    *[("ladder", n, m) for n in range(3) for m in range(4)],
    ("abomination", 2, 1), ("abomination", 2, 2), ("abomination", 3, 1)],
    ids=lambda space: "-".join(map(str, space)))
def test_width_matches_the_reference_on_the_spaces(space):
    kind, n, m = space
    build = ladder_truncation if kind == "ladder" else abomination_truncation
    p = build(n, m)
    assert p.width() == width_reference(p)
    assert p.max_antichain_size() == antichain_reference(p)


def test_width_builds_no_poset(built_posets):
    """Width and largest antichain read the stored up masks: on the
    68-element truncation neither builds a subposet."""
    z = abomination_truncation(2, 1)
    built_posets.clear()
    assert z.width() == z.max_antichain_size() == 16
    assert built_posets == []
    z.principal_upset(0)            # the counter does see a build
    assert len(built_posets) == 1


def test_an_augmenting_path_longer_than_the_recursion_limit():
    """Lower elements u_i < v_i, v_{i+1} (i < 1200) and w < v_1200, with
    the v_j numbered in descending j: the matching gives u_i the partner
    v_{i+1} first, so w's augmenting path runs through all 1200 u_i, past
    the interpreter's 1,000 frames."""
    k = 1200
    covers = [(k + 1 + i, k - i - d) for i in range(k) for d in (0, 1)]
    p = Poset.from_covers(2 * k + 2, covers + [(2 * k + 1, 0)])
    assert p.n == 2402
    assert p.max_antichain_size() == 1201
    assert p.width() == 2


def test_brute_width_size_guard():
    with pytest.raises(TooLarge):
        max_antichain_size_brute(Poset.from_covers(21, []))


def test_with_bottom():
    p = v_poset().with_bottom()
    assert p.n == 4 and p.has_root() and p.minimal_mask() == 1
    assert p.covers_up(0) == (1,)
    assert p.labels is None
    labeled = Poset.from_covers(2, [], labels=["a", "b"]).with_bottom()
    assert labeled.covers == ((0, 1), (0, 2))
    assert list(labeled.labels) == [None, "a", "b"]


def test_principal_upset():
    p = chain(3)
    sub, remap = p.principal_upset(1)
    assert sub.n == 2 and sub.covers == ((0, 1),)
    assert remap == {1: 0, 2: 1}
    for x in (-1, -3, 3):      # -1 would alias the last element
        with pytest.raises(InvalidId):
            p.principal_upset(x)


def test_induced_keeps_relations():
    p = chain(4)
    sub, remap = p.induced(0b1101)
    assert sub.leq(remap[0], remap[3])
    assert sub.covers == ((0, 1), (1, 2))


def test_canonical_form_is_permutation_invariant():
    rng = random.Random(5)
    for _ in range(60):
        p = random_poset(rng, rng.randint(1, 7))
        perm = list(range(p.n))
        rng.shuffle(perm)
        q = permuted(p, perm)
        assert p.canonical_form() == q.canonical_form()


def test_canonical_form_matches_the_brute_force_minimum():
    """Every poset of 0-6 elements and two seeded relabellings of each: two
    canonical forms are equal exactly when the least sorted cover list over
    all n! relabellings (with n) is equal."""
    rng = random.Random(23)
    posets = []
    for k in range(7):
        for p in enumerate_posets(k):
            posets.append(p)
            for _ in range(2):
                perm = list(range(k))
                rng.shuffle(perm)
                posets.append(permuted(p, perm))

    def brute(p):
        covers = p.covers
        return (p.n, min(tuple(sorted((perm[x], perm[y]) for x, y in covers))
                         for perm in itertools.permutations(range(p.n))))

    keys = [brute(p) for p in posets]
    forms = [p.canonical_form() for p in posets]
    assert len(posets) == 3 * 406 and len(set(keys)) == 406
    assert len(set(zip(keys, forms))) == len(set(forms)) == 406


def test_non_isomorphic_posets_differ():
    assert not isomorphic(chain(3), v_poset())
    assert not isomorphic(chain(2), Poset.from_covers(2, []))


@pytest.mark.parametrize("other", [None, 3, "x", (3, ())])
def test_a_non_poset_is_not_isomorphic(other):
    assert chain(3) != other


def test_json_roundtrip_with_labels():
    p = Poset.from_covers(3, [(0, 1), (0, 2)], labels=["r", "a", "b"])
    d = p.to_json_dict()
    assert d["labels"] == {"0": "r", "1": "a", "2": "b"}
    q = Poset.from_json_dict(d)
    assert q == p


def test_json_roundtrip_without_labels():
    p = v_poset()
    assert "labels" not in p.to_json_dict()
    assert Poset.from_json_dict(p.to_json_dict()) == p


@st.composite
def labelled_colored_posets(draw):
    """A relabelled random poset of up to 8 elements, with no labels or an
    optional label per element, and a coloring of order 0-3."""
    n = draw(st.integers(0, 8))
    rows = [draw(st.integers(0, (1 << n) - 1)) >> (x + 1) << (x + 1)
            for x in range(n)]
    labels = draw(st.none() | st.lists(st.none() | st.text(max_size=3),
                                       min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))
    p = permuted(Poset.from_leq(n, rows, labels), perm)
    order = draw(st.integers(0, 3))
    colors = draw(st.lists(st.integers(0, (1 << order) - 1),
                           min_size=n, max_size=n))
    return p, Coloring.of(p, order, colors)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(labelled_colored_posets())
def test_json_round_trip_keeps_covers_labels_and_colors(case):
    p, f = case
    q = Poset.from_json_dict(json.loads(json.dumps(p.to_json_dict())))
    assert q.covers == p.covers
    assert q.labels == p.labels
    assert q.canonical_form() == p.canonical_form()
    g = Coloring.from_json_dict(q, json.loads(json.dumps(coloring_json(f))))
    assert g.colors == f.colors


def test_json_labels_may_be_a_plain_list():
    p = Poset.from_json_dict({"n": 2, "covers": [[0, 1]], "labels": ["lo", "hi"]})
    assert p.labels == ("lo", "hi")
    with pytest.raises(InvalidId):
        Poset.from_json_dict({"n": 2, "covers": [], "labels": ["lo"]})
    with pytest.raises(InvalidId):
        Poset.from_json_dict({"n": 2, "covers": [], "labels": "lohi"})
    p = Poset.from_json_dict({"n": 2, "covers": [], "labels": [None, "hi"]})
    assert p.labels == (None, "hi")
    # no label on any element means no labels, so the round trip holds
    p = Poset.from_covers(2, [], [None, None])
    assert p.labels is None and Poset.from_json_dict(p.to_json_dict()) == p


def test_json_labels_refuse_an_element_keyed_twice():
    """"1" and "01" both name element 1: a label file may not give two."""
    with pytest.raises(InvalidId, match="repeats element 1"):
        Poset.from_json_dict({"n": 2, "covers": [],
                              "labels": {"1": "a", "01": "b"}})


def test_json_colors_refuse_an_element_keyed_twice():
    p = Poset.from_covers(2, [(0, 1)])
    with pytest.raises(InvalidId, match="repeats element 1"):
        Coloring.from_json_dict(p, {"n": 1, "colors": {"0": "0", "1": "1",
                                                        "01": "1"}})


def test_json_cover_limit():
    pair = [0, 1]
    p = Poset.from_json_dict({"n": 2, "covers": [pair] * JSON_COVER_LIMIT})
    assert p.covers == ((0, 1),)
    with pytest.raises(InvalidId):
        Poset.from_json_dict({"n": 2, "covers": [pair] * (JSON_COVER_LIMIT + 1)})


def test_dot_output_shape():
    text = Poset.from_covers(2, [(0, 1)], labels=["lo", "hi"]).to_dot()
    assert "rankdir=BT" in text
    assert 'label="lo"' in text and "n0 -> n1" in text.replace(" ;", ";")


def test_ids_and_mask_helpers():
    assert list(ids_of(0b1011)) == [0, 1, 3]
    assert mask_of([0, 1, 3]) == 0b1011
    for ids in ([-1], [0, 2, -3]):
        with pytest.raises(InvalidId, match="negative id"):
            mask_of(ids)


@pytest.mark.parametrize("bad", [-1, 3])
def test_element_accessors_reject_ids_outside_the_poset(bad):
    """On the 3-element V, -1 must not name element 2 by Python's negative
    indexing, and 3 must not reach a bare IndexError."""
    v = v_poset()
    for read in (v.up_mask, v.down_mask, v.covers_up,
                 lambda x: v.leq(x, 2), lambda x: v.leq(2, x),
                 lambda x: alpha_mergeable(v, x, 1), lambda x: alpha_mergeable(v, 1, x),
                 lambda x: beta_mergeable(v, x, 1), lambda x: beta_mergeable(v, 1, x)):
        with pytest.raises(InvalidId):
            read(bad)


def test_equality_and_hash():
    assert v_poset() == v_poset()
    assert hash(v_poset()) == hash(v_poset())
    assert v_poset() != chain(3)
