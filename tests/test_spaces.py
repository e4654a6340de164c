import random

import pytest

from esakiakit import (InvalidId, OutOfRange, Poset, SpaceLabel,
                       abomination_id, abomination_level_ids,
                       abomination_truncation, canonical_coloring, ids_of,
                       is_coloring, ladder_id, ladder_truncation, level_size,
                       monochrome_mergeable_pair, quotient_census,
                       random_poset, search_coloring, size_bound,
                       size_bound_by_levels, triple_table,
                       verify_downset_claim, width_of)
from esakiakit.poset import JSON_COVER_LIMIT
from esakiakit.spaces import abomination_cover_count, ladder_cover_count

from test_poset import is_upset, maximal_mask
from test_replay import mergeable_pairs


def test_label_parse_and_str_roundtrip():
    for text in ("a0", "b12", "c3_7", "d0_0", "ea5_11", "eb2_1", "y4_3"):
        lab = SpaceLabel.parse(text)
        assert str(lab) == text
    assert SpaceLabel.parse("ea5_11") == SpaceLabel("ea", 5, 11)
    assert SpaceLabel.parse("a0") == SpaceLabel("a", 0)


def test_label_validation():
    with pytest.raises(InvalidId):
        SpaceLabel.parse("z1")
    with pytest.raises(InvalidId):
        SpaceLabel.parse("c3")        # indexed kinds need an index
    with pytest.raises(InvalidId):
        SpaceLabel.parse("a2_3")      # a and b never carry one
    with pytest.raises(InvalidId):
        SpaceLabel("c", -1, 0)
    with pytest.raises(InvalidId):
        SpaceLabel("q", 0, 0)


def test_label_parses_are_cached_and_bad_labels_raise_every_time():
    for _ in range(3):
        for bad in ("z1", "c3", "a2_3", "c-1_0", "", " c0_0", 7, None,
                    ["c0_0"], b"c0_0"):
            with pytest.raises(InvalidId):
                SpaceLabel.parse(bad)
        assert SpaceLabel.parse("c3_7") == SpaceLabel("c", 3, 7)
    assert SpaceLabel.parse("eb2_1") is SpaceLabel.parse("eb2_1")


def test_triple_table():
    table = triple_table(2)
    assert len(table.triples) == 336
    assert table.triples[0] == (0, 1, 2)
    assert table.assigned(0) == (0, 1, 2)
    assert table.assigned(336) == (0, 1, 2)
    assert table.assigned(1) == table.triples[1]
    assert all(len(set(t)) == 3 for t in table.triples)
    with pytest.raises(OutOfRange):
        triple_table(1)


def test_truncation_levels_take_the_assigned_triples():
    """a(m) and b(m) sit below the c's named by triple_table(n).assigned(m),
    also on the level where the table wraps around."""
    table = triple_table(2)
    wrap = len(table.triples)
    p = abomination_truncation(2, wrap)
    for m in (0, 1, wrap - 1, wrap):
        k1, k2, k3 = table.assigned(m)

        def c(*ks):
            return tuple(sorted(abomination_id(2, SpaceLabel("c", m, k))
                                for k in ks))

        assert p.covers_up(abomination_id(2, SpaceLabel("a", m))) == c(k1, k2)
        assert p.covers_up(abomination_id(2, SpaceLabel("b", m))) == c(k1, k3)


def test_widths_and_level_sizes():
    assert width_of(2) == 8 and width_of(3) == 16
    assert level_size(2) == 34 and level_size(3) == 66


def test_element_ids_cover_each_level_contiguously():
    assert abomination_level_ids(2, 0) == list(range(34))
    assert abomination_level_ids(2, 1) == list(range(34, 68))
    assert abomination_id(2, SpaceLabel("c", 0, 0)) == 2
    assert abomination_id(2, SpaceLabel("eb", 1, 7)) == 34 + 2 + 24 + 7
    with pytest.raises(OutOfRange):
        abomination_id(2, SpaceLabel("c", 0, 8))


def test_ladder_ids():
    assert ladder_id(0, 0, 0) == 0
    assert ladder_id(0, 3, 1) == 7
    assert ladder_id(1, 2, 3) == 11
    with pytest.raises(OutOfRange):
        ladder_id(0, 1, 2)


def test_truncation_sizes():
    assert abomination_truncation(2, 0).n == 34
    assert abomination_truncation(2, 1).n == 68
    assert abomination_truncation(2, 2).n == 102
    assert abomination_truncation(3, 1).n == 132
    with pytest.raises(OutOfRange):
        abomination_truncation(1, 0)
    with pytest.raises(OutOfRange):
        abomination_truncation(2, -1)


CHAIN = Poset.from_covers(2, [(0, 1)])


@pytest.mark.parametrize("build, args", [
    (abomination_truncation, (2, 1.0)),
    (abomination_truncation, (2.0, 1)),
    (ladder_truncation, (0, 1.0)),
    (ladder_truncation, (True, 1)),
    (width_of, (1.0,)),
    (width_of, (True,)),
    (width_of, (-2,)),
    (level_size, (-2,)),
    (ladder_id, (0, 1, 1.0)),
    (ladder_id, (0, 1, True)),
    (ladder_id, (0, 1.0, 1)),
    (ladder_id, (0, -1, 0)),
    (ladder_id, (-2, 0, 0)),
    (SpaceLabel, ("c", 1.0, 2)),
    (SpaceLabel, ("c", True, 2)),
    (SpaceLabel, ("c", 1, 2.0)),
    (abomination_level_ids, (2, 1.0)),
    (triple_table, (2.0,)),
    (size_bound, (2, 0.5, 1)),
    (size_bound, (2.0, 0, 1)),
    (size_bound_by_levels, (2, 0, 1.5)),
    (random_poset, (random.Random(0), 2.0)),
    (search_coloring, (CHAIN, 1, True)),
    (quotient_census, (CHAIN, 1, 1.5)),
    (abomination_id, (2, "c0_0")),
    (abomination_id, (2, SpaceLabel("y", 0, 0))),
    (abomination_cover_count, (2, 1.0)),
    (abomination_cover_count, (2, -1)),
    (abomination_cover_count, (2.0, 1)),
    (ladder_cover_count, (0, 1.5)),
    (ladder_cover_count, (0, -1)),
    (ladder_cover_count, (True, 1)),
])
def test_generators_refuse_sizes_that_are_not_ints(build, args):
    """A bool or a float is not a size, an id or a budget, even when it
    equals one, and a negative int is no size either. A label's level or
    index is an id, so a label refuses it with InvalidId, and
    `abomination_id` refuses what is not one of its labels the same way."""
    labels = (SpaceLabel, abomination_level_ids, abomination_id)
    with pytest.raises(InvalidId if build in labels else OutOfRange):
        build(*args)


def test_maximals_are_the_top_c_row():
    for n, M in ((2, 0), (2, 1), (3, 0)):
        p = abomination_truncation(n, M)
        expected = {abomination_id(n, SpaceLabel("c", 0, k))
                    for k in range(width_of(n))}
        assert set(ids_of(maximal_mask(p))) == expected


def test_cover_count_and_mergeable_pairs():
    p = abomination_truncation(2, 1)
    assert len(p.covers) == 496
    pairs = mergeable_pairs(p)
    assert all(kind == "beta" for kind, _, _ in pairs)
    assert len(pairs) == 28
    maxima = set(ids_of(maximal_mask(p)))
    assert all(x in maxima and y in maxima for _, x, y in pairs)


def test_canonical_coloring_is_strict_at_every_depth():
    for n in (2, 3, 4):
        for M in (0, 1, 2):
            f = canonical_coloring(n, M)
            assert f.base.n == (M + 1) * level_size(n)
            assert f.n == n + 1
            assert is_coloring(f.base, f)
            assert monochrome_mergeable_pair(f.base, f) is None


@pytest.mark.parametrize("n,depth", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_no_strict_coloring_of_order_n(n, depth):
    """Exhaustive search finds no strict coloring of order n on the
    truncation. Pigeonhole on the top level already decides it: the
    truncation has 2^(n+1) maximal elements, pairwise beta twins (each has
    no cover above it), and a strict coloring must give twins distinct
    colors, of which order n has only 2^n. The search still proves it by
    exhaustion."""
    z = abomination_truncation(n, depth)
    top = ids_of(maximal_mask(z))
    assert len(top) == 2 ** (n + 1)
    assert search_coloring(z, n) is None


def test_downset_claim():
    for k in range(width_of(2)):
        assert verify_downset_claim(2, 1, 0, k)
    assert verify_downset_claim(2, 2, 1, 3)
    with pytest.raises(OutOfRange):
        verify_downset_claim(2, 1, 1, 0)   # level m+1 beyond the truncation
    with pytest.raises(OutOfRange):
        verify_downset_claim(2, 1, 0, 8)


def test_ladder_zero_is_a_zigzag():
    p = ladder_truncation(0, 2)
    assert p.n == 6
    got = {tuple(c) for c in p.covers}
    assert got == {(2, 1), (3, 0), (4, 3), (5, 2)}


def test_ladder_two_level_reachability():
    for n in (1, 2):
        w = width_of(n)
        p = ladder_truncation(n, 3)
        for m in (2, 3):
            for i in range(w):
                up = p.up_mask(ladder_id(n, m, i))
                for j in range(w):
                    assert (up >> ladder_id(n, m - 2, j)) & 1


def test_level_prefixes_are_upsets():
    p = abomination_truncation(2, 2)
    for m in range(3):
        prefix = (1 << (m + 1) * level_size(2)) - 1
        assert is_upset(p, prefix)
    q = ladder_truncation(1, 4)
    for m in range(5):
        prefix = (1 << (m + 1) * width_of(1)) - 1
        assert is_upset(q, prefix)


def test_labels_match_ids():
    p = abomination_truncation(2, 1)
    assert p.labels[abomination_id(2, SpaceLabel("a", 1))] == "a1"
    assert p.labels[abomination_id(2, SpaceLabel("ea", 0, 5))] == "ea0_5"
    q = ladder_truncation(1, 2)
    assert q.labels[ladder_id(1, 2, 3)] == "y2_3"


def test_cover_counts_match_the_generators():
    for n in (2, 3):
        for depth in range(4):
            p = abomination_truncation(n, depth)
            assert len(p.covers) == abomination_cover_count(n, depth)
    for n in range(4):
        for depth in range(6):
            p = ladder_truncation(n, depth)
            assert len(p.covers) == ladder_cover_count(n, depth)
    # The widest abomination level the poset JSON limit admits is n = 8.
    assert abomination_cover_count(8, 0) <= JSON_COVER_LIMIT
    assert abomination_cover_count(9, 0) > JSON_COVER_LIMIT
