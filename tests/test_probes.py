import pytest

from esakiakit import (BudgetExceeded, EPartition, OutOfRange, Overflow,
                       Poset, abomination_truncation, enumerate_posets,
                       enumerate_rooted_posets, is_coloring, kc_probe,
                       quotient_census, size_bound, size_bound_by_levels)
from esakiakit.suite import check_canonical_colorings


def chain(n):
    return Poset.from_covers(n, [(i, i + 1) for i in range(n - 1)])


def test_poset_counts_up_to_isomorphism():
    assert [len(enumerate_posets(n)) for n in range(7)] == [1, 1, 2, 5, 16, 63, 318]
    with pytest.raises(OutOfRange):
        enumerate_posets(-1)


@pytest.mark.parametrize("size", [True, False, 2.0, "3", None, -1])
def test_enumerations_take_only_plain_int_sizes(size):
    """A bool is not a size: True must not read the cached entry of 1."""
    enumerate_posets(1)
    with pytest.raises(OutOfRange):
        enumerate_posets(size)
    with pytest.raises(OutOfRange):
        enumerate_rooted_posets(size)


def test_enumeration_yields_distinct_classes():
    reps = enumerate_posets(4)
    canons = {p.canonical_form() for p in reps}
    assert len(canons) == len(reps)
    assert all(p.n == 4 for p in reps)


def test_rooted_enumeration():
    rooted = enumerate_rooted_posets(6)
    assert len(rooted) == 88
    assert all(p.has_root() for p in rooted)
    assert sorted({p.n for p in rooted}) == [1, 2, 3, 4, 5, 6]


def test_census_of_a_chain_is_exhaustive():
    census = quotient_census(chain(2), 1)
    assert census.record == {"mode": "exhaustive", "examined": 3,
                             "budget": None, "seed": None, "complete": True}
    assert [e.quotient.n for e in census.entries] == [1, 2]
    assert len(census.partitions) == 2
    for entry in census.entries:
        assert is_coloring(entry.quotient, entry.witness)


def test_census_of_an_antichain():
    census = quotient_census(Poset.from_covers(3, []), 1)
    assert [e.quotient.n for e in census.entries] == [1, 2]
    assert len(census.partitions) == 4
    assert census.record["complete"]


def test_census_budget_guards():
    with pytest.raises(BudgetExceeded):
        quotient_census(chain(2), 1, budget=0)
    cut = quotient_census(Poset.from_covers(3, []), 1, budget=2)
    assert cut.record["examined"] == 2
    assert not cut.record["complete"]


def test_sampled_census_finds_the_identity_quotient():
    z = abomination_truncation(2, 1)
    census = quotient_census(z, 3, budget=20, seed=42)
    assert census.record["mode"] == "sampled"
    assert census.record["examined"] == 21    # strict probe + 20 samples
    assert EPartition.identity(z) in census.partitions
    assert max(e.quotient.n for e in census.entries) == z.n


def test_size_bound_two_ways():
    assert size_bound(2, 0, 335) == 11493
    assert size_bound_by_levels(2, 0, 335) == 11493
    for n in (2, 3):
        for k in (0, 5):
            for t in (0, 7):
                assert size_bound(n, k, t) == size_bound_by_levels(n, k, t)
                assert size_bound(n, k, t) == size_bound(n, 0, t) + k


def test_size_bound_guards():
    with pytest.raises(OutOfRange):
        size_bound(-1, 0, 0)
    with pytest.raises(OutOfRange):
        size_bound(2, 0, -1)
    with pytest.raises(Overflow):
        size_bound(2, 0, 2**60)
    with pytest.raises(Overflow):
        size_bound_by_levels(2, 0, 2**60)


def test_kc_probe():
    report = kc_probe(6)
    assert report.maximum == 3
    assert report.entries == ((1, 2), (2, 3))
    assert kc_probe(1).entries == ((1, 2),)
    with pytest.raises(OutOfRange):
        kc_probe(0)
    with pytest.raises(OutOfRange):
        kc_probe(8)


def test_canonical_colorings_build_each_truncation_once(built_posets):
    """Criterion 2 checks each truncation on the base of its canonical
    coloring: one constructor call per depth."""
    assert check_canonical_colorings()["pass"]
    assert built_posets == [34, 68, 102]
