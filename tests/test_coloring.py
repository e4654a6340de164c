import itertools
import random
import subprocess
import sys
import time

import pytest

from esakiakit import (BudgetExceeded, Coloring, InvalidId, NotColoring,
                       OutOfRange, Poset, abomination_truncation,
                       color_bits, color_leq,
                       enumerate_weak_colorings, is_coloring, is_n_colorable,
                       is_weak_coloring, ladder_truncation,
                       monochrome_mergeable_pair, promote_subspace_coloring,
                       search_coloring)
from esakiakit.poset import _top_down
from esakiakit.probes import enumerate_posets
from esakiakit.randgen import random_poset, random_weak_coloring

from test_poset import permuted
from test_replay import mergeable_pairs


def v_poset():
    return Poset.from_covers(3, [(0, 1), (0, 2)])


def chain(n):
    return Poset.from_covers(n, [(i, i + 1) for i in range(n - 1)])


def test_color_order_is_bitwise_containment():
    assert color_leq(0b010, 0b110)
    assert not color_leq(0b110, 0b010)
    assert color_leq(0, 0b111) and color_leq(5, 5)


def test_color_bits_most_significant_first():
    assert color_bits(0b100, 3) == "100"
    assert color_bits(1, 3) == "001"
    assert color_bits(0, 0) == ""
    with pytest.raises(OutOfRange):
        color_bits(8, 3)
    with pytest.raises(OutOfRange):
        color_bits(-1, 3)


def test_coloring_of_validates():
    p = v_poset()
    f = Coloring.of(p, 2, [0, 1, 2])
    assert f.color(2) == 2 and f.bits(1) == "01"
    with pytest.raises(OutOfRange):
        Coloring.of(p, 1, [0, 2, 0])
    with pytest.raises(InvalidId):
        Coloring.of(p, 1, [0, 0])


def test_coloring_json_roundtrip():
    p = v_poset()
    f = Coloring.of(p, 2, [0, 1, 3])
    d = f.to_json_dict()
    assert d == {"n": 2, "colors": {"0": "00", "1": "01", "2": "11"}}
    assert Coloring.from_json_dict(p, d) == f


def test_coloring_json_colors_may_be_a_plain_list():
    p = v_poset()
    f = Coloring.from_json_dict(p, {"n": 2, "colors": ["00", "01", "11"]})
    assert f == Coloring.of(p, 2, [0, 1, 3])
    with pytest.raises(InvalidId):
        Coloring.from_json_dict(p, {"n": 2, "colors": ["00", "01"]})
    with pytest.raises(InvalidId):
        Coloring.from_json_dict(p, {"n": 2, "colors": "000111"})
    with pytest.raises(OutOfRange):
        Coloring.from_json_dict(p, {"n": 1, "colors": [0, 1, 1]})


def test_weakness_means_colors_grow_upward():
    p = chain(2)
    assert is_weak_coloring(p, Coloring.of(p, 1, [0, 1]))
    assert is_weak_coloring(p, Coloring.of(p, 1, [1, 1]))
    assert not is_weak_coloring(p, Coloring.of(p, 1, [1, 0]))


def test_weakness_matches_the_cover_definition():
    """On seeded relabelled posets, with weak colorings, weak colorings
    with one color redrawn, and arbitrary colorings of orders 1-3."""
    rng = random.Random(89)
    outcomes = [0, 0]
    for _ in range(900):
        n = rng.randint(0, 12)
        perm = list(range(n))
        rng.shuffle(perm)
        p = permuted(random_poset(rng, n), perm)
        order = rng.randint(1, 3)
        kind = rng.randrange(3)
        colors = list(random_weak_coloring(rng, p, order).colors)
        if kind == 1 and n:
            colors[rng.randrange(n)] = rng.getrandbits(order)
        elif kind == 2:
            colors = [rng.getrandbits(order) for _ in range(n)]
        f = Coloring.of(p, order, colors)
        want = all(color_leq(colors[x], colors[y]) for x, y in p.covers)
        assert is_weak_coloring(p, f) == want, (p.covers, colors)
        outcomes[want] += 1
    assert min(outcomes) > 200
    for other in (chain(2), chain(4), v_poset()):
        with pytest.raises(InvalidId):
            is_weak_coloring(chain(3), Coloring.of(other, 1, [0] * other.n))


def test_monochrome_pair_and_strictness():
    p = v_poset()
    weak_only = Coloring.of(p, 1, [0, 1, 1])
    assert monochrome_mergeable_pair(p, weak_only) == ("beta", 1, 2)
    assert not is_coloring(p, weak_only)
    strict = Coloring.of(p, 1, [0, 0, 1])
    assert monochrome_mergeable_pair(p, strict) is None
    assert is_coloring(p, strict)


def test_monochrome_pair_rejects_a_coloring_of_another_poset():
    """InvalidId, not a bare IndexError for a shorter coloring, nor a pair
    read off a longer one (on the 3-antichain, [0, 1, 1, 0] would give
    ('beta', 1, 2))."""
    p = Poset.from_covers(3, [])
    for other in (Poset.from_covers(2, []), Poset.from_covers(4, [])):
        f = Coloring.of(other, 1, [0, 1, 1, 0][:other.n])
        with pytest.raises(InvalidId):
            monochrome_mergeable_pair(p, f)
        with pytest.raises(InvalidId):
            is_coloring(p, f)


def first_same_colored_move(p, f):
    """The reference: the first move of the full sorted list whose two
    elements share a color."""
    return next(((kind, x, y) for kind, x, y in mergeable_pairs(p)
                 if f.colors[x] == f.colors[y]), None)


def test_monochrome_pair_is_the_reference_first_same_colored_move():
    rng = random.Random(71)
    posets = [random_poset(rng, rng.randint(0, 14)) for _ in range(300)]
    posets += [ladder_truncation(n, depth) for n in range(3) for depth in range(4)]
    posets += [abomination_truncation(n, depth) for n in (2, 3) for depth in (0, 1)]
    hits = 0
    for p in posets:
        for n in range(4):
            f = random_weak_coloring(rng, p, n)
            want = first_same_colored_move(p, f)
            assert monochrome_mergeable_pair(p, f) == want, (p, f.colors)
            hits += want is not None
    assert hits > len(posets)


def test_search_coloring_returns_least_witness():
    f = search_coloring(v_poset(), 1)
    assert f.colors == (0, 0, 1)
    assert search_coloring(chain(3), 1) is None
    g = search_coloring(chain(3), 2)
    assert g is not None and is_coloring(chain(3), g)


def test_search_budget():
    with pytest.raises(BudgetExceeded,
                       match=r"^coloring search spent 1/1 assignments$"):
        search_coloring(chain(3), 2, budget=1)


def test_is_n_colorable_examples():
    assert is_n_colorable(chain(2), 1)
    assert not is_n_colorable(chain(3), 1)
    assert is_n_colorable(chain(3), 2)
    assert not is_n_colorable(Poset.from_covers(3, []), 1)
    assert is_n_colorable(Poset.from_covers(1, []), 0)


def test_enumerate_weak_colorings_is_exhaustive_and_sorted():
    p = v_poset()
    found = list(enumerate_weak_colorings(p, 1))
    assert len(found) == 5
    tuples = [f.colors for f in found]
    assert tuples == sorted(tuples)
    assert all(is_weak_coloring(p, f) for f in found)


def test_enumerate_matches_filtering_all_assignments():
    rng = random.Random(9)
    for _ in range(25):
        p = random_poset(rng, rng.randint(1, 5))
        listed = {f.colors for f in enumerate_weak_colorings(p, 2)}
        brute = set()
        for combo in itertools.product(range(4), repeat=p.n):
            if is_weak_coloring(p, Coloring.of(p, 2, list(combo))):
                brute.add(combo)
        assert listed == brute


def test_random_weak_colorings_are_weak():
    rng = random.Random(13)
    for _ in range(80):
        p = random_poset(rng, rng.randint(1, 7))
        f = random_weak_coloring(rng, p, rng.randint(0, 3))
        assert is_weak_coloring(p, f)


def test_promotion_requires_strictness():
    p = chain(2)
    with pytest.raises(NotColoring):
        promote_subspace_coloring(p, Coloring.of(p, 1, [1, 1]), 0)


def test_promotion_zeroes_matching_colors_and_stays_strict():
    p = chain(2)
    f = Coloring.of(p, 1, [0, 1])
    sub, remap, g = promote_subspace_coloring(p, f, 0)
    assert sub.n == 2
    assert g.colors == (0, 1)          # only f(x)-colored points are zeroed
    sub2, remap2, g2 = promote_subspace_coloring(p, f, 1)
    assert sub2.n == 1 and g2.colors == (0,)
    for x in (-1, 2):          # -1 would alias the last element
        with pytest.raises(InvalidId):
            promote_subspace_coloring(p, f, x)


def test_color_accessors_reject_ids_outside_the_poset():
    f = Coloring.of(chain(3), 2, [0, 1, 3])
    assert [f.color(x) for x in range(3)] == [0, 1, 3]
    assert [f.bits(x) for x in range(3)] == ["00", "01", "11"]
    for x in (-1, -3, 3):      # -1 would alias the last element
        with pytest.raises(InvalidId):
            f.color(x)
        with pytest.raises(InvalidId):
            f.bits(x)


def test_promotion_theorem_on_seeded_strict_colorings():
    rng = random.Random(3)
    done = 0
    for _ in range(120):
        p = random_poset(rng, rng.randint(1, 7))
        f = search_coloring(p, 2)
        if f is None:
            continue
        for x in range(p.n):
            _sub, _remap, g = promote_subspace_coloring(p, f, x)
            done += 1
    assert done > 100


# ----- reference: the full scan over all 2^n colors per element ------------


def scan_search(p, n):
    """The search as a scan of every color below 2^n; returns the colors
    found (or None) and the number of assignments tried."""
    order = _top_down(p)
    partners = [[] for _ in range(p.n)]
    for _, x, y in mergeable_pairs(p):
        partners[x].append(y)
        partners[y].append(x)
    colors = [-1] * p.n
    full = (1 << n) - 1
    spent = 0

    def assign(i):
        nonlocal spent
        if i == len(order):
            return True
        x = order[i]
        ceiling = full
        for y in p.covers_up(x):
            ceiling &= colors[y]
        for cand in range(full + 1):
            if cand & ~ceiling or any(colors[y] == cand for y in partners[x]):
                continue
            spent += 1
            colors[x] = cand
            if assign(i + 1):
                return True
            colors[x] = -1
        return False

    return (tuple(colors) if assign(0) else None), spent


def scan_enumerate(p, n):
    order = _top_down(p)
    colors = [0] * p.n
    full = (1 << n) - 1
    out = []

    def rec(i):
        if i == len(order):
            out.append(tuple(colors))
            return
        x = order[i]
        ceiling = full
        for y in p.covers_up(x):
            ceiling &= colors[y]
        for cand in range(full + 1):
            if not cand & ~ceiling:
                colors[x] = cand
                rec(i + 1)

    rec(0)
    return out


def assert_search_matches_the_scan(p, n):
    """The same least solution, or None, and the same number of
    assignments, pinned through the budget: `spent` answers and one less
    raises."""
    found, spent = scan_search(p, n)
    got = search_coloring(p, n, budget=spent)
    assert (got and got.colors) == found, (p, n)
    if spent:
        with pytest.raises(BudgetExceeded):
            search_coloring(p, n, budget=spent - 1)


def test_submask_steps_match_the_full_color_scan():
    """Same colorings in the same order on every poset of up to 5
    elements, and the strict search pinned to the scan there and on
    twin-heavy inputs, where the search skips the colors a twin group's
    placed members hold: seeded posets of 6-12 elements, ladders, whose
    levels are twin groups, and the depth-0 order-2 truncation, whose 8
    maximal elements are pairwise twins (64 assignments at order 2)."""
    for k in range(6):
        for p in enumerate_posets(k):
            for n in range(4):
                listed = [f.colors for f in enumerate_weak_colorings(p, n)]
                assert listed == scan_enumerate(p, n)
                assert_search_matches_the_scan(p, n)
    rng = random.Random(61)
    for _ in range(200):
        p = random_poset(rng, rng.randint(6, 12))
        for n in range(4):
            assert_search_matches_the_scan(p, n)
    for n in range(2):
        for depth in range(4):
            p = ladder_truncation(n, depth)
            for order in range(n + 2):
                assert_search_matches_the_scan(p, order)
    z = abomination_truncation(2, 0)
    for order in (2, 3):
        assert_search_matches_the_scan(z, order)


def test_a_wide_twin_group_costs_one_assignment_per_element():
    """The 600 elements of an antichain are pairwise twins: the search
    gives them the colors 0..599 in order, one assignment each."""
    p = Poset.from_covers(600, [])
    f = search_coloring(p, 10, budget=600)
    assert f.colors == tuple(range(600))
    with pytest.raises(BudgetExceeded, match="spent 599/599 assignments"):
        search_coloring(p, 10, budget=599)


def test_negative_color_order_is_out_of_range():
    with pytest.raises(OutOfRange):
        search_coloring(chain(2), -1)
    with pytest.raises(OutOfRange):
        enumerate_weak_colorings(chain(2), -1)


def test_float_colors_are_out_of_range():
    with pytest.raises(OutOfRange):
        Coloring.of(chain(2), 2, [1.5, 3])


def test_bool_colors_are_out_of_range():
    with pytest.raises(OutOfRange):
        Coloring.of(chain(2), 2, [True, 1])


def test_a_color_order_that_is_not_a_plain_int_is_out_of_range():
    for n in (True, 1.0, "1", None):
        with pytest.raises(OutOfRange):
            Coloring.of(chain(2), n, [0, 0])


def test_search_at_an_order_that_is_not_a_plain_int_is_out_of_range():
    for n in (1.0, True):
        with pytest.raises(OutOfRange):
            search_coloring(chain(2), n)
        with pytest.raises(OutOfRange):
            enumerate_weak_colorings(chain(2), n)


def test_census_at_a_high_order_stays_fast(tmp_path):
    """With a budget of 3 weak colorings, order 40 costs no 2^40 scan."""
    poset = tmp_path / "chain2.json"
    poset.write_text('{"n": 2, "covers": [[0, 1]]}', encoding="utf-8")
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-m", "esakiakit.cli", "census",
                           "--poset", str(poset), "--n", "40",
                           "--budget", "3"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert time.monotonic() - start < 10


@pytest.mark.parametrize("depth", [1, 2])
def test_the_order_2_truncation_has_no_strict_coloring_in_64_assignments(depth):
    """Criterion 4's strict search: every injective coloring of four of the
    eight pairwise beta-mergeable maximal elements by the four colors,
    the sum over k = 1..4 of 4!/(4 - k)!, 64 assignments, then None."""
    z = abomination_truncation(2, depth)
    assert search_coloring(z, 2, budget=64) is None
    with pytest.raises(BudgetExceeded, match="spent 63/63 assignments"):
        search_coloring(z, 2, budget=63)


def test_deep_walks_and_censuses_need_no_recursion(tmp_path):
    """Under a recursion limit of 100, a fresh interpreter walks the 301
    weak colorings of order 1 of a 300-element chain, each a leaf 300
    elements deep, and runs the CLI census on a 300-element antichain:
    its strict coloring is 300 elements deep, and so is the canonical
    form of its identity quotient."""
    poset = tmp_path / "antichain.json"
    poset.write_text('{"n": 300, "covers": []}', encoding="utf-8")
    script = f"""if True:
        import sys
        sys.setrecursionlimit(100)
        from esakiakit import Poset, enumerate_weak_colorings
        from esakiakit.cli import main
        chain = Poset.from_covers(300, [(i, i + 1) for i in range(299)])
        print(sum(1 for _ in enumerate_weak_colorings(chain, 1)))
        sys.exit(main(["census", "--poset", {str(poset)!r}, "--n", "9",
                       "--budget", "1"]))
    """
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    count, census = done.stdout.split("\n", 1)
    assert count == "301"
    assert census.startswith('{"distinct_partitions":2,')
