"""Canonical forms against the individualization-refinement search with
twin pruning only, kept here as the reference. The library search also
prunes by automorphisms and stops refining once a pass splits no cell;
neither may change the form, which `enumerate_posets` and the census sort
by."""

import random

from esakiakit import (Poset, abomination_truncation,
                       coarsest_color_respecting, enumerate_posets, quotient)
from esakiakit.randgen import random_weak_coloring

from test_poset import covers_down, permuted


def reference_canonical_form(p: Poset):
    """(n, least sorted cover list) over every leaf of the search tree,
    branching on the first non-singleton cell and skipping only twin
    candidates (equal covers up and down)."""
    n = p.n
    if n == 0:
        return (0, ())
    succ = p._succ
    pred = [covers_down(p, x) for x in range(n)]

    def refine(colors):
        while True:
            keys = [(colors[x], tuple(sorted(colors[y] for y in succ[x])),
                     tuple(sorted(colors[y] for y in pred[x]))) for x in range(n)]
            ranks = {k: i for i, k in enumerate(sorted(set(keys)))}
            new = [ranks[k] for k in keys]
            if new == colors:
                return colors
            colors = new

    depths = p.depths()
    init = [(depths[x], len(succ[x]), len(pred[x]), p.up_mask(x).bit_count(),
             p.down_mask(x).bit_count()) for x in range(n)]
    ranks = {k: i for i, k in enumerate(sorted(set(init)))}
    colors = refine([ranks[k] for k in init])

    best = None
    covers = p.covers

    def encode(order):
        pos = {x: i for i, x in enumerate(order)}
        return tuple(sorted((pos[x], pos[y]) for x, y in covers))

    def search(colors):
        nonlocal best
        cells: dict[int, list[int]] = {}
        for x in range(n):
            cells.setdefault(colors[x], []).append(x)
        cell_list = [cells[c] for c in sorted(cells)]
        target = next((cell for cell in cell_list if len(cell) > 1), None)
        if target is None:
            order = [cell[0] for cell in cell_list]
            enc = encode(order)
            if best is None or enc < best:
                best = enc
            return
        fresh = max(colors) + 1
        tried_twins = []
        for v in target:
            key = (succ[v], pred[v])
            if key in tried_twins:
                continue
            tried_twins.append(key)
            branched = list(colors)
            branched[v] = fresh
            search(refine(branched))

    search(colors)
    return (n, best)


def enumeration_candidates(n):
    """Every poset `enumerate_posets(n)` builds before deduplication: a new
    maximal element over each downset of each (n-1)-element class."""
    out = []
    for q in enumerate_posets(n - 1):
        rows = [q.up_mask(x) for x in range(q.n)]
        for d in q.downsets():
            new_rows = [rows[x] | (1 << q.n if d >> x & 1 else 0)
                        for x in range(q.n)]
            out.append(Poset.from_leq(n, new_rows + [1 << q.n]))
    return out


def relabelled(rng, p):
    perm = list(range(p.n))
    rng.shuffle(perm)
    return permuted(p, perm)


def seeded_quotients(z, order, count, seed):
    """Quotients of z by the coarsest color-respecting partitions of
    `count` seeded weak colorings of the given order."""
    rng = random.Random(seed)
    return [quotient(z, coarsest_color_respecting(
        z, random_weak_coloring(rng, z, order)))[0] for _ in range(count)]


def test_forms_match_the_reference_on_every_enumeration_candidate():
    candidates = [p for n in range(1, 8) for p in enumeration_candidates(n)]
    assert len(candidates) == 6378
    for p in candidates:
        assert p.canonical_form() == reference_canonical_form(p)


def test_forms_match_the_reference_on_relabelled_small_posets():
    """A seeded relabelling of each of the 2,451 posets of 0-7 elements."""
    rng = random.Random(17)
    posets = [p for n in range(8) for p in enumerate_posets(n)]
    assert len(posets) == 2451
    for p in posets:
        q = relabelled(rng, p)
        assert q.canonical_form() == reference_canonical_form(q)
        assert q.canonical_form() == p.canonical_form()


def test_forms_match_the_reference_on_truncation_quotients():
    for order, depth in ((2, 1), (2, 2), (3, 1)):
        z = abomination_truncation(order, depth)
        rng = random.Random(29)
        for q in seeded_quotients(z, order, 30, seed=31):
            assert q.canonical_form() == reference_canonical_form(q)
            r = relabelled(rng, q)
            assert r.canonical_form() == reference_canonical_form(r)


def test_order_4_quotients_keep_their_form_under_relabelling():
    """Six seeded quotients of the 260-element order-4 truncation, 33 to
    90 elements, two relabellings each. On a 2-CPU host the six forms take
    about 0.3 s; the twin-only reference takes about 6.3 s, 5.2 s of it on
    the 90-element quotient."""
    z = abomination_truncation(4, 1)
    quotients = seeded_quotients(z, 4, 6, seed=0)
    assert sorted(q.n for q in quotients) == [33, 46, 53, 58, 61, 90]
    rng = random.Random(37)
    for q in quotients:
        form = q.canonical_form()
        for _ in range(2):
            assert relabelled(rng, q).canonical_form() == form


def crowns(*sizes):
    """Disjoint crowns, the k-th a 2k-cycle of k maximal elements (listed
    first) over k minimal ones."""
    covers, n = [], 0
    for k in sizes:
        for i in range(k):
            covers += [(n + k + i, n + i), (n + k + i, n + (i + 1) % k)]
        n += 2 * k
    return Poset.from_covers(n, covers)


def test_twins_need_equal_covers_both_ways():
    """Every maximal element of a union of crowns has no successor, and
    refinement cannot tell a 6-cycle's from an 8-cycle's: only equal
    predecessors make two of them twins. Listing either crown first must
    give the same form."""
    form = reference_canonical_form(crowns(3, 4))
    assert crowns(3, 4).canonical_form() == form
    assert crowns(4, 3).canonical_form() == form
    assert reference_canonical_form(crowns(4, 3)) == form


# A 3-regular bipartite poset, 16 minimal elements below 16 maximal ones,
# with an involutive automorphism. Refinement cannot split either level,
# so the search must individualize deep; found by a seeded search for
# posets where orbit pruning with automorphisms that move the
# individualized prefix skips every leaf of the least cover list.
REGULAR_32 = (
    (2, 3), (2, 9), (2, 18), (6, 3), (6, 27), (6, 31), (7, 14), (7, 15),
    (7, 26), (8, 5), (8, 20), (8, 27), (10, 0), (10, 15), (10, 26), (11, 4),
    (11, 5), (11, 18), (12, 0), (12, 14), (12, 15), (13, 5), (13, 9),
    (13, 30), (17, 0), (17, 14), (17, 26), (19, 4), (19, 27), (19, 31),
    (21, 1), (21, 16), (21, 20), (22, 9), (22, 16), (22, 20), (23, 3),
    (23, 28), (23, 30), (24, 1), (24, 4), (24, 30), (25, 16), (25, 28),
    (25, 31), (29, 1), (29, 18), (29, 28))


def test_orbit_pruning_reads_only_automorphisms_fixing_the_prefix():
    p = Poset.from_covers(32, REGULAR_32)
    form = reference_canonical_form(p)
    assert p.canonical_form() == form
    rng = random.Random(41)
    for _ in range(10):
        assert relabelled(rng, p).canonical_form() == form


def test_a_wide_antichain_needs_no_recursion():
    """The search individualizes one element per level, 1,099 levels deep
    here, past the interpreter's default recursion limit of 1,000."""
    assert Poset.from_covers(1100, []).canonical_form() == (1100, ())
