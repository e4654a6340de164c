import itertools
import random

import pytest

from esakiakit import (InvalidId, Poset, TooLarge, TooManyAssignments,
                       UnboundVariable, all_epartitions, generated_subalgebra,
                       is_si, min_generators, parse_equation, parse_term,
                       subalgebras, upset_algebra, validates)
from esakiakit.algebra import (BOT, SIZE_BOUND, TOP, _close, evaluate, t_imp,
                              t_not, var)
from esakiakit.poset import ids_of, mask_of
from esakiakit.probes import enumerate_posets
from esakiakit.randgen import random_poset
from esakiakit.suite import residuation_failures

WEM = parse_equation("~x0 | ~~x0 = 1")


def v_poset():
    return Poset.from_covers(3, [(0, 1), (0, 2)])


def test_carrier_is_all_upsets_in_canonical_order():
    a = upset_algebra(v_poset())
    assert len(a) == 5
    assert a.mask(a.bot) == 0
    assert a.mask(a.top) == 0b111
    masks = [a.mask(i) for i in range(len(a))]
    assert masks == sorted(masks, key=lambda m: (bin(m).count("1"), m))


def test_size_guard():
    with pytest.raises(TooLarge):
        upset_algebra(Poset.from_covers(25, []))
    with pytest.raises(TooLarge):
        upset_algebra(Poset.from_covers(SIZE_BOUND + 1, []))
    chain = Poset.from_covers(SIZE_BOUND, [(i, i + 1) for i in range(SIZE_BOUND - 1)])
    assert len(upset_algebra(chain)) == SIZE_BOUND + 1


def test_lattice_ops_are_set_ops():
    a = upset_algebra(v_poset())
    for i in range(len(a)):
        for j in range(len(a)):
            assert a.mask(a.meet(i, j)) == a.mask(i) & a.mask(j)
            assert a.mask(a.join(i, j)) == a.mask(i) | a.mask(j)


def test_residuation_on_seeded_posets():
    rng = random.Random(2)
    for _ in range(40):
        p = random_poset(rng, rng.randint(1, 5))
        a = upset_algebra(p)
        k = len(a)
        for i in range(k):
            for j in range(k):
                m = a.meet(i, j)
                for c in range(k):
                    assert a.leq(m, c) == a.leq(i, a.imp(j, c))


def triple_loop_failures(a):
    """Reference: criterion 8 as first written, k^3 table lookups."""
    k = len(a)
    bad = 0
    for i in range(k):
        for j in range(k):
            m = a.meet(i, j)
            for c in range(k):
                if a.leq(m, c) != a.leq(i, a.imp(j, c)):
                    bad += 1
    return bad


def test_residuation_failures_match_the_triple_loop():
    """Zero on every algebra of a poset up to 6 elements; with one
    implication entry corrupted, the same nonzero count both ways. With
    one order entry corrupted the triple loop, which reads the order
    table, fails, while the count from the masks stays zero."""
    algebras = [upset_algebra(p) for n in range(1, 7)
                for p in enumerate_posets(n)]
    assert len(algebras) == 405
    for a in algebras:
        assert residuation_failures(a) == triple_loop_failures(a) == 0
    rng = random.Random(17)
    sample = rng.sample([a.base for a in algebras if len(a) > 2], 50)
    for p in sample:
        a = upset_algebra(p)
        imp = a._tables()[2]
        j, c = rng.randrange(len(a)), rng.randrange(len(a))
        imp[j][c] = rng.choice([v for v in range(len(a)) if v != imp[j][c]])
        bad = triple_loop_failures(a)
        assert bad > 0
        assert residuation_failures(a) == bad
    for p in sample:
        a = upset_algebra(p)
        le = a._tables()[3]
        # The sweep reads top <= c only against itself unless c = j -> c'
        # for some j below top, which fails for one c in every algebra, so
        # the corrupted entry lies below the top row.
        i, j = rng.randrange(len(a) - 1), rng.randrange(len(a))
        le[i][j] = not le[i][j]
        assert triple_loop_failures(a) > 0
        assert residuation_failures(a) == 0


def test_leq_is_mask_containment():
    """On every algebra of a poset up to 6 elements, read once with `leq`
    itself forcing the table build and once after `meet` has."""
    total = 0
    for n in range(1, 7):
        for p in enumerate_posets(n):
            first, second = upset_algebra(p), upset_algebra(p)
            second.meet(0, 0)
            for a in (first, second):
                for i, mi in enumerate(a.carrier):
                    for j, mj in enumerate(a.carrier):
                        assert a.leq(i, j) is (mi & ~mj == 0), (p, i, j)
            total += 1
    assert total == 405


def test_rows_hold_the_four_operations():
    rng = random.Random(23)
    for _ in range(60):
        a = upset_algebra(random_poset(rng, rng.randint(0, 6)))
        rows = a._rows()
        for x in range(len(a)):
            for y in range(len(a)):
                want = mask_of((a.meet(x, y), a.join(x, y), a.imp(x, y),
                                a.imp(y, x)))
                assert rows[x][y] == want, (a.base, x, y)


def test_construction_builds_no_table():
    """The carrier of a 12-element antichain has 4,096 upsets; its size,
    masks and bounds are read without any k x k table."""
    a = upset_algebra(Poset.from_covers(12, []))
    assert len(a) == 4096
    assert a.mask(a.bot) == 0 and a.mask(a.top) == 0xFFF
    assert [a.mask(i) for i in range(1, 13)] == [1 << x for x in range(12)]
    for name in ("_meet", "_join", "_imp", "_le", "_ops"):
        assert getattr(a, name) is None, name


def test_mask_rejects_indices_outside_the_carrier():
    a = upset_algebra(v_poset())
    for i in (-1, len(a), 10, True, 1.0):
        with pytest.raises(InvalidId):
            a.mask(i)
    assert a.mask(len(a) - 1) == 0b111


def test_generated_subalgebra_rejects_indices_outside_the_carrier():
    """The one id rule of `mask`: a bool or a float that equals an index
    is refused, not read as that index."""
    a = upset_algebra(v_poset())
    for g in (-1, len(a), True, 1.0):
        with pytest.raises(InvalidId):
            generated_subalgebra(a, [g])
    assert a.bot in generated_subalgebra(a, [1])


def test_evaluate_rejects_indices_outside_the_carrier():
    a = upset_algebra(v_poset())
    for v in (-1, len(a)):
        with pytest.raises(InvalidId):
            evaluate(a, var(0), {0: v})
        with pytest.raises(InvalidId):
            evaluate(a, t_imp(var(1), var(0)), {0: v, 1: 0})
    assert evaluate(a, var(0), {0: len(a) - 1}) == a.top


def test_si_means_rooted():
    assert is_si(upset_algebra(v_poset()))
    assert not is_si(upset_algebra(Poset.from_covers(2, [])))


def test_parser_precedence_and_associativity():
    t = parse_term("~x0 & x1 | x2 -> x3")
    # -> binds loosest: ((~x0 & x1) | x2) -> x3
    assert t.op == "imp"
    assert t.left.op == "or"
    assert t.left.left.op == "and"
    r = parse_term("x0 -> x1 -> x2")
    assert r.right.op == "imp"


def test_parser_rejects_garbage():
    with pytest.raises(ValueError):
        parse_term("x0 +")
    with pytest.raises(ValueError):
        parse_term("x")
    with pytest.raises(ValueError):
        parse_equation("x0 = x1 = x2")


def test_evaluate_requires_bindings():
    a = upset_algebra(v_poset())
    with pytest.raises(UnboundVariable):
        evaluate(a, var(3), {0: 0})
    assert evaluate(a, BOT, {}) == a.bot
    assert evaluate(a, TOP, {}) == a.top


def test_weak_excluded_middle_fails_exactly_on_topless_duals():
    ok, witness = validates(upset_algebra(v_poset()), *WEM)
    assert not ok and witness is not None
    # rooted with a top: 2-chain validates it
    ok2, _ = validates(upset_algebra(Poset.from_covers(2, [(0, 1)])), *WEM)
    assert ok2


def test_validates_cap():
    a = upset_algebra(v_poset())
    eq = parse_equation("x0 & x1 & x2 = x2 & x1 & x0")
    with pytest.raises(TooManyAssignments):
        validates(a, *eq, cap=10)


def test_generated_subalgebra_contains_bounds():
    a = upset_algebra(v_poset())
    s = generated_subalgebra(a, ())
    assert a.bot in s and a.top in s
    assert generated_subalgebra(a, range(len(a))) == frozenset(range(len(a)))


def test_min_generators_small_cases():
    chain2 = Poset.from_covers(2, [(0, 1)])
    assert min_generators(upset_algebra(chain2), cap=2) == 1
    assert min_generators(upset_algebra(Poset.from_covers(1, [])), cap=2) == 0
    assert min_generators(upset_algebra(v_poset()), cap=0) is None


def test_subalgebra_count_matches_epartition_count():
    for p in (v_poset(), Poset.from_covers(3, [(0, 1), (1, 2)]),
              Poset.from_covers(3, []), Poset.from_covers(4, [(0, 2), (1, 2)])):
        assert len(subalgebras(upset_algebra(p))) == len(all_epartitions(p))


def test_term_str_roundtrip():
    t = t_imp(t_not(var(0)), var(1))
    assert parse_term(str(t)) == t


# ----- closure against an independent reference -----------------------------


def naive_close(a, seed):
    """Plain fixed point over sets, through the public operations."""
    members = set(seed)
    while True:
        new = set()
        for x in members:
            for y in members:
                new.update((a.meet(x, y), a.join(x, y), a.imp(x, y)))
        if new <= members:
            return frozenset(members)
        members |= new


def naive_subalgebras(a):
    bounds = {a.bot, a.top}
    first = naive_close(a, bounds)
    found = {first}
    queue = [first]
    while queue:
        s = queue.pop()
        for x in range(len(a)):
            if x not in s:
                t = naive_close(a, s | {x})
                if t not in found:
                    found.add(t)
                    queue.append(t)
    return sorted(found, key=lambda t: (len(t), sorted(t)))


def naive_min_generators(a, cap):
    full = frozenset(range(len(a)))
    for m in range(cap + 1):
        for combo in itertools.combinations(range(len(a)), m):
            if naive_close(a, {a.bot, a.top, *combo}) == full:
                return m
    return None


def closure_cases():
    for n in range(6):
        yield from enumerate_posets(n)
    rng = random.Random(6)
    for _ in range(20):
        yield random_poset(rng, 6)


def test_closure_matches_naive_fixed_point():
    for p in closure_cases():
        a = upset_algebra(p)
        assert subalgebras(a) == naive_subalgebras(a), p
        for g in range(len(a)):
            assert generated_subalgebra(a, [g]) == naive_close(
                a, {a.bot, a.top, g}), (p, g)
        assert min_generators(a, cap=3) == naive_min_generators(a, 3), p


def test_subalgebra_totals_per_size():
    # Measured before the bitmask closure; equal to the E-partition totals.
    totals = [sum(len(subalgebras(upset_algebra(p))) for p in enumerate_posets(n))
              for n in range(6)]
    assert totals == [1, 1, 4, 21, 144, 1214]


def test_close_with_stop_matches_naive_closure():
    """`_close` with a stop mask gives -1 exactly when the closure meets the
    mask, and the closure otherwise, whether or not the member list of the
    closed part is passed in (it is left as it was)."""
    rng = random.Random(8)
    gave_up = kept = 0
    for n in range(6):
        for p in enumerate_posets(n):
            a = upset_algebra(p)
            subs = subalgebras(a)
            assert len(set(subs)) == len(subs), p
            for sub in subs:
                s = mask_of(sub)
                elems = ids_of(s)
                free = ((1 << len(a)) - 1) & ~s
                for y in ids_of(free):
                    want = mask_of(naive_close(a, sub | {y}))
                    for stop in (((1 << y) - 1) & ~s,
                                 rng.getrandbits(len(a)) & free):
                        got = _close(a, s, 1 << y, stop)
                        assert got == (-1 if want & stop else want), (p, s, y)
                        assert _close(a, s, 1 << y, stop, elems) == got
                        assert elems == ids_of(s)
                        gave_up += got == -1
                        kept += got != -1
    assert gave_up and kept


def test_subalgebras_biject_with_epartitions_at_7():
    """The duality one size past the suite: on every 7-element poset the
    subalgebras, found by the algebra-side search, match the E-partitions."""
    posets = enumerate_posets(7)
    assert len(posets) == 2045
    total = 0
    for p in posets:
        subs = len(subalgebras(upset_algebra(p)))
        assert subs == len(all_epartitions(p)), p
        total += subs
    assert total == 178_854
