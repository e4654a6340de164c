"""Deterministic verification suite.

Nine structural checks, each returning a JSON-friendly result dict with
a boolean "pass". The aggregate runner threads one seed through the
randomized checks so that a fixed seed reproduces the report byte for
byte. No timings or timestamps appear in the output.
"""

from __future__ import annotations

import random

from .algebra import min_generators, subalgebras, upset_algebra
from .coloring import (enumerate_weak_colorings, is_coloring, is_n_colorable)
from .lemma import (corollary_check, merges_every_full_c_row,
                    schedule_beta_reductions)
from .poset import ids_of
from .probes import (enumerate_posets, enumerate_rooted_posets, kc_probe,
                     quotient_census, size_bound, size_bound_by_levels)
from .randgen import random_poset, random_weak_coloring
from .reduction import (_coarsest_among, all_epartitions,
                        brute_coarsest_color_respecting,
                        coarsest_color_respecting, color_respecting_reduction)
from .spaces import abomination_truncation, canonical_coloring, ladder_truncation

CENSUS_BUDGET = 80
CENSUS_FLOOR = 50
ORACLE_SAMPLES = 500
SCHEDULE_RUNS = 200


def check_truncation_widths(seed: int = 0) -> dict:
    """Maximum antichains of the generated truncations hit 2^(n+2), both
    globally and inside principal upsets."""
    cases = {}
    ok = True
    for n, depth in ((2, 1), (2, 2), (3, 1)):
        x = abomination_truncation(n, depth)
        width = x.width()
        antichain = x.max_antichain_size()
        expected = 2 ** (n + 2)
        cases[f"n{n}_depth{depth}"] = {"width": width,
                                       "max_antichain": antichain,
                                       "expected": expected}
        ok = ok and width == expected and antichain == expected
    return {"pass": ok, "cases": cases}


def check_canonical_colorings(seed: int = 0) -> dict:
    """The built-in coloring of each truncation is strict, and no element
    has exactly one immediate successor. Each truncation is built once, as
    the base of its canonical coloring."""
    cases = {}
    ok = True
    for depth in (0, 1, 2):
        f = canonical_coloring(2, depth)
        x = f.base
        strict = is_coloring(x, f)
        alphas = sum(len(x.covers_up(v)) == 1 for v in range(x.n))
        cases[f"depth{depth}"] = {"strict": strict, "alpha_pairs": alphas}
        ok = ok and strict and alphas == 0
    return {"pass": ok, "cases": cases}


def check_ladder_schedules(seed: int) -> dict:
    """Seeded weak colorings of full ladders always schedule cleanly:
    the scheduler replays every run once, step by step, and checks that
    it leaves a merged pair in every full level. A returned Schedule is
    frozen, so it is not checked a second time."""
    rng = random.Random(seed)
    combos = [(n, depth) for n in (0, 1, 2) for depth in range(6)]
    runs = 0
    steps = 0
    per_combo = SCHEDULE_RUNS // len(combos)
    extra = SCHEDULE_RUNS - per_combo * len(combos)
    for i, (n, depth) in enumerate(combos):
        v = ladder_truncation(n, depth)
        for _ in range(per_combo + (1 if i < extra else 0)):
            f = random_weak_coloring(rng, v, n)
            steps += len(schedule_beta_reductions(v, f).steps)
            runs += 1
    return {"pass": runs == SCHEDULE_RUNS, "schedules": runs,
            "total_steps": steps, "seed": seed}


def check_census_collapse(seed: int) -> dict:
    """Sampled census of the depth-1 truncation at order 2: every listed
    quotient keeps a merged pair in every full c-row, both through the
    witness check and by scanning every distinct partition."""
    z = abomination_truncation(2, 1)
    census = quotient_census(z, 2, budget=CENSUS_BUDGET, seed=seed)
    enough = len(census.partitions) >= CENSUS_FLOOR
    witness_ok = all(
        corollary_check(z, e.partition, 2, witness=e.witness)
        for e in census.entries)
    merged_ok = all(merges_every_full_c_row(z, part, 2)
                    for part in census.partitions)
    return {"pass": enough and witness_ok and merged_ok,
            "partitions": len(census.partitions),
            "iso_entries": len(census.entries),
            "floor": CENSUS_FLOOR, "witness_ok": witness_ok,
            "merged_ok": merged_ok, "seed": seed}


def check_generator_counts(seed: int = 0) -> dict:
    """Colorability at order m coincides with the dual algebra needing at
    most m generators, over every rooted poset with up to 6 elements."""
    mismatches = 0
    posets = enumerate_rooted_posets(6)
    for p in posets:
        mg = min_generators(upset_algebra(p), cap=2)
        for m in (0, 1, 2):
            if is_n_colorable(p, m) != (mg is not None and mg <= m):
                mismatches += 1
    return {"pass": mismatches == 0, "posets": len(posets),
            "orders": [0, 1, 2], "mismatches": mismatches}


def check_excluded_middle(seed: int = 0) -> dict:
    """Largest single-generated algebra validating the weak excluded
    middle over rooted posets of up to 6 elements has exactly 3 elements."""
    report = kc_probe(6)
    return {"pass": report.maximum == 3, "maximum": report.maximum,
            "qualifying": [list(e) for e in report.entries]}


def _oracle_mismatch(p, f, brute) -> bool:
    """Does the greedy's or the top-down pass's partition miss the oracle's
    partition `brute`?"""
    return (color_respecting_reduction(p, f)[0] != brute
            or coarsest_color_respecting(p, f) != brute)


def check_coarsest_oracle(seed: int) -> dict:
    """The coarsest color-respecting partition by the merge greedy and by
    one top-down pass both equal the brute-force maximum over all
    E-partitions: exhaustively on every poset and order-2 coloring with
    up to 5 elements, then on seeded samples up to 8 elements. An
    instance where either differs counts as one mismatch. The exhaustive
    part enumerates each poset's E-partitions once, with their pair
    masks, for all its colorings; the oracle's scan then decides each
    coloring by one AND per partition and one union check."""
    mismatches = 0
    exhaustive = 0
    for size in range(1, 6):
        for p in enumerate_posets(size):
            parts = all_epartitions(p)
            for f in enumerate_weak_colorings(p, 2):
                exhaustive += 1
                mismatches += _oracle_mismatch(p, f, _coarsest_among(parts, f))
    rng = random.Random(seed)
    for _ in range(ORACLE_SAMPLES):
        p = random_poset(rng, rng.randint(1, 8))
        f = random_weak_coloring(rng, p, 2)
        mismatches += _oracle_mismatch(
            p, f, brute_coarsest_color_respecting(p, f))
    return {"pass": mismatches == 0, "exhaustive_instances": exhaustive,
            "sampled_instances": ORACLE_SAMPLES, "mismatches": mismatches,
            "seed": seed}


def check_duality_sanity(seed: int = 0) -> dict:
    """Residuation holds in every upset algebra of a poset with up to 6
    elements, and the subalgebra count matches the E-partition count."""
    residuation_bad = 0
    count_bad = 0
    algebras = 0
    for size in range(1, 7):
        for p in enumerate_posets(size):
            a = upset_algebra(p)
            algebras += 1
            residuation_bad += residuation_failures(a)
            if len(subalgebras(a)) != len(all_epartitions(p)):
                count_bad += 1
    return {"pass": residuation_bad == 0 and count_bad == 0,
            "algebras": algebras, "residuation_failures": residuation_bad,
            "count_mismatches": count_bad}


def residuation_failures(a) -> int:
    """Number of triples (i, j, c) with i∧j ≤ c but not i ≤ j→c, or the
    other way round, read from upset masks.

    i∧j ≤ c says the upset i avoids j∖c, and i ≤ j→c says it avoids the
    complement of j→c. With contains[x] the carrier-index mask of the
    upsets holding x, each side is one index mask per (j, c), and the
    failures over all i are the popcount of their XOR."""
    p = a.base
    contains = [0] * p.n
    for i, m in enumerate(a.carrier):
        for x in ids_of(m):
            contains[x] |= 1 << i
    every = (1 << len(a.carrier)) - 1
    avoiding: dict[int, int] = {}

    def avoid(mask: int) -> int:
        if mask not in avoiding:
            hit = 0
            for x in ids_of(mask):
                hit |= contains[x]
            avoiding[mask] = every & ~hit
        return avoiding[mask]

    full = p.full_mask()
    bad = 0
    for j, mj in enumerate(a.carrier):
        for c, mc in enumerate(a.carrier):
            off = full & ~a.mask(a.imp(j, c))
            bad += (avoid(mj & ~mc) ^ avoid(off)).bit_count()
    return bad


def check_bound_arithmetic(seed: int = 0) -> dict:
    """The cardinality ceiling computed by formula and by level-by-level
    summation agree at the headline parameters."""
    formula = size_bound(2, 0, 335)
    by_levels = size_bound_by_levels(2, 0, 335)
    return {"pass": formula == by_levels == 11493,
            "formula": formula, "level_sum": by_levels, "expected": 11493}


CRITERIA = (
    (1, "truncation widths", check_truncation_widths),
    (2, "canonical colorings strict", check_canonical_colorings),
    (3, "ladder schedules", check_ladder_schedules),
    (4, "census collapse", check_census_collapse),
    (5, "generator count equivalence", check_generator_counts),
    (6, "excluded middle cardinality", check_excluded_middle),
    (7, "coarsest partition oracle", check_coarsest_oracle),
    (8, "residuation and subalgebra counts", check_duality_sanity),
    (9, "bound arithmetic", check_bound_arithmetic),
)


def run_suite(seed: int) -> dict:
    """Run every check with the given seed and collect one report dict.
    The result is fully determined by the seed."""
    criteria = []
    for cid, name, fn in CRITERIA:
        result = fn(seed)
        criteria.append({"id": cid, "name": name, **result})
    return {"suite": "paper", "seed": seed,
            "pass": all(c["pass"] for c in criteria),
            "criteria": criteria}
