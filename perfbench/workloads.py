"""The three workloads: op lists built from a seed, and one verdict-checked
run per op.

Each workload replays one slice of the `verify --suite paper` traffic and
puts one layer in charge of most of the work:

* small-duality   criteria 5, 6 and 8: the algebra layer (subalgebras).
* small-oracle    criterion 7: brute-force E-partition enumeration.
* large-reduction criteria 3 and 4 plus the CLI's `reduce`: greedy merge
                  replay and quotients on 68- and 102-element truncations.

Ops are laid out in rounds with a fixed mix of kinds and sizes. The
posets of the two small workloads come from a population drawn once from
a fixed seed: what a subalgebra or E-partition sweep costs depends
steeply on the poset, and a fresh draw per seed moved the 90th percentile
by 12% between seeds. The run's seed relabels every poset by a random
permutation, draws every coloring and orders each round, so the same
seed gives the same op list and every seed does the same work. An op's
`run` returns a JSON-able answer and raises `Mismatch` when a
cross-check fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time

from gen import cover_lists, fingerprint, random_order, relabel, weak_coloring
from spans import original

DEFAULT_SEED = 42


class Mismatch(Exception):
    """An op's verdict check failed."""


def count_upsets(n: int, pairs) -> int:
    """Number of upsets, counted as antichains of the comparability graph."""
    comp = [0] * n
    for x, y in pairs:
        comp[x] |= 1 << y
        comp[y] |= 1 << x
    count = 0
    stack = [(0, 0)]
    while stack:
        start, forbidden = stack.pop()
        count += 1
        for a in range(start, n):
            if not (forbidden >> a) & 1:
                stack.append((a + 1, forbidden | comp[a] | (1 << a)))
    return count


def order_with_few_upsets(rng: random.Random, n: int, cap: int) -> list:
    """Draw random orders until one has at most `cap` upsets."""
    while True:
        pairs = random_order(rng, n)
        if count_upsets(n, pairs) <= cap:
            return pairs


def union_blocks(n: int, pairs) -> list[list[int]]:
    """Blocks of the finest partition identifying every pair."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        parent[find(x)] = find(y)
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return sorted(groups.values())


def check_single_colored(blocks, colors) -> None:
    for block in blocks:
        if len({colors[x] for x in block}) > 1:
            raise Mismatch(f"block {list(block)} mixes colors")


class Workload:
    """Op list plus the shared state ops need. Subclasses set `name`,
    `rounds` (ops are laid out in this many rounds), `trace_rounds` (the
    prefix the traced run replays) and the layer-share prediction made
    before any measurement: `dominant`, the share groups that together
    should take the largest share of op time, and `idle`, span names or
    layers that should see no call at all."""

    name = ""
    library_s = 0.0     # time spent in the program while building inputs
    rounds = 0
    trace_rounds = 0
    dominant: tuple[str, ...] = ()
    idle: tuple[str, ...] = ()

    def __init__(self, ek, seed: int, workdir: str):
        self.ek = ek
        self.workdir = workdir
        self.ops: list[dict] = []
        self.round_starts: list[int] = []
        self.trace_ops = 0
        self.build(random.Random(f"{self.name}/{seed}"),
                   random.Random(f"{self.name}/population"))

    def build(self, rng: random.Random, population: random.Random) -> None:
        raise NotImplementedError

    def add_round(self, rng: random.Random, ops: list[dict]) -> None:
        rng.shuffle(ops)
        self.round_starts.append(len(self.ops))
        self.ops.extend(ops)
        if len(self.round_starts) == self.trace_rounds:
            self.trace_ops = len(self.ops)

    def fingerprint_data(self):
        return self.ops

    def run(self, op: dict):
        return getattr(self, "op_" + op["kind"].replace("-", "_"))(op)


# ----- small-duality -------------------------------------------------------

# How many ops of each (kind, size) one pass of criteria 5, 6 and 8 runs.
# Criterion 8 takes every isomorphism class of 4, 5 and 6 elements
# (OEIS A000112: 16, 63, 318); sizes 1-3 add 8 posets of negligible cost
# and are left out. Criteria 5 and 6 take every rooted poset of up to 6
# elements, that is every base of 0..5 elements with a bottom added
# (1, 1, 2, 5, 16, 63); one rooted op covers both criteria. The cold
# enumeration runs about once per hundred ops.
SUITE_MIX = {
    **{("duality", n): c for n, c in ((4, 16), (5, 63), (6, 318))},
    **{("rooted", n): c for n, c in enumerate((1, 1, 2, 5, 16, 63))},
    ("cold-enum", 0): 5,
}
# One pass is spread evenly over this many rounds (about 30 ops, 2-3 s
# each), so that a 30 s run holds about a dozen rounds of the suite's mix.
ROUNDS_PER_PASS = 16
# A 6-element order with more than 40 upsets (a 5- or 6-antichain, about
# 1.5% of draws) costs 1.5-5 s in subalgebras and would decide a 30 s run
# on its own; the population holds none.
MAX_UPSETS = 40
POSET_COUNTS = (1, 1, 2, 5, 16, 63, 318)    # OEIS A000112, n = 0..6
WEM_TEXT = "~x0 | ~~x0 = 1"


def share_of_pass(count: int, r: int) -> int:
    """How many of `count` ops per pass go into round r: the pass is
    spread evenly, with rounding, over ROUNDS_PER_PASS rounds."""
    def upto(k):
        return (2 * k * count + ROUNDS_PER_PASS) // (2 * ROUNDS_PER_PASS)
    return upto(r % ROUNDS_PER_PASS + 1) - upto(r % ROUNDS_PER_PASS)


class SmallDuality(Workload):
    name = "small-duality"
    rounds = 4 * ROUNDS_PER_PASS
    trace_rounds = ROUNDS_PER_PASS // 2
    dominant = ("algebra",)
    idle = ("lemma", "spaces", "cli")

    def build(self, rng, population):
        self.wem = self.ek.parse_equation(WEM_TEXT)
        for r in range(self.rounds):
            ops = []
            for (kind, n), count in SUITE_MIX.items():
                for _ in range(share_of_pass(count, r)):
                    if kind == "duality":
                        pairs = relabel(rng, n, order_with_few_upsets(population, n, MAX_UPSETS))
                        ops.append({"kind": kind, "n": n, "pairs": pairs})
                    elif kind == "rooted":
                        pairs = relabel(rng, n, random_order(population, n))
                        ops.append({"kind": kind, "n": n, "pairs": pairs,
                                    "top": _single_maximal(n, pairs)})
                    else:
                        ops.append({"kind": kind})
            self.add_round(rng, ops)

    def op_duality(self, op):
        ek = self.ek
        p = ek.Poset.from_covers(op["n"], op["pairs"])
        a = ek.upset_algebra(p)
        bad = residuation_failures(a)
        if bad:
            raise Mismatch(f"{bad} residuation failures")
        subs = len(ek.subalgebras(a))
        parts = len(ek.all_epartitions(p))
        if subs != parts:
            raise Mismatch(f"{subs} subalgebras but {parts} E-partitions")
        return subs

    def op_rooted(self, op):
        ek = self.ek
        q = ek.Poset.from_covers(op["n"], op["pairs"]).with_bottom()
        a = ek.upset_algebra(q)
        mg = ek.min_generators(a, cap=2)
        for m in (0, 1, 2):
            if ek.is_n_colorable(q, m) != (mg is not None and mg <= m):
                raise Mismatch(f"order {m}: colorability and generators disagree")
        ok, _ = ek.validates(a, *self.wem)
        if ok != op["top"]:
            raise Mismatch(f"weak excluded middle {ok}, single maximal {op['top']}")
        return [mg, ok]

    def op_cold_enum(self, op):
        enum = self.ek.probes.enumerate_posets
        original(enum).cache_clear()
        counts = [len(enum(k)) for k in range(len(POSET_COUNTS))]
        if tuple(counts) != POSET_COUNTS:
            raise Mismatch(f"poset counts {counts}")
        return counts


def _single_maximal(n: int, pairs) -> bool:
    """True when the order has exactly one maximal element (with a bottom
    added, that is when the weak excluded middle holds), or is empty."""
    if n == 0:
        return True
    has_above = {x for x, _y in pairs}
    return n - len(has_above) == 1


def residuation_failures(a) -> int:
    """The benchmark's own sweep: meet(i, j) <= c iff i <= imp(j, c)."""
    k = len(a)
    bad = 0
    for i in range(k):
        for j in range(k):
            m = a.meet(i, j)
            for c in range(k):
                if a.leq(m, c) != a.leq(i, a.imp(j, c)):
                    bad += 1
    return bad


# ----- small-oracle ---------------------------------------------------------

# Sizes 1..8 once per round, as the suite draws them uniformly, plus a
# second size-8 op: with eight sizes once each, the median and the 90th
# percentile fall exactly on the boundary between two size classes,
# whose latencies differ threefold, so they would jump from run to run.
ORACLE_SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 8)


class SmallOracle(Workload):
    name = "small-oracle"
    rounds = 400
    trace_rounds = 40
    dominant = ("reduction_enum",)
    idle = ("algebra", "lemma", "probes", "spaces", "cli")

    def build(self, rng, population):
        for _ in range(self.rounds):
            ops = []
            for n in ORACLE_SIZES:
                pairs = relabel(rng, n, random_order(population, n))
                colors = weak_coloring(rng, n, cover_lists(n, pairs), 2)
                ops.append({"kind": "oracle", "n": n, "pairs": pairs,
                            "colors": colors})
            self.add_round(rng, ops)

    def op_oracle(self, op):
        ek = self.ek
        p = ek.Poset.from_covers(op["n"], op["pairs"])
        f = ek.Coloring.of(p, 2, op["colors"])
        greedy = ek.coarsest_color_respecting(p, f)
        brute = ek.brute_coarsest_color_respecting(p, f)
        if greedy != brute:
            raise Mismatch(f"greedy {greedy.blocks} != brute {brute.blocks}")
        check_single_colored(greedy.blocks, op["colors"])
        return fingerprint(greedy.blocks)[:16]


# ----- large-reduction -------------------------------------------------------

CENSUS_DEPTHS = (1, 2)       # abomination_truncation(2, M): 68 and 102 elements
CENSUS_PER_DEPTH = 3
CLI_PER_DEPTH = 1
LADDERS_PER_ROUND = 4
LADDER_COMBOS = [(n, d) for n in (0, 1, 2) for d in range(6)]


class LargeReduction(Workload):
    name = "large-reduction"
    rounds = 40
    trace_rounds = 4
    dominant = ("reduction_replay", "poset")
    idle = ("algebra", "reduction.all_epartitions", "reduction.brute_coarsest",
            "probes")

    def build(self, rng, population):
        # The spaces are fixed, and a census op's cost varies by about 7%
        # between colorings, so colorings are drawn afresh for each seed.
        ek = self.ek
        self.spaces = {}
        t0 = time.perf_counter()
        for m in CENSUS_DEPTHS:
            self.spaces[("abomination", 2, m)] = ek.abomination_truncation(2, m)
        for n, d in LADDER_COMBOS:
            self.spaces[("ladder", n, d)] = ek.ladder_truncation(n, d)
        self.library_s = time.perf_counter() - t0
        shape = {}
        for key, p in self.spaces.items():
            ups = [[] for _ in range(p.n)]
            for x, y in p.covers:
                ups[x].append(y)
            shape[key] = ups
        self.space_data = {"|".join(map(str, k)): [p.n, [list(c) for c in p.covers]]
                           for k, p in self.spaces.items()}
        poset_files = {}
        for m in CENSUS_DEPTHS:
            p = self.spaces[("abomination", 2, m)]
            path = os.path.join(self.workdir, f"abomination-2-{m}.json")
            _write_json(path, {"n": p.n, "covers": [list(c) for c in p.covers]})
            poset_files[m] = path

        combos = list(LADDER_COMBOS)
        rng.shuffle(combos)
        next_combo = 0
        for r in range(self.rounds):
            ops = []
            for m in CENSUS_DEPTHS:
                key = ("abomination", 2, m)
                n_el = self.spaces[key].n
                for _ in range(CENSUS_PER_DEPTH):
                    ops.append({"kind": "census", "depth": m,
                                "colors": weak_coloring(rng, n_el, shape[key], 2)})
                for i in range(CLI_PER_DEPTH):
                    colors = weak_coloring(rng, n_el, shape[key], 2)
                    path = os.path.join(self.workdir, f"coloring-{r}-{m}-{i}.json")
                    _write_json(path, {"n": 2, "colors": [format(c, "02b") for c in colors]})
                    ops.append({"kind": "cli", "depth": m, "colors": colors,
                                "poset_file": poset_files[m], "coloring_file": path})
            for _ in range(LADDERS_PER_ROUND):
                n, d = combos[next_combo % len(combos)]
                next_combo += 1
                key = ("ladder", n, d)
                ops.append({"kind": "ladder", "n": n, "depth": d,
                            "colors": weak_coloring(rng, self.spaces[key].n, shape[key], n)})
            self.add_round(rng, ops)

    def fingerprint_data(self):
        files = [os.path.basename(op[k]) for op in self.ops
                 for k in ("poset_file", "coloring_file") if k in op]
        plain = [{k: v for k, v in op.items() if not k.endswith("_file")}
                 for op in self.ops]
        return {"spaces": self.space_data, "ops": plain, "files": files}

    def op_census(self, op):
        ek = self.ek
        z = self.spaces[("abomination", 2, op["depth"])]
        f = ek.Coloring.of(z, 2, op["colors"])
        part = ek.coarsest_color_respecting(z, f)
        check_single_colored(part.blocks, op["colors"])
        q, proj = ek.quotient(z, part)
        wcolors = [0] * q.n
        for x in range(z.n):
            wcolors[proj[x]] = op["colors"][x]
        witness = ek.Coloring.of(q, 2, wcolors)
        if not ek.is_coloring(q, witness):
            raise Mismatch("coarsest quotient rejects its own coloring")
        q.canonical_form()
        if not ek.corollary_check(z, part, 2, witness=witness):
            raise Mismatch("a full c-row has no merged pair")
        return [q.n, fingerprint(part.blocks)[:16]]

    def op_ladder(self, op):
        ek = self.ek
        v = self.spaces[("ladder", op["n"], op["depth"])]
        f = ek.Coloring.of(v, op["n"], op["colors"])
        schedule = ek.schedule_beta_reductions(v, f)
        ek.verify_schedule(v, f, schedule)
        blocks = union_blocks(v.n, [s.pair for s in schedule.steps])
        if blocks != sorted(list(b) for b in schedule.kernel.blocks):
            raise Mismatch("schedule kernel differs from its steps")
        check_single_colored(blocks, op["colors"])
        return len(schedule.steps)

    def op_cli(self, op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.ek.cli.main(["reduce", "--poset", op["poset_file"],
                                     "--coloring", op["coloring_file"]])
        if code != 0:
            raise Mismatch(f"reduce exited {code}")
        text = out.getvalue()
        report = json.loads(text)
        blocks = report["partition"]["blocks"]
        n = len(op["colors"])
        steps = [s["pair"] for s in report["steps"]]
        if union_blocks(n, steps) != sorted(blocks):
            raise Mismatch("reported blocks differ from the reported steps")
        check_single_colored(blocks, op["colors"])
        return hashlib.sha256(text.encode()).hexdigest()


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


WORKLOADS = {w.name: w for w in (SmallDuality, SmallOracle, LargeReduction)}
