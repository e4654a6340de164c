"""Self-tests for the benchmark's own code.

    python3 perfbench/selftest.py

Run from the root of a checkout. Kept out of the program's test suite:
they test the benchmark, not the program.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import sys
import unittest

import run
import spans
from gen import cover_lists, fingerprint, random_order, weak_coloring
from workloads import WORKLOADS


class GeneratorTest(unittest.TestCase):
    def setUp(self):
        self.ek = run.fresh_import()
        self.workdir = os.path.join(run.HERE, "out", f"selftest-{os.getpid()}")

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def fp(self, name, seed):
        return run.set_up(name, seed, self.workdir)[2]

    def test_same_seed_same_fingerprint_other_seed_other(self):
        for name in WORKLOADS:
            with self.subTest(name):
                first = self.fp(name, 7)
                self.assertEqual(first, self.fp(name, 7))
                self.assertNotEqual(first, self.fp(name, 8))

    def test_orders_are_closed_and_colorings_weak(self):
        rng = random.Random(3)
        for n in range(9):
            pairs = set(random_order(rng, n))
            for x, y in pairs:
                self.assertLess(x, y)
                for y2, z in pairs:
                    if y2 == y:
                        self.assertIn((x, z), pairs)
            ups = cover_lists(n, sorted(pairs))
            colors = weak_coloring(rng, n, ups, 2)
            for x in range(n):
                for y in ups[x]:
                    self.assertEqual(colors[x] & ~colors[y], 0)

    def test_fingerprint_is_order_insensitive_for_keys_only(self):
        self.assertEqual(fingerprint({"a": 1, "b": [1, 2]}),
                         fingerprint({"b": [1, 2], "a": 1}))
        self.assertNotEqual(fingerprint([1, 2]), fingerprint([2, 1]))


class SpanArithmeticTest(unittest.TestCase):
    def test_self_time_of_nested_spans(self):
        #  0: [0, 10] root
        #  1: [1, 4]  child of 0
        #  2: [2, 3]  child of 1
        #  3: [5, 9]  child of 0
        #  4: [5.5, 6] child of 3
        #  5: [7, 8.5] child of 3
        #  6: [11, 12] a second root
        start = [0.0, 1.0, 2.0, 5.0, 5.5, 7.0, 11.0]
        end = [10.0, 4.0, 3.0, 9.0, 6.0, 8.5, 12.0]
        parent = [-1, 0, 1, 0, 3, 3, -1]
        got = spans.self_times(start, end, parent)
        self.assertEqual(got, [10 - 3 - 4, 3 - 1, 1.0, 4 - 0.5 - 1.5, 0.5, 1.5, 1.0])

    def test_layer_metrics_on_synthetic_trace(self):
        clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0])
        t = spans.Tracer(clock=lambda: next(clock))
        t.op = 0
        with t.span("bench.op"):                              # 0 .. 10
            with t.span("reduction.all_epartitions"):         # 1 .. 9
                with t.span("reduction.is_epartition"):       # 2 .. 3
                    pass
                with t.span("reduction.is_epartition"):       # 4 .. 6
                    pass
                with t.span("reduction.is_epartition"):       # 7 .. 8
                    pass
                t.size[1] = 1
        m = spans.layer_metrics(t)
        self.assertEqual(m["reduction.is_epartition.calls"], 3)
        self.assertEqual(m["reduction.is_epartition.self_s"], 4.0)
        self.assertEqual(m["reduction.all_epartitions.self_s"], 4.0)
        self.assertEqual(m["reduction.all_epartitions.kept"], 1)
        self.assertAlmostEqual(m["reduction.epartition_yield"], 1 / 3)
        self.assertEqual(m["share.reduction_enum"], 0.8)
        self.assertEqual(m["share.bench"], 0.2)
        self.assertAlmostEqual(sum(m[f"share.{g}"] for g in spans.SHARE_GROUPS), 1.0)


class PercentileTest(unittest.TestCase):
    def test_percentiles_at_100_samples(self):
        values = list(range(1, 101))
        random.Random(1).shuffle(values)
        self.assertEqual(run.percentile(values, 0.5), 50.5)
        self.assertAlmostEqual(run.percentile(values, 0.9), 90.1)
        self.assertAlmostEqual(
            run.percentile(values, 0.9),
            statistics.quantiles(values, n=10, method="inclusive")[8])
        self.assertEqual(sum(v > run.percentile(values, 0.9) for v in values), 10)


class WrapperTest(unittest.TestCase):
    def snapshot(self):
        out = {}
        for mod in spans._package_modules():
            for attr, value in vars(mod).items():
                out[(mod.__name__, attr)] = value
        poset_cls = sys.modules["esakiakit.poset"].Poset
        for attr, value in vars(poset_cls).items():
            out[("Poset", attr)] = value
        return out

    def test_install_then_remove_restores_every_binding(self):
        ek = run.fresh_import()
        before = self.snapshot()
        self.assertEqual(spans.wrapped_bindings(), [])
        tracer = spans.Tracer()
        saved = spans.install(tracer)
        try:
            wrapped = spans.wrapped_bindings()
            # Re-exports are wrapped too, wherever they are bound.
            for binding in ("esakiakit.quotient", "esakiakit.reduction.quotient",
                            "esakiakit.lemma.quotient", "esakiakit.probes.quotient",
                            "Poset.from_covers", "esakiakit.cli.main"):
                self.assertIn(binding, wrapped)
            ek.quotient(ek.Poset.from_covers(1, []),
                        ek.EPartition.identity(ek.Poset.from_covers(1, [])))
            self.assertIn("reduction.quotient", tracer.names)
            self.assertIn("poset.from_covers", tracer.names)
        finally:
            spans.remove(saved)
        after = self.snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)
        self.assertEqual(spans.wrapped_bindings(), [])


class MetricListTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_reports(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in bench["workloads"]], list(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
