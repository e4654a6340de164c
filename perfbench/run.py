"""Benchmark entry point.

    python3 perfbench/run.py --workload small-duality --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`. One process, one thread, ops back to back (a closed loop with one
client). With `--trace 0` the ops run untraced for `--seconds` seconds and
the end-to-end metrics are reported; with `--trace 1` each op of a fixed
prefix of the op list runs once untraced and once with span wrappers
installed, and the per-layer metrics are reported. Every metric is printed by name with
its unit, failed ops are listed, and the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.

End-to-end metrics, all times rescaled to the reference host speed (see
hostspeed.py; the report also prints them as measured):
  ops_per_s    verified ops per second of op time
  op_p50_ms    median time to a checked verdict, per op
  op_p90_ms    90th percentile of the same; a run holds at least 100 ops
  setup_s      median of SETUP_REPS set-ups, each a fresh import of the
               package, input generation, truncation builds, input files
               written and the input fingerprint
  peak_rss_mb  ru_maxrss of this process
A failed op is a verdict mismatch or any exception; failed ÷ attempted is
printed as fail_ratio (it is 0 on a correct run, so it is not a metric).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

import spans
import workloads
from gen import fingerprint
from hostspeed import REFERENCE_PROBE_S, HostSpeed
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_REPS = 21         # set-up is repeated and its median reported
MIN_OPS = 100           # so that ten samples lie beyond the 90th percentile
HARD_LIMIT_S = 150.0    # a run stops here even below MIN_OPS

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _calls_self(name):
    return [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]


PER_LAYER = (
    *_calls_self("algebra.upset_algebra"),
    ("algebra.residuation.self_s", "s"),
    *_calls_self("algebra.subalgebras"),
    ("algebra.subalgebras.found", "count"),
    *_calls_self("algebra.min_generators"),
    ("algebra.validates.self_s", "s"),
    ("algebra.raised", "count"),
    *_calls_self("reduction.all_epartitions"),
    ("reduction.all_epartitions.kept", "count"),
    *_calls_self("reduction.is_epartition"),
    *_calls_self("reduction.brute_coarsest"),
    ("reduction.epartition_yield", "ratio"),
    *_calls_self("reduction.coarsest"),
    *_calls_self("reduction.mergeable_pairs"),
    *_calls_self("reduction.merge_step"),
    *_calls_self("reduction.quotient"),
    *_calls_self("reduction.compose_steps"),
    ("reduction.raised", "count"),
    *_calls_self("poset.from_covers"),
    *_calls_self("poset.upsets"),
    *_calls_self("poset.canonical_form"),
    ("poset.raised", "count"),
    *_calls_self("coloring.search_coloring"),
    *_calls_self("coloring.is_coloring"),
    ("coloring.raised", "count"),
    *_calls_self("lemma.schedule_beta_reductions"),
    ("lemma.schedule_steps", "count"),
    *_calls_self("lemma.verify_schedule"),
    *_calls_self("lemma.corollary_check"),
    ("lemma.raised", "count"),
    *_calls_self("probes.enumerate_posets"),
    ("probes.enumerate_posets.kept_ratio", "ratio"),
    ("probes.raised", "count"),
    *_calls_self("spaces.truncation"),
    ("spaces.raised", "count"),
    *_calls_self("cli.main"),
    ("cli.raised", "count"),
    *[(f"share.{g}", "ratio") for g in spans.SHARE_GROUPS],
    ("trace.overhead", "ratio"),
)


# Per-layer counts fixed by the inputs and the mathematics (the number of
# subalgebras equals the number of E-partitions); the traced run at the
# default seed fails if they differ from the recorded ones.
INVARIANT_COUNTS = ("algebra.subalgebras.found", "reduction.all_epartitions.kept",
                    "lemma.schedule_steps")


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (position q*(n-1))."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def fresh_import():
    """Import the package from the checkout's src/, dropping any earlier
    copy so that every set-up repetition pays the import."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "esakiakit", "__init__.py")):
        raise SetupError(f"no program source at {src}")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "esakiakit" or m.startswith("esakiakit.")]:
        del sys.modules[name]
    ek = importlib.import_module("esakiakit")
    importlib.import_module("esakiakit.cli")
    if os.path.dirname(os.path.abspath(ek.__file__)) != os.path.join(src, "esakiakit"):
        raise SetupError(f"imported {ek.__file__}, not the checkout's copy")
    return ek


def load_expected() -> dict:
    path = os.path.join(HERE, "expected.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {path}: {exc}") from exc


def set_up(name: str, seed: int, workdir: str):
    """One set-up: import, input generation, truncation builds, input
    files written, fingerprint taken. Returns (package, workload, fp,
    split), where split gives the seconds of its parts: the program's
    (import, and its calls while inputs are built) and the benchmark's
    own (input generation and files, fingerprint)."""
    t0 = time.perf_counter()
    ek = fresh_import()
    t1 = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl = WORKLOADS[name](ek, seed, workdir)
    t2 = time.perf_counter()
    fp = fingerprint(wl.fingerprint_data())
    t3 = time.perf_counter()
    split = {"import": t1 - t0, "program_calls": wl.library_s,
             "generation": t2 - t1 - wl.library_s, "fingerprint": t3 - t2}
    return ek, wl, fp, split


class Runner:
    """Executes ops by index and keeps latencies and failures."""

    def __init__(self, wl, answers):
        self.wl = wl
        self.answers = answers
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.failures: list[tuple[int, str, str]] = []

    def execute(self, i: int) -> None:
        slot = i % len(self.wl.ops)
        op = self.wl.ops[slot]
        t0 = time.perf_counter()
        self.starts.append(t0)
        try:
            answer = self.wl.run(op)
        except Exception as exc:  # every failure is counted, none stops the run
            self.latencies.append(time.perf_counter() - t0)
            self.failures.append((i, op["kind"], f"{type(exc).__name__}: {exc}"))
            return
        self.latencies.append(time.perf_counter() - t0)
        # The recorded answers exist for the default seed only; comparing
        # them is kept out of the latency so every seed times the same work.
        if self.answers is not None:
            got = json.loads(json.dumps(answer))
            if got != self.answers[slot]:
                self.failures.append((i, op["kind"], f"answer {got!r}, "
                                      f"recorded {self.answers[slot]!r}"))


def timed_run(runner: Runner, seconds: float, host: HostSpeed) -> float:
    """Ops back to back until `seconds` have passed, at least MIN_OPS ran
    and the round in progress is complete, with a host-speed probe between
    ops every so often. Returns the timed wall time. Whole rounds give
    every run the same mix of work; a partial last round of heavy-tailed
    ops widened the seed-to-seed spread of ops_per_s."""
    starts = set(runner.wl.round_starts)
    host.sample(5)
    t_start = time.perf_counter()
    i = 0
    while True:
        runner.execute(i)
        i += 1
        host.maybe_sample()
        elapsed = time.perf_counter() - t_start
        done = elapsed >= seconds and i >= MIN_OPS and i % len(runner.wl.ops) in starts
        if done or elapsed >= HARD_LIMIT_S:
            host.sample(5)
            return elapsed


def busy_seconds(runner: Runner, host: HostSpeed) -> float:
    """Total op time, rescaled to the reference host speed."""
    return sum(host.rescale(t, x) for t, x in zip(runner.starts, runner.latencies))


def traced_run(name, seed, ek, wl, answers, workdir):
    """Every op of the workload's trace prefix runs once untraced and once
    traced, back to back and in alternating order, so that both see the
    same host speed. Returns (runner of the traced ops, per-layer
    metrics, called span names, failures of the untraced ops)."""
    tracer = spans.Tracer()
    extra = [(workloads, "residuation_failures", "algebra.residuation")]
    saved = spans.install(tracer, extra)
    try:
        with tracer.span("bench.setup"):
            traced_wl = WORKLOADS[name](ek, seed, workdir)
    finally:
        spans.remove(saved)
    plain, runner = Runner(wl, answers), Runner(traced_wl, answers)
    for i in range(wl.trace_ops):
        if i % 2:
            plain.execute(i)
        saved = spans.install(tracer, extra)
        try:
            tracer.op = i
            with tracer.span("bench.op"):
                runner.execute(i)
            tracer.op = -1
        finally:
            spans.remove(saved)
        if not i % 2:
            plain.execute(i)
    left = spans.wrapped_bindings()
    if hasattr(workloads.residuation_failures, spans.MARK):
        left.append("workloads.residuation_failures")
    if left:
        raise SetupError(f"wrappers left behind: {left}")
    metrics = spans.layer_metrics(tracer)
    metrics["trace.overhead"] = sum(runner.latencies) / sum(plain.latencies)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    tracer.write(os.path.join(HERE, "out", f"spans-{name}-seed{seed}.csv.gz"))
    called = {tracer.names[n] for n in set(tracer.name)}
    return runner, metrics, called, plain.failures


def share_report(wl, metrics, called) -> list[str]:
    """Compare the traced shares with the workload's recorded prediction;
    a miss is reported, never fixed up."""
    lines = []
    shares = {g: metrics[f"share.{g}"] for g in spans.SHARE_GROUPS}
    dominant = sum(shares[g] for g in wl.dominant)
    rivals = {g: s for g, s in shares.items() if g not in wl.dominant}
    top_rival = max(rivals, key=rivals.get)
    verdict = "ok" if dominant > rivals[top_rival] else "MISS"
    lines.append(f"prediction dominant {'+'.join(wl.dominant)} = {dominant:.3f} "
                 f"vs next {top_rival} = {rivals[top_rival]:.3f}: {verdict}")
    for prefix in wl.idle:
        hits = sorted(n for n in called if n == prefix or n.startswith(prefix + "."))
        verdict = "ok" if not hits else f"MISS ({', '.join(hits)})"
        lines.append(f"prediction zero calls in {prefix}: {verdict}")
    return lines


def untraced_metrics(runner, wall, host, setups):
    """End-to-end metrics rescaled to the reference host speed, the same
    figures as measured, and the report lines that go with them."""
    ok = len(runner.latencies) - len(runner.failures)
    ref_ms = [host.rescale(t, x) * 1000 for t, x in zip(runner.starts, runner.latencies)]
    raw_ms = [x * 1000 for x in runner.latencies]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rescaled = {
        "ops_per_s": ok / busy_seconds(runner, host),
        "op_p50_ms": percentile(ref_ms, 0.5),
        "op_p90_ms": percentile(ref_ms, 0.9),
        "setup_s": statistics.median(host.rescale(t, x) for t, x, _ in setups),
        "peak_rss_mb": rss,
    }
    raw = {
        "ops_per_s": ok / sum(runner.latencies),
        "op_p50_ms": percentile(raw_ms, 0.5),
        "op_p90_ms": percentile(raw_ms, 0.9),
        "setup_s": statistics.median(x for _, x, _ in setups),
        "peak_rss_mb": rss,
    }
    split = {part: statistics.median(sp[part] for _, _, sp in setups)
             for part in setups[0][2]}
    lines = [
        f"samples: {len(runner.latencies)} ops over {wall:.3f} s wall, "
        f"{len(host.took)} host probes, {len(setups)} set-ups",
        "set-up parts as measured, median seconds: " + ", ".join(
            f"{part} {v:.4f}" for part, v in split.items()),
        f"host slowdown (probe / reference): median "
        f"{statistics.median(host.took) / REFERENCE_PROBE_S:.3f}, "
        f"range {min(host.took) / REFERENCE_PROBE_S:.3f}"
        f"-{max(host.took) / REFERENCE_PROBE_S:.3f}",
        "as measured, before host-speed rescaling: " + json.dumps(raw),
    ]
    return rescaled, lines


def count_check(name, metrics, expected) -> list[tuple[int, str, str]]:
    """The counts fixed by the inputs and the mathematics, against the
    values recorded for the default seed; any difference is a failure."""
    return [(-1, "trace", f"{m} = {metrics.get(m, 0)}, recorded {want}")
            for m, want in expected["trace_counts"][name].items()
            if metrics.get(m, 0) != want]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    name, seed = args.workload, args.seed
    workdir = os.path.join(HERE, "out", f"inputs-{name}-{seed}-{os.getpid()}")
    try:
        host = HostSpeed()
        setups = []
        for _ in range(SETUP_REPS):
            gc.collect()        # each set-up starts from the same heap
            host.sample(5)
            t0 = time.perf_counter()
            ek, wl, fp, split = set_up(name, seed, workdir)
            setups.append((t0, time.perf_counter() - t0, split))
            host.sample(5)
        answers = expected = None
        if seed == DEFAULT_SEED:
            expected = load_expected()
            if fp != expected["fingerprints"][name]:
                raise SetupError(
                    f"input fingerprint {fp} differs from the recorded "
                    f"{expected['fingerprints'][name]}; refusing to run")
            answers = expected["answers"][name]
        if spans.wrapped_bindings():
            raise SetupError("span wrappers found in an untraced program")

        if args.trace:
            runner, metrics, called, plain_failures = traced_run(
                name, seed, ek, wl, answers, workdir)
            failures = plain_failures + runner.failures
            if expected is not None:
                failures += count_check(name, metrics, expected)
            attempted = 2 * len(runner.latencies)
            values = [(m, metrics.get(m, 0), u) for m, u in PER_LAYER]
            extra = share_report(wl, metrics, called)
        else:
            runner = Runner(wl, answers)
            wall = timed_run(runner, args.seconds, host)
            left = spans.wrapped_bindings()
            if left:
                raise SetupError(f"span wrappers found in an untraced program: {left}")
            failures = runner.failures
            attempted = len(runner.latencies)
            measured, extra = untraced_metrics(runner, wall, host, setups)
            values = [(m, measured[m], u) for m, u in END_TO_END]
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mode = "traced" if args.trace else "untraced"
    print(f"workload {name}, seed {seed}, {mode}")
    for metric, value, unit in values:
        print(f"  {metric:42s} {value:14.6f} {unit}")
    print(f"  {'fail_ratio':42s} {len(failures) / attempted:14.6f} "
          f"({len(failures)} of {attempted} ops)")
    for line in extra:
        print(f"  {line}")
    for i, kind, why in failures:
        print(f"  FAILED op {i} ({kind}): {why}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": u} for m, v, u in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
