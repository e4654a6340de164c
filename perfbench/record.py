"""Record the default seed's input fingerprints and answers.

    python3 perfbench/record.py

Runs every op of every workload's op list once at the default seed, then
the traced run, and writes `expected.json`: the input fingerprints, each
op's answer and the invariant per-layer counts, which `run.py` checks
that seed against. Run it
only when the benchmark itself changes, never to make a failing run pass.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import HERE, INVARIANT_COUNTS, set_up, traced_run
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    out = {"default_seed": DEFAULT_SEED, "fingerprints": {}, "answers": {},
           "trace_counts": {}}
    workdir = os.path.join(HERE, "out", f"record-{os.getpid()}")
    try:
        for name in WORKLOADS:
            ek, wl, fp, _split = set_up(name, DEFAULT_SEED, workdir)
            answers = [json.loads(json.dumps(wl.run(op))) for op in wl.ops]
            _runner, metrics, _called, _failed = traced_run(
                name, DEFAULT_SEED, ek, wl, answers, workdir)
            out["fingerprints"][name] = fp
            out["answers"][name] = answers
            out["trace_counts"][name] = {m: metrics.get(m, 0) for m in INVARIANT_COUNTS}
            print(f"{name}: {len(answers)} ops, fingerprint {fp}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
