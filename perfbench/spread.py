"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py --seeds 1-10 [--workloads small-oracle] [--write]

Runs `run.py` once per seed and workload, one process at a time, with the
workloads interleaved, and prints for each end-to-end metric the median,
the quartiles (`statistics.quantiles(values, n=4)`) and their distance as
a share of the median, against a third of the metric's bound in
BENCHMARK.json. It does so both for the reported figures, which are
rescaled to the reference host speed, and for the same figures as
measured, so that the two spreads can be compared.
With `--write` it also makes a traced run of each workload at the default
seed and stores everything in `baseline.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


RAW_PREFIX = "as measured, before host-speed rescaling: "


def run_once(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """The result line of one run, and its figures before rescaling."""
    cmd = [sys.executable, *bench["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    lines = [line.strip() for line in proc.stdout.splitlines()]
    result = json.loads(lines[-1])
    raw = {}
    for line in lines:
        if line.startswith(RAW_PREFIX):
            raw = json.loads(line[len(RAW_PREFIX):])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result, raw


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    kinds = ("rescaled", "raw")
    values = {w: {k: {m: [] for m in bounds} for k in kinds} for w in names}
    failed = 0
    for seed in args.seeds:
        for w in names:
            result, raw = run_once(bench, w, seed, 0)
            failed += result["failed"]
            for m in bounds:
                values[w]["rescaled"][m].append(result["metrics"][m]["value"])
                values[w]["raw"][m].append(raw[m])
            print(f"seed {seed} {w}: " + ", ".join(
                f"{m}={result['metrics'][m]['value']:.4g} (raw {raw[m]:.4g})"
                for m in bounds), file=sys.stderr)

    table = {}
    steady = {k: True for k in kinds}
    for w in names:
        table[w] = {k: {} for k in kinds}
        for m, bound in bounds.items():
            for k in kinds:
                s = summary(values[w][k][m])
                table[w][k][m] = s
                ok = s["spread"] < bound / 3
                steady[k] = steady[k] and ok
                print(f"{w:16s} {m:12s} {k:8s} median {s['median']:10.4f}  "
                      f"q1 {s['q1']:10.4f}  q3 {s['q3']:10.4f}  spread {s['spread']:.4f}"
                      f"  bound/3 {bound / 3:.4f}  {'ok' if ok else 'WIDE'}")
    print(f"failed ops: {failed}; " + "; ".join(
        f"{k} {'steady' if steady[k] else 'not steady'}" for k in kinds))

    if args.write:
        layers = {}
        for w in names:
            result, _raw = run_once(bench, w, 42, 1)
            failed += result["failed"]
            layers[w] = {k: v["value"] for k, v in result["metrics"].items()}
        out = {
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "implementation": platform.python_implementation()},
            "run_seconds": bench["run_seconds"],
            "seeds": args.seeds,
            "end_to_end": table,
            "traced_default_seed": layers,
        }
        with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
