"""Measure the benchmark's baseline: every workload over seeds 1..10, plus one traced run.

For every workload in ``BENCHMARK.json``, ``run.py`` runs once per seed.
For each end-to-end metric the script prints the median, and the spread:
the distance between the quartiles (``statistics.quantiles(values, n=4)``)
as a share of the median, next to the metric's bound.  Then one traced
run (seed 1) gives the workload's per-layer numbers.  Everything is
written to ``perfbench/baseline.json``.

Usage, from the root of a checkout (about 20 minutes)::

    python3 perfbench/sweep.py
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
BASELINE = HERE / "baseline.json"


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["manifest"] = next(json.loads(l[9:]) for l in lines if l.startswith("manifest "))
    return result


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": spec["run_seconds"], "seeds": SEEDS, "end_to_end": {}, "per_layer": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [bench(workload, s, spec["run_seconds"], 0) for s in SEEDS]
        out["manifest"] = results[0]["manifest"]
        if not all(r["correct"] for r in results):
            print(f"{workload}: a run failed its correctness checks", file=sys.stderr)
        table = {}
        for name in bounds:
            table[name] = summarize([r["metrics"][name]["value"] for r in results])
            st = table[name]
            print(f"{workload:16s} {name:18s} median {st['median']:.6g} "
                  f"spread {st['spread']:.4f} bound {bounds[name]} "
                  f"{'ok' if st['spread'] < bounds[name] / 3 else 'WIDE'}", flush=True)
        out["end_to_end"][workload] = table
        traced = bench(workload, SEEDS[0], spec["run_seconds"], 1)
        out["per_layer"][workload] = {k: v["value"] for k, v in traced["metrics"].items()}
    BASELINE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
