"""Derive the pool of program seeds that the ``verify`` workload's ``--seed`` indexes.

``oqst verify`` fails on some seeds for reasons unrelated to speed: its
population-against-dense check runs a small cavity at cutoff 5, where a
rare excursion reaches the cutoff level (``TruncationLeakError``, exit 3),
and its 3-standard-error sampler check fails for about 1 seed in 100.  A
run that stops early would also time far less work.  So the ``verify``
workload runs only seeds from a pool; the cavity workloads take the
benchmark seed itself.

The rule: candidates 0, 1, 2, ... are tried in order.  Each gets one
``oqst verify --seed <candidate>`` run, spawned and checked by ``run.py``'s
own ``spawn``, ``check_run`` and ``check_workload``, so the pool applies
every check the benchmark applies to a ``verify`` run (all but the
repeat-run comparison, which needs two runs).  A candidate that passes
joins the pool; one that fails is kept in ``seeds.json`` under
``rejected`` with its failures.  The search stops at ``POOL_SIZE`` seeds.

Usage, from the root of a checkout (slow: one ``oqst verify`` per candidate)::

    python3 perfbench/seeds.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

POOL_SIZE = 32


def failures(seed: int, work: Path) -> list:
    """The checks one ``verify`` run of ``seed`` fails; empty if it passes them all."""
    w = run.WORKLOADS["verify"]
    out_dir = work / "out"
    result = run.spawn(w.spec(seed, out_dir), work, "run")
    tally = run.Tally()
    run.check_run(w, result, out_dir, None, tally)
    run.check_workload(w, seed, (result, out_dir), work, tally)
    stderr = (work / "run.stderr").read_text().strip()
    if tally.failed and stderr:
        tally.messages.append("stderr: " + stderr[-300:])
    return tally.messages


def main() -> int:
    run.WORK_ROOT.mkdir(exist_ok=True)
    pool, rejected = [], {}
    candidate = 0
    while len(pool) < POOL_SIZE:
        work = Path(tempfile.mkdtemp(prefix=f"seed{candidate}-", dir=run.WORK_ROOT))
        try:
            found = failures(candidate, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(candidate, found or "ok", flush=True)
        if found:
            rejected[str(candidate)] = found
        else:
            pool.append(candidate)
        candidate += 1
    run.SEED_POOL.write_text(json.dumps({"seeds": pool, "rejected": rejected}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
