"""Tests of the benchmark's own parts: tracer, correctness checks, metric names.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, merge  # noqa: E402


def test_self_time_on_nested_trace():
    now = [0.0]

    def tick(dt):
        now[0] += dt

    tracer = Tracer("t1", clock=lambda: now[0])
    leaf = tracer.wrap("leaf", lambda: tick(1.0))

    def mid_body():
        tick(0.5)
        leaf()
        leaf()
        tick(0.25)

    mid = tracer.wrap("mid", mid_body, span=True)

    def top_body():
        tick(2.0)
        mid()

    tracer.wrap("top", top_body, span=True)()

    stats = tracer.stats
    assert stats["leaf"] == {"calls": 2, "incl_s": 2.0, "self_s": 2.0, "units": 0.0}
    assert (stats["mid"]["incl_s"], stats["mid"]["self_s"]) == (2.75, 0.75)
    assert (stats["top"]["incl_s"], stats["top"]["self_s"]) == (4.75, 2.0)
    spans = {s["name"]: s for s in tracer.spans}
    assert set(spans) == {"mid", "top"}  # per-step functions are counted, not spanned
    assert spans["mid"]["parent"] == spans["top"]["span_id"]
    assert spans["top"]["parent"] is None
    assert {s["trace_id"] for s in tracer.spans} == {"t1"}
    assert (spans["mid"]["start"], spans["mid"]["end"]) == (2.0, 4.75)


def test_merge_sums_worker_counters():
    main = {"trace_id": "t", "spans": [{"span_id": "1:0"}],
            "stats": {"f": {"calls": 1, "incl_s": 1.0, "self_s": 0.5, "units": 3.0}}}
    part = {"trace_id": "t", "spans": [{"span_id": "2:0"}],
            "stats": {"f": {"calls": 2, "incl_s": 2.0, "self_s": 1.0, "units": 4.0},
                      "g": {"calls": 1, "incl_s": 0.1, "self_s": 0.1, "units": 0.0}}}
    merged = merge(main, [part])
    assert merged["stats"]["f"] == {"calls": 3, "incl_s": 3.0, "self_s": 1.5, "units": 7.0}
    assert merged["stats"]["g"]["calls"] == 1
    assert len(merged["spans"]) == 2
    assert main["stats"]["f"]["calls"] == 1


def test_flipped_outcome_counts_as_failed_check(tmp_path):
    from oqst import cli

    argv = ["run", "cavity", "--steps", "30", "--traj", "4", "--seed", "5", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert checks.check_trajectory_replay(tmp_path) == []

    path = tmp_path / "trajectory.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("outcome")
    rows[3][col] = "1" if rows[3][col] == "0" else "0"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)

    tally = run.Tally()
    tally.add("trajectory 0 vs dense replay", checks.check_trajectory_replay(tmp_path))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "outcome sequence differs" in tally.messages[0]


def test_printed_metric_names_match_benchmark_json():
    from oqst.verify import ALL_CHECKS

    runs = [{"wall_s": 2.0, "cpu_s": 2.5, "peak_rss_mb": 100.0}]
    tally = run.Tally()
    tally.add("x", [], 3)
    e2e = run.end_to_end(run.WORKLOADS["cavity"], runs, [0.5], tally)
    assert set(e2e) == set(run.declared_metrics(trace=False))
    assert e2e["pass_frac"] == 1.0

    trace = {"stats": {}, "extra": {"emit_bytes": 0}}
    layer = run.per_layer(trace, run.verify_check_names(), 1.5, 1.0)
    assert set(layer) == set(run.declared_metrics(trace=True))
    assert len([n for n in layer if n.startswith("verify.")]) == len(ALL_CHECKS)


def test_pool_result_is_measured_in_the_workers(tmp_path):
    w = run.Workload("cavity_workers2", "cli", trajectories=4, workers=2)
    trace, _ = run.traced_run(w, 3, None, tmp_path, run.Tally(), "pool-test")
    pool = trace["stats"]["cavity.pool.result"]
    assert pool["calls"] == 2  # one per worker chunk
    assert pool["units"] > 0 and pool["incl_s"] > 0
    chunks = trace["stats"]["cavity._diagonal_chunk"]
    assert (chunks["calls"], chunks["units"]) == (2, 4 * run.STEPS)
    layer = run.per_layer(trace, run.verify_check_names(), 1.0, 1.0)
    assert layer["cavity.pool.result_mb"] == pool["units"] / 1e6
