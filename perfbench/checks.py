"""Correctness checks on the outputs of benchmark runs.

Each check returns a list of failure messages; an empty list is a pass.
Checks that need the library (dense replays, population references)
import ``oqst`` lazily, from the checkout's ``src``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

# The cavity law thresholds, as ``oqst.cli`` writes them into summary.json.
LAW_FLAGS = ("first_law_ok", "second_law_segment_ok", "truncation_ok", "efficiency_bounded")
# Ledger columns of trajectory.csv and the StepLedger fields they print.
LEDGER_COLUMNS = {
    "W_ctrl": "w_ctrl_sys", "Q_ctrl": "q_ctrl_sys", "W_seg": "w_seg", "Q_seg": "q_seg",
    "Sigma_ctrl": "sigma_ctrl", "Sigma_seg": "sigma_seg", "logp_increment": "logp_increment",
}
LEDGER_ATOL = 1e-9


def read_summary(out_dir) -> dict:
    return json.loads((Path(out_dir) / "summary.json").read_text())


def summary_core(summary: dict) -> dict:
    """summary.json without the ``out``/``workers`` config echo, which differs by run."""
    core = dict(summary)
    core["config"] = {k: v for k, v in summary["config"].items() if k not in ("out", "workers")}
    return core


def law_flags(law_checks: dict) -> dict:
    """The four cavity law booleans from a report's raw ``law_checks``."""
    return {
        "first_law_ok": law_checks["first_law_max_residual"] <= 1e-10,
        "second_law_segment_ok": law_checks["sigma_seg_min"] >= -1e-10,
        "truncation_ok": law_checks["truncation_max"] <= 1e-6,
        "efficiency_bounded": 0.0 <= law_checks["efficiency_max"] <= 1.0 + 1e-9,
    }


def check_flags(flags: dict, names) -> list:
    return [f"{name} is {flags.get(name)!r}" for name in names if flags.get(name) is not True]


def check_cavity_summary(out_dir) -> list:
    """All four law booleans of a cavity summary.json, read directly."""
    return check_flags(read_summary(out_dir)["law_checks"], LAW_FLAGS)


def check_verify_summary(out_dir, expected_checks: int) -> list:
    checks = read_summary(out_dir)["checks"]
    failures = [name for name, res in checks.items() if res["passed"] is not True]
    if len(checks) != expected_checks:
        failures.append(f"{len(checks)} checks reported, {expected_checks} expected")
    return failures


def check_same_outputs(out_a, out_b) -> list:
    """trajectory.csv and ensemble.csv byte-identical; summary equal but for the echo."""
    failures = []
    for name in ("trajectory.csv", "ensemble.csv"):
        if (Path(out_a) / name).read_bytes() != (Path(out_b) / name).read_bytes():
            failures.append(f"{name} differs")
    a, b = summary_core(read_summary(out_a)), summary_core(read_summary(out_b))
    for key in ("config", "seed", "totals", "law_checks"):
        if a.get(key) != b.get(key):
            failures.append(f"summary.json {key} differs")
    return failures


def _cavity_config(params: dict, seed: int, **overrides):
    from oqst.scenarios import CavityConfig

    kwargs = dict(
        steps=params["steps"], trajectories=params["traj"], target_nt=params["target"],
        delay_d=params["delay"], cutoff=params["cutoff"],
        exact_propagator=bool(params["exact_propagator"]), seed=seed,
    )
    return CavityConfig(**{**kwargs, **overrides})


def compare_records(ref, outcomes, kinds, columns: dict, label: str) -> list:
    """Outcome and kind sequences identical, ledger columns within LEDGER_ATOL.

    Returns at most one failure, so a record counts as one check.
    """
    if tuple(outcomes) != tuple(ref.outcomes):
        return [f"{label}: outcome sequence differs"]
    if tuple(kinds) != tuple(ref.kinds):
        return [f"{label}: atom-kind sequence differs"]
    for field, values in columns.items():
        worst = max(abs(float(v) - getattr(l, field)) for v, l in zip(values, ref.ledgers))
        if not worst <= LEDGER_ATOL:
            return [f"{label}: {field} deviates by {worst:.3e}"]
    return []


def check_trajectory_replay(out_dir) -> list:
    """Trajectory 0 of trajectory.csv against the dense engine with the same seed."""
    from oqst.scenarios import run_cavity

    summary = read_summary(out_dir)
    params = summary["config"]["params"]
    with open(Path(out_dir) / "trajectory.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != params["steps"]:
        return [f"trajectory.csv has {len(rows)} rows, {params['steps']} expected"]
    config = _cavity_config(params, summary["seed"], trajectories=1, dense=True)
    ref = run_cavity(config).records[0]
    return compare_records(
        ref,
        [int(r["outcome"]) for r in rows],
        [r["atom_kind"] for r in rows],
        {field: [r[col] for r in rows] for col, field in LEDGER_COLUMNS.items()},
        "trajectory 0 vs dense replay",
    )


def check_dense_against_population(dense: dict, config: dict) -> list:
    """Every dense trajectory against the population path with the same seed."""
    from oqst.scenarios import CavityConfig, run_cavity

    cfg = CavityConfig(**{**config, "dense": False})
    failures = []
    for i, ref in enumerate(run_cavity(cfg).records):
        rec = dense["records"][i]
        failures += compare_records(ref, rec["outcomes"], rec["kinds"], rec["columns"],
                                    f"trajectory {i}")
    return failures
