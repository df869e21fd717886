"""Command line front end: parse a run configuration, execute, emit files.

Commands::

    oqst run <scenario> [flags]     scenario in {cavity, projective, tpm, classical}
    oqst verify [flags]             run the invariant suite, nonzero exit on failure

Shared flags: ``--config PATH`` (JSON, overridden by explicit flags),
``--seed U64``, ``--out DIR``; ``run`` also takes ``--workers N`` (default
from OQST_WORKERS), and ``verify`` runs in one process.  Outputs are plain
CSV plus a ``summary.json``.  Each scenario maps its report to its files,
totals and law checks, and ``emit_outputs`` writes them all.  For
identical (config, seed) the CSV files are byte-identical regardless of
worker count; a run's ``summary.json`` also echoes ``workers`` and ``out``.

Exit codes: 0 success, 2 configuration error, 3 invariant violation,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .scenarios import (
    CavityConfig,
    RateModel,
    law_flags,
    run_cavity,
    run_classical_limit,
    run_projective_example,
    run_tpm_jarzynski,
)
from .scenarios.cavity import number_populations
from .qmath import DensityOperator
from .thermo import (
    AVG_HEAT_ATOL, CLASSICAL_IDENTITY_ATOL, JARZYNSKI_ATOL, OUTCOME_ENTROPY_FLOOR,
    RECORD_PRODUCTION_FLOOR,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_IO = 4

SCENARIOS = ("cavity", "projective", "tpm", "classical")
CLASSICAL_MODES = ("enumerate", "gillespie")

_DEFAULT_PARAMS = {
    "cavity": {
        "steps": 200, "traj": 2000, "target": 2, "delay": 5, "cutoff": 8,
        "exact_propagator": False, "dense": False,
    },
    "projective": {"omega": 1.0},
    "tpm": {"beta": 1.0},
    "classical": {
        "beta": 1.0, "dt": 0.02, "steps": 50, "mode": "enumerate",
        "traj": 2000, "energies": [0.0, 1.0],
    },
}


class CliError(Exception):
    """Configuration problem; maps to exit code 2."""


# Counts among the run settings, with their least allowed value.
_COUNT_MINIMA = {"steps": 1, "traj": 1, "target": 1, "cutoff": 1, "delay": 0, "workers": 1}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: scenario, parameter block, seed, output."""

    scenario: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    out_dir: str | None = None
    workers: int = 1

    def __post_init__(self):
        if self.scenario not in SCENARIOS + ("verify",):
            raise CliError(f"unknown scenario {self.scenario!r}")
        if type(self.seed) is not int or not 0 <= self.seed < 2**64:
            raise CliError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        defaults = _DEFAULT_PARAMS.get(self.scenario, {})
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise CliError(f"unknown parameter keys {sorted(unknown)}")
        merged = {**defaults, **self.params}
        for key, value in {**merged, "workers": self.workers}.items():
            if key in _COUNT_MINIMA:
                # exactly int: a float would be truncated, a bool read as 0 or 1
                if type(value) is not int or value < _COUNT_MINIMA[key]:
                    raise CliError(f"{key} must be an integer of at least "
                                   f"{_COUNT_MINIMA[key]}, got {value!r}")
            elif key == "mode" and value not in CLASSICAL_MODES:
                raise CliError(f"mode must be one of {CLASSICAL_MODES}, got {value!r}")
            # NaN, an infinity or an integer beyond float range, alone or in a list
            elif any(isinstance(x, (int, float)) and not abs(x) <= sys.float_info.max
                     for x in (value if isinstance(value, list) else [value])):
                raise CliError(f"parameter {key} must be finite, got {value!r}")
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                if key in ("beta", "dt", "omega") and value <= 0:
                    raise CliError(f"parameter {key} must be positive")
        object.__setattr__(self, "params", merged)

    def to_json(self) -> dict:
        echo = {"scenario": self.scenario, "params": self.params, "seed": self.seed,
                "out": self.out_dir}
        if self.scenario != "verify":  # verify runs in one process
            echo["workers"] = self.workers
        return echo


def _default_workers() -> int:
    env = os.environ.get("OQST_WORKERS", "")
    try:
        return int(env) if env else 1
    except ValueError:
        raise CliError(f"OQST_WORKERS must be an integer, got {env!r}")


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"config file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise CliError("config file must hold a JSON object")
    allowed = {"scenario", "params", "seed", "out", "workers"}
    unknown = set(data) - allowed
    if unknown:
        raise CliError(f"unknown config keys {sorted(unknown)}")
    if not isinstance(data.get("params", {}), dict):
        raise CliError(f"config params must be a JSON object, got {data['params']!r}")
    return data


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oqst",
        description="Trajectory thermodynamics simulator for discretely controlled open systems",
    )
    sub = parser.add_subparsers(dest="command")

    def add_shared(p):
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="master seed (64-bit)")
        p.add_argument("--out", type=str, default=None, help="output directory")

    run_p = sub.add_parser("run", help="execute a scenario")
    run_p.add_argument("scenario", choices=SCENARIOS)
    add_shared(run_p)
    run_p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: OQST_WORKERS or 1)")
    run_p.add_argument("--steps", type=int, default=None)
    run_p.add_argument("--traj", type=int, default=None)
    run_p.add_argument("--target", type=int, default=None)
    run_p.add_argument("--delay", type=int, default=None)
    run_p.add_argument("--cutoff", type=int, default=None)
    run_p.add_argument("--exact-propagator", action="store_true", default=None)
    run_p.add_argument("--dense", action="store_true", default=None)
    run_p.add_argument("--beta", type=float, default=None)
    run_p.add_argument("--dt", type=float, default=None)
    run_p.add_argument("--mode", choices=CLASSICAL_MODES, default=None)
    run_p.add_argument("--omega", type=float, default=None)

    ver_p = sub.add_parser("verify", help="run the invariant suite")
    add_shared(ver_p)
    return parser


def parse_config(argv) -> RunConfig:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help printed; there is nothing to run
            raise
        # argparse already printed its message; translate the exit code
        raise CliError("invalid arguments") from exc
    if ns.command is None:
        raise CliError("a command is required: run or verify")
    file_cfg = _load_config_file(ns.config) if ns.config else {}
    scenario = getattr(ns, "scenario", None) or file_cfg.get("scenario")
    if ns.command == "verify":
        scenario = "verify"
    if not scenario:
        raise CliError("no scenario given")
    params = dict(file_cfg.get("params", {}))
    for defaults in _DEFAULT_PARAMS.values():  # a flag is named after its parameter
        for key in defaults:
            value = getattr(ns, key, None)
            if value is not None:
                params[key] = value
    seed = ns.seed if ns.seed is not None else file_cfg.get("seed", 0)
    out_dir = ns.out if ns.out is not None else file_cfg.get("out")
    workers = 1
    if ns.command == "run":
        # flag, then file, then environment: the environment is read only when it decides
        workers = (ns.workers if ns.workers is not None else file_cfg["workers"]
                   if "workers" in file_cfg else _default_workers())
    return RunConfig(
        scenario=scenario, params=params, seed=seed,
        out_dir=out_dir, workers=workers,
    )


def fmt(x) -> str:
    """Floating point with 12 significant digits (stable across runs)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):  # strict JSON has no infinity or NaN
        return float(fmt(float(obj))) if math.isfinite(obj) else None
    return obj


def _write_summary(out_dir: str, payload: dict):
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(_json_ready(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_columns(path: str, columns: dict):
    """CSV from named columns; numbers go through ``fmt``, strings as they are."""
    cells = [[v if isinstance(v, str) else fmt(v)
              for v in (col.tolist() if isinstance(col, np.ndarray) else col)]
             for col in columns.values()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(columns))
        writer.writerows(zip(*cells))


def _cavity_outputs(report):
    rec = report.records[0]
    led = rec.ledgers
    pops = number_populations(rec.states)
    n_vec = np.arange(pops[0].size)
    mean_n = [float(n_vec @ p) for p in pops]
    means, ses = report.stats.column_means, report.stats.column_se
    files = {
        "trajectory.csv": {
            "step": led.step, "time": report.times, "atom_kind": rec.kinds,
            "outcome": led.outcome, "mean_n": mean_n,
            "var_n": [float(n_vec**2 @ p - m**2) for p, m in zip(pops, mean_n)],
            "W_ctrl": led.w_ctrl_sys, "Q_ctrl": led.q_ctrl_sys, "W_seg": led.w_seg,
            "Q_seg": led.q_seg, "Sigma_ctrl": led.sigma_ctrl, "Sigma_seg": led.sigma_seg,
            "logp_increment": led.logp_increment,
        },
        "ensemble.csv": {
            "step": range(1, len(report.times) + 1),
            **{f"p{n}": report.populations[:, n] for n in range(4)},
            "Sigma_ctrl_avg": means["sigma_ctrl"], "Sigma_ctrl_se": ses["sigma_ctrl"],
            "Sigma_seg_avg": means["sigma_seg"], "efficiency": report.efficiency,
        },
    }
    checks = report.law_checks
    flags = law_flags(checks)
    law_checks = {**flags, "first_law_max_residual": checks["first_law_max_residual"],
                  "sigma_seg_min": checks["sigma_seg_min"],
                  "truncation_max": checks["truncation_max"]}
    # The efficiency curve is a Monte Carlo estimate: over a few trajectories
    # it can exceed one by sampling noise alone, so it is reported but does
    # not fail the run.
    passed = flags["first_law_ok"] and flags["second_law_segment_ok"] and flags["truncation_ok"]
    return files, report.totals, law_checks, passed


def _projective_outputs(report):
    labels = report.labels
    files = {"outcomes.csv": {
        "outcome": labels, "probability": report.probabilities,
        "Q_ctrl": [report.q_ctrl.get(r, 0.0) for r in labels],
        "Q_closed": [report.q_closed.get(r, 0.0) for r in labels],
        "post_energy": [report.post_energies.get(r, 0.0) for r in labels],
    }}
    totals = {
        "W_ctrl": report.w_ctrl,
        "avg_heat": report.avg_heat,
        "shannon_outcomes": report.shannon_outcomes,
        "shannon_spectrum": report.shannon_spectrum,
    }
    flags = {
        "avg_heat_zero": abs(report.avg_heat) <= AVG_HEAT_ATOL,
        "outcome_entropy_dominates": report.entropy_gain >= OUTCOME_ENTROPY_FLOOR,
    }
    return files, totals, flags, all(flags.values())


def _tpm_outputs(report):
    headers = ("r0", "r1", "probability", "eps0", "eps1", "Q_first", "W_drive", "W_ctrl",
               "Q_ctrl")  # each names a leaf field, lower-cased
    files = {"leaves.csv": {h: [getattr(leaf, h.lower()) for leaf in report.leaves]
                            for h in headers}}
    totals = {
        "exp_average": report.exp_average,
        "z_ratio": report.z_ratio,
        "identity_residual": report.identity_residual,
    }
    flags = {"jarzynski_identity_ok": report.identity_residual <= JARZYNSKI_ATOL}
    return files, totals, flags, all(flags.values())


def _classical_outputs(report):
    steps = np.arange(1, len(report.sigma_record) + 1)
    files = {"steps.csv": {
        "step": steps, "time": steps * report.dt, "heat_avg": report.heat_avg,
        "Sigma_record": report.sigma_record, "Sigma_state": report.sigma_state,
        "backward_entropy": report.backward_entropy,
        "identity_residual": report.identity_residual,
    }}
    totals = {
        "max_identity_residual": report.max_identity_residual,
        "max_redefined_residual": report.max_redefined_residual,
    }
    flags = {
        "difference_identity_ok": report.max_identity_residual <= CLASSICAL_IDENTITY_ATOL,
        "record_production_nonnegative": bool(
            (report.sigma_record >= RECORD_PRODUCTION_FLOOR).all()
        ),
    }
    return files, totals, flags, all(flags.values())


def emit_outputs(report, config: RunConfig, out_dir: str) -> bool:
    """Write a scenario report as plot-ready CSV plus summary.json.

    Each scenario's function gives the report's files (name -> columns), its
    totals, its law checks and whether the run passed; this writes them all.
    Returns whether the report's law checks all held.
    """
    from .scenarios import CavityReport, ClassicalReport, ProjectiveReport, TpmReport

    outputs = {CavityReport: _cavity_outputs, ProjectiveReport: _projective_outputs,
               TpmReport: _tpm_outputs, ClassicalReport: _classical_outputs}.get(type(report))
    if outputs is None:
        raise CliError(f"no emitter for report type {type(report).__name__}")
    files, totals, law_checks, passed = outputs(report)
    for name, columns in files.items():
        _write_columns(os.path.join(out_dir, name), columns)
    _write_summary(out_dir, {"config": config.to_json(), "seed": config.seed,
                             "totals": totals, "law_checks": law_checks})
    return passed


def _prepare_run(config: RunConfig):
    """Build the scenario's inputs; return a function that runs it to a report.

    Invalid scenario parameters raise ``ValueError`` or ``TypeError`` here,
    before any work starts.
    """
    p = config.params
    if config.scenario == "cavity":
        cavity = CavityConfig(
            steps=p["steps"], trajectories=p["traj"], target_nt=p["target"],
            delay_d=p["delay"], cutoff=p["cutoff"],
            exact_propagator=bool(p["exact_propagator"]), dense=bool(p["dense"]),
            seed=config.seed, workers=config.workers,
        )
        return lambda: run_cavity(cavity, keep_records=False)
    if config.scenario == "projective":
        h = 0.5 * p["omega"] * np.diag([1.0, -1.0]).astype(complex)
        return lambda: run_projective_example(h, DensityOperator.pure([1, 1]), np.eye(2))
    if config.scenario == "tpm":
        sz = np.diag([1.0, -1.0]).astype(complex)
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        return lambda: run_tpm_jarzynski(0.5 * sz, sz, hadamard, p["beta"])
    if config.scenario == "classical":
        model = RateModel.thermal(p["energies"], p["beta"])
        model.check_step(p["dt"])
        return lambda: run_classical_limit(
            model, steps=p["steps"], dt=p["dt"], mode=p["mode"],
            trajectories=p["traj"], seed=config.seed,
        )
    raise CliError(f"unhandled scenario {config.scenario}")  # pragma: no cover


def execute(config: RunConfig) -> int:
    """Run the configured scenario; returns a process exit code."""
    run = None
    if config.scenario != "verify":
        try:
            run = _prepare_run(config)
        except (ValueError, TypeError) as exc:
            print(f"error: invalid configuration: {exc}", file=sys.stderr)
            return EXIT_CONFIG

    out_dir = config.out_dir or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        if config.scenario == "verify":
            from .verify import run_all
            results = run_all(config.seed)
            for res in results:
                status = "ok" if res.passed else "FAIL"
                print(f"[{status}] {res.name}: {res.detail}")
            _write_summary(out_dir, {
                "config": config.to_json(),
                "seed": config.seed,
                "checks": {r.name: {"passed": r.passed, "detail": r.detail} for r in results},
                "all_passed": all(r.passed for r in results),
            })
            return EXIT_OK if all(r.passed for r in results) else EXIT_INVARIANT
        ok = emit_outputs(run(), config, out_dir)
    except OSError as exc:
        print(f"error: output failed: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        print(f"error: invariant violation during run: {exc}", file=sys.stderr)
        return EXIT_INVARIANT

    print(f"wrote results to {out_dir}")
    return EXIT_OK if ok else EXIT_INVARIANT


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return execute(config)


if __name__ == "__main__":
    sys.exit(main())
