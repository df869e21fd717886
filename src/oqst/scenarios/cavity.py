"""Photon-number stabilization of a damped cavity by delayed atomic feedback.

A stream of two-level atoms interrogates the cavity once per step: sensor
atoms perform a dispersive (number-preserving) readout, emitter and
absorber atoms add or remove a photon via a resonant pulse.  Detection
lags by ``delay_d`` atoms, so the controller steers on a stale state
estimate and holds off for another ``delay_d`` steps after each feedback
atom.

Everything the controller sees is diagonal in the number basis, so the
production path evolves bare population vectors; the full density-matrix
path through the generic engine exists to validate it and must reproduce
the same outcome sequences from the same seeds.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm

from ..channels import Instrument, OutcomeBranch
from ..lindblad import ThermalGenerator, thermal_cavity_generator
from ..qmath import DensityOperator, shannon_entropy
from ..thermo import FIRST_LAW_ATOL, ThermoError, entropy_production_step, first_law_residual
from ..trajectory import (
    ControlSchedule,
    EnsembleReport,
    FeedbackPolicy,
    StepPlan,
    TrajectoryRecord,
    choose_branch,
    derive_stream_seed,
    ensemble_statistics,
    sample_trajectory,
    stream_rng,
)

ATOM_KINDS = ("sensor", "emitter", "absorber")
FEEDBACK_KINDS = ("emitter", "absorber")
TRUNCATION_LEAK = 1e-6
# Rounding allowances of the reported law flags (see ``law_flags``).
SIGMA_SEG_REPORT_FLOOR = -1e-10
EFFICIENCY_CEILING = 1.0 + 1e-9
# Ramsey preparation puts sensor atoms in an equal superposition (half a
# quantum), emitters are prepared excited, absorbers stay in the ground
# state; informational only, never part of the efficiency.
ATOM_PREP_WORK = {"sensor": 0.5, "emitter": 1.0, "absorber": 0.0}


class TruncationLeakError(RuntimeError):
    """Conditional population reached the number-basis cutoff."""


@dataclass(frozen=True)
class CavityConfig:
    """Physical and run parameters for the stabilization experiment."""

    omega_c: float = 2 * math.pi * 51.1e9
    temperature: float = 0.8
    lifetime_tc: float = 65e-3
    step_ta: float = 82e-6
    target_nt: int = 2
    delay_d: int = 5
    cutoff: int = 8
    steps: int = 200
    trajectories: int = 2000
    seed: int = 0
    exact_propagator: bool = False
    dense: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.target_nt < 1:
            raise ValueError("target photon number must be positive")
        if self.cutoff < self.target_nt + 4:
            raise ValueError("cutoff must be at least target_nt + 4")
        if not (self.step_ta > 0 and self.lifetime_tc > 0 and self.temperature > 0):
            raise ValueError("time and temperature parameters must be positive")
        if self.step_ta > self.lifetime_tc / 10:
            raise ValueError("step_ta must be far below the cavity lifetime")
        if self.delay_d < 0 or self.steps < 1 or self.trajectories < 1:
            raise ValueError("delay, steps and trajectories must be nonnegative/positive")
        if not self.exact_propagator:
            # The first-order population step 1 + R dt stays a stochastic
            # matrix only while no level empties faster than once per step.
            exit_rate = float(-np.diagonal(classical_rate_matrix(self.generator())).min())
            if self.step_ta * exit_rate > 1.0:
                raise ValueError(
                    f"step_ta times the largest exit rate is {self.step_ta * exit_rate:.3g} > 1; "
                    "the first-order step map would have negative entries"
                )

    def generator(self) -> ThermalGenerator:
        return thermal_cavity_generator(
            self.omega_c, self.temperature, self.lifetime_tc, self.cutoff
        )

    @property
    def dim(self) -> int:
        return self.cutoff + 1

    @property
    def method(self) -> str:
        return "exact" if self.exact_propagator else "first_order"


def sensor_weights(target_nt: int, cutoff: int) -> np.ndarray:
    """pi_s(r|n): chance that a dispersive atom exits in state r given n photons."""
    n = np.arange(cutoff + 1)
    out = np.empty((2, cutoff + 1))
    for r in (0, 1):
        out[r] = 0.5 * (1 + np.cos(np.pi / 4 * (n - target_nt) + np.pi / 2 * (2 * r - 1)))
    return out


def atom_transfer(kind: str, target_nt: int, cutoff: int) -> np.ndarray:
    """Per-outcome population transfer matrices, shape (2, dim, dim).

    ``M[r][n, n']`` is the joint probability of outcome ``r`` and the
    cavity moving ``n' -> n``; columns of ``M[0] + M[1]`` sum to one.  The
    emission branch at the cutoff level is folded into the no-transition
    branch, which is harmless below the truncation-leak threshold.
    """
    if cutoff < target_nt + 4:
        raise ValueError("cutoff must be at least target_nt + 4")
    dim = cutoff + 1
    out = np.zeros((2, dim, dim))
    if kind == "sensor":
        pi = sensor_weights(target_nt, cutoff)
        for r in (0, 1):
            np.fill_diagonal(out[r], pi[r])
    elif kind == "emitter":
        theta = np.pi / 2 * np.sqrt(np.arange(1, dim + 1)) / math.sqrt(target_nt)
        for src in range(dim):
            if src < cutoff:
                out[0][src + 1, src] = math.sin(theta[src]) ** 2
                out[1][src, src] = math.cos(theta[src]) ** 2
            else:
                out[1][src, src] = 1.0
    elif kind == "absorber":
        theta = np.pi / 2 * np.sqrt(np.arange(dim)) / math.sqrt(target_nt + 1)
        for src in range(dim):
            out[0][src, src] = math.cos(theta[src]) ** 2
            if src > 0:
                out[1][src - 1, src] = math.sin(theta[src]) ** 2
    else:
        raise ValueError(f"unknown atom kind {kind!r}")
    return out


def atom_instrument(kind: str, target_nt: int, cutoff: int) -> Instrument:
    """The same transfer in operator form: one Kraus operator per outcome."""
    transfer = atom_transfer(kind, target_nt, cutoff)
    branches = tuple(
        OutcomeBranch(label=r, kraus=(np.sqrt(transfer[r]).astype(complex),))
        for r in (0, 1)
    )
    return Instrument(dim=cutoff + 1, outcomes=branches)


def feedback_decision(estimate, target_nt: int) -> str:
    """Steering rule on a population estimate; ties keep measuring."""
    p = np.asarray(estimate, dtype=float)
    p_target = p[target_nt]
    if p[target_nt + 1 :].sum() > p_target:
        return "absorber"
    if p[:target_nt].sum() > p_target:
        return "emitter"
    return "sensor"


def number_populations(state) -> np.ndarray:
    """Number-basis populations of a population vector or a density matrix."""
    m = np.asarray(state)
    return np.real(np.diagonal(m)) if m.ndim == 2 else np.real(m)


class CavityPolicy(FeedbackPolicy):
    """Delayed-estimate feedback with a post-feedback hold-off window."""

    def __init__(self, target_nt: int, delay: int, cooldown: int | None = None,
                 instruments: dict | None = None):
        self.instruments = instruments
        self.target_nt = target_nt
        self.delay = delay
        self.cooldown = delay if cooldown is None else cooldown

    def decide(self, step: int, estimate, kinds) -> str:
        # hold off iff a feedback atom went out within the last `cooldown` steps
        if self.cooldown:
            lo = max(0, step - self.cooldown - 1)
            for kind in kinds[lo : step - 1]:
                if kind in FEEDBACK_KINDS:
                    return "sensor"
        return feedback_decision(number_populations(estimate), self.target_nt)

    def plan(self, step, estimate, outcomes, kinds):
        if self.instruments is None:
            raise RuntimeError("policy was built without instrument operators")
        kind = self.decide(step, estimate, kinds)
        return StepPlan(instrument=self.instruments[kind], kind=kind)


def classical_rate_matrix(gen: ThermalGenerator) -> np.ndarray:
    """Population-sector generator: columns sum to zero."""
    dim = gen.dim
    rates = np.zeros((dim, dim))
    for op, rate in gen.dissipators:
        rates += rate * np.abs(op) ** 2
        rates -= rate * np.diag(np.diagonal(np.conj(op.T) @ op).real)
    return rates


def thermal_populations(beta: float, dim: int) -> np.ndarray:
    w = np.exp(-beta * np.arange(dim))
    return w / w.sum()


class _DiagonalContext:
    """Precomputed tables for the population-vector sampler."""

    def __init__(self, config: CavityConfig):
        self.config = config
        gen = config.generator()
        self.beta = gen.beta
        self.n_vec = np.arange(config.dim, dtype=float)
        self.nsq_vec = self.n_vec**2
        rates = classical_rate_matrix(gen)
        if config.exact_propagator:
            self.step_map = expm(rates * config.step_ta)
        else:
            self.step_map = np.eye(config.dim) + rates * config.step_ta
        self.transfer = {
            kind: atom_transfer(kind, config.target_nt, config.cutoff)
            for kind in ATOM_KINDS
        }
        self.avg_transfer = {k: m[0] + m[1] for k, m in self.transfer.items()}
        self.p0 = thermal_populations(self.beta, config.dim)
        self.times = tuple((i + 1) * config.step_ta for i in range(config.steps))
        self.policy = CavityPolicy(target_nt=config.target_nt, delay=config.delay_d)


def _check_leak(populations, step: int) -> None:
    """Raise ``TruncationLeakError`` if the cutoff level holds more than ``TRUNCATION_LEAK``."""
    if populations[-1] > TRUNCATION_LEAK:
        raise TruncationLeakError(
            f"population {populations[-1]:.2e} at the cutoff level on step {step}"
        )


def _run_diagonal_trajectory(ctx: _DiagonalContext, seed: int) -> TrajectoryRecord:
    cfg = ctx.config
    rng = stream_rng(seed)
    n_vec, step_map, beta = ctx.n_vec, ctx.step_map, ctx.beta
    p = ctx.p0
    log_prob = 0.0
    s_prev = shannon_entropy(p)
    estimates = [p]
    outcomes: list = []
    kinds: list = []
    rows: list = []
    states: list = []
    for step in range(1, cfg.steps + 1):
        e_start = float(n_vec @ p)
        s_start = s_prev
        p_mid = step_map @ p
        e_pre = float(n_vec @ p_mid)
        q_seg = e_pre - e_start
        s_pre = log_prob + shannon_entropy(p_mid)
        est = estimates[max(0, step - cfg.delay_d)] if cfg.delay_d > 0 else p_mid
        kind = ctx.policy.decide(step, est, kinds)
        weights = ctx.transfer[kind] @ p_mid  # (2, dim)
        probs = weights.sum(axis=1)
        e_avg_post = float(n_vec @ (weights[0] + weights[1]))
        w_ctrl = e_avg_post - e_pre
        label = choose_branch(probs, rng.random())
        prob = float(probs[label])
        post = weights[label] / prob
        _check_leak(post, step)
        e_end = float(n_vec @ post)
        q_ctrl = e_end - e_avg_post
        logp_inc = float(-np.log(prob)) + 0.0
        log_prob += logp_inc
        s_end = log_prob + shannon_entropy(post)
        # LEDGER_DTYPE order; the sigma columns are filled on closing
        rows.append((
            step, label, logp_inc, e_start, e_pre, e_end, 0.0, 0.0, q_seg,
            w_ctrl, 0.0, q_ctrl, 0.0, s_start, s_pre, s_end, np.nan, np.nan,
        ))
        outcomes.append(int(label))
        kinds.append(kind)
        estimates.append(post)
        states.append(post)
        p = post
        s_prev = s_end
    return TrajectoryRecord(
        outcomes=tuple(outcomes),
        kinds=tuple(kinds),
        log_prob=log_prob,
        ledgers=entropy_production_step(rows, beta),
        states=tuple(states),
        final_state=p,
        times=ctx.times,
    )


def _indexed_trajectories(config: CavityConfig, indices, run_one) -> list:
    """Run ``run_one(seed)`` per trajectory index; law and leak failures name the index."""
    out = []
    for i in indices:
        try:
            out.append(run_one(derive_stream_seed(config.seed, i)))
        except (ThermoError, TruncationLeakError) as exc:
            raise type(exc)(f"trajectory {i}: {exc}") from exc
    return out


def _diagonal_chunk(config: CavityConfig, indices) -> list:
    ctx = _DiagonalContext(config)
    return _indexed_trajectories(
        config, indices, lambda seed: _run_diagonal_trajectory(ctx, seed)
    )


def _dense_chunk(config: CavityConfig, indices) -> list:
    gen = config.generator()
    instruments = {
        kind: atom_instrument(kind, config.target_nt, config.cutoff) for kind in ATOM_KINDS
    }
    policy = CavityPolicy(config.target_nt, config.delay_d, instruments=instruments)
    schedule = ControlSchedule.uniform(config.steps, config.step_ta)
    rho0 = DensityOperator.from_diagonal(thermal_populations(gen.beta, config.dim))

    def run_one(seed):
        rec = sample_trajectory(gen, schedule, policy, rho0, seed=seed, method=config.method)
        for step, state in enumerate(rec.states, start=1):
            _check_leak(number_populations(state), step)
        return rec

    return _indexed_trajectories(config, indices, run_one)


@dataclass(frozen=True)
class CavityReport:
    """Per-step ensemble view of a stabilization run plus the raw records.

    ``stats`` holds the per-step means and standard errors of every ledger
    column, e.g. ``stats.column_means["sigma_ctrl"]``; the other arrays are
    the cavity quantities no ledger column gives.
    """

    config: CavityConfig
    records: tuple
    times: np.ndarray
    populations: np.ndarray       # (steps, dim) ensemble-average conditional populations
    mean_n_avg: np.ndarray
    var_below_fraction: np.ndarray  # fraction of trajectories with var(n) < 0.1
    stats: EnsembleReport
    efficiency: np.ndarray
    beta: float
    law_checks: dict
    totals: dict

    def population(self, n: int) -> np.ndarray:
        return self.populations[:, n]


def cavity_efficiency(report: CavityReport) -> np.ndarray:
    """Free-energy gain over resources spent, step by step.

    Resources are the integrated work put into the cavity plus the
    temperature-weighted information accumulated in the record; the gain
    is the nonequilibrium free energy relative to the initial Gibbs state.
    The average Shannon entropy of the conditional state is, by linearity,
    the mean stochastic entropy minus the accumulated mean information.
    The no-resources-yet corner reports zero.
    """
    means = report.stats.column_means
    beta = report.beta
    information = np.cumsum(means["logp_increment"])
    entropy_avg = means["s_end"] - information
    n_vec = np.arange(report.config.dim, dtype=float)
    p0 = thermal_populations(beta, report.config.dim)
    e0, s0 = float(n_vec @ p0), shannon_entropy(p0)
    delta_f = (means["e_sys_end"] - entropy_avg / beta) - (e0 - s0 / beta)
    spent = np.cumsum(means["w_ctrl_sys"]) + information / beta
    eta = np.zeros_like(delta_f)
    ok = spent > 1e-12
    eta[ok] = delta_f[ok] / spent[ok]
    return eta


def _build_report(config: CavityConfig, records: list) -> CavityReport:
    stats = ensemble_statistics(records)
    populations = stats.mean_states  # dense records hold density matrices: keep the diagonal
    if config.dense:
        populations = np.real(np.diagonal(populations, axis1=1, axis2=2))
    pops = np.array([[number_populations(s) for s in r.states] for r in records])  # (N, steps, dim)
    n_vec = np.arange(config.dim, dtype=float)
    mean_n = pops @ n_vec
    var_n = pops @ (n_vec**2) - mean_n**2
    means = stats.column_means
    report = CavityReport(
        config=config,
        records=tuple(records),
        times=np.asarray(records[0].times),
        populations=populations,
        mean_n_avg=populations @ n_vec,
        var_below_fraction=(var_n < 0.1).mean(axis=0),
        stats=stats,
        efficiency=None,
        beta=config.generator().beta,
        law_checks={},
        totals={
            "work_cavity_total": float(means["w_ctrl_sys"].sum()),
            "information_total_nats": float(means["logp_increment"].sum()),
            "atom_prep_work_total": float(
                np.mean([sum(ATOM_PREP_WORK[k] for k in r.kinds) for r in records])
            ),
            "p_target_final": float(populations[-1, config.target_nt]),
            "sensor_fraction": float(
                np.mean([[k == "sensor" for k in r.kinds] for r in records])
            ),
        },
    )
    eff = cavity_efficiency(report)  # reads only stats, beta and config
    law_checks = {
        "first_law_max_residual": max(
            float(np.abs(first_law_residual(r.ledgers)).max()) for r in records
        ),
        "sigma_seg_min": min(float(r.ledgers["sigma_seg"].min()) for r in records),
        "sigma_ctrl_avg_min": float(means["sigma_ctrl"].min()),
        "truncation_max": float(pops[:, :, config.cutoff].max()),
        "efficiency_max": float(eff.max()),
    }
    return replace(report, efficiency=eff, law_checks=law_checks)


def law_flags(law_checks: dict) -> dict:
    """The four pass/fail flags of a stabilization run's ``law_checks``."""
    return {
        "first_law_ok": law_checks["first_law_max_residual"] <= FIRST_LAW_ATOL,
        "second_law_segment_ok": law_checks["sigma_seg_min"] >= SIGMA_SEG_REPORT_FLOOR,
        "truncation_ok": law_checks["truncation_max"] <= TRUNCATION_LEAK,
        "efficiency_bounded": 0.0 <= law_checks["efficiency_max"] <= EFFICIENCY_CEILING,
    }


def run_cavity(config: CavityConfig) -> CavityReport:
    """Run the stabilization experiment and reduce it to an ensemble report."""
    chunk_fn = _dense_chunk if config.dense else _diagonal_chunk
    indices = list(range(config.trajectories))
    if config.workers <= 1 or config.trajectories < 4:
        records = chunk_fn(config, indices)
    else:
        workers = min(config.workers, config.trajectories)
        chunks = [indices[i::workers] for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(chunk_fn, [config] * workers, chunks))
        by_index: dict = {}
        for chunk, recs in zip(chunks, parts):
            for i, rec in zip(chunk, recs):
                by_index[i] = rec
        records = [by_index[i] for i in indices]
    return _build_report(config, records)
