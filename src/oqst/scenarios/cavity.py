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

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from ..channels import Instrument, OutcomeBranch
from ..lindblad import ThermalGenerator, expm, thermal_cavity_generator
from ..qmath import DensityOperator, shannon_entropy
from ..thermo import (
    FIRST_LAW_ATOL, LEDGER_DTYPE, ThermoError, entropy_production_step, first_law_residual,
)
from ..trajectory import (
    BLOCK_ROWS,
    ControlSchedule,
    EnsembleReport,
    FeedbackPolicy,
    Moments,
    StepPlan,
    choose_branch,
    derive_stream_seed,
    sample_ensemble,
    stream_uniforms,
    _record,
)

# Atom kinds are their positions in ATOM_KINDS inside the samplers; the
# names appear only in records and output files.
ATOM_KINDS = ("sensor", "emitter", "absorber")
SENSOR, EMITTER, ABSORBER = range(len(ATOM_KINDS))
TRUNCATION_LEAK = 1e-6
# Rounding allowances of the reported law flags (see ``law_flags``).
SIGMA_SEG_REPORT_FLOOR = -1e-10
EFFICIENCY_CEILING = 1.0 + 1e-9
# Ramsey preparation puts sensor atoms in an equal superposition (half a
# quantum), emitters are prepared excited, absorbers stay in the ground
# state; informational only, never part of the efficiency.  By kind code.
ATOM_PREP_WORK = np.array([0.5, 1.0, 0.0])


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


def feedback_decision(estimate, target_nt: int) -> np.ndarray:
    """Kind code(s) of the steering rule on population estimates over the last axis.

    Ties keep measuring.
    """
    p = np.asarray(estimate, dtype=float)
    p_target = p[..., target_nt]
    return np.where(p[..., target_nt + 1 :].sum(axis=-1) > p_target, ABSORBER,
                    np.where(p[..., :target_nt].sum(axis=-1) > p_target, EMITTER, SENSOR))


def kind_codes(kinds) -> np.ndarray:
    """Codes of an array of atom-kind names."""
    return np.vectorize(ATOM_KINDS.index, otypes=[np.int8])(kinds)


def number_populations(states) -> np.ndarray:
    """Number-basis populations of (steps, dim) population vectors or (steps, dim, dim) matrices."""
    m = np.asarray(states)
    return np.real(np.diagonal(m, axis1=-2, axis2=-1)) if m.ndim == 3 else np.real(m)


class CavityPolicy(FeedbackPolicy):
    """Delayed-estimate feedback with a post-feedback hold-off window of ``delay`` steps."""

    def __init__(self, target_nt: int, delay: int, instruments: dict | None = None):
        self.target_nt = target_nt
        self.delay = delay
        # the engine's plans, from each kind's operator form, indexed by ``decide``'s codes
        self.plans = (tuple(StepPlan(instruments[kind], kind) for kind in ATOM_KINDS)
                      if instruments else ())

    def decide(self, step: int, populations, kinds) -> np.ndarray:
        """Atom kind code(s) for ``step`` from ``(..., dim)`` population estimates.

        ``kinds`` lists the codes of the kinds sent so far, step first: a
        sequence for one trajectory, a ``(step - 1, ...)`` array for a batch.
        """
        # hold off iff a feedback atom went out within the last `delay` steps
        recent = np.asarray(kinds[max(0, step - self.delay - 1) : step - 1], dtype=np.int8)
        held = (recent != SENSOR).any(axis=0)
        return np.where(held, SENSOR, feedback_decision(populations, self.target_nt))

    def plan(self, step, estimates, outcomes, kinds):
        if not self.plans:
            raise RuntimeError("policy was built without instrument operators")
        # decide reads only the kinds sent after step `first`, so only those are coded
        first = max(0, step - self.delay - 1)
        codes = kind_codes(kinds[:, first:]).T
        return self.plans, self.decide(step - first, number_populations(estimates), codes)


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


def _check_leak(populations, i: int) -> None:
    """Raise ``TruncationLeakError`` on the first step of trajectory ``i``'s (steps, dim)
    populations whose cutoff level holds more than ``TRUNCATION_LEAK``."""
    top = populations[:, -1]
    leaking = top > TRUNCATION_LEAK
    if leaking.any():
        k = int(np.argmax(leaking))
        raise TruncationLeakError(
            f"trajectory {i}: population {top[k]:.2e} at the cutoff level on step {k + 1}"
        )


def _close_chunk(ledger, pops, indices, beta: float):
    """Close a chunk's ``(n, steps)`` ledgers in one call and check its ``(n, steps, dim)``
    populations for leaks, failing as a run one trajectory at a time would: the
    lowest failing trajectory, and on it a leak before a broken law."""
    leaks = np.flatnonzero((pops[:, :, -1] > TRUNCATION_LEAK).any(axis=1))
    try:
        entropy_production_step(ledger, beta)
    except ThermoError as exc:
        if not leaks.size or exc.row < leaks[0]:
            raise ThermoError(f"trajectory {indices[exc.row]}: {exc}") from exc
    if leaks.size:
        _check_leak(pops[leaks[0]], indices[leaks[0]])


def _diagonals(m) -> tuple:
    """Offsets ``k`` of the nonzero diagonals of (..., d, d) matrices ``m``, in ascending
    order, and their bands ``b[..., j, i] = m[..., i, i + k[j]]`` (zero off the matrix)."""
    d = m.shape[-1]
    offsets = [k for k in range(1 - d, d) if np.diagonal(m, k, -2, -1).any()]
    bands = np.zeros(m.shape[:-2] + (len(offsets), d))
    for j, k in enumerate(offsets):
        bands[..., j, max(0, -k) : d - max(0, k)] = np.diagonal(m, k, -2, -1)
    return offsets, bands


def _diagonal_product(offsets, bands, p) -> np.ndarray:
    """``m @ p`` over the last axis of ``p`` for ``offsets, bands = _diagonals(m)``.

    A shifted elementwise product per diagonal, summed in offset order, so
    each row's result depends on that row alone.
    """
    d = p.shape[-1]
    lo = max(0, -offsets[0])
    padded = np.zeros(p.shape[:-1] + (lo + d + max(0, offsets[-1]),))
    padded[..., lo : lo + d] = p
    out = bands[..., 0, :] * padded[..., lo + offsets[0] : lo + offsets[0] + d]
    for j, k in enumerate(offsets[1:], 1):
        out += bands[..., j, :] * padded[..., lo + k : lo + k + d]
    return out


@dataclass(frozen=True)
class _Tally:
    """What the report needs of a block of trajectories; blocks merge in order."""

    columns: dict            # ledger column -> Moments over trajectories, per step
    populations: np.ndarray  # (steps, dim) number populations summed over trajectories
    narrow: np.ndarray       # (steps,) trajectories with var(n) < 0.1
    sensors: int             # sensor atoms sent
    prep_work: float         # atom preparation work summed over trajectories
    first_law_max: float     # largest |first-law residual|
    sigma_seg_min: float
    truncation_max: float    # largest population at the cutoff level
    records: list

    @classmethod
    def of(cls, ledger, pops, kinds, records) -> "_Tally":
        """A block's tally from its closed (n, steps) ledgers, (n, steps, dim) number
        populations and (n, steps) kind codes, keeping ``records``."""
        n_vec = np.arange(pops.shape[-1], dtype=float)
        mean_n = pops @ n_vec
        var_n = pops @ (n_vec**2) - mean_n**2
        return cls(
            columns={col: Moments.of(ledger[col]) for col in LEDGER_DTYPE.names},
            populations=pops.sum(axis=0),
            narrow=(var_n < 0.1).sum(axis=0),
            sensors=int((kinds == SENSOR).sum()),
            prep_work=float(ATOM_PREP_WORK[kinds].sum()),
            first_law_max=float(np.abs(first_law_residual(ledger)).max()),
            sigma_seg_min=float(ledger["sigma_seg"].min()),
            truncation_max=float(pops[:, :, -1].max()),
            records=list(records),
        )

    def merge(self, other: "_Tally") -> "_Tally":
        return _Tally(
            columns={col: m.merge(other.columns[col]) for col, m in self.columns.items()},
            populations=self.populations + other.populations,
            narrow=self.narrow + other.narrow,
            sensors=self.sensors + other.sensors,
            prep_work=self.prep_work + other.prep_work,
            first_law_max=max(self.first_law_max, other.first_law_max),
            sigma_seg_min=min(self.sigma_seg_min, other.sigma_seg_min),
            truncation_max=max(self.truncation_max, other.truncation_max),
            records=self.records + other.records,
        )


def _kept(record, indices, keep_records: bool) -> list:
    """A block's records to keep, built by ``record(j)`` for row ``j``: every row's,
    or trajectory 0's alone, which ``trajectory.csv`` needs, copied so that it
    does not pin the block's arrays."""
    if keep_records:
        return [record(j) for j in range(len(indices))]
    return [replace(rec, ledgers=rec.ledgers.copy(), states=rec.states.copy(),
                    final_state=rec.final_state.copy())
            for rec in map(record, range(int(indices[0] == 0)))]


def _diagonal_chunk(config: CavityConfig, indices, *, keep_records: bool = True) -> _Tally:
    """Sample the population path of trajectories ``indices`` in one pass over the steps.

    Each trajectory draws its uniforms from its own stream, and every
    per-trajectory number comes from elementwise products and last-axis
    sums, so a trajectory does not depend on the block it was sampled in.
    The drift map and the atom transfers act through their nonzero
    diagonals: the first-order map is tridiagonal, each transfer has at
    most one off-diagonal, and the dense exact map takes the same route.
    """
    gen = config.generator()
    rates = classical_rate_matrix(gen)
    if config.exact_propagator:
        step_map = expm(rates * config.step_ta)
    else:
        step_map = np.eye(config.dim) + rates * config.step_ta
    drift = _diagonals(step_map)
    # bands of every kind's (2, dim, dim) transfer, indexed by kind code
    dense = np.stack([atom_transfer(kind, config.target_nt, config.cutoff) for kind in ATOM_KINDS])
    offsets, transfers = _diagonals(dense)
    n_vec = np.arange(config.dim, dtype=float)
    # each kind's work from level m, sum_i (n_i - n_m) (M0 + M1)[i, m]; exactly 0 for sensors
    shift = ((n_vec[:, None] - n_vec) * dense.sum(axis=1)).sum(axis=-2)
    policy = CavityPolicy(config.target_nt, config.delay_d)
    n, steps, delay = len(indices), config.steps, config.delay_d
    uniforms = stream_uniforms([derive_stream_seed(config.seed, i) for i in indices], steps)
    p0 = thermal_populations(gen.beta, config.dim)
    p = np.tile(p0, (n, 1))
    states = np.empty((n, steps, config.dim))
    kinds = np.empty((steps, n), dtype=np.int8)
    ledger = np.zeros((n, steps), dtype=LEDGER_DTYPE)
    ledger["step"] = np.arange(1, steps + 1)
    rows = np.arange(n)
    log_prob = np.zeros(n)
    e_start, s_start = (n_vec * p).sum(axis=-1), shannon_entropy(p)
    for k in range(steps):
        p_mid = _diagonal_product(*drift, p)
        e_pre = (n_vec * p_mid).sum(axis=-1)
        s_pre = log_prob + shannon_entropy(p_mid)
        estimate = p_mid if delay == 0 else (states[:, k - delay] if k >= delay else p0)
        kind = policy.decide(k + 1, estimate, kinds[:k])
        # joint (outcome, post level) weights of the step
        weights = _diagonal_product(offsets, transfers[kind], p_mid[:, None, :])
        probs = weights.sum(axis=-1)
        w_ctrl = (shift[kind] * p_mid).sum(axis=-1)
        e_avg_post = e_pre + w_ctrl
        label = choose_branch(probs, uniforms[:, k])
        prob = probs[rows, label]
        post = weights[rows, label] / prob[:, None]
        e_end = (n_vec * post).sum(axis=-1)
        logp_inc = -np.log(prob) + 0.0  # avoid -0.0 for certain outcomes
        log_prob = log_prob + logp_inc
        s_end = log_prob + shannon_entropy(post)
        row = ledger[:, k]  # the sigma columns are filled on closing
        row["outcome"], row["logp_increment"] = label, logp_inc
        row["e_sys_start"], row["e_sys_pre"], row["e_sys_end"] = e_start, e_pre, e_end
        row["q_seg"], row["w_ctrl_sys"], row["q_ctrl_sys"] = (
            e_pre - e_start, w_ctrl, e_end - e_avg_post
        )
        row["s_start"], row["s_pre"], row["s_end"] = s_start, s_pre, s_end
        states[:, k] = post
        kinds[k] = kind
        p, e_start, s_start = post, e_end, s_end

    _close_chunk(ledger, states, indices, gen.beta)
    ledger = ledger.view(np.recarray)
    times = tuple((i + 1) * config.step_ta for i in range(steps))
    names = np.array(ATOM_KINDS, dtype=object)  # one str object per kind

    def record(j):
        return _record(ledger[j].outcome.tolist(), names[kinds[:, j]], float(log_prob[j]),
                       ledger[j], states[j], states[j, -1], times)

    return _Tally.of(ledger, states, kinds.T, _kept(record, indices, keep_records))


def _dense_chunk(config: CavityConfig, indices, *, keep_records: bool = True) -> _Tally:
    """``_diagonal_chunk`` on the density-matrix path of the generic engine."""
    gen = config.generator()
    instruments = {
        kind: atom_instrument(kind, config.target_nt, config.cutoff) for kind in ATOM_KINDS
    }
    policy = CavityPolicy(config.target_nt, config.delay_d, instruments=instruments)
    schedule = ControlSchedule.uniform(config.steps, config.step_ta)
    rho0 = DensityOperator.from_diagonal(thermal_populations(gen.beta, config.dim))
    seeds = [derive_stream_seed(config.seed, i) for i in indices]
    records = []
    try:
        for i, rec in zip(indices, sample_ensemble(gen, schedule, policy, rho0, seeds,
                                                   method=config.method)):
            _check_leak(number_populations(rec.states), i)
            records.append(rec)
    except ThermoError as exc:  # a broken law in the block after the records checked so far
        if exc.row is None:
            raise
        raise ThermoError(f"trajectory {indices[exc.row]}: {exc}") from exc
    return _Tally.of(
        np.stack([r.ledgers for r in records]),
        np.stack([number_populations(r.states) for r in records]),
        kind_codes([r.kinds for r in records]),
        _kept(records.__getitem__, indices, keep_records),
    )


@dataclass(frozen=True)
class CavityReport:
    """Per-step ensemble view of a stabilization run plus raw records.

    ``stats`` holds the per-step means and standard errors of every ledger
    column, e.g. ``stats.column_means["sigma_ctrl"]``; the other arrays are
    the cavity quantities no ledger column gives.  ``stats.mean_states`` is
    None: the run reduces number populations only, and ``populations`` is
    the diagonal of the mean state.  ``records`` holds every trajectory in
    order, or trajectory 0 alone (see ``run_cavity``).
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


def _build_report(config: CavityConfig, tally: _Tally) -> CavityReport:
    n = tally.columns["step"].n
    populations = tally.populations / n
    stats = EnsembleReport(
        n_records=n,
        column_means={col: m.mean for col, m in tally.columns.items()},
        column_se={col: m.se for col, m in tally.columns.items()},
        mean_states=None,  # the report's `populations` are the diagonal of the mean state
    )
    n_vec = np.arange(config.dim, dtype=float)
    means = stats.column_means
    report = CavityReport(
        config=config,
        records=tuple(tally.records),
        times=np.asarray(tally.records[0].times),
        populations=populations,
        mean_n_avg=populations @ n_vec,
        var_below_fraction=tally.narrow / n,
        stats=stats,
        efficiency=None,
        beta=config.generator().beta,
        law_checks={},
        totals={
            "work_cavity_total": float(means["w_ctrl_sys"].sum()),
            "information_total_nats": float(means["logp_increment"].sum()),
            "atom_prep_work_total": tally.prep_work / n,
            "p_target_final": float(populations[-1, config.target_nt]),
            "sensor_fraction": tally.sensors / (n * config.steps),
        },
    )
    eff = cavity_efficiency(report)  # reads only stats, beta and config
    law_checks = {
        "first_law_max_residual": tally.first_law_max,
        "sigma_seg_min": tally.sigma_seg_min,
        "sigma_ctrl_avg_min": float(means["sigma_ctrl"].min()),
        "truncation_max": tally.truncation_max,
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


def run_cavity(config: CavityConfig, *, keep_records: bool = True) -> CavityReport:
    """Run the stabilization experiment and reduce it to an ensemble report.

    Trajectories are sampled in blocks of ``BLOCK_ROWS``, and each block is
    reduced to a tally as soon as it is sampled.  Tallies merge in block
    order, so the report is bit-identical for any ``workers``, which only
    spreads runs of two blocks or more over processes: a block is never cut,
    and a one-block run stays in-process.  The report's records are every
    trajectory's with ``keep_records``, else trajectory 0's alone.
    """
    n = config.trajectories
    bounds = [*range(0, n, BLOCK_ROWS), n]
    blocks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    sample = functools.partial(_dense_chunk if config.dense else _diagonal_chunk,
                               keep_records=keep_records)
    configs = [config] * len(blocks)
    if config.workers <= 1 or len(blocks) == 1:
        return _build_report(config, functools.reduce(_Tally.merge, map(sample, configs, blocks)))
    from concurrent.futures import ProcessPoolExecutor  # loaded only by pooled runs

    with ProcessPoolExecutor(max_workers=min(config.workers, len(blocks))) as pool:
        tally = functools.reduce(_Tally.merge, pool.map(sample, configs, blocks))
    return _build_report(config, tally)
