"""Photon-number stabilization of a damped cavity by delayed atomic feedback.

A stream of two-level atoms interrogates the cavity once per step: sensor
atoms perform a dispersive (number-preserving) readout, emitter and
absorber atoms add or remove a photon via a resonant pulse.  Detection
lags by ``delay_d`` atoms, so the controller steers on a stale state
estimate and holds off for another ``delay_d`` steps after each feedback
atom.

Everything the controller sees is diagonal in the number basis, so the
production path steps bare population vectors through the engine's step
loop, held level-major: one column per trajectory, so that sums over the
levels and shifts along them are elementwise across the trajectories.  The
drift runs the engine's one banded kernel, ``lindblad._banded_product``, on
them.  The same loop on density matrices validates it and must reproduce
the same outcome sequences from the same seeds.

A run is cut into leaves of ``BLOCK_ROWS`` trajectories, and a leaf is
reduced while it is stepped: every few steps its ledger columns and
populations are closed and folded into per-step sums, so it holds no
(trajectories x steps) ledger or state history, only the outcome and kind
histories the policy reads.  A leaf's fold is its tally: the folds of a
run merge in leaf order into the one the report reads.  Trajectory 0 keeps
its full record, which ``trajectory.csv`` needs; ``keep_records`` keeps
every record, and with it every ledger.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from ..channels import Instrument, OutcomeBranch
from ..lindblad import ThermalGenerator, expm, thermal_cavity_generator
from ..lindblad import _banded_product, _diagonals, _padded_levels
from ..qmath import EIG_CLAMP, DensityOperator, shannon_entropy, _ordered_sum
from ..thermo import (EFFICIENCY_CEILING, FIRST_LAW_ATOL, LEDGER_DTYPE, SEGMENT_EP_FLOOR,
                      TRUNCATION_LEAK, ThermoError, _FLOAT_LEDGER, _average_heat, _close,
                      _law_error)
from ..trajectory import (
    ControlSchedule,
    EnsembleReport,
    FeedbackPolicy,
    Moments,
    StepPlan,
    derive_stream_seeds,
    stream_uniforms,
    _MATRICES,
    _Run,
    _block,
    _records,
    _sampled,
    _stepped,
)

# CavityPolicy hands its plans out in this order, so a run codes each kind by its
# position here, and so do the kinds a policy reads; records and output files name them.
ATOM_KINDS = ("sensor", "emitter", "absorber")
SENSOR, EMITTER, ABSORBER = range(len(ATOM_KINDS))
# Trajectories per reduction leaf.  Leaves merge in order, so this size fixes
# the rounding of the reduced outputs and how a run is split over workers.
BLOCK_ROWS = 256
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

    Ties keep measuring.  The levels add up in order, whatever the layout of the estimates.
    """
    p = np.asarray(estimate, dtype=float)
    p_target = p[..., target_nt]
    codes = np.asarray((_ordered_sum(p[..., :target_nt], -1) > p_target) * EMITTER)  # or SENSOR, 0
    codes[_ordered_sum(p[..., target_nt + 1 :], -1) > p_target] = ABSORBER
    return codes


def number_populations(states) -> np.ndarray:
    """Number-basis populations of real (..., dim) vectors or complex (..., dim, dim) matrices."""
    m = np.asarray(states)
    return np.real(np.diagonal(m, axis1=-2, axis2=-1)) if np.iscomplexobj(m) else m


class CavityPolicy(FeedbackPolicy):
    """Delayed-estimate feedback with a post-feedback hold-off window of ``delay`` steps."""

    def __init__(self, target_nt: int, delay: int, instruments: dict):
        self.target_nt = target_nt
        self.delay = delay
        # the engine's plans, from each kind's operator form, indexed by kind code
        self.plans = tuple(StepPlan(instruments[kind], kind) for kind in ATOM_KINDS)

    def plan(self, step, estimates, outcomes, kinds):
        """The steering rule's kind code for each row, on estimates as density matrices or
        population vectors; a row holds off (sends a sensor) while a feedback atom went out
        within the last ``delay`` steps, which only the rows the rule would steer look up."""
        codes = feedback_decision(number_populations(estimates), self.target_nt)
        steer = codes.nonzero()[0]  # the sensor's code is 0
        recent = kinds[steer, max(0, step - self.delay - 1):]
        codes[steer[(recent != SENSOR).any(axis=1)]] = SENSOR
        return self.plans, codes


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


class _Populations:
    """Number-basis populations, held level-major: the cavity's state representation.

    The rows' populations are the columns of one ``(dim, n)`` array, which
    lies between ``pad`` zero levels below and above in the buffer it is a
    view of (the state's ``base``); the engine holds its ``(n, dim)``
    transpose and indexes it row-first.  A sum over the levels is then an
    elementwise sum of the array's rows, each row of the result its column's
    alone, and a shift along the levels is a slice of the buffer.  Every
    segment drifts by the map of one ``step_ta`` through the one banded
    kernel, ``_banded_product``: one product of a band with a shifted slice
    per nonzero diagonal.  An atom's transfer acts, for each outcome, through
    the one nonzero diagonal of its kind's map, every row's atom in one
    call, by the kind codes ``CavityPolicy`` hands out.  Each atom outcome
    moves the cavity by a definite photon number, so a plan's work is that
    number averaged over the outcomes: exactly zero for a sensor.
    """

    fields = ("state",)

    def __init__(self, config: CavityConfig):
        rdt = classical_rate_matrix(config.generator()) * config.step_ta
        offsets, bands = _diagonals(expm(rdt) if config.exact_propagator
                                    else np.eye(len(rdt)) + rdt)
        self.dim = d = config.dim
        self.pad = pad = max(1, -offsets[0], offsets[-1])
        self.drift = offsets, bands
        # each (kind, outcome) transfer's one nonzero diagonal: its offset and its band
        stack = np.stack([atom_transfer(kind, config.target_nt, config.cutoff)
                          for kind in ATOM_KINDS])
        offsets, bands = _diagonals(stack)  # bands (kinds, outcomes, diagonals, dim)
        nonzero = bands.any(axis=-1)
        if any(row.count(True) != 1 for row in nonzero.reshape(-1, len(offsets)).tolist()):
            raise ValueError("each atom outcome must move the cavity by one photon number")
        one = nonzero.argmax(axis=-1)
        shift = np.asarray(offsets)[one].T  # (outcomes, kinds)
        band = np.take_along_axis(bands, one[..., None, None], 2)[:, :, 0]  # (kind, outcome, level)
        self.bands = band.transpose(1, 2, 0)  # (outcome, level, kind): gathered by kind per step
        # per outcome, the buffer rows each nonzero shift reads and the kinds that shift
        self.shifts = [[(slice(pad + k, pad + k + d), shift[r] == k)
                        for k in sorted(set(shift[r].tolist()) - {0})] for r in range(len(shift))]
        self.photons = -shift.astype(float)  # photons each outcome adds, by kind code
        self.n = np.arange(d, dtype=float)[:, None]

    def initial(self, rho0):
        return number_populations(rho0.matrix)

    def start(self, run, rows):
        """Lay the rows' populations out level-major; a population row has no other fields."""
        levels = _padded_levels(self.dim, self.pad, len(rows.state))
        levels[...] = rows.state.T
        rows.state = levels.T

    def energy(self, rows) -> np.ndarray:
        return _level_sum(rows.state.T * self.n)  # n . p

    def entropy(self, run, rows) -> np.ndarray:
        p = rows.state.T
        return -_level_sum(p * np.log(np.where(p > EIG_CLAMP, p, 1.0)))  # as shannon_entropy

    def propagate(self, run, rows, dt: float) -> float:
        """Drift every row by one step; a population row has no Hamiltonian to switch."""
        rows.state = _banded_product(*self.drift, rows.state.base, self.pad).T
        return 0.0

    def groups(self, run, rows, plans, which, kind) -> list:
        return [(np.arange(len(kind)), kind)]  # every row, in order

    def transfer(self, padded, kind) -> np.ndarray:
        """Joint (outcome, post level) weights ``(outcomes, dim, n)`` of atoms of kind codes
        ``kind`` on the populations of the zero-padded buffer ``padded``."""
        levels = padded[self.pad:self.pad + self.dim]
        weights = self.bands.take(kind, axis=2)
        for r, shifts in enumerate(self.shifts):
            source = levels
            for part, shifted in shifts:
                source = np.where(shifted[kind], padded[part], source)
            weights[r] *= source
        return weights

    def branches(self, run, rows, idx, kind) -> tuple:
        weights = self.transfer(rows.state.base, kind)
        probs, e_raws = _level_sum(weights, 1), _level_sum(weights * self.n, 1)
        work = (probs * self.photons.take(kind, axis=1)).sum(axis=0)

        def pick(at, branch, p):
            levels = _padded_levels(self.dim, self.pad, len(at))
            np.divide(weights[branch, :, at].T, p, out=levels)
            return {"state": levels.T}

        heat = _average_heat(probs, e_raws, rows.energy + work)
        return probs, work, e_raws, heat, (0, 1), pick


def _level_sum(a, axis: int = 0) -> np.ndarray:
    """Sum over the levels, ``axis``, of level-major ``a`` whose last axis is the rows', adding
    level by level in order.  numpy does so along an axis that is not innermost in memory;
    with one row the levels' axis is innermost, and numpy would add it pairwise."""
    return a.sum(axis=axis) if a.shape[-1] > 1 else _ordered_sum(a, axis)


# Steps a leaf's fold takes in before it reduces them: bounds the fold's memory, and spreads
# each reduction's per-call cost over that many steps.
_FOLD_STEPS = 16


class _Fold:
    """A leaf's tally, folded in as the step loop writes each step; leaves merge in order.

    The columns and number populations (level-major, as the populations are
    held) of up to ``_FOLD_STEPS`` steps wait in a window.  A full window,
    and the last, is closed (entropy productions and first-law residuals)
    and reduced: per-step ``moments`` of every ledger column (``(columns,
    steps)`` sums and M2), population sums, the count with var(n) < 0.1, the
    atoms sent by kind (counted from the rows' kind history) and the
    extremes.  Each number is the one a reduction of the whole leaf's ``(n,
    steps)`` arrays over its rows gives, bit for bit: a sum over the rows in
    row order, a count or an extreme.  Of the failures it holds the lowest
    failing row's first, for a broken law and for a leak apart.  ``close``
    keeps the leaf's records and drops the window; ``merge`` then folds in
    the next leaf.
    """

    def __init__(self, run: _Run, n: int):
        steps, dim = run.schedule.n_steps, len(run.state0)
        width = min(_FOLD_STEPS, steps)
        self.beta, self.steps = run.gen.beta, steps
        self.n_vec = np.arange(dim, dtype=float)[:, None]
        self.window = np.empty((n, width, len(LEDGER_DTYPE)))
        self.pops = np.empty((width, dim, n))
        self.moments = Moments(n, *np.empty((2, len(LEDGER_DTYPE), steps)))
        self.populations, self.narrow = np.empty((steps, dim)), np.empty(steps, np.int64)
        self.atoms = np.zeros(len(ATOM_KINDS), np.int64)  # atoms sent, by kind code
        self.first_law_max, self.sigma_seg_min, self.truncation_max = -np.inf, np.inf, -np.inf
        self.law = self.leak = None  # (row, error) of the lowest row failing so far
        self.records = []

    def __call__(self, rows, k: int):
        j = k % self.window.shape[1]
        self.window[:, j] = rows.columns
        self.pops[j] = number_populations(rows.state).T
        if j + 1 == self.window.shape[1] or k + 1 == self.steps:
            self._reduce(slice(k - j, k + 1), rows.kinds)

    def _reduce(self, at: slice, kinds):
        """Close and reduce the window's steps ``at``; ``kinds`` is the rows' kind history."""
        width = at.stop - at.start
        block, pops = self.window[:, :width], self.pops[:width]
        led = block.view(_FLOAT_LEDGER)[..., 0]
        residual, seg_bad, bad = _close(led, self.beta)
        self.first_law_max = np.maximum(self.first_law_max, np.abs(residual).max())
        self.sigma_seg_min = np.minimum(self.sigma_seg_min, led["sigma_seg"].min())
        failing = bad.any(axis=1)
        if failing.any() and (self.law is None or failing.argmax() < self.law[0]):
            i = int(failing.argmax())
            self.law = i, _law_error(led, residual, seg_bad, (i, int(bad[i].argmax())))
        moments = Moments.of(block, out=block)  # the window's last use: deviations in place
        self.moments.sums[:, at], self.moments.m2[:, at] = moments.sums.T, moments.m2.T
        self.atoms += np.bincount(kinds[:, at].ravel(), minlength=len(ATOM_KINDS))
        # elementwise sums over the levels: a matrix-vector product's last bit depends on
        # the window's shape; the rows add up in row order, each a block of a row-major copy
        mean_n = _ordered_sum(pops * self.n_vec, 1)
        self.populations[at] = np.ascontiguousarray(pops.transpose(2, 0, 1)).sum(axis=0)
        var_n = _ordered_sum(pops * self.n_vec**2, 1) - mean_n**2
        self.narrow[at] = np.count_nonzero(var_n < 0.1, axis=1)
        top = pops[:, -1]  # (steps, rows)
        self.truncation_max = np.maximum(self.truncation_max, top.max())
        leaking = top > TRUNCATION_LEAK
        failing = leaking.any(axis=0)
        if failing.any() and (self.leak is None or failing.argmax() < self.leak[0]):
            i = int(failing.argmax())
            s = int(leaking[:, i].argmax())
            self.leak = i, (f"population {top[s, i]:.2e} at the cutoff level "
                            f"on step {at.start + s + 1}")

    def check(self, indices):
        """Raise the failure of the lowest failing row, named as trajectory ``indices[row]``;
        a leak before a broken law."""
        if self.law is not None and (self.leak is None or self.law[0] < self.leak[0]):
            row, exc = self.law
            raise ThermoError(f"trajectory {indices[row]}: {exc}") from exc
        if self.leak is not None:
            row, message = self.leak
            raise TruncationLeakError(f"trajectory {indices[row]}: {message}")

    def close(self, records) -> "_Fold":
        """Keep the leaf's ``records`` and drop the window: what a leaf hands back."""
        self.records, self.window, self.pops = list(records), None, None
        return self

    def merge(self, other: "_Fold") -> "_Fold":
        """Fold in the closed tally of the next leaf, ``other``."""
        self.moments = self.moments.merge(other.moments)
        self.populations += other.populations
        self.narrow += other.narrow
        self.atoms += other.atoms
        self.first_law_max = max(self.first_law_max, other.first_law_max)
        self.sigma_seg_min = min(self.sigma_seg_min, other.sigma_seg_min)
        self.truncation_max = max(self.truncation_max, other.truncation_max)
        self.records += other.records
        return self


def _chunk(config: CavityConfig, indices, keep_records: bool, rep) -> _Fold:
    """Tally trajectories ``indices``, each on its own stream, stepped on representation
    ``rep`` and reduced step by step.  It fails as one trajectory at a time would: at the
    lowest failing one, with a leak before a broken law.  Records are kept for every
    trajectory, or for trajectory 0's alone, which ``trajectory.csv`` needs; no other
    history outlives the fold's window."""
    gen = config.generator()
    instruments = {kind: atom_instrument(kind, config.target_nt, config.cutoff)
                   for kind in ATOM_KINDS}
    policy = CavityPolicy(config.target_nt, config.delay_d, instruments=instruments)
    schedule = ControlSchedule.uniform(config.steps, config.step_ta)
    rho0 = DensityOperator.from_diagonal(thermal_populations(gen.beta, config.dim))
    run = _Run(gen, schedule, policy, rho0, rep, method=config.method)
    uniforms = stream_uniforms(derive_stream_seeds(config.seed, indices), config.steps)
    fold = _Fold(run, len(indices))
    kept = len(indices) if keep_records else int(indices[0] == 0)
    rows = _stepped(run, len(indices), _sampled(uniforms), kept=kept, fold=fold)
    fold.check(indices)
    return fold.close(_records(_block(run, rows), schedule.times))


def _diagonal_chunk(config: CavityConfig, indices, *, keep_records: bool = True) -> _Fold:
    """Sample trajectories ``indices`` on number-basis populations, the production path."""
    return _chunk(config, indices, keep_records, _Populations(config))


def _dense_chunk(config: CavityConfig, indices, *, keep_records: bool = True) -> _Fold:
    """``_diagonal_chunk`` on density matrices, the oracle of the population path."""
    return _chunk(config, indices, keep_records, _MATRICES)


@dataclass(frozen=True)
class CavityReport:
    """Per-step ensemble view of a stabilization run plus raw records.

    ``stats`` holds the per-step means and standard errors of every ledger
    column, e.g. ``stats.column_means["sigma_ctrl"]``; the other arrays are
    the cavity quantities no ledger column gives; ``populations`` is the
    diagonal of the mean state.  ``records`` holds every trajectory in
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


def _build_report(config: CavityConfig, fold: _Fold) -> CavityReport:
    n = fold.moments.n
    populations = fold.populations / n
    stats = EnsembleReport(
        n_records=n,
        column_means=dict(zip(LEDGER_DTYPE.names, fold.moments.mean)),
        column_se=dict(zip(LEDGER_DTYPE.names, fold.moments.se)),
    )
    n_vec = np.arange(config.dim, dtype=float)
    means = stats.column_means
    report = CavityReport(
        config=config,
        records=tuple(fold.records),
        times=np.asarray(fold.records[0].times),
        populations=populations,
        mean_n_avg=populations @ n_vec,
        var_below_fraction=fold.narrow / n,
        stats=stats,
        efficiency=None,
        beta=config.generator().beta,
        law_checks={},
        totals={
            "work_cavity_total": float(means["w_ctrl_sys"].sum()),
            "information_total_nats": float(means["logp_increment"].sum()),
            "atom_prep_work_total": float(fold.atoms @ ATOM_PREP_WORK) / n,
            "p_target_final": float(populations[-1, config.target_nt]),
            "sensor_fraction": int(fold.atoms[SENSOR]) / (n * config.steps),
        },
    )
    eff = cavity_efficiency(report)  # reads only stats, beta and config
    law_checks = {
        "first_law_max_residual": float(fold.first_law_max),
        "sigma_seg_min": float(fold.sigma_seg_min),
        "sigma_ctrl_avg_min": float(means["sigma_ctrl"].min()),
        "truncation_max": float(fold.truncation_max),
        "efficiency_max": float(eff.max()),
    }
    return replace(report, efficiency=eff, law_checks=law_checks)


def law_flags(law_checks: dict) -> dict:
    """The four pass/fail flags of a run's ``law_checks``, against ``thermo``'s bounds.  The fold
    raises at the first three, so a finished run can fail the efficiency flag alone."""
    return {
        "first_law_ok": law_checks["first_law_max_residual"] <= FIRST_LAW_ATOL,
        "second_law_segment_ok": law_checks["sigma_seg_min"] >= SEGMENT_EP_FLOOR,
        "truncation_ok": law_checks["truncation_max"] <= TRUNCATION_LEAK,
        "efficiency_bounded": 0.0 <= law_checks["efficiency_max"] <= EFFICIENCY_CEILING,
    }


def run_cavity(config: CavityConfig, *, keep_records: bool = True) -> CavityReport:
    """Run the stabilization experiment and reduce it to an ensemble report.

    Trajectories are sampled in blocks of ``BLOCK_ROWS``, and each block is
    reduced by its fold while it is sampled.  Folds merge in block
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
        return _build_report(config, functools.reduce(_Fold.merge, map(sample, configs, blocks)))
    from concurrent.futures import ProcessPoolExecutor  # loaded only by pooled runs

    with ProcessPoolExecutor(max_workers=min(config.workers, len(blocks))) as pool:
        fold = functools.reduce(_Fold.merge, pool.map(sample, configs, blocks))
    return _build_report(config, fold)
