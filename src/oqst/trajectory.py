"""Trajectory engine: drift segments interleaved with control operations.

A run alternates Lindblad propagation with instrument applications chosen
by a feedback policy from a delayed state estimate.  Outcomes are sampled
by inverse CDF from a counter-based per-trajectory stream, replayed from a
given sequence, or the whole outcome tree is enumerated exactly.  All
three step a batch of trajectories, held in columns, through one kernel
that asks the policy once per step, so the sampler can be checked against
the enumeration oracle.

State tracking is system-only until an instrument with more than one
Kraus operator per outcome shows up; the units of such operations stay
mixed and correlated, so from then on they are kept in an exact joint
state (up to ``max_units`` of them).  Units of single-Kraus operations
end in a pure product factor and never need tracking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# numpy loads numpy.random on first attribute access; load it with the engine instead
from numpy.random import Generator, Philox

from .channels import COMPLETENESS_ATOL, IMPOSSIBLE_BRANCH, Instrument, stinespring_dilate
from .lindblad import ThermalGenerator, _propagate_matrix
from .qmath import (
    DensityOperator,
    density_spectrum,
    hermitize,
    shannon_entropy,
    von_neumann_entropy,
    _expectation,
    _partial_trace_matrix,
    _trace,
)
from .thermo import (
    LEDGER_DTYPE,
    ThermoError,
    entropy_production_step,
    system_energetics,
    unit_energetics,
)

MAX_TREE_LEAVES = 10**6


class EngineError(RuntimeError):
    """Raised for broken run configurations or impossible branch selections."""


# ---------------------------------------------------------------------------
# Seeding: counter-based per-trajectory streams.

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x &= _M64
    z = (x + _GOLDEN) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def derive_stream_seed(master_seed: int, index: int) -> int:
    """Per-trajectory seed from (master seed, trajectory index).

    Uses the splitmix64 output stream so ensembles are order-independent
    and safe to farm out to workers.
    """
    return _splitmix64((master_seed & _M64) + ((index + 1) * _GOLDEN & _M64))


_M128 = (1 << 128) - 1


def stream_rng(seed: int) -> Generator:
    """Counter-based generator for one trajectory."""
    return Generator(Philox(key=seed & _M128))


def stream_uniforms(seeds, steps: int) -> np.ndarray:
    """``stream_rng(seed).random(steps)`` for each seed, as the rows of an (N, steps) array.

    One Philox bit generator is re-keyed for every seed (counter 0, empty
    buffer), which draws the same numbers as a fresh ``stream_rng`` without
    the OS entropy a fresh generator gathers for its unused seed sequence.
    The state is one dict of Python ints with its key rewritten in place,
    which the state setter reads faster than fresh arrays.
    """
    bits = Philox(key=0)
    draw = Generator(bits)
    key = [0, 0]
    state = {
        "bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    out = np.empty((len(seeds), steps))
    for row, seed in zip(out, seeds):
        key[0], key[1] = seed & _M64, (seed & _M128) >> 64
        bits.state = state
        draw.random(out=row)
    return out


def choose_branch(probs, u):
    """Inverse-CDF pick over the last axis in ascending label order.

    Ties go to the lower label, and a pick that lands on a sub-floor branch
    walks back to the nearest lower viable one.  ``probs`` of shape
    ``(..., k)`` with uniforms ``u`` of shape ``(...)`` give labels of
    shape ``(...)``.
    """
    probs = np.asarray(probs, dtype=float)
    cum = probs.cumsum(axis=-1)
    if (cum[..., -1] < 1e-12).any():
        raise EngineError("no branch carries probability mass; broken instrument")
    k = probs.shape[-1]
    # labels at or below the searchsorted(side="right") position, capped at k - 1
    reach = np.arange(k) <= (cum <= np.asarray(u)[..., None]).sum(axis=-1, keepdims=True)
    viable = reach & (probs >= IMPOSSIBLE_BRANCH)
    if not viable.any(axis=-1).all():
        raise EngineError("impossible-branch selection; broken instrument")
    return k - 1 - viable[..., ::-1].argmax(axis=-1)


# ---------------------------------------------------------------------------
# Schedules, policies, records.


@dataclass(frozen=True)
class ControlSchedule:
    """Strictly increasing control times, optionally with a trailing horizon."""

    times: tuple
    t0: float = 0.0
    t_final: float | None = None

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if times and times[0] <= self.t0:
            raise EngineError("first control time must exceed t0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise EngineError("control times must be strictly increasing")
        if self.t_final is not None:
            last = times[-1] if times else self.t0
            if self.t_final < last:
                raise EngineError("t_final precedes the last control time")
        object.__setattr__(self, "times", times)

    @classmethod
    def uniform(cls, steps: int, dt: float, t0: float = 0.0) -> "ControlSchedule":
        return cls(times=tuple(t0 + dt * (i + 1) for i in range(steps)), t0=t0)

    @property
    def n_steps(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class StepPlan:
    """Policy output for one control: which instrument, plus bookkeeping tags.

    ``next_hamiltonian`` requests a sudden protocol switch right after this
    control; ``h_unit`` gives the current unit an energy scale (the default
    is an energetically neutral unit).
    """

    instrument: Instrument
    kind: str | None = None
    next_hamiltonian: np.ndarray | None = None
    h_unit: np.ndarray | None = None


class FeedbackPolicy:
    """Deterministic rule planning control ``step`` for every row of a batch in one call.

    ``plan`` gets the rows' delayed estimates ``(n, d, d)`` and their outcome
    labels and plan kinds so far, each ``(n, step - 1)``; it returns a
    sequence of ``StepPlan`` and an ``(n,)`` integer array indexing it, the
    plan of each row, which must be a pure function of that row's arguments.
    ``delay`` selects which past post-control state the estimate is; with
    delay 0 it is the current pre-control state.
    """

    delay: int = 0

    def plan(self, step: int, estimates, outcomes, kinds) -> tuple:
        raise NotImplementedError


class FixedPolicy(FeedbackPolicy):
    """Applies a pre-decided sequence of plans, ignoring outcomes."""

    def __init__(self, plans):
        self._plans = [
            p if isinstance(p, StepPlan) else StepPlan(instrument=p) for p in plans
        ]

    def plan(self, step, estimates, outcomes, kinds):
        return (self._plans[step - 1],), np.zeros(len(estimates), dtype=int)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Outcome sequence with its ledger and conditional boundary states.

    ``ledgers`` is a ``LEDGER_DTYPE`` record array, one row per step: rows
    iterate with attribute access, columns index by name.
    """

    outcomes: tuple
    kinds: tuple
    log_prob: float
    ledgers: np.recarray
    states: np.ndarray  # (steps, ...) post-control conditional system states
    final_state: np.ndarray
    times: tuple

    def __post_init__(self):
        if self.log_prob < -1e-12:
            raise EngineError("log_prob must be nonnegative")
        if len(self.ledgers) != len(self.outcomes):
            raise EngineError("ledger count must equal outcome count")

    @property
    def probability(self) -> float:
        return float(np.exp(-self.log_prob))


# ---------------------------------------------------------------------------
# The batched stepping kernel shared by sampling, replay and enumeration.

# Rows sampled together.  Every per-row number comes from that row's own
# elementwise products, last-axis sums and eigvalsh, so a record depends
# neither on this size nor on its batch-mates; the size bounds memory only.
BLOCK_ROWS = 256


class _Run:
    """The inputs all rows share, with the keywords of :func:`sample_ensemble`."""

    def __init__(self, gen, schedule, policy, rho0, *, method="exact", substeps=1,
                 retain_efficient_units=False, max_units=4, store_states=True,
                 hamiltonian0=None):
        if rho0.dim != gen.dim:
            raise EngineError("initial state dimension does not match generator")
        if substeps < 1:
            raise EngineError("substeps must be positive")
        self.gen, self.schedule, self.policy, self.rho0 = gen, schedule, policy, rho0
        self.method, self.substeps, self.max_units = method, substeps, max_units
        self.retain, self.store_states = retain_efficient_units, store_states
        self.h0 = gen.hamiltonian if hamiltonian0 is None else np.asarray(hamiltonian0, complex)
        self.units = {(): 0}  # code of each tracked-unit signature, in code order


class _Rows:
    """Per-row state of trajectories stepped together; the row leads every array.

    ``kinds`` holds the plan kinds so far, ``joint`` a row's state of system
    and tracked units (None while only the system is tracked), ``units`` the
    code in ``run.units`` of those units' dimensions, nearest first, and
    ``pending`` the Hamiltonian its next segment switches to.
    """

    def __init__(self, run: _Run, n: int):
        d, steps = run.gen.dim, run.schedule.n_steps
        self.mat = np.repeat(run.rho0.matrix[None], n, axis=0)
        self.h = np.repeat(run.h0[None], n, axis=0)
        self.log_prob, self.prob = np.zeros(n), np.ones(n)
        self.s_prev = np.full(n, von_neumann_entropy(run.rho0.matrix))
        self.energetic = np.zeros(n, dtype=bool)
        self.ledger = np.zeros((n, steps), dtype=LEDGER_DTYPE)
        self.ledger["step"] = np.arange(1, steps + 1)
        # post-control states, for the records and for delayed estimates
        kept = steps if run.store_states or run.policy.delay > 0 else 0
        self.states = np.empty((n, kept, d, d), dtype=complex)
        self.kinds, self.units = np.empty((n, steps), dtype=object), np.zeros(n, dtype=int)
        self.joint, self.pending = [None] * n, [None] * n

    def take(self, parent) -> "_Rows":
        """The rows ``parent``, in that order; a row may repeat."""
        new = _Rows.__new__(_Rows)
        for key, value in vars(self).items():
            setattr(new, key, value[parent] if isinstance(value, np.ndarray)
                    else [value[i] for i in parent])
        return new


def _by_units(run: _Run, rows: _Rows) -> list:
    """(tracked unit dimensions, row positions) of each group of rows that share them."""
    table = list(run.units)
    return [(table[c], np.flatnonzero(rows.units == c)) for c in np.unique(rows.units)]


def _apply_superop_factor0(superop: np.ndarray, joint: np.ndarray, d0: int) -> np.ndarray:
    """The system step map ``superop`` on (N, D, D) joint states of system ⊗ units."""
    n, big = joint.shape[0], joint.shape[-1]
    rest = big // d0
    t = joint.reshape(n, d0, rest, d0, rest).transpose(0, 2, 4, 1, 3)
    out = np.multiply(superop, t.reshape(n, rest, rest, 1, d0 * d0), order="C").sum(-1)
    return out.reshape(n, rest, rest, d0, d0).transpose(0, 3, 1, 4, 2).reshape(n, big, big)


def _joint_stack(rows: _Rows, idx) -> np.ndarray:
    return np.stack([rows.joint[i] for i in idx])


def _propagate(run: _Run, rows: _Rows, dt: float):
    if dt <= 0.0:
        return
    gen, sub = run.gen, dt / run.substeps
    for units, idx in _by_units(run, rows):
        if not units:
            mat = rows.mat[idx]
            for _ in range(run.substeps):
                mat = _propagate_matrix(gen, mat, sub, run.method)
            rows.mat[idx] = mat
            continue
        superop, joint = gen.superoperator(sub, run.method), _joint_stack(rows, idx)
        for _ in range(run.substeps):
            joint = _apply_superop_factor0(superop, joint, gen.dim)
        for i, j in zip(idx, joint):
            rows.joint[i] = j
        rows.mat[idx] = hermitize(_partial_trace_matrix(joint, [gen.dim, *units], [0]))


def _segment(run: _Run, rows: _Rows, k: int, dt: float):
    """Switch and drift every row up to control ``k``, filling its segment columns."""
    led = rows.ledger[:, k]
    led["e_sys_start"] = _expectation(rows.h, rows.mat)
    led["s_start"] = rows.s_prev
    e_switch = led["e_sys_start"].copy()
    switch = [i for i, h in enumerate(rows.pending) if h is not None]
    if switch:
        new_h = np.stack([rows.pending[i] for i in switch])
        led["w_seg"][switch] = _expectation(new_h - rows.h[switch], rows.mat[switch])
        rows.h[switch] = new_h
        e_switch[switch] = _expectation(rows.h[switch], rows.mat[switch])
        rows.pending = [None] * len(rows.pending)
    _propagate(run, rows, dt)
    led["e_sys_pre"] = _expectation(rows.h, rows.mat)
    led["q_seg"] = led["e_sys_pre"] - e_switch
    # one spectrum per state serves the positivity check and the stochastic entropy
    s = shannon_entropy(density_spectrum(rows.mat))
    for units, idx in _by_units(run, rows):
        if units:
            s[idx] = shannon_entropy(np.linalg.eigvalsh(hermitize(_joint_stack(rows, idx))))
    led["s_pre"] = rows.log_prob + s


def _branches(run: _Run, instr: Instrument, mat, raws, units: tuple):
    """Each outcome's unnormalized post state of the tracked state, and the units tracked after.

    ``raws`` are the system's own branch states, which are the answer while
    nothing but the system is tracked and the instrument is efficient.
    """
    if instr.efficient and not run.retain:
        return (instr.branch_states(mat) if units else raws), units
    if len(units) + 1 > run.max_units:
        raise EngineError(f"joint tracking would exceed max_units={run.max_units}")
    dilation = stinespring_dilate(instr)
    return dilation.unitary_readout(mat, units)[1], (dilation.unit_dim, *units)


def _control_group(run: _Run, rows: _Rows, plan: StepPlan, units: tuple, idx,
                   step: int, select) -> dict:
    """The continuing rows of a group that shares a plan and tracked units, as columns."""
    instr, d = plan.instrument, run.gen.dim
    dev = instr.completeness_deviation
    if dev > COMPLETENESS_ATOL:
        raise EngineError(f"instrument fails completeness by {dev:.3e}")
    if instr.dim != d:
        raise EngineError("instrument dimension does not match generator")
    if rows.energetic[idx].any():
        raise EngineError(
            "a past inefficient unit carries energy; its conditional energy "
            "updates are not tracked, so no further controls are allowed"
        )
    mat, h = rows.mat[idx], rows.h[idx]
    raws = instr.branch_states(mat)
    _, w_sys, q_sys = system_energetics(h, mat, raws)
    w_unit, q_unit, de_unit = unit_energetics(instr, plan.h_unit, mat)
    tracked = _joint_stack(rows, idx) if units else mat
    post_raws, new_units = _branches(run, instr, tracked, raws, units)
    probs = _trace(post_raws)
    at, branch = select(step, idx, instr.labels, probs)
    p = probs[at, branch]
    post = hermitize(post_raws[at, branch]) / p[:, None, None]
    sys_post = post
    if new_units:
        sys_post = hermitize(_partial_trace_matrix(post, [d, *new_units], [0]))
    logp_inc = -np.log(p) + 0.0  # avoid -0.0 for certain outcomes
    n, parent = len(at), idx[at]
    return {
        "parent": parent, "branch": branch, "p": p, "mat": sys_post,
        "joint": list(post) if new_units else [None] * n, "pending": [plan.next_hamiltonian] * n,
        "units": np.full(n, run.units.setdefault(new_units, len(run.units))),
        "kind": np.full(n, plan.kind, dtype=object),
        "energetic": np.full(n, plan.h_unit is not None and not instr.efficient),
        "outcome": np.asarray(instr.labels)[branch], "logp_increment": logp_inc,
        "e_sys_end": _expectation(h[at], sys_post), "de_unit": de_unit[at, branch],
        "w_ctrl_sys": w_sys[at], "w_ctrl_unit": w_unit[at],
        "q_ctrl_sys": q_sys[at, branch], "q_ctrl_unit": q_unit[at, branch],
        "s_end": (rows.log_prob[parent] + logp_inc
                  + shannon_entropy(np.linalg.eigvalsh(hermitize(post)))),
    }


def _control(run: _Run, rows: _Rows, k: int, select) -> _Rows:
    """Apply every row's planned control ``k``; returns the rows that continue.

    The policy plans every row in one call, and rows are grouped by their
    plan and their tracked units.  ``select(step, idx, labels, probs)``
    picks, from the branch probabilities of the group rows ``idx``, the (row
    in the group, branch) pairs that continue: one per row when sampling,
    every viable one when enumerating.
    """
    step, delay = k + 1, run.policy.delay
    past = step - delay  # a delayed estimate is the state after control `past`; 0 is the start
    estimates = (rows.mat if delay <= 0 else rows.states[:, past - 1] if past > 0
                 else np.broadcast_to(run.rho0.matrix, rows.mat.shape))
    outcomes = rows.ledger["outcome"][:, :k]
    plans, which = run.policy.plan(step, estimates, outcomes, rows.kinds[:, :k])
    parts = [_control_group(run, rows, plans[w], units, idx[which[idx] == w], step, select)
             for units, idx in _by_units(run, rows) for w in np.unique(which[idx])]
    order = np.lexsort((np.concatenate([p["branch"] for p in parts]),
                        np.concatenate([p["parent"] for p in parts])))
    kids = {}
    for key, first in parts[0].items():
        if isinstance(first, list):
            flat = [x for part in parts for x in part[key]]
            kids[key] = [flat[i] for i in order]
        else:
            kids[key] = np.concatenate([part[key] for part in parts])[order]
    if not np.array_equal(kids["parent"], np.arange(len(rows.mat))):
        rows = rows.take(kids["parent"])
    rows.mat, rows.joint, rows.units, rows.pending, rows.s_prev = (
        kids["mat"], kids["joint"], kids["units"], kids["pending"], kids["s_end"])
    rows.log_prob = rows.log_prob + kids["logp_increment"]
    rows.prob = rows.prob * kids["p"]
    rows.energetic = rows.energetic | kids["energetic"]
    led = rows.ledger[:, k]
    for col in ("outcome", "logp_increment", "e_sys_end", "de_unit", "w_ctrl_sys",
                "w_ctrl_unit", "q_ctrl_sys", "q_ctrl_unit", "s_end"):
        led[col] = kids[col]
    rows.kinds[:, k] = kids["kind"]
    if rows.states.shape[1]:
        rows.states[:, k] = rows.mat
    return rows


def _stepped(run: _Run, n: int, select, max_rows: int = MAX_TREE_LEAVES) -> _Rows:
    """``n`` rows from the initial state, stepped through the whole schedule."""
    rows, t_prev = _Rows(run, n), run.schedule.t0
    for k, t in enumerate(run.schedule.times):
        _segment(run, rows, k, t - t_prev)
        rows, t_prev = _control(run, rows, k, select), t
        if len(rows.mat) > max_rows:
            raise EngineError(f"outcome tree exceeds {max_rows} leaves")
    t_final = run.schedule.t_final
    if t_final is not None and t_final > t_prev:
        _propagate(run, rows, t_final - t_prev)
    return rows


_NO_STATES = np.array([])
_NO_STATES.setflags(write=False)


def _record(outcomes, kinds, *fields) -> TrajectoryRecord:
    """A record from sequences of outcomes and kinds: the one place their tuples are built."""
    return TrajectoryRecord(tuple(outcomes), tuple(kinds), *fields)


def _records(run: _Run, rows: _Rows, first_row: int = 0) -> list:
    """Close the rows' ledgers in one call and wrap each row as a record.

    ``np.ndarray.__getitem__`` gives the same ``(steps,)`` recarray row as
    ``ledger[j]`` without ``recarray.__getitem__``'s dtype checks.
    """
    try:
        ledger = entropy_production_step(rows.ledger, run.gen.beta)
    except ThermoError as exc:
        exc.row += first_row
        raise
    row_of, times = np.ndarray.__getitem__, run.schedule.times
    states = rows.states if run.store_states else [_NO_STATES] * len(rows.mat)
    return [
        _record(outcomes, kinds, log_prob, row_of(ledger, j), states[j], rows.mat[j], times)
        for j, (outcomes, kinds, log_prob) in enumerate(
            zip(ledger["outcome"].tolist(), rows.kinds.tolist(), rows.log_prob.tolist()))
    ]


def _sampled(uniforms: np.ndarray):
    def select(step, idx, labels, probs):
        return np.arange(len(idx)), choose_branch(np.maximum(probs, 0.0), uniforms[idx, step - 1])
    return select


def _replayed(forced):
    def select(step, idx, labels, probs):
        if forced[step - 1] not in labels:
            raise EngineError(f"forced outcome {forced[step - 1]!r} is no label of step {step}")
        branch = labels.index(forced[step - 1])
        if (probs[:, branch] < IMPOSSIBLE_BRANCH).any():
            raise EngineError(f"forced outcome {forced[step - 1]} is impossible")
        return np.arange(len(idx)), np.full(len(idx), branch)
    return select


def _expanded(step, idx, labels, probs):
    return np.nonzero(probs >= IMPOSSIBLE_BRANCH)


# ---------------------------------------------------------------------------
# Public entry points.


def sample_ensemble(gen: ThermalGenerator, schedule: ControlSchedule, policy: FeedbackPolicy,
                    rho0: DensityOperator, seeds, *, forced_outcomes=None, **options):
    """Sample one trajectory per seed, yielding the records in seed order.

    Keywords: ``method`` ("exact" or "first_order"), ``substeps`` per drift
    segment, ``retain_efficient_units``, ``max_units`` jointly tracked,
    ``store_states``, ``hamiltonian0`` (the bookkeeping Hamiltonian in force
    before the first control; the generator's by default) and
    ``forced_outcomes``, one outcome sequence replayed on every row instead
    of sampling, which is how causality is audited.

    Trajectories are stepped together in blocks of ``BLOCK_ROWS``, so a
    caller that only counts outcomes never holds more than one block.  A
    seed fixes its trajectory bit-exactly: the record depends neither on
    the other seeds nor on its block.  A ledger that breaks a law raises
    ``ThermoError`` whose ``row`` is the trajectory's position in ``seeds``.
    """
    run = _Run(gen, schedule, policy, rho0, **options)
    if forced_outcomes is not None and len(forced_outcomes) != schedule.n_steps:
        raise EngineError(f"{len(forced_outcomes)} forced outcomes for {schedule.n_steps} steps")
    seeds = list(seeds)
    for first in range(0, len(seeds), BLOCK_ROWS):
        block = seeds[first:first + BLOCK_ROWS]
        if forced_outcomes is None:
            select = _sampled(stream_uniforms(block, schedule.n_steps))
        else:
            select = _replayed(forced_outcomes)
        yield from _records(run, _stepped(run, len(block), select), first)


def sample_trajectory(gen, schedule, policy, rho0, seed: int, **options) -> TrajectoryRecord:
    """Sample one trajectory; the seed fixes the entire run bit-exactly.

    The one-seed case of :func:`sample_ensemble`, with its keywords.
    """
    (record,) = sample_ensemble(gen, schedule, policy, rho0, [seed], **options)
    return record


def enumerate_tree(gen: ThermalGenerator, schedule: ControlSchedule, policy: FeedbackPolicy,
                   rho0: DensityOperator, *, max_leaves: int = MAX_TREE_LEAVES,
                   **options) -> list:
    """Exact outcome-tree expansion: (outcome sequence, probability, record) leaves.

    Takes the keywords of :func:`sample_ensemble` but ``forced_outcomes``.
    The frontier grows one level at a time through the sampling kernel,
    every viable branch of a row becoming a row, so leaves come in
    lexicographic outcome order.  Probabilities across leaves sum to one up
    to the discarded sub-floor branches; each record's ``log_prob`` is the
    exact -ln(probability).
    """
    run = _Run(gen, schedule, policy, rho0, **options)
    rows = _stepped(run, 1, _expanded, max_rows=max_leaves)
    return [(rec.outcomes, float(p), rec) for rec, p in zip(_records(run, rows), rows.prob)]


@dataclass(frozen=True)
class Moments:
    """Count, per-index sums and summed squared deviations (M2) of a batch's rows.

    A batch reduced block by block merges its blocks' moments pairwise
    (Chan, Golub & LeVeque, "Algorithms for computing the sample variance",
    Am. Stat. 1983); merged in a fixed block order, the numbers do not
    depend on where each block was reduced.
    """

    n: int
    sums: np.ndarray
    m2: np.ndarray

    @classmethod
    def of(cls, rows) -> "Moments":
        """Two-pass moments over the leading axis of ``rows``."""
        rows = np.asarray(rows, dtype=float)
        sums = rows.sum(axis=0)
        return cls(len(rows), sums, ((rows - sums / len(rows)) ** 2).sum(axis=0))

    def merge(self, other: "Moments") -> "Moments":
        n = self.n + other.n
        delta = other.sums / other.n - self.sums / self.n
        return Moments(n, self.sums + other.sums,
                       self.m2 + other.m2 + delta**2 * (self.n * other.n / n))

    @property
    def mean(self) -> np.ndarray:
        return self.sums / self.n

    @property
    def se(self) -> np.ndarray:
        """Standard error of the mean; zero for a single row."""
        if self.n < 2:
            return np.zeros_like(self.sums)
        return np.sqrt(self.m2 / (self.n - 1)) / np.sqrt(self.n)


@dataclass(frozen=True)
class EnsembleReport:
    """Weighted per-step averages over a collection of records."""

    n_records: int
    column_means: dict
    column_se: dict
    mean_states: np.ndarray | None


def ensemble_statistics(records, weights: str = "equal") -> EnsembleReport:
    """Average ledger columns and conditional states across records.

    ``weights='probability'`` weighs each record by exp(-log_prob), which
    turns an enumeration into exact ensemble averages; ``'equal'`` is the
    Monte Carlo estimator and also reports standard errors.
    """
    records = list(records)
    if not records:
        raise EngineError("cannot average zero records")
    n_steps = len(records[0].outcomes)
    for r in records:
        if len(r.outcomes) != n_steps:
            raise EngineError("records have mismatched schedule shapes")
    if weights == "equal":
        w = np.full(len(records), 1.0 / len(records))
    elif weights == "probability":
        w = np.array([r.probability for r in records], dtype=float)
    else:
        raise EngineError(f"unknown weights mode {weights!r}")
    wn = w / w.sum()
    batch = np.stack([r.ledgers for r in records])  # (N, steps)
    means: dict = {}
    ses: dict = {}
    for col in LEDGER_DTYPE.names:
        if weights == "equal":
            moments = Moments.of(batch[col])
            means[col], ses[col] = moments.mean, moments.se
        else:
            means[col], ses[col] = wn @ batch[col], np.zeros(n_steps)
    mean_states = None
    if n_steps and all(len(r.states) == n_steps for r in records):
        # record by record, so no (N, steps, ...) copy of every state is held
        mean_states = sum(wi * r.states for wi, r in zip(wn, records))
    return EnsembleReport(
        n_records=len(records),
        column_means=means,
        column_se=ses,
        mean_states=mean_states,
    )
