"""Trajectory engine: drift segments interleaved with control operations.

A run alternates Lindblad propagation with instrument applications chosen
by a feedback policy from a delayed state estimate.  Outcomes are sampled
by inverse CDF from a counter-based per-trajectory stream, or the whole
outcome tree is enumerated exactly; both share one stepping kernel so the
sampler can be checked against the enumeration oracle.

State tracking is system-only until an instrument with more than one
Kraus operator per outcome shows up; the units of such operations stay
mixed and correlated, so from then on they are kept in an exact joint
state (up to ``max_units`` of them).  Units of single-Kraus operations
end in a pure product factor and never need tracking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import COMPLETENESS_ATOL, IMPOSSIBLE_BRANCH, Instrument, stinespring_dilate
from .lindblad import ThermalGenerator, _propagate_matrix
from .qmath import (
    DensityOperator,
    dag,
    hermitize,
    von_neumann_entropy,
    _partial_trace_matrix,
)
from .thermo import (
    LEDGER_DTYPE,
    control_energetics,
    entropy_production_step,
    stochastic_entropy,
)

PROB_FLOOR = IMPOSSIBLE_BRANCH
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


def stream_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for one trajectory."""
    return np.random.Generator(np.random.Philox(key=seed & ((1 << 128) - 1)))


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
    viable = reach & (probs >= PROB_FLOOR)
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
    """Deterministic rule (step, delayed estimate, history) -> StepPlan.

    ``delay`` selects which past post-control state the estimate is; with
    delay 0 the estimate is the current pre-control state.  Implementations
    must be pure functions of their arguments.
    """

    delay: int = 0

    def plan(self, step: int, estimate, outcomes: tuple, kinds: tuple) -> StepPlan:
        raise NotImplementedError


class FixedPolicy(FeedbackPolicy):
    """Applies a pre-decided sequence of plans, ignoring outcomes."""

    def __init__(self, plans):
        self._plans = [
            p if isinstance(p, StepPlan) else StepPlan(instrument=p) for p in plans
        ]

    def plan(self, step, estimate, outcomes, kinds):
        return self._plans[step - 1]


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
# The stepping kernel shared by sampling and enumeration.


class _Cursor:
    """Mutable per-trajectory context; cheap to clone at branch points."""

    __slots__ = (
        "mat", "joint", "unit_dims", "log_prob", "prob", "s_prev", "h",
        "pending_h", "t_prev", "outcomes", "kinds", "ledgers", "states",
        "estimates", "energetic_units",
    )

    def clone(self) -> "_Cursor":
        c = _Cursor.__new__(_Cursor)
        c.mat = self.mat
        c.joint = self.joint
        c.unit_dims = list(self.unit_dims)
        c.log_prob = self.log_prob
        c.prob = self.prob
        c.s_prev = self.s_prev
        c.h = self.h
        c.pending_h = self.pending_h
        c.t_prev = self.t_prev
        c.outcomes = list(self.outcomes)
        c.kinds = list(self.kinds)
        c.ledgers = list(self.ledgers)
        c.states = list(self.states)
        c.estimates = list(self.estimates)
        c.energetic_units = self.energetic_units
        return c


@dataclass(frozen=True)
class _Segment:
    e_start: float
    e_pre: float
    w_seg: float
    q_seg: float
    s_start: float
    s_pre: float


def _apply_superop_factor0(superop: np.ndarray, mat: np.ndarray, d0: int) -> np.ndarray:
    d_rest = mat.shape[0] // d0
    t = mat.reshape(d0, d_rest, d0, d_rest)
    e = superop.reshape(d0, d0, d0, d0)
    return np.einsum("abcd,cudv->aubv", e, t).reshape(mat.shape)


def _insert_unit(joint: np.ndarray, dims: list, unit_mat: np.ndarray):
    """Tensor a fresh unit in right next to the system factor."""
    extended = np.kron(joint, unit_mat)
    nd = dims + [unit_mat.shape[0]]
    k = len(nd)
    perm = [0, k - 1] + list(range(1, k - 1))
    t = extended.reshape(nd + nd).transpose(perm + [p + k for p in perm])
    out_dims = [nd[p] for p in perm]
    total = int(np.prod(out_dims))
    return np.ascontiguousarray(t).reshape(total, total), out_dims


class _Engine:
    def __init__(self, gen, schedule, policy, rho0, *, method, substeps,
                 retain_efficient_units, max_units, store_states,
                 hamiltonian0=None):
        if rho0.dim != gen.dim:
            raise EngineError("initial state dimension does not match generator")
        if substeps < 1:
            raise EngineError("substeps must be positive")
        self.gen = gen
        self.schedule = schedule
        self.policy = policy
        self.rho0 = rho0
        self.method = method
        self.substeps = substeps
        self.retain = retain_efficient_units
        self.max_units = max_units
        self.store_states = store_states
        self.h0 = gen.hamiltonian if hamiltonian0 is None else np.asarray(hamiltonian0, dtype=complex)

    def _check_instrument(self, instr: Instrument):
        dev = instr.completeness_deviation
        if dev > COMPLETENESS_ATOL:
            raise EngineError(f"instrument fails completeness by {dev:.3e}")
        if instr.dim != self.gen.dim:
            raise EngineError("instrument dimension does not match generator")

    # -- stepping ----------------------------------------------------------

    def initial(self) -> _Cursor:
        cur = _Cursor.__new__(_Cursor)
        cur.mat = self.rho0.matrix
        cur.joint = None
        cur.unit_dims = []
        cur.log_prob = 0.0
        cur.prob = 1.0
        cur.s_prev = von_neumann_entropy(cur.mat)
        cur.h = self.h0
        cur.pending_h = None
        cur.t_prev = self.schedule.t0
        cur.outcomes = []
        cur.kinds = []
        cur.ledgers = []
        cur.states = []
        cur.estimates = [self.rho0.matrix]
        cur.energetic_units = False
        return cur

    def _stochastic_entropy(self, cur: _Cursor) -> float:
        return stochastic_entropy(cur.log_prob, cur.joint if cur.joint is not None else cur.mat)

    def _propagate_tracked(self, cur: _Cursor, dt: float):
        if dt <= 0.0:
            return
        if cur.joint is None:
            sub = dt / self.substeps
            for _ in range(self.substeps):
                cur.mat = _propagate_matrix(self.gen, cur.mat, sub, self.method)
        else:
            superop = self.gen.superoperator(dt / self.substeps, self.method)
            for _ in range(self.substeps):
                cur.joint = _apply_superop_factor0(superop, cur.joint, self.gen.dim)
            cur.mat = hermitize(
                _partial_trace_matrix(cur.joint, [self.gen.dim] + cur.unit_dims, [0])
            )

    def advance_segment(self, cur: _Cursor, t_next: float) -> _Segment:
        e_start = float(np.trace(cur.h @ cur.mat).real)
        s_start = cur.s_prev
        w_seg = 0.0
        if cur.pending_h is not None:
            w_seg = float(np.trace((cur.pending_h - cur.h) @ cur.mat).real)
            cur.h = cur.pending_h
            cur.pending_h = None
        e_post_switch = float(np.trace(cur.h @ cur.mat).real)
        self._propagate_tracked(cur, t_next - cur.t_prev)
        e_pre = float(np.trace(cur.h @ cur.mat).real)
        s_pre = self._stochastic_entropy(cur)
        cur.t_prev = t_next
        return _Segment(
            e_start=e_start,
            e_pre=e_pre,
            w_seg=w_seg,
            q_seg=e_pre - e_post_switch,
            s_start=s_start,
            s_pre=s_pre,
        )

    def estimate(self, cur: _Cursor, step: int):
        if self.policy.delay <= 0:
            return cur.mat
        return cur.estimates[max(0, step - self.policy.delay)]

    def control_branches(self, cur: _Cursor, plan: StepPlan):
        """Energetics plus, per possible outcome, the post states."""
        instr = plan.instrument
        self._check_instrument(instr)
        if cur.energetic_units:
            raise EngineError(
                "a past inefficient unit carries energy; its conditional energy "
                "updates are not tracked, so no further controls are allowed"
            )
        rho_pre = DensityOperator(hermitize(cur.mat))
        needs_unit = (not instr.efficient) or self.retain
        ce = control_energetics(instr, cur.h, rho_pre, h_unit=plan.h_unit)
        branches = []
        if not needs_unit:
            base = cur.joint if cur.joint is not None else cur.mat
            rest = int(np.prod(cur.unit_dims)) if cur.unit_dims else 1
            for b in instr.outcomes:
                a = b.kraus[0]
                a_full = np.kron(a, np.eye(rest)) if rest > 1 else a
                raw = a_full @ base @ dag(a_full)
                p = float(np.trace(raw).real)
                if p < PROB_FLOOR:
                    branches.append((b.label, max(p, 0.0), None, None, None))
                    continue
                post = hermitize(raw) / p
                if cur.joint is None:
                    branches.append((b.label, p, post, None, None))
                else:
                    dims = [self.gen.dim] + cur.unit_dims
                    sys_post = hermitize(_partial_trace_matrix(post, dims, [0]))
                    branches.append((b.label, p, sys_post, post, list(cur.unit_dims)))
        else:
            if len(cur.unit_dims) + 1 > self.max_units:
                raise EngineError(
                    f"joint tracking would exceed max_units={self.max_units}"
                )
            dilation = stinespring_dilate(instr)
            base = cur.joint if cur.joint is not None else cur.mat
            dims = [self.gen.dim] + cur.unit_dims
            extended, new_dims = _insert_unit(base, dims, dilation.unit_state.matrix)
            rest = int(np.prod(new_dims[2:])) if len(new_dims) > 2 else 1
            v_full = np.kron(dilation.joint_unitary, np.eye(rest)) if rest > 1 else dilation.joint_unitary
            correlated = v_full @ extended @ dag(v_full)
            for label, p, post_joint in dilation.readout(correlated):
                if post_joint is None:
                    branches.append((label, p, None, None, None))
                    continue
                sys_post = hermitize(_partial_trace_matrix(post_joint, new_dims, [0]))
                branches.append((label, p, sys_post, post_joint, list(new_dims[1:])))
        return ce, branches

    def commit(self, cur: _Cursor, step: int, seg: _Segment, plan: StepPlan, ce,
               label: int, p: float, sys_post, joint_post, new_dims):
        logp_inc = float(-np.log(p)) + 0.0  # avoid -0.0 for certain outcomes
        cur.log_prob += logp_inc
        cur.prob *= p
        cur.mat = sys_post
        if joint_post is not None:
            cur.joint = joint_post
            cur.unit_dims = list(new_dims)
        else:
            cur.joint = None
            cur.unit_dims = []
        if plan.h_unit is not None and not plan.instrument.efficient:
            cur.energetic_units = True
        e_end = float(np.trace(cur.h @ cur.mat).real)
        s_end = self._stochastic_entropy(cur)
        # LEDGER_DTYPE order; finish() fills the two sigma columns
        cur.ledgers.append((
            step, label, logp_inc, seg.e_start, seg.e_pre, e_end,
            ce.de_unit.get(label, 0.0), seg.w_seg, seg.q_seg, ce.w_system, ce.w_unit,
            ce.q_system[label], ce.q_unit.get(label, 0.0),
            seg.s_start, seg.s_pre, s_end, np.nan, np.nan,
        ))
        cur.outcomes.append(label)
        cur.kinds.append(plan.kind)
        cur.estimates.append(cur.mat)
        if self.store_states:
            cur.states.append(cur.mat)
        cur.s_prev = s_end
        cur.pending_h = plan.next_hamiltonian

    def finish(self, cur: _Cursor) -> TrajectoryRecord:
        t_final = self.schedule.t_final
        if t_final is not None and t_final > cur.t_prev:
            self._propagate_tracked(cur, t_final - cur.t_prev)
            cur.t_prev = t_final
        return TrajectoryRecord(
            outcomes=tuple(cur.outcomes),
            kinds=tuple(cur.kinds),
            log_prob=cur.log_prob,
            ledgers=entropy_production_step(cur.ledgers, self.gen.beta),
            states=np.array(cur.states),
            final_state=cur.mat,
            times=self.schedule.times,
        )


# ---------------------------------------------------------------------------
# Public entry points.


def sample_trajectory(
    gen: ThermalGenerator,
    schedule: ControlSchedule,
    policy: FeedbackPolicy,
    rho0: DensityOperator,
    seed: int,
    *,
    method: str = "exact",
    substeps: int = 1,
    retain_efficient_units: bool = False,
    max_units: int = 4,
    store_states: bool = True,
    hamiltonian0=None,
    forced_outcomes=None,
) -> TrajectoryRecord:
    """Sample one trajectory; the seed fixes the entire run bit-exactly.

    ``hamiltonian0`` overrides the bookkeeping Hamiltonian in force before
    the first control.  ``forced_outcomes`` replays a given outcome
    sequence instead of sampling, which is how causality is audited.
    """
    eng = _Engine(
        gen, schedule, policy, rho0,
        method=method, substeps=substeps,
        retain_efficient_units=retain_efficient_units,
        max_units=max_units, store_states=store_states,
        hamiltonian0=hamiltonian0,
    )
    rng = stream_rng(seed)
    cur = eng.initial()
    for step, t in enumerate(schedule.times, start=1):
        seg = eng.advance_segment(cur, t)
        est = eng.estimate(cur, step)
        plan = eng.policy.plan(step, est, tuple(cur.outcomes), tuple(cur.kinds))
        ce, branches = eng.control_branches(cur, plan)
        probs = np.array([b[1] for b in branches])
        if forced_outcomes is None:
            idx = choose_branch(probs, rng.random())
        else:
            labels = [b[0] for b in branches]
            idx = labels.index(forced_outcomes[step - 1])
            if probs[idx] < PROB_FLOOR:
                raise EngineError(f"forced outcome {forced_outcomes[step - 1]} is impossible")
        label, p, sys_post, joint_post, new_dims = branches[idx]
        eng.commit(cur, step, seg, plan, ce, label, p, sys_post, joint_post, new_dims)
    return eng.finish(cur)


def enumerate_tree(
    gen: ThermalGenerator,
    schedule: ControlSchedule,
    policy: FeedbackPolicy,
    rho0: DensityOperator,
    *,
    method: str = "exact",
    substeps: int = 1,
    retain_efficient_units: bool = False,
    max_units: int = 4,
    store_states: bool = True,
    hamiltonian0=None,
    max_leaves: int = MAX_TREE_LEAVES,
) -> list:
    """Exact outcome-tree expansion: (outcome sequence, probability, record) leaves.

    Probabilities across leaves sum to one up to the discarded sub-floor
    branches; each record's ``log_prob`` is the exact -ln(probability).
    """
    eng = _Engine(
        gen, schedule, policy, rho0,
        method=method, substeps=substeps,
        retain_efficient_units=retain_efficient_units,
        max_units=max_units, store_states=store_states,
        hamiltonian0=hamiltonian0,
    )
    leaves: list = []
    stack = [(eng.initial(), 1)]
    while stack:
        cur, step = stack.pop()
        if step > schedule.n_steps:
            record = eng.finish(cur)
            leaves.append((record.outcomes, cur.prob, record))
            if len(leaves) > max_leaves:
                raise EngineError(f"outcome tree exceeds {max_leaves} leaves")
            continue
        seg = eng.advance_segment(cur, schedule.times[step - 1])
        est = eng.estimate(cur, step)
        plan = eng.policy.plan(step, est, tuple(cur.outcomes), tuple(cur.kinds))
        ce, branches = eng.control_branches(cur, plan)
        viable = [b for b in branches if b[1] >= PROB_FLOOR]
        # Descend in reverse label order so the stack pops lower labels first.
        for i, br in enumerate(reversed(viable)):
            child = cur if i == len(viable) - 1 else cur.clone()
            eng.commit(child, step, seg, plan, ce, *br)
            stack.append((child, step + 1))
    leaves.sort(key=lambda leaf: leaf[0])
    return leaves


@dataclass(frozen=True)
class EnsembleReport:
    """Weighted per-step averages over a collection of records."""

    n_records: int
    weights: str
    total_weight: float
    column_means: dict
    column_se: dict
    mean_states: np.ndarray | None
    mean_final_state: np.ndarray


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
    total = float(w.sum())
    wn = w / total
    batch = np.stack([r.ledgers for r in records])  # (N, steps)
    means: dict = {}
    ses: dict = {}
    for col in LEDGER_DTYPE.names:
        data = batch[col]
        means[col] = wn @ data if n_steps else np.zeros(0)
        if weights == "equal" and len(records) > 1 and n_steps:
            ses[col] = data.std(axis=0, ddof=1) / np.sqrt(len(records))
        else:
            ses[col] = np.zeros(n_steps)
    mean_states = None
    if n_steps and all(len(r.states) == n_steps for r in records):
        # record by record, so no (N, steps, ...) copy of every state is held
        mean_states = sum(wi * r.states for wi, r in zip(wn, records))
    finals = np.array([r.final_state for r in records])
    mean_final = np.tensordot(wn, finals, axes=1)
    return EnsembleReport(
        n_records=len(records),
        weights=weights,
        total_weight=total,
        column_means=means,
        column_se=ses,
        mean_states=mean_states,
        mean_final_state=mean_final,
    )
