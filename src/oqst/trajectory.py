"""Trajectory engine: drift segments interleaved with control operations.

A run alternates Lindblad propagation with instrument applications chosen
by a feedback policy from a delayed state estimate.  Outcomes are sampled
by inverse CDF from a counter-based per-trajectory stream, replayed from a
given sequence, or the whole outcome tree is enumerated exactly.  All
three step a batch of trajectories, held in columns, through one loop
that asks the policy once per step and writes each ledger column in one
place, over a state representation: density matrices here, number-basis
populations for the cavity scenario.  A step's columns are one float row
per trajectory.  Histories of them and of the states are held for the rows
whose records are wanted, every row here; a caller that only reduces folds
each step in as it is written, and then no more than the outcome and kind
histories a policy reads and the last ``delay`` states outlive their step.

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
from .lindblad import ThermalGenerator, _propagate_matrix, _switch_work
from .qmath import (
    DensityOperator,
    density_spectrum,
    hermitize,
    shannon_entropy,
    _eigvalsh,
    _expectation,
    _ordered_sum,
    _partial_trace_matrix,
    _trace,
)
from .thermo import (
    LEDGER_DTYPE,
    LOG_PROB_FLOOR,
    _FLOAT_LEDGER,
    ThermoError,
    entropy_production_step,
    unit_energetics,
    _average_heat,
    _check_average_heat,
)

MAX_TREE_LEAVES = 10**6


class EngineError(RuntimeError):
    """Raised for broken run configurations or impossible branch selections."""


# ---------------------------------------------------------------------------
# Seeding: counter-based per-trajectory streams.

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_stream_seeds(master_seed: int, indices) -> np.ndarray:
    """Per-trajectory seeds from (master seed, trajectory indices), as uint64.

    Seed ``i`` is output ``i + 1`` of the splitmix64 stream (Steele, Lea &
    Flood, OOPSLA 2014) that starts at ``master_seed`` modulo 2**64, so
    ensembles are order-independent and safe to farm out to workers.  All
    indices go through one pass of wrapping uint64 arithmetic.
    """
    u, indices = np.uint64, np.asarray(indices)
    if indices.size and indices.dtype.kind not in "iu":
        raise TypeError(f"trajectory indices must be integers, got {indices.dtype}")
    z = u(master_seed & _M64) + (indices.astype(u) + u(1)) * u(_GOLDEN) + u(_GOLDEN)
    z = (z ^ (z >> u(30))) * u(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> u(27))) * u(0x94D049BB133111EB)
    return z ^ (z >> u(31))


_M128 = (1 << 128) - 1


def stream_rng(seed: int) -> np.random.Generator:
    """One trajectory's stream as numpy's ``Philox`` generator, keyed by the seed modulo 2**128.

    Its ``random(steps)`` is the seed's row of :func:`stream_uniforms`.  ``numpy.random``
    loads here, on first use: a run that draws only through ``stream_uniforms`` never loads it.
    """
    from numpy.random import Generator, Philox
    return Generator(Philox(key=seed & _M128))


# Philox4x64's multipliers (Salmon et al., SC 2011) and their 32-bit halves, as (2, 1, 1)
# arrays that act on the counter's even words at once, and its ten rounds' key increments.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], np.uint64)[:, None, None]
_LOW, _HALF = np.uint64(0xFFFFFFFF), np.uint64(32)
_PHILOX_M0, _PHILOX_M1 = _PHILOX_M & _LOW, _PHILOX_M >> _HALF
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], np.uint64)[:, None]
_ROUND_KEYS = np.arange(10, dtype=np.uint64)[:, None, None] * _PHILOX_W  # (round, word, 1)
# Counters per pass, whatever the stream length: six (2, counters) uint64 temporaries, 1.5 MB.
_PASS_COUNTERS = 1 << 14


def stream_uniforms(seeds, steps: int) -> np.ndarray:
    """``stream_rng(seed).random(steps)`` for each seed, as the rows of an (N, steps) array.

    Seeds are Python ints or a uint64 array.  Every stream comes from the array passes of
    Philox4x64-10 in :func:`_philox_uniforms` (Salmon, Moraes, Dror & Shaw, "Parallel
    random numbers: as easy as 1, 2, 3", SC 2011), bit for bit as numpy's ``Philox``
    draws it, without loading ``numpy.random``.
    """
    return _philox_uniforms(*_philox_keys(seeds), steps)


def _philox_keys(seeds) -> tuple:
    """The low and high uint64 words of each seed's 128-bit Philox key."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return seeds, np.zeros_like(seeds)
    seeds = seeds.tolist() if isinstance(seeds, np.ndarray) else list(seeds)
    return (np.array([seed & _M64 for seed in seeds], np.uint64),
            np.array([(seed & _M128) >> 64 for seed in seeds], np.uint64))


def _philox_uniforms(k0: np.ndarray, k1: np.ndarray, steps: int) -> np.ndarray:
    """The first ``steps`` uniforms of numpy's ``Philox`` keyed ``(k0, k1)`` per row, for
    all rows in passes of wrapping uint64 arithmetic.

    Counter ``c`` (from 1; only its first word is nonzero) gives four words through ten
    rounds of Philox4x64, and a word ``x`` the uniform ``(x >> 11) * 2**-53``.  A round
    maps the words ``(c0, c1, c2, c3)`` to ``(hi(M1 c2) ^ c1 ^ k0, lo(M1 c2),
    hi(M0 c0) ^ c3 ^ k1, lo(M0 c0))``; the even and the odd words are each one array, and a
    high word comes from products of 32-bit halves, none of whose partial sums overflows.
    A pass takes at most ``_PASS_COUNTERS`` counters of a block of rows through the rounds
    in six preallocated arrays and writes its floats straight into the output.
    """
    u, n, counters = np.uint64, len(k0), -(-steps // 4)
    out = np.empty((n, counters, 2, 2))  # (row, counter, word pair, odd word)
    keys = np.stack([k0, k1]) + _ROUND_KEYS  # (round, word, row)
    span = max(1, min(counters, _PASS_COUNTERS))
    block = _PASS_COUNTERS // span
    buffers = np.empty((6, 2 * min(block, n) * span), u)
    for row in range(0, n, block):
        for first in range(0, counters, span):
            r, s = min(block, n - row), min(span, counters - first)
            even, odd, a, b, c, d = (buf[:2 * r * s].reshape(2, r, s) for buf in buffers)
            even[0], even[1], odd[...] = np.arange(first + 1, first + s + 1, dtype=u), 0, 0
            for key in keys[:, :, row:row + r, None]:
                np.bitwise_and(even, _LOW, out=a)       # x0
                np.right_shift(even, _HALF, out=b)      # x1
                np.multiply(_PHILOX_M, even, out=d)     # lo
                np.multiply(_PHILOX_M0, a, out=c)
                np.right_shift(c, _HALF, out=c)
                np.multiply(_PHILOX_M1, a, out=a)
                np.add(c, a, out=c)                     # t = m1 x0 + (m0 x0 >> 32)
                np.bitwise_and(c, _LOW, out=a)
                np.multiply(_PHILOX_M0, b, out=even)
                np.add(a, even, out=a)                  # w = (t & low) + m0 x1
                np.right_shift(a, _HALF, out=a)
                np.right_shift(c, _HALF, out=c)
                np.multiply(_PHILOX_M1, b, out=b)
                np.add(b, c, out=b)
                np.add(b, a, out=b)                     # hi = m1 x1 + (t >> 32) + (w >> 32)
                np.bitwise_xor(b[::-1], odd, out=even)
                np.bitwise_xor(even, key, out=even)
                odd, d = d[::-1], odd
            for half, floats in zip((even, odd), out[row:row + r, first:first + s].T):
                np.right_shift(half, u(11), out=a)
                np.multiply(a, 1.0 / 2**53, out=floats.transpose(0, 2, 1))
    return out.reshape(n, 4 * counters)[:, :steps]


def choose_branch(probs, u):
    """Inverse-CDF pick over the leading axis in ascending label order.

    Ties go to the lower label, and a pick that lands on a sub-floor branch
    walks back to the nearest lower viable one.  Nonnegative outcome-major
    ``probs`` of shape ``(k, ...)``, in any memory layout, with uniforms
    ``u`` of shape ``(...)`` give labels of shape ``(...)``.
    """
    probs = np.asarray(probs, dtype=float)
    k, u = len(probs), np.asarray(u)
    # the searchsorted(side="right") position, capped at k - 1: mostly a viable label
    at, cum = np.zeros(probs.shape[1:], np.intp), probs[0]
    for j in range(1, k):
        at += cum <= u
        cum = cum + probs[j]
    if np.minimum.reduce(cum, axis=None) < 1e-12:
        raise EngineError("no branch carries probability mass; broken instrument")
    if np.minimum.reduce(probs, axis=None) >= IMPOSSIBLE_BRANCH:
        return at
    viable = (np.arange(k).reshape((k,) + (1,) * at.ndim) <= at) & (probs >= IMPOSSIBLE_BRANCH)
    if not viable.any(axis=0).all():
        raise EngineError("impossible-branch selection; broken instrument")
    return k - 1 - viable[::-1].argmax(axis=0)


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
        if not np.isfinite((self.t0, *times)).all():
            raise EngineError("t0 and the control times must be finite")
        if times and times[0] <= self.t0:
            raise EngineError("first control time must exceed t0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise EngineError("control times must be strictly increasing")
        if self.t_final is not None:
            last = times[-1] if times else self.t0
            if not last <= self.t_final < np.inf:
                raise EngineError("t_final must be finite and not precede the last control time")
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

    ``plan`` gets the rows' delayed estimates in the representation's state
    shape and any memory layout, ``(n, d, d)`` matrices or the cavity's ``(n, d)`` populations,
    and their outcome labels and plan kind codes so far, each an ``(n, step - 1)`` integer
    array.  A kind's code is the order in which the run first sees it among the plans the
    policy hands out, so the plans of the first call code their kinds from 0.  ``plan``
    returns a sequence of ``StepPlan`` and an ``(n,)`` integer array indexing it, the plan
    of each row, which must be a pure function of that row's arguments.
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
        if self.log_prob < LOG_PROB_FLOOR:
            raise EngineError("log_prob must be nonnegative")
        if len(self.ledgers) != len(self.outcomes):
            raise EngineError("ledger count must equal outcome count")


# ---------------------------------------------------------------------------
# The batched stepping kernel shared by sampling, replay and enumeration.

# Rows sampled together.  Every per-row number comes from that row's own
# elementwise products, multiply-adds and spectra, so a record depends
# neither on this size nor on its batch-mates; the size bounds memory only.
BLOCK_ROWS = 1024


class _Run:
    """The inputs all rows share: the keywords of :func:`sample_blocks` and a representation."""

    def __init__(self, gen, schedule, policy, rho0, rep, *, method="exact", substeps=1,
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
        self.rep, self.state0 = rep, rep.initial(rho0)
        self.units = {(): 0}  # code of each tracked-unit signature, in code order
        self.kinds = {}  # likewise, each plan kind, in the order the policy first hands it out
        self.plans = self.codes = None  # the policy's last plans and their kind codes


class _Rows:
    """Per-row state of trajectories stepped together; the row leads every array.

    ``state`` holds the system states in the run's representation, ``energy``
    their energies, ``s_prev`` the stochastic entropy after the last control,
    ``outcomes`` and ``kinds`` the outcome labels and plan kind codes in
    ``run.kinds`` so far (what a policy reads), and ``columns`` the current
    step's ``_FLOAT_LEDGER`` row as floats, ``led`` their ledger view.  The
    step rewrites every column but the entropy productions and the unit
    columns of a representation without units, which stay zero.
    The histories of records hold the first ``kept`` rows only: ``ledger``,
    every step's columns as floats, and with ``store_states`` ``states``, the
    post-control states.  Delayed estimates are read from ``states`` when it
    holds every row; else ``recent`` holds the last ``delay`` post-control
    states, control ``k``'s in slot ``k % delay``.  The representation adds
    its own fields.
    """

    def __init__(self, run: _Run, n: int, kept: int):
        steps, shape, dtype = run.schedule.n_steps, run.state0.shape, run.state0.dtype
        self.log_prob, self.prob = np.zeros(n), np.ones(n)
        self.outcomes, self.kinds = np.zeros((n, steps), np.int64), np.zeros((n, steps), np.intp)
        self.ledger = np.zeros((kept, steps, len(_FLOAT_LEDGER)))
        self.states = np.empty((kept if run.store_states else 0, steps) + shape, dtype)
        slots = 0 if len(self.states) == n else max(0, min(run.policy.delay, steps))
        self.recent = np.empty((n, slots) + shape, dtype)
        self.columns = np.zeros((n, len(_FLOAT_LEDGER)))
        self.led = self.columns.view(_FLOAT_LEDGER)[:, 0]
        self.state = np.repeat(run.state0[None], n, axis=0)
        run.rep.start(run, self)
        self.energy, self.s_prev = run.rep.energy(self), run.rep.entropy(run, self)

    def estimates(self, run: _Run, k: int):
        """The states the policy plans control ``k`` on: those after control ``k - delay``,
        the initial ones before it, the current ones with no delay."""
        delay = run.policy.delay
        if delay <= 0:
            return self.state
        if k < delay:
            return np.broadcast_to(run.state0, self.state.shape)
        return self.recent[:, k % delay] if self.recent.shape[1] else self.states[:, k - delay]

    def keep(self, k: int):
        """Hold step ``k``'s columns and post-control states in the histories."""
        kept = len(self.ledger)
        self.ledger[:, k] = self.columns[:kept]
        if len(self.states):
            self.states[:, k] = self.state[:kept]
        if self.recent.shape[1]:
            self.recent[:, k % self.recent.shape[1]] = self.state

    def take(self, parent) -> "_Rows":
        """The rows ``parent``, in that order; a row may repeat.  A history of no rows stays."""
        new = _Rows.__new__(_Rows)
        for key, value in vars(self).items():
            setattr(new, key, value if len(value) == 0 else (
                value[parent] if isinstance(value, np.ndarray) else [value[i] for i in parent]))
        new.led = new.columns.view(_FLOAT_LEDGER)[:, 0]
        return new


def _by_units(run: _Run, rows: _Rows) -> list:
    """(tracked unit dimensions, row positions) of each group of rows that share them."""
    if len(run.units) == 1:  # no row has ever tracked a unit
        return [((), np.arange(len(rows.units)))]
    table = list(run.units)
    return [(table[c], np.flatnonzero(rows.units == c)) for c in np.unique(rows.units)]


def _tracked(rows: _Rows, idx, units: tuple) -> np.ndarray:
    """The tracked states of rows ``idx``: joint with their ``units``, else the system's."""
    return np.stack([rows.joint[i] for i in idx]) if units else rows.state[idx]


class _Matrices:
    """Density matrices, ``(d, d)`` per row: the engine's state representation.

    A row also holds its Hamiltonian ``h``, the one its next segment switches to
    (``pending``), whether a past inefficient unit carries energy (``energetic``) and its
    ``joint`` state with the tracked units, whose dimensions (nearest first) have the code
    ``units`` in ``run.units``.  A representation has the row ``fields`` a control
    replaces, and the methods below.
    """

    fields = ("state", "joint", "units", "pending", "energetic")

    def initial(self, rho0):
        return rho0.matrix

    def start(self, run: _Run, rows: _Rows):
        n = len(rows.state)
        rows.h = rows.pending = np.repeat(run.h0[None], n, axis=0)
        rows.energetic, rows.units, rows.joint = np.zeros(n, bool), np.zeros(n, int), [None] * n

    def energy(self, rows: _Rows) -> np.ndarray:
        return _expectation(rows.h, rows.state)

    def entropy(self, run: _Run, rows: _Rows) -> np.ndarray:
        """Von Neumann entropy of each row's tracked state; one spectrum per system state
        serves the positivity check and the entropy of the untracked rows."""
        s = shannon_entropy(density_spectrum(rows.state))
        for units, idx in _by_units(run, rows):
            if units:
                s[idx] = shannon_entropy(_eigvalsh(hermitize(_tracked(rows, idx, units))))
        return s

    def propagate(self, run: _Run, rows: _Rows, dt: float):
        """Switch every row to its pending Hamiltonian and drift its tracked state for ``dt``;
        returns the switch work."""
        before, h_before, rows.h = rows.state, rows.h, rows.pending
        d, sub, mat = run.gen.dim, dt / run.substeps, np.empty_like(before)
        for units, idx in _by_units(run, rows):
            state = _tracked(rows, idx, units)
            for _ in range(run.substeps):
                state = _propagate_matrix(run.gen, state, sub, run.method)
            if units:
                for i, j in zip(idx, state):
                    rows.joint[i] = j
                state = hermitize(_partial_trace_matrix(state, [d, *units], [0]))
            mat[idx] = state
        rows.state = mat
        return _switch_work(h_before, rows.h, before)

    def groups(self, run: _Run, rows: _Rows, plans, which, kind) -> list:
        """(row positions, what ``branches`` needs of them) of each group of rows."""
        return [(idx[which[idx] == w], (plans[w], units))
                for units, idx in _by_units(run, rows) for w in np.unique(which[idx])]

    def branches(self, run: _Run, rows: _Rows, idx, group) -> tuple:
        """Probabilities, average energy change, unnormalized energies, average heat and
        labels of the branches of rows ``idx``, and ``pick``: the row fields and unit columns
        of the chosen; ``(k, rows)`` outcome-major."""
        plan, units = group
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
        mat, h = rows.state[idx], rows.h[idx]
        raws = instr.branch_states(mat)  # the system's; the tracked ones while nothing else is
        w_unit, q_unit, de_unit = unit_energetics(instr, plan.h_unit, mat)
        if instr.efficient and not run.retain:
            post_raws = instr.branch_states(_tracked(rows, idx, units)) if units else raws
            new_units = units
        elif len(units) + 1 > run.max_units:
            raise EngineError(f"joint tracking would exceed max_units={run.max_units}")
        else:
            dilation = stinespring_dilate(instr)
            post_raws = dilation.unitary_readout(_tracked(rows, idx, units), units)[1]
            new_units = (dilation.unit_dim, *units)

        def pick(at, branch, p):
            post, n = hermitize(post_raws[at, branch]) / p[:, None, None], len(at)
            return {
                "state": hermitize(_partial_trace_matrix(post, [d, *new_units], [0])),
                "joint": list(post) if new_units else [None] * n,
                "units": np.full(n, run.units.setdefault(new_units, len(run.units))),
                "pending": h[at] if plan.next_hamiltonian is None else np.broadcast_to(
                    np.asarray(plan.next_hamiltonian, dtype=complex), (n, d, d)),
                "energetic": rows.energetic[idx[at]] | (plan.h_unit is not None
                                                        and not instr.efficient),
                "de_unit": de_unit[at, branch], "w_ctrl_unit": w_unit[at],
                "q_ctrl_unit": q_unit[at, branch],
            }

        probs, e_raws = _trace(raws).T, _expectation(h[:, None], raws).T
        work = _expectation(h, _ordered_sum(raws, 1) - mat)
        heat = _average_heat(probs, e_raws, rows.energy[idx] + work)
        return probs, work, e_raws, heat, instr.labels, pick


_MATRICES = _Matrices()


def _segment(run: _Run, rows: _Rows, k: int, dt: float):
    """Switch and drift every row up to control ``k``, filling its segment columns."""
    e_start, led = rows.energy, rows.led
    led["step"] = k + 1
    w = run.rep.propagate(run, rows, dt)
    e_pre = rows.energy = run.rep.energy(rows)
    led["e_sys_start"], led["e_sys_pre"], led["s_start"] = e_start, e_pre, rows.s_prev
    led["w_seg"], led["q_seg"] = w, e_pre - (e_start + w)
    led["s_pre"] = rows.log_prob + run.rep.entropy(run, rows)


def _control(run: _Run, rows: _Rows, k: int, select) -> _Rows:
    """Apply every row's planned control ``k``; returns the rows that continue.

    The policy plans every row in one call, and the representation groups
    the rows.  ``select(step, idx, labels, probs)`` picks, from the outcome-major
    ``(k, len(idx))`` branch probabilities of the group rows ``idx``, the (row in the
    group, branch) pairs that continue, in row order: one per row when sampling, every
    viable one (at least one) when enumerating.  A branch's energy is its
    unnormalized energy over its probability, and its heat what the first
    law leaves of the energy change past the work; the representation's
    ``branches`` gives each row's average heat too, which must vanish.
    """
    step = k + 1
    plans, which = run.policy.plan(step, rows.estimates(run, k), rows.outcomes[:, :k],
                                   rows.kinds[:, :k])
    if plans is not run.plans:  # plans the policy hands out again are coded already
        run.plans = plans
        run.codes = np.array([run.kinds.setdefault(p.kind, len(run.kinds)) for p in plans])
    kind = run.codes[which]
    parts = []
    for idx, group in run.rep.groups(run, rows, plans, which, kind):
        probs, work, e_raws, heat, labels, pick = run.rep.branches(run, rows, idx, group)
        _check_average_heat(heat)
        at, branch = select(step, idx, labels, probs)
        p = probs[branch, at]
        outcome = branch if labels == tuple(range(len(labels))) else np.asarray(labels)[branch]
        parts.append({"parent": idx[at], "branch": branch, "p": p, "outcome": outcome,
                      "logp_increment": 0.0 - np.log(p),  # never -0.0
                      "w_ctrl_sys": work[at], "e_sys_end": e_raws[branch, at] / p,
                      **pick(at, branch, p)})
    kids = parts[0]
    if len(parts) > 1:
        order = np.lexsort((np.concatenate([p["branch"] for p in parts]),
                            np.concatenate([p["parent"] for p in parts])))
        kids = {}
        for key, first in parts[0].items():
            if isinstance(first, list):
                flat = [x for part in parts for x in part[key]]
                kids[key] = [flat[i] for i in order]
            else:
                kids[key] = np.concatenate([part[key] for part in parts])[order]
    if len(kids["parent"]) != len(rows.state):  # else every row continues, in place
        rows, kind = rows.take(kids["parent"]), kind[kids["parent"]]
    for key in run.rep.fields:
        setattr(rows, key, kids[key])
    rows.log_prob, rows.prob = rows.log_prob + kids["logp_increment"], rows.prob * kids["p"]
    rows.kinds[:, k] = kind
    led, e_end, w = rows.led, kids["e_sys_end"], kids["w_ctrl_sys"]
    rows.outcomes[:, k] = led["outcome"] = kids["outcome"]
    led["logp_increment"] = kids["logp_increment"]
    led["e_sys_end"], led["w_ctrl_sys"], led["q_ctrl_sys"] = e_end, w, e_end - (rows.energy + w)
    led["s_end"] = rows.s_prev = rows.log_prob + run.rep.entropy(run, rows)
    for col in ("de_unit", "w_ctrl_unit", "q_ctrl_unit"):  # a representation without units
        if col in kids:                                    # leaves them zero
            led[col] = kids[col]
    rows.energy = e_end
    return rows


def _stepped(run: _Run, n: int, select, max_rows: int = MAX_TREE_LEAVES, *,
             kept: int | None = None, fold=None) -> _Rows:
    """``n`` rows from the initial state, stepped through the whole schedule.

    The histories hold the first ``kept`` rows (all by default, which
    enumeration needs, as its rows multiply).  ``fold(rows, k)``, if given,
    sees every step once it is written: that is how a reduction that keeps
    no history reads the run.
    """
    rows, t_prev = _Rows(run, n, n if kept is None else kept), run.schedule.t0
    for k, t in enumerate(run.schedule.times):
        _segment(run, rows, k, t - t_prev)
        rows, t_prev = _control(run, rows, k, select), t
        if fold is not None:
            fold(rows, k)
        rows.keep(k)
        if len(rows.state) > max_rows:
            raise EngineError(f"outcome tree exceeds {max_rows} leaves")
    t_final = run.schedule.t_final
    if t_final is not None and t_final > t_prev:
        run.rep.propagate(run, rows, t_final - t_prev)
    return rows


@dataclass(frozen=True)
class TrajectoryBlock:
    """Trajectories sampled together, as columns; row ``j`` is seed ``first + j``.

    ``ledger`` is the closed ``(n, steps)`` ``LEDGER_DTYPE`` record array,
    ``kinds`` the ``(n, steps)`` plan kind names, ``log_prob`` the ``(n,)``
    -ln probabilities, ``states`` the ``(n, steps, d, d)`` post-control
    system states (None without ``store_states``) and ``final_states`` the
    ``(n, d, d)`` system states at the end of the schedule.
    """

    first: int
    ledger: np.recarray
    kinds: np.ndarray
    log_prob: np.ndarray
    states: np.ndarray | None
    final_states: np.ndarray


def _block(run: _Run, rows: _Rows, first: int = 0) -> TrajectoryBlock:
    """The block of the kept rows, their ledgers closed in one call; a broken law names its
    row counted from ``first``.  The float history becomes the ledger in place, and the kind
    codes become names in one gather through the run's code table."""
    kept = len(rows.ledger)
    ledger = rows.ledger.view(LEDGER_DTYPE)[..., 0]
    ledger["step"], ledger["outcome"] = np.arange(1, ledger.shape[1] + 1), rows.outcomes[:kept]
    try:
        ledger = entropy_production_step(ledger, run.gen.beta)
    except ThermoError as exc:
        exc.row += first
        raise
    states = rows.states if run.store_states else None
    names = np.array(list(run.kinds), dtype=object)[rows.kinds[:kept]]
    return TrajectoryBlock(first, ledger, names, rows.log_prob[:kept], states, rows.state[:kept])


_NO_STATES = np.array([])
_NO_STATES.setflags(write=False)


def _records(block: TrajectoryBlock, times: tuple, rows=None) -> list:
    """The records of a block's ``rows`` (positions in the block; all by default).

    ``np.ndarray.__getitem__`` gives the same ``(steps,)`` recarray row as
    ``ledger[j]`` without ``recarray.__getitem__``'s dtype checks.
    """
    rows = np.arange(len(block.log_prob)) if rows is None else np.asarray(rows, dtype=int)
    row_of, ledger = np.ndarray.__getitem__, block.ledger
    states = block.states if block.states is not None else [_NO_STATES] * len(block.log_prob)
    return [
        TrajectoryRecord(tuple(outcomes), tuple(kinds), log_prob, row_of(ledger, j), states[j],
                         block.final_states[j], times)
        for j, outcomes, kinds, log_prob in zip(
            rows.tolist(), ledger["outcome"][rows].tolist(), block.kinds[rows].tolist(),
            block.log_prob[rows].tolist())
    ]


def _sampled(uniforms: np.ndarray):
    def select(step, idx, labels, probs):
        u = uniforms[:, step - 1]  # every row's; a group of all the rows lists them in order
        return np.arange(len(idx)), choose_branch(np.maximum(probs, 0.0),
                                                  u if len(idx) == len(u) else u[idx])
    return select


def _replayed(forced):
    def select(step, idx, labels, probs):
        if forced[step - 1] not in labels:
            raise EngineError(f"forced outcome {forced[step - 1]!r} is no label of step {step}")
        branch = labels.index(forced[step - 1])
        if (probs[branch] < IMPOSSIBLE_BRANCH).any():
            raise EngineError(f"forced outcome {forced[step - 1]} is impossible")
        return np.arange(len(idx)), np.full(len(idx), branch)
    return select


def _expanded(step, idx, labels, probs):
    return np.nonzero(probs.T >= IMPOSSIBLE_BRANCH)  # (row, branch) pairs in row order


# ---------------------------------------------------------------------------
# Public entry points.


def sample_blocks(gen: ThermalGenerator, schedule: ControlSchedule, policy: FeedbackPolicy,
                  rho0: DensityOperator, seeds, *, forced_outcomes=None, **options):
    """Sample one trajectory per seed, yielding a :class:`TrajectoryBlock` per ``BLOCK_ROWS`` seeds.

    Keywords: ``method`` ("exact" or "first_order"), ``substeps`` per drift
    segment, ``retain_efficient_units``, ``max_units`` jointly tracked,
    ``store_states``, ``hamiltonian0`` (the bookkeeping Hamiltonian in force
    before the first control; the generator's by default) and
    ``forced_outcomes``, one outcome sequence replayed on every row instead
    of sampling, which is how causality is audited.

    A caller that reads columns (say, counts outcomes) builds no record and
    never holds more than one block.  A seed fixes its trajectory
    bit-exactly: its row depends neither on the other seeds nor on its
    block.  A ledger that breaks a law raises ``ThermoError`` whose ``row``
    is the trajectory's position in ``seeds``.
    """
    run = _Run(gen, schedule, policy, rho0, _MATRICES, **options)
    if forced_outcomes is not None and len(forced_outcomes) != schedule.n_steps:
        raise EngineError(f"{len(forced_outcomes)} forced outcomes for {schedule.n_steps} steps")
    if not isinstance(seeds, np.ndarray):
        seeds = list(seeds)
    for first in range(0, len(seeds), BLOCK_ROWS):
        block = seeds[first:first + BLOCK_ROWS]
        if forced_outcomes is None:
            select = _sampled(stream_uniforms(block, schedule.n_steps))
        else:
            select = _replayed(forced_outcomes)
        yield _block(run, _stepped(run, len(block), select), first)


def sample_ensemble(gen: ThermalGenerator, schedule: ControlSchedule, policy: FeedbackPolicy,
                    rho0: DensityOperator, seeds, **options):
    """Sample one trajectory per seed, yielding the records in seed order.

    The records of each block of :func:`sample_blocks`, with its keywords.
    """
    for block in sample_blocks(gen, schedule, policy, rho0, seeds, **options):
        yield from _records(block, schedule.times)


def enumerate_tree(gen: ThermalGenerator, schedule: ControlSchedule, policy: FeedbackPolicy,
                   rho0: DensityOperator, *, max_leaves: int = MAX_TREE_LEAVES,
                   **options) -> list:
    """Exact outcome-tree expansion: (outcome sequence, probability, record) leaves.

    Takes the keywords of :func:`sample_blocks` but ``forced_outcomes``.
    The frontier grows one level at a time through the sampling kernel,
    every viable branch of a row becoming a row, so leaves come in
    lexicographic outcome order.  Probabilities across leaves sum to one up
    to the discarded sub-floor branches; each record's ``log_prob`` is the
    exact -ln(probability).
    """
    run = _Run(gen, schedule, policy, rho0, _MATRICES, **options)
    rows = _stepped(run, 1, _expanded, max_rows=max_leaves)
    records = _records(_block(run, rows), schedule.times)
    return [(rec.outcomes, float(p), rec) for rec, p in zip(records, rows.prob)]


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
    def of(cls, rows, out=None) -> "Moments":
        """Two-pass moments over the leading axis of ``rows``; ``out``, if given, an array of
        its shape to hold the squared deviations in (``rows`` itself, if it is no longer
        needed), spares a fresh allocation of that size."""
        rows = np.asarray(rows, dtype=float)
        sums = rows.sum(axis=0)
        dev = np.subtract(rows, sums / len(rows), out=out)
        return cls(len(rows), sums, np.square(dev, out=dev).sum(axis=0))

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
    """Per-step means and standard errors of every ledger column over an ensemble."""

    n_records: int
    column_means: dict
    column_se: dict

