"""Per-trajectory thermodynamic bookkeeping for control operations.

The split of a control operation's energy cost into work and heat follows
from its ancilla-unitary-readout form: the unitary part is work (it does
not depend on the outcome), the readout part is heat (it does).  The
system-side parts reduce to expressions in the instrument alone; the unit
parts need the dilation and vanish for energetically neutral units, which
is the default everywhere.

Entropy production over one interval splits into a drift part, positive
segment by segment for a thermal generator, and a control part, positive
only on average.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import IMPOSSIBLE_BRANCH, Instrument, stinespring_dilate, verify_instrument
from .qmath import (
    DensityOperator,
    as_matrix,
    dag,
    hermitize,
    shannon_entropy,
    von_neumann_entropy,
    _expectation,
    _partial_trace_matrix,
    _trace,
)

FIRST_LAW_ATOL = 1e-10
AVG_HEAT_ATOL = 1e-10
SEGMENT_EP_FLOOR = -1e-6
# Reported law thresholds of the projective, TPM and classical-limit runs.
OUTCOME_ENTROPY_FLOOR = -1e-9  # outcome minus spectrum Shannon entropy
JARZYNSKI_ATOL = 1e-10  # |<exp(-beta dE)> - Z1/Z0|
CLASSICAL_IDENTITY_ATOL = 1e-8  # record - state - backward entropy production
RECORD_PRODUCTION_FLOOR = -1e-10  # record-based entropy production


class ThermoError(ValueError):
    """Raised when the bookkeeping identities fail beyond tolerance.

    ``row`` names the failing trajectory's row when a batch of ledgers was
    checked, and is None otherwise.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class ControlEnergetics:
    """Work and per-outcome heat of one control operation.

    ``q_system`` and ``q_unit`` map outcome labels to heat; impossible
    outcomes carry no entry.  ``de_unit`` is the unit's total energy change
    per outcome, computed independently of the work/heat split so the unit
    first law can be checked rather than assumed.
    """

    labels: tuple
    probabilities: np.ndarray
    w_system: float
    w_unit: float
    q_system: dict
    q_unit: dict
    de_unit: dict

    def average_system_heat(self) -> float:
        return float(
            sum(self.probabilities[i] * self.q_system[lab]
                for i, lab in enumerate(self.labels) if lab in self.q_system)
        )


def control_energetics(
    instr: Instrument,
    h_system,
    rho_pre: DensityOperator,
    h_unit=None,
) -> ControlEnergetics:
    """Energetics of applying ``instr`` to ``rho_pre`` under ``h_system``.

    With ``h_unit`` omitted the unit is energetically neutral and all unit
    entries are zero.  Otherwise the instrument's dilation supplies the
    unit marginals.
    """
    if not verify_instrument(instr).passed:
        raise ThermoError("instrument fails completeness; refusing energetics")
    h = as_matrix(h_system)
    mat = rho_pre.matrix
    branch_raw = [b.apply_matrix(mat) for b in instr.outcomes]
    avg = sum(branch_raw)
    probs = np.array([np.trace(raw).real for raw in branch_raw])
    w_sys = float(np.trace(h @ (avg - mat)).real)
    e_avg = float(np.trace(h @ avg).real)
    q_sys: dict = {}
    for b, raw, p in zip(instr.outcomes, branch_raw, probs):
        if p < IMPOSSIBLE_BRANCH:
            continue
        q_sys[b.label] = float(np.trace(h @ raw).real / p - e_avg)
    avg_q = sum(probs[i] * q_sys[b.label]
                for i, b in enumerate(instr.outcomes) if b.label in q_sys)
    if abs(avg_q) > AVG_HEAT_ATOL:
        raise ThermoError(f"average control heat {avg_q:.3e} is not zero")

    w_unit = 0.0
    q_unit: dict = {}
    de_unit: dict = {}
    if h_unit is not None:
        hu = as_matrix(h_unit)
        dilation = stinespring_dilate(instr)
        if hu.shape != (dilation.unit_dim, dilation.unit_dim):
            raise ThermoError("unit Hamiltonian shape does not match the dilation")
        dims = [dilation.system_dim, dilation.unit_dim]
        correlated = dilation.joint_after_unitary(rho_pre)
        u_after_v = _partial_trace_matrix(correlated, dims, [1])
        e_u0 = float(np.trace(hu @ dilation.unit_state.matrix).real)
        e_uv = float(np.trace(hu @ u_after_v).real)
        w_unit = e_uv - e_u0
        for label, _, post in dilation.readout(correlated):
            if post is None:
                continue
            u_r = _partial_trace_matrix(post, dims, [1])
            e_ur = float(np.trace(hu @ u_r).real)
            q_unit[label] = e_ur - e_uv
            de_unit[label] = e_ur - e_u0
    else:
        for b in instr.outcomes:
            if b.label in q_sys:
                q_unit[b.label] = 0.0
                de_unit[b.label] = 0.0
    return ControlEnergetics(
        labels=instr.labels,
        probabilities=probs,
        w_system=w_sys,
        w_unit=w_unit,
        q_system=q_sys,
        q_unit=q_unit,
        de_unit=de_unit,
    )


def system_energetics(h, mat, raws):
    """Probabilities, system work and per-outcome system heat of one control, row by row.

    For states ``mat`` of shape ``(N, d, d)`` under Hamiltonians ``h`` of the
    same shape, ``raws`` holds each outcome's unnormalized post state,
    ``(N, K, d, d)``.  Returns ``(probabilities, w_system, q_system)`` of
    shapes ``(N, K)``, ``(N,)`` and ``(N, K)``, with zero heat for outcomes
    below ``IMPOSSIBLE_BRANCH``.  Every number comes from elementwise
    products and last-axis sums of its own row, in the order of the
    one-state reference :func:`control_energetics`.  Raises ``ThermoError``
    where a row's average heat is not zero.
    """
    probs = _trace(raws)
    avg = raws[:, 0]
    for b in range(1, raws.shape[1]):
        avg = avg + raws[:, b]
    e_avg = _expectation(h, avg)
    viable = probs >= IMPOSSIBLE_BRANCH
    e_post = _expectation(h[:, None], raws) / np.where(viable, probs, 1.0)
    q_sys = np.where(viable, e_post - e_avg[:, None], 0.0)
    avg_q = 0.0
    for b in range(raws.shape[1]):
        avg_q = avg_q + probs[:, b] * q_sys[:, b]
    bad = np.abs(avg_q) > AVG_HEAT_ATOL
    if bad.any():
        raise ThermoError(f"average control heat {avg_q[bad][0]:.3e} is not zero")
    return probs, _expectation(h, avg - mat), q_sys


def stochastic_entropy(log_prob: float, state) -> float:
    """Record surprisal plus von Neumann entropy of the tracked state.

    On the efficient fast path the tracked state is the system alone; past
    units are pure and decorrelated there, so they contribute nothing.
    """
    if log_prob < -1e-12:
        raise ThermoError("accumulated -ln p cannot be negative")
    return float(log_prob) + von_neumann_entropy(as_matrix(state))


# One row per interval (segment then control) of a trajectory's ledger.
# Energies are in the protocol's energy unit, entropies in nats.  The
# stochastic entropies s_start/s_pre/s_end refer to just after the previous
# control, just before this one, and just after it.  A trajectory's ledger
# is a record array of shape (steps,); a batch stacks them to (N, steps).
LEDGER_DTYPE = np.dtype(
    [("step", np.int64), ("outcome", np.int64)]
    + [(name, np.float64) for name in (
        "logp_increment", "e_sys_start", "e_sys_pre", "e_sys_end", "de_unit",
        "w_seg", "q_seg", "w_ctrl_sys", "w_ctrl_unit", "q_ctrl_sys",
        "q_ctrl_unit", "s_start", "s_pre", "s_end", "sigma_ctrl", "sigma_seg",
    )]
)


def first_law_residual(ledger):
    """dE_sys + dE_unit - W - Q, for a ledger row, a trajectory or a batch."""
    de = (ledger["e_sys_end"] - ledger["e_sys_start"]) + ledger["de_unit"]
    work = ledger["w_seg"] + ledger["w_ctrl_sys"] + ledger["w_ctrl_unit"]
    heat = ledger["q_seg"] + ledger["q_ctrl_sys"] + ledger["q_ctrl_unit"]
    return de - work - heat


def entropy_production_step(ledger, beta: float) -> np.recarray:
    """Close ledgers: fill in the entropy productions and check both laws.

    ``ledger`` holds the rows of one trajectory, shape ``(steps,)``, or of
    a batch, ``(N, steps)``, as ``LEDGER_DTYPE`` tuples or a structured
    array (which is filled in place); the ``sigma_ctrl``/``sigma_seg``
    entries it carries are overwritten.  The segment part must be
    nonnegative for a thermal generator; a value below
    ``SEGMENT_EP_FLOOR`` signals a propagation or bookkeeping bug.  Raises
    ``ThermoError`` naming the first step that breaks either law, in the
    lowest failing trajectory of a batch, whose row it carries as ``row``.
    """
    ledger = np.asarray(ledger, dtype=LEDGER_DTYPE).view(np.recarray)
    ledger.sigma_ctrl = (ledger.s_end - ledger.s_pre) - beta * ledger.q_ctrl_sys
    ledger.sigma_seg = (ledger.s_pre - ledger.s_start) - beta * ledger.q_seg
    residual = first_law_residual(ledger)
    seg_bad = ledger.sigma_seg < SEGMENT_EP_FLOOR
    bad = seg_bad | (np.abs(residual) > FIRST_LAW_ATOL)
    if bad.any():
        i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        row = int(i[0]) if bad.ndim == 2 else None
        if seg_bad[i]:
            raise ThermoError(
                f"segment entropy production {ledger.sigma_seg[i]:.3e} below "
                f"{SEGMENT_EP_FLOOR} on step {ledger.step[i]}", row=row,
            )
        raise ThermoError(
            f"first law residual {residual[i]:.3e} beyond {FIRST_LAW_ATOL} "
            f"on step {ledger.step[i]}", row=row,
        )
    return ledger


@dataclass(frozen=True)
class LemmaReport:
    lhs: float
    rhs: float
    margin: float
    passed: bool


def check_measurement_entropy_lemma(
    rho: DensityOperator, positive_ops, slack: float = 1e-9
) -> LemmaReport:
    """Check S(rho) <= S_Sh(p) + sum_n p_n S(rho_n) for a square-root readout.

    ``positive_ops`` must be positive operators whose squares sum to the
    identity; outcomes with negligible probability are skipped.
    """
    ops = [np.asarray(p, dtype=complex) for p in positive_ops]
    total = sum(dag(p) @ p for p in ops)
    if np.max(np.abs(total - np.eye(rho.dim))) > 1e-10:
        raise ThermoError("operators do not square-sum to the identity")
    probs = []
    cond_entropy = 0.0
    for p_op in ops:
        raw = p_op @ rho.matrix @ dag(p_op)
        p = float(np.trace(raw).real)
        probs.append(max(p, 0.0))
        if p > IMPOSSIBLE_BRANCH:
            cond_entropy += p * von_neumann_entropy(hermitize(raw) / p)
    lhs = von_neumann_entropy(rho)
    rhs = shannon_entropy(np.array(probs)) + cond_entropy
    margin = rhs - lhs
    return LemmaReport(lhs=lhs, rhs=rhs, margin=margin, passed=margin >= -slack)


def average_control_entropy_production(
    instr: Instrument,
    rho_pre: DensityOperator,
) -> float:
    """Outcome-averaged control entropy production via the dilated joint state.

    Equals ``S_Sh(p) + sum_r p(r) S(joint post) - S(joint pre)`` since the
    average system heat vanishes; valid for inefficient instruments too.
    """
    dilation = stinespring_dilate(instr)
    correlated = dilation.joint_after_unitary(rho_pre)
    probs = []
    post_term = 0.0
    for _, p, post in dilation.readout(correlated):
        probs.append(p)
        if post is not None:
            post_term += p * von_neumann_entropy(post)
    s_pre = von_neumann_entropy(rho_pre)  # unit starts pure and uncorrelated
    return shannon_entropy(np.array(probs)) + post_term - s_pre
