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

from .channels import COMPLETENESS_ATOL, IMPOSSIBLE_BRANCH, Instrument, OutcomeBranch
from .channels import stinespring_dilate, _branch_states, _completeness_deviation
from .qmath import (
    DensityOperator,
    as_matrix,
    hermitize,
    shannon_entropy,
    von_neumann_entropy,
    _expectation,
    _ordered_sum,
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
    unit marginals.  The one-state case of :func:`_instrument_energetics` and
    :func:`unit_energetics`.
    """
    mat = rho_pre.matrix[None]
    probs, w_sys, q_sys = _instrument_energetics(
        instr._kraus[None], instr._starts, as_matrix(h_system)[None], mat)
    w_unit, q_unit, de_unit = unit_energetics(instr, h_unit, mat)
    viable = [(i, label) for i, label in enumerate(instr.labels)
              if probs[0, i] >= IMPOSSIBLE_BRANCH]
    return ControlEnergetics(
        labels=instr.labels,
        probabilities=probs[0],
        w_system=float(w_sys[0]),
        w_unit=float(w_unit[0]),
        q_system={label: float(q_sys[0, i]) for i, label in viable},
        q_unit={label: float(q_unit[0, i]) for i, label in viable},
        de_unit={label: float(de_unit[0, i]) for i, label in viable},
    )


def _instrument_energetics(kraus, starts, h, mat):
    """:func:`system_energetics` of one instrument per row: Kraus stacks ``kraus``
    ``(N, A, d, d)`` as :func:`channels._branch_states` takes them.

    Raises ``ThermoError`` if any of the instruments fails completeness.
    """
    if not (_completeness_deviation(kraus) <= COMPLETENESS_ATOL).all():
        raise ThermoError("instrument fails completeness; refusing energetics")
    return system_energetics(h, mat, _branch_states(kraus, starts, mat))


def system_energetics(h, mat, raws):
    """Probabilities, system work and per-outcome system heat of one control, row by row.

    For states ``mat`` of shape ``(N, d, d)`` under Hamiltonians ``h`` of the
    same shape, ``raws`` holds each outcome's unnormalized post state,
    ``(N, K, d, d)``, as :meth:`Instrument.branch_states` gives them.
    Returns ``(probabilities, w_system, q_system)`` of shapes ``(N, K)``,
    ``(N,)`` and ``(N, K)``, with zero heat for outcomes below
    ``IMPOSSIBLE_BRANCH``.  Every number comes from elementwise products and
    last-axis sums of its own row.  Raises ``ThermoError`` where a row's
    average heat is not zero.
    """
    probs = _trace(raws)
    avg = _ordered_sum(raws, 1)
    e_avg = _expectation(h, avg)
    viable = probs >= IMPOSSIBLE_BRANCH
    e_post = _expectation(h[:, None], raws) / np.where(viable, probs, 1.0)
    q_sys = np.where(viable, e_post - e_avg[:, None], 0.0)
    avg_q = _ordered_sum(probs * q_sys, 1)  # sum_r p_r q_r
    bad = np.abs(avg_q) > AVG_HEAT_ATOL
    if bad.any():
        raise ThermoError(f"average control heat {avg_q[bad][0]:.3e} is not zero")
    return probs, _expectation(h, avg - mat), q_sys


def unit_energetics(instr: Instrument, h_unit, mat):
    """Work, per-outcome heat and per-outcome energy change of the unit, row by row.

    The unit of ``instr``'s dilation carries Hamiltonian ``h_unit`` (None:
    an energetically neutral unit, all zeros); the control acts on system
    states ``mat`` of shape ``(N, d, d)``.  The work is the unit's energy
    change under the joint unitary, the heat that of the readout of outcome
    r, and ``de_unit`` their sum, computed from the unit's marginals so the
    unit's first law can be checked.  Returns arrays of shapes ``(N,)``,
    ``(N, K)`` and ``(N, K)``, zero for outcomes below ``IMPOSSIBLE_BRANCH``.
    """
    if h_unit is None:
        n, k = len(mat), len(instr.outcomes)
        return np.zeros(n), np.zeros((n, k)), np.zeros((n, k))
    dilation = stinespring_dilate(instr)
    hu = as_matrix(h_unit)
    if hu.shape != (dilation.unit_dim, dilation.unit_dim):
        raise ThermoError("unit Hamiltonian shape does not match the dilation")
    dims = [dilation.system_dim, dilation.unit_dim]
    correlated, raws = dilation.unitary_readout(mat)
    probs = _trace(raws)
    viable = probs >= IMPOSSIBLE_BRANCH
    e_u0 = _expectation(hu, dilation.unit_state.matrix)
    e_uv = _expectation(hu, _partial_trace_matrix(correlated, dims, [1]))
    e_ur = _expectation(hu, _partial_trace_matrix(raws, dims, [1])) / np.where(viable, probs, 1.0)
    return (e_uv - e_u0, np.where(viable, e_ur - e_uv[:, None], 0.0),
            np.where(viable, e_ur - e_u0, 0.0))


def stochastic_entropy(log_prob: float, state) -> float:
    """Record surprisal plus von Neumann entropy of the tracked state.

    On the efficient fast path the tracked state is the system alone; past
    units are pure and decorrelated there, so they contribute nothing.
    """
    if log_prob < -1e-12:
        raise ThermoError("accumulated -ln p cannot be negative")
    return float(log_prob) + float(von_neumann_entropy(as_matrix(state)))


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


def _branch_entropies(raws):
    """Probabilities of unnormalized branch states ``raws`` (..., K, D, D), and
    sum_r p_r S(raws_r / p_r) over the branches not below ``IMPOSSIBLE_BRANCH``."""
    probs = _trace(raws)
    viable = probs >= IMPOSSIBLE_BRANCH
    p = np.where(viable, probs, 1.0)
    spectra = np.linalg.eigvalsh(hermitize(raws) / p[..., None, None])
    return probs, np.where(viable, p * shannon_entropy(spectra), 0.0).sum(axis=-1)


def check_measurement_entropy_lemma(
    rho: DensityOperator, positive_ops, slack: float = 1e-9
) -> LemmaReport:
    """Check S(rho) <= S_Sh(p) + sum_n p_n S(rho_n) for a square-root readout.

    ``positive_ops`` must be positive operators whose squares sum to the
    identity; outcomes with negligible probability are skipped.  The
    one-state case of :func:`_entropy_lemma`.
    """
    readout = Instrument(rho.dim, tuple(OutcomeBranch(n, (p,)) for n, p in enumerate(positive_ops)))
    lhs, rhs = (float(side[0]) for side in _entropy_lemma(readout._kraus[None], rho.matrix[None]))
    margin = rhs - lhs
    return LemmaReport(lhs=lhs, rhs=rhs, margin=margin, passed=margin >= -slack)


def _entropy_lemma(ops, mats):
    """Both sides of the readout entropy inequality, one readout per state.

    ``ops`` (N, n, d, d) holds each readout's positive operators, ``mats``
    (N, d, d) the states.  Returns S(rho) and S_Sh(p) + sum_n p_n S(rho_n),
    each of shape (N,).  Raises ``ThermoError`` if any readout's operators
    do not square-sum to the identity.
    """
    if not (_completeness_deviation(ops) <= COMPLETENESS_ATOL).all():
        raise ThermoError("operators do not square-sum to the identity")
    probs, cond_entropy = _branch_entropies(_branch_states(ops, range(ops.shape[-3]), mats))
    return von_neumann_entropy(mats), shannon_entropy(probs) + cond_entropy


def average_control_entropy_production(
    instr: Instrument,
    rho_pre: DensityOperator,
) -> float:
    """Outcome-averaged control entropy production via the dilated joint state.

    Equals ``S_Sh(p) + sum_r p(r) S(joint post) - S(joint pre)`` since the
    average system heat vanishes; valid for inefficient instruments too.
    The one-state case of :func:`_control_entropy_production`.
    """
    return float(_control_entropy_production(stinespring_dilate(instr), rho_pre.matrix[None])[0])


def _control_entropy_production(dilation, mats):
    """Outcome-averaged control entropy production of each state in (N, d, d) ``mats``.

    ``dilation`` holds one joint unitary, or one per state (see
    :func:`channels._dilate`).  The unit starts pure and uncorrelated, so
    S(joint pre) is the entropy of the state.
    """
    probs, post_term = _branch_entropies(dilation.unitary_readout(mats)[1])
    return shannon_entropy(probs) + post_term - von_neumann_entropy(mats)
