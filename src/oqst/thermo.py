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

from .channels import COMPLETENESS_ATOL, IMPOSSIBLE_BRANCH, Instrument
from .channels import stinespring_dilate, _branch_states, _completeness_deviation
from .qmath import (
    DensityOperator,
    as_matrix,
    hermitize,
    shannon_entropy,
    von_neumann_entropy,
    _eigvalsh,
    _expectation,
    _ordered_sum,
    _partial_trace_matrix,
    _trace,
)

# Bounds of the laws and contracts, one row each: the engine, scenarios, CLI and verify read them.
FIRST_LAW_ATOL = 1e-10  # |dE_sys + dE_unit - W - Q| of a ledger row
AVG_HEAT_ATOL = 1e-10  # |outcome-averaged control heat|
SEGMENT_EP_FLOOR = -1e-10  # segment entropy production of a thermal drift
LOG_PROB_FLOOR = -1e-12  # accumulated -ln p, which may round below zero
TRUNCATION_LEAK = 1e-6  # cavity population at the number-basis cutoff
EFFICIENCY_CEILING = 1.0 + 1e-9  # cavity free-energy gain over resources spent
OUTCOME_ENTROPY_FLOOR = -1e-9  # outcome minus spectrum Shannon entropy
JARZYNSKI_RTOL = 1e-10  # |<exp(-beta dE)> - Z1/Z0| / (Z1/Z0)
CLASSICAL_IDENTITY_ATOL = 1e-8  # record - state - backward entropy production
RECORD_PRODUCTION_FLOOR = -1e-10  # record-based entropy production
CONTROL_EP_FLOOR = -1e-10  # outcome-averaged control entropy production
ENTROPY_LEMMA_FLOOR = -1e-9  # S_Sh(p) + sum_n p_n S(rho_n) - S(rho) of a readout
PARTIAL_TRACE_ATOL = 1e-12  # |tr - 1| of a partial trace
REDUCED_EIGENVALUE_FLOOR = -1e-10  # least eigenvalue of a partial trace
NORMALIZATION_ATOL = 1e-10  # |sum_r p_r - 1| of an instrument's branches
DILATION_ATOL = 1e-9  # a branch's probability and state, instrument against its dilation
DATA_PROCESSING_FLOOR = -1e-9  # mutual information lost to a local channel
DENSE_ORACLE_ATOL = 1e-9  # ledger of the population path against the density matrices'
SAMPLER_MAX_SE = 3.0  # sampled outcome frequency against the tree, in standard errors


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
    ``IMPOSSIBLE_BRANCH``.  The work is the average energy change; an
    outcome's heat is what the first law leaves of its energy change past
    the work, E(post_r) - (E(mat) + W), as the engine's ledger writes it.
    Every number comes from elementwise products and sums of its own row.
    Raises ``ThermoError`` where a row's average heat is not zero.
    """
    probs = _trace(raws)
    work = _expectation(h, _ordered_sum(raws, 1) - mat)
    e_raws, e_avg = _expectation(h[:, None], raws), _expectation(h, mat) + work
    _check_average_heat(_average_heat(probs.T, e_raws.T, e_avg))
    viable = probs >= IMPOSSIBLE_BRANCH
    q_sys = np.where(viable, e_raws / np.where(viable, probs, 1.0) - e_avg[:, None], 0.0)
    return probs, work, q_sys


def _average_heat(probs, e_raws, e_avg):
    """sum_r p_r (E(post_r) - e_avg) over the outcomes not below ``IMPOSSIBLE_BRANCH``, row by
    row, from outcome-major ``(K, N)`` probabilities and unnormalized branch energies
    ``e_raws`` = p_r E(post_r) and ``(N,)`` average post energies ``e_avg``."""
    return _ordered_sum((e_raws - probs * e_avg) * (probs >= IMPOSSIBLE_BRANCH), 0)


def _check_average_heat(avg_q):
    """Raise ``ThermoError`` where an average control heat ``avg_q`` is not zero."""
    if np.abs(avg_q).max(initial=0.0) > AVG_HEAT_ATOL:
        bad = np.abs(avg_q) > AVG_HEAT_ATOL
        raise ThermoError(f"average control heat {avg_q[bad][0]:.3e} is not zero")


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
# The same columns, all float64: a batch's row of them is one float block, which one sum
# over the rows reduces.  A step is written in this form.  Every field of both is 8 bytes at
# the same offset, so a float history turns into ledgers in place by rewriting its two
# integer columns.
_FLOAT_LEDGER = np.dtype([(name, np.float64) for name in LEDGER_DTYPE.names])


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
    nonnegative for a thermal generator; a value below ``SEGMENT_EP_FLOOR``
    (the one segment floor: the cavity's fold and law flags and ``verify``
    read it too) signals a propagation or bookkeeping bug.  Raises
    ``ThermoError`` naming the first step that breaks either law, in the
    lowest failing trajectory of a batch, whose row it carries as ``row``.
    """
    ledger = np.asarray(ledger, dtype=LEDGER_DTYPE).view(np.recarray)
    residual, seg_bad, bad = _close(ledger, beta)
    if bad.any():
        i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise _law_error(ledger, residual, seg_bad, i, int(i[0]) if bad.ndim == 2 else None)
    return ledger


def _close(ledger, beta: float) -> tuple:
    """Fill in the entropy productions of ``ledger``, any shape of ledger rows, in place.

    Returns its first-law residuals, where the segment law breaks and where
    either law does.  ``ledger`` may be a float view of the columns
    (``_FLOAT_LEDGER``), which is how a streamed reduction closes one step.
    """
    ledger["sigma_ctrl"] = (ledger["s_end"] - ledger["s_pre"]) - beta * ledger["q_ctrl_sys"]
    ledger["sigma_seg"] = (ledger["s_pre"] - ledger["s_start"]) - beta * ledger["q_seg"]
    residual = first_law_residual(ledger)
    seg_bad = ledger["sigma_seg"] < SEGMENT_EP_FLOOR
    return residual, seg_bad, seg_bad | (np.abs(residual) > FIRST_LAW_ATOL)


def _law_error(ledger, residual, seg_bad, i, row=None) -> ThermoError:
    """The error of ledger row ``i`` found failing by :func:`_close`; the segment law first."""
    if seg_bad[i]:
        return ThermoError(
            f"segment entropy production {ledger['sigma_seg'][i]:.3e} below "
            f"{SEGMENT_EP_FLOOR} on step {int(ledger['step'][i])}", row=row,
        )
    return ThermoError(
        f"first law residual {residual[i]:.3e} beyond {FIRST_LAW_ATOL} "
        f"on step {int(ledger['step'][i])}", row=row,
    )


def _branch_entropies(raws):
    """Probabilities of unnormalized branch states ``raws`` (..., K, D, D), and
    sum_r p_r S(raws_r / p_r) over the branches not below ``IMPOSSIBLE_BRANCH``."""
    probs = _trace(raws)
    viable = probs >= IMPOSSIBLE_BRANCH
    p = np.where(viable, probs, 1.0)
    spectra = _eigvalsh(hermitize(raws) / p[..., None, None])
    return probs, np.where(viable, p * shannon_entropy(spectra), 0.0).sum(axis=-1)


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
