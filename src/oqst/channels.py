"""Outcome-labeled quantum instruments and their ancilla-unitary-readout form.

An :class:`Instrument` is a family of completely positive maps, one per
outcome label, given in operator-sum (Kraus) form and summing to a trace
preserving map.  :func:`stinespring_dilate` rewrites any instrument as a
fresh ancilla ("unit") in a pure state, a joint unitary, and a projective
readout of the unit; that form is what fixes the work/heat split of a
control operation in the thermodynamics layer.  An instrument is
immutable, so it computes its stacked Kraus operators, its completeness
deviation and its dilation at most once and keeps them.

Both forms act through one batched kernel each, on stacks of states and
of operators: :func:`_branch_states` (Kraus stacks ``(..., A, d, d)``) and
:meth:`StinespringDilation.unitary_readout` (one joint unitary, or one per
state).  :func:`_dilate` builds the dilations of a whole Kraus stack at
once.  The one-instrument, one-state functions here are their N = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .qmath import (
    HERMITICITY_ATOL,
    DensityOperator,
    dag,
    hermitize,
    is_unitary,
    _complex,
    _gaussian,
    _insert_unit,
    _partial_trace_matrix,
    _sandwich,
    _trace,
)

COMPLETENESS_ATOL = 1e-10
# Branch probabilities below this are flagged impossible and carry no state.
IMPOSSIBLE_BRANCH = 1e-15


class ChannelError(ValueError):
    """Raised for structurally invalid instruments or dilations."""


@dataclass(frozen=True)
class OutcomeBranch:
    """One outcome's CP map as a nonempty tuple of Kraus operators."""

    label: int
    kraus: tuple

    def __post_init__(self):
        if not self.kraus:
            raise ChannelError(f"branch {self.label} has no Kraus operators")
        ops = tuple(np.array(k, dtype=complex) for k in self.kraus)
        d = ops[0].shape[0]
        for k in ops:
            if k.ndim != 2 or k.shape != (d, d):
                raise ChannelError("Kraus operators must be square and equally sized")
            k.setflags(write=False)
        object.__setattr__(self, "kraus", ops)


@dataclass(frozen=True)
class Instrument:
    """Outcome-labeled family of CP maps summing to a CPTP map.

    Construction checks shapes and label ordering only, so that deliberately
    broken instruments can still be built and reported on; their users read
    ``completeness_deviation`` against ``COMPLETENESS_ATOL``.  The
    completeness deviation and the dilation are computed on first use and
    kept on the instance.
    """

    dim: int
    outcomes: tuple

    def __post_init__(self):
        branches = tuple(self.outcomes)
        if not branches:
            raise ChannelError("instrument needs at least one outcome branch")
        labels = [b.label for b in branches]
        if labels != sorted(labels) or len(set(labels)) != len(labels):
            raise ChannelError("outcome labels must be unique and ascending")
        for b in branches:
            if b.kraus[0].shape[0] != self.dim:
                raise ChannelError("branch dimension differs from instrument dim")
        object.__setattr__(self, "outcomes", branches)

    @property
    def labels(self) -> tuple:
        return tuple(b.label for b in self.outcomes)

    @property
    def efficient(self) -> bool:
        """True when every branch has exactly one Kraus operator."""
        return all(len(b.kraus) == 1 for b in self.outcomes)

    @cached_property
    def completeness_deviation(self) -> float:
        """max |sum_{r,a} A_a(r)† A_a(r) - 1| over the matrix entries."""
        return float(_completeness_deviation(self._kraus))

    @cached_property
    def _dilation(self) -> "StinespringDilation":
        return _dilate(self._kraus, self._starts, self.labels)

    @cached_property
    def _kraus(self) -> np.ndarray:
        """Every Kraus operator, (A, dim, dim), in outcome order."""
        return np.array([k for b in self.outcomes for k in b.kraus])

    @cached_property
    def _starts(self) -> list:
        """Index in ``_kraus`` of each outcome's first Kraus operator."""
        return list(accumulate((len(b.kraus) for b in self.outcomes[:-1]), initial=0))

    def branch_states(self, mat) -> np.ndarray:
        """Each outcome's unnormalized post state, ``(..., D, D)`` -> ``(..., K, D, D)``;
        see :func:`_branch_states`."""
        return _branch_states(self._kraus, self._starts, mat)

    def branch(self, label: int) -> OutcomeBranch:
        for b in self.outcomes:
            if b.label == label:
                return b
        raise KeyError(label)


def _completeness_deviation(kraus) -> np.ndarray:
    """max |sum_a K_a† K_a - 1| of each instrument in a (..., A, d, d) Kraus stack."""
    total = (dag(kraus) @ kraus).sum(axis=-3)
    return np.abs(total - np.eye(kraus.shape[-1])).max(axis=(-2, -1))


def _branch_states(kraus, starts, mat) -> np.ndarray:
    """Each outcome's unnormalized post state, ``(..., D, D)`` -> ``(..., K, D, D)``.

    ``kraus`` (..., A, d, d) stacks the Kraus operators of an instrument in
    outcome order, outcome r's first one at index ``starts[r]``.  Outcome r
    gives sum_a (A_a(r) ⊗ 1) mat (A_a(r) ⊗ 1)†, acting on the leading
    (system) factor of ``mat``.  The leading axes of ``kraus`` and ``mat``
    broadcast: one instrument for every state, or one per state.  Each
    matrix's result comes from its own elementwise products and sums.
    """
    per_kraus = _sandwich(kraus, np.asarray(mat)[..., None, :, :])
    if len(starts) == kraus.shape[-3]:  # one Kraus operator per outcome
        return per_kraus
    return np.add.reduceat(per_kraus, starts, axis=-3)


@dataclass(frozen=True)
class BranchResult:
    """One outcome of applying an instrument: label, probability, conditional state.

    ``state`` is None for impossible branches (probability below 1e-15).
    """

    label: int
    probability: float
    state: DensityOperator | None


def apply_instrument(instr: Instrument, rho: DensityOperator) -> list[BranchResult]:
    """Apply every branch, returning (label, probability, normalized state) triples.

    Probabilities sum to one for a complete instrument; branches with
    probability below ``IMPOSSIBLE_BRANCH`` carry no state.
    """
    if instr.dim != rho.dim:
        raise ChannelError(f"instrument dim {instr.dim} != state dim {rho.dim}")
    return [
        BranchResult(label, p, None if post is None else DensityOperator(post))
        for label, p, post in _outcomes(instr.labels, instr.branch_states(rho.matrix))
    ]


def _normalized(raws):
    """Normalize unnormalized branch states ``raws`` (..., K, D, D).

    Returns the branch probabilities (..., K), clipped at zero, which
    branches are viable (not below ``IMPOSSIBLE_BRANCH``), and each branch's
    hermitized state divided by its probability; a branch that is not
    viable keeps its hermitized unnormalized state.
    """
    probs = np.maximum(_trace(raws), 0.0)
    viable = probs >= IMPOSSIBLE_BRANCH
    return probs, viable, hermitize(raws) / np.where(viable, probs, 1.0)[..., None, None]


def _outcomes(labels, raws):
    """``(label, probability, normalized state)`` per outcome of unnormalized ``raws``
    (K, D, D); the state is None for branches below ``IMPOSSIBLE_BRANCH``."""
    probs, viable, states = _normalized(raws)
    for label, p, ok, state in zip(labels, probs.tolist(), viable.tolist(), states):
        yield label, p, state if ok else None


def average_map(instr: Instrument, rho: DensityOperator) -> DensityOperator:
    """The outcome-averaged CPTP map applied to ``rho``."""
    if instr.dim != rho.dim:
        raise ChannelError(f"instrument dim {instr.dim} != state dim {rho.dim}")
    return DensityOperator(hermitize(instr.branch_states(rho.matrix).sum(axis=0)))


def projective_instrument(basis) -> Instrument:
    """Rank-1 projective instrument from an orthonormal basis (rows or list)."""
    vecs = [np.asarray(v, dtype=complex).ravel() for v in basis]
    dim = vecs[0].size
    gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
    if np.max(np.abs(gram - np.eye(len(vecs)))) > HERMITICITY_ATOL:
        raise ChannelError("basis vectors are not orthonormal within 1e-10")
    branches = tuple(
        OutcomeBranch(label=i, kraus=(np.outer(v, np.conj(v)),))
        for i, v in enumerate(vecs)
    )
    return Instrument(dim=dim, outcomes=branches)


@dataclass(frozen=True)
class StinespringDilation:
    """Unit + joint unitary + unit projectors realizing an instrument.

    Applying the joint unitary to (system ⊗ unit), measuring the unit with
    the projector of outcome ``r`` and tracing out the unit reproduces the
    branch map of ``r`` exactly.  ``joint_unitary`` may also be a
    (..., D, D) stack, one unitary per instrument of a Kraus stack sharing
    the unit and projectors, as :func:`_dilate` builds it;
    :meth:`unitary_readout` then maps a stack of states, one per unitary.
    The one-state methods take a single unitary.
    """

    system_dim: int
    unit_dim: int
    unit_state: DensityOperator
    joint_unitary: np.ndarray
    projectors: tuple  # ((label, matrix on the unit), ...) in label order

    def __post_init__(self):
        v = np.array(self.joint_unitary, dtype=complex)
        d = self.system_dim * self.unit_dim
        if v.shape[-2:] != (d, d):
            raise ChannelError("joint unitary has the wrong shape")
        if np.max(np.abs(dag(v) @ v - np.eye(d))) > COMPLETENESS_ATOL:
            raise ChannelError("joint unitary is not unitary within 1e-10")
        stack = np.array([p for _, p in self.projectors], dtype=complex)
        masks = np.diagonal(stack, axis1=-2, axis2=-1).real == 1  # outcome r's unit levels
        if (stack.shape[1:] != (self.unit_dim, self.unit_dim)
                or not np.array_equal(stack, masks[..., None] * np.eye(self.unit_dim))):
            raise ChannelError("unit projectors must be diagonal 0/1 matrices on the unit")
        if not (masks.sum(axis=0) == 1).all():
            raise ChannelError("unit projectors do not square-sum to the identity")
        v.setflags(write=False)
        stack.setflags(write=False)
        masks.setflags(write=False)
        object.__setattr__(self, "joint_unitary", v)
        object.__setattr__(self, "_unit_masks", masks)
        object.__setattr__(self, "projectors", tuple(
            (int(label), p) for (label, _), p in zip(self.projectors, stack)))

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.projectors)

    def _read_unit(self, correlated: np.ndarray) -> np.ndarray:
        """P_r x P_r† on the unit factor of (N, D, D) states: (N, K, D, D).

        Each P_r is a diagonal 0/1 projector, so the product keeps exactly
        the entries whose row and column unit levels both belong to outcome r.
        """
        inner = correlated.shape[-1] // (self.system_dim * self.unit_dim)
        levels = np.tile(np.repeat(self._unit_masks, inner, axis=-1), self.system_dim)
        return np.where(levels[:, :, None] & levels[:, None, :], correlated[:, None], 0.0)

    def unitary_readout(self, states: np.ndarray, rest: tuple = ()):
        """Add the unit, run the joint unitary and read the unit out, on (N, D, D) states.

        ``states`` live on the system followed by factors of dimensions
        ``rest``, which no step touches; the fresh unit goes right after the
        system.  Returns the joint states after the unitary and each
        outcome's unnormalized joint state after the readout, shapes
        (N, D', D') and (N, K, D', D'), on system ⊗ unit ⊗ rest.
        """
        extended = _insert_unit(states, [self.system_dim, *rest], self.unit_state.matrix)
        correlated = _sandwich(self.joint_unitary, extended)
        return correlated, self._read_unit(correlated)

    def readout(self, correlated: np.ndarray):
        """Read the unit out of a joint matrix taken after the joint unitary.

        ``correlated`` lives on system ⊗ unit, optionally followed by
        further factors, which the projectors leave alone.  Yields
        ``(label, probability, normalized joint state)`` in label order; the
        state is None for branches below ``IMPOSSIBLE_BRANCH``.
        """
        yield from _outcomes(self.labels, self._read_unit(np.asarray(correlated)[None])[0])

    def apply(self, rho: DensityOperator) -> list[BranchResult]:
        """Reduced branch action; should match :func:`apply_instrument`."""
        dims, raws = [self.system_dim, self.unit_dim], self.unitary_readout(rho.matrix[None])[1]
        return [
            BranchResult(label, p, None if post is None
                         else DensityOperator(_partial_trace_matrix(post, dims, [0])))
            for label, p, post in _outcomes(self.labels, raws[0])
        ]


def stinespring_dilate(instr: Instrument) -> StinespringDilation:
    """Minimal dilation: one unit level per Kraus operator (padded to >= 2).

    The unit starts in its first basis state; the joint unitary sends
    ``|psi>|0>`` to ``sum_(r,a) A_a(r)|psi> |index(r,a)>`` and is completed
    deterministically on the remaining columns.  The projector of outcome
    ``r`` is the sum of ``|index><index|`` over that branch, with any pad
    levels attached to the last outcome so the readout stays complete.
    Built once per instrument; later calls return the same object.
    """
    return instr._dilation


def _dilate(kraus, starts, labels) -> StinespringDilation:
    """Dilations of the instruments in a Kraus stack ``kraus`` (..., A, d, d).

    Outcome r, labelled ``labels[r]``, has its first Kraus operator at index
    ``starts[r]``.  One joint unitary per instrument, built as
    :func:`stinespring_dilate` describes; the unit and its projectors depend
    on the outcome structure alone, so the instruments share them.
    """
    dev = _completeness_deviation(kraus)
    if not (dev <= COMPLETENESS_ATOL).all():
        raise ChannelError(f"cannot dilate: completeness deviation {dev.max():.3e}")
    *lead, count, d, _ = kraus.shape
    unit_dim = max(count, 2)
    # Isometry |s>|0> -> sum_(r,a) A_a(r)|s>|index(r,a)>: row (s', index) holds A[s', :].
    iso = np.zeros((*lead, d, unit_dim, d), dtype=complex)
    iso[..., :count, :] = np.swapaxes(kraus, -3, -2)
    iso = iso.reshape(*lead, d * unit_dim, d)
    # Inputs |s, 0> take the isometry's columns, the others the SVD complement in order.
    complement = np.linalg.svd(iso, full_matrices=True)[0][..., d:]
    fresh = np.arange(d * unit_dim) % unit_dim == 0
    v = np.empty((*lead, d * unit_dim, d * unit_dim), dtype=complex)
    v[..., fresh], v[..., ~fresh] = iso, complement
    # Outcome r's unit levels are its Kraus indices; pad levels go to the last outcome.
    owner = np.searchsorted(starts, np.arange(unit_dim), side="right") - 1
    projectors = tuple((label, np.diag((owner == r).astype(complex)))
                       for r, label in enumerate(labels))
    return StinespringDilation(
        system_dim=d,
        unit_dim=unit_dim,
        unit_state=DensityOperator.basis_state(unit_dim, 0),
        joint_unitary=v,
        projectors=projectors,
    )


def random_instrument(
    rng: np.random.Generator,
    dim: int,
    n_outcomes: int,
    kraus_per_outcome: int = 1,
) -> Instrument:
    """Random complete instrument from a Haar-ish isometry, split into branches."""
    ops = _random_kraus(rng, dim, n_outcomes * kraus_per_outcome)
    branches = []
    for r in range(n_outcomes):
        branches.append(OutcomeBranch(
            label=r, kraus=tuple(ops[r * kraus_per_outcome:(r + 1) * kraus_per_outcome])))
    return Instrument(dim=dim, outcomes=tuple(branches))


def _random_kraus(rng: np.random.Generator, dim: int, total: int) -> np.ndarray:
    """The Kraus operators of :func:`random_instrument`, (total, dim, dim) in
    outcome order, from the same draws."""
    return _isometry_kraus(_kraus_draws(rng, dim, total))


def _kraus_draws(rng: np.random.Generator, dim: int, total: int) -> np.ndarray:
    """The Gaussian draws (2, dim * total, dim) behind :func:`_random_kraus`."""
    return _gaussian(rng, (dim * total, dim))


def _isometry_kraus(draws: np.ndarray) -> np.ndarray:
    """Kraus stacks (..., total, dim, dim) from draws (..., 2, dim * total, dim): the
    isometry Q of the QR of each draw's complex matrix, cut into dim x dim blocks."""
    g = _complex(draws)
    dim = g.shape[-1]
    return np.linalg.qr(g)[0].reshape(*g.shape[:-2], -1, dim, dim)


def unitary_kick(u) -> Instrument:
    """Single-outcome instrument applying a unitary (a deterministic kick)."""
    m = np.array(u, dtype=complex)
    if not is_unitary(m):
        raise ChannelError("kick operator is not unitary within 1e-10")
    return Instrument(dim=m.shape[0], outcomes=(OutcomeBranch(label=0, kraus=(m,)),))
