"""Dense complex linear algebra on small Hilbert spaces plus entropy functionals.

Everything here is a pure function of its inputs.  Matrices are plain
``numpy`` arrays in row-major order; states are wrapped in
:class:`DensityOperator`, a validating container that most functions also
accept unwrapped (as a bare matrix) so that unnormalized intermediate
states can reuse the same kernels.

Conventions: entropies are in nats, ``0 * log 0 == 0``, and eigenvalues
up to ``EIG_CLAMP`` count as zero in any logarithm because
post-measurement states are routinely rank deficient.  The entropy
functions act on one state or on a ``(..., d, d)`` stack of them.

Every spectrum goes through one kernel.  A stack of 2 x 2 Hermitian
matrices, the qubit case, takes the closed form
``(a + d)/2 -+ hypot((a - d)/2, |b|)`` in one array pass, within
2 eps * ||A|| of the exact eigenvalues (LAPACK is within about 6); every
other size goes to LAPACK's ``eigvalsh``, one call per stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Eigenvalues up to this are treated as exact zeros inside logarithms.
EIG_CLAMP = 1e-12

HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
POSITIVITY_ATOL = 1e-10


class QmathError(ValueError):
    """Raised when a matrix or a subsystem split violates its contract."""


def as_matrix(op) -> np.ndarray:
    """Return the underlying complex matrix of ``op``.

    Accepts a :class:`DensityOperator` or anything ``np.asarray`` handles.
    """
    if isinstance(op, DensityOperator):
        return op.matrix
    return np.asarray(op, dtype=complex)


def dag(a) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a (..., d, d) stack."""
    return np.swapaxes(np.conj(np.asarray(a)), -1, -2)


def hermitize(a) -> np.ndarray:
    """Symmetrize ``(a + a†)/2`` to suppress accumulated floating-point skew."""
    m = as_matrix(a)
    return 0.5 * (m + dag(m))


def _matmul(a, b) -> np.ndarray:
    """Matrix product over leading batch axes, adding up the contracted index as
    elementwise multiply-adds, so each matrix's product does not depend on the others.

    The terms are added left to right from zero, as numpy sums fewer than
    eight terms, so for d <= 3 the product is the one a last-axis sum gives,
    bit for bit.
    """
    a, b = np.asarray(a), np.asarray(b)
    # every term goes into one reused array, so the loop allocates nothing per term
    shape = np.broadcast_shapes(a.shape[:-1] + (1,), b.shape[:-2] + (1, b.shape[-1]))
    out = np.empty(shape, np.result_type(a, b))
    term = np.empty_like(out)
    np.multiply(a[..., :, None, 0], b[..., None, 0, :], out=out)
    for j in range(1, a.shape[-1]):
        out += np.multiply(a[..., :, None, j], b[..., None, j, :], out=term)
    out += 0.0  # a sum that starts from zero is never -0.0
    return out


def _sandwich(a, x) -> np.ndarray:
    """(a ⊗ 1) x (a ⊗ 1)† for (..., D, D) matrices ``x``, by ``_matmul``.

    ``a`` (..., k, k) acts on the leading factor; the leading axes of ``a``
    and ``x`` broadcast.
    """
    big, k = x.shape[-1], a.shape[-1]
    if k == big:  # a acts on the whole space
        out, a_dag = _matmul(a, x), dag(a)
        # a row of (a x) a† needs only its own row of a x, so each half of the rows
        # overwrites its own input, which holds three stacks at most, not four
        for rows in (slice(0, big // 2), slice(big // 2, big)):
            out[..., rows, :] = _matmul(out[..., rows, :], a_dag)
        return out
    inner = big // k
    left = _matmul(a, x.reshape(x.shape[:-2] + (k, inner * big)))
    lead = left.shape[:-2]
    cols = left.reshape(lead + (big, k, inner)).swapaxes(-1, -2)
    out = _matmul(cols, dag(a)[..., None, :, :]).swapaxes(-1, -2)
    return out.reshape(lead + (big, big))


def _insert_unit(joint: np.ndarray, dims: list, unit_mat: np.ndarray) -> np.ndarray:
    """Tensor a fresh unit in right next to the system factor of (N, D, D) joint
    states whose factors are ``dims``, system first."""
    n, nd = joint.shape[0], dims + [unit_mat.shape[0]]
    k = len(nd)
    perm = [0, k - 1] + list(range(1, k - 1))
    t = np.kron(joint, unit_mat).reshape([n] + nd + nd)
    t = t.transpose([0] + [1 + p for p in perm] + [1 + k + p for p in perm])
    total = int(np.prod(nd))
    return np.ascontiguousarray(t).reshape(n, total, total)


def _expectation(h, mat) -> np.ndarray:
    """Re tr(h mat) over leading batch axes: the diagonal of h mat as ``_matmul``
    adds it up, then its trace."""
    h, mat = np.asarray(h), np.asarray(mat)
    diag = h[..., :, 0] * mat[..., 0, :]
    for j in range(1, h.shape[-1]):
        diag += h[..., :, j] * mat[..., j, :]
    return diag.sum(-1).real


def _trace(mat) -> np.ndarray:
    """Real part of the trace of each matrix in a (..., d, d) stack."""
    return np.trace(mat, axis1=-2, axis2=-1).real


def _ordered_sum(a, axis: int) -> np.ndarray:
    """Sum over ``axis`` strictly left to right, as Python's ``sum`` adds.

    numpy's reduction may pair the terms otherwise, which moves the last bit.
    """
    a = np.asarray(a)
    lead = (slice(None),) * (axis % a.ndim)
    total = a[(*lead, 0)]
    for j in range(1, a.shape[axis]):
        total = total + a[(*lead, j)]
    return total


def _eigvalsh(mats) -> np.ndarray:
    """Ascending eigenvalues of each Hermitian matrix in a (..., d, d) stack, read from
    the diagonal and the lower triangle as LAPACK reads them.

    For d = 2 they are ``(a + d)/2 -+ hypot((a - d)/2, |b|)``; LAPACK computes every
    other size.
    """
    mats = np.asarray(mats)
    if mats.shape[-2:] != (2, 2):
        return np.linalg.eigvalsh(mats)
    a, d = mats[..., 0, 0].real, mats[..., 1, 1].real
    half = 0.5 * (a + d)
    radius = np.hypot(0.5 * (a - d), np.abs(mats[..., 1, 0]))
    return np.stack([half - radius, half + radius], axis=-1)


def density_spectrum(mats) -> np.ndarray:
    """Eigenvalues of (..., d, d) states, each checked to be a state.

    Each matrix must be Hermitian within 1e-10, have trace 1 and no
    eigenvalue below -1e-10, as :class:`DensityOperator` requires; raises
    ``QmathError`` otherwise.
    """
    if np.max(np.abs(mats - dag(mats)), initial=0.0) > HERMITICITY_ATOL:
        raise QmathError("density operator is not Hermitian within 1e-10")
    mats = hermitize(mats)
    tr = _trace(mats)
    off = np.abs(tr - 1.0) > TRACE_ATOL
    if off.any():
        raise QmathError(f"density operator trace {tr[off].flat[0]!r} differs from 1 beyond 1e-10")
    evals = _eigvalsh(mats)
    low = evals[..., 0] < -POSITIVITY_ATOL
    if low.any():
        raise QmathError(
            f"density operator has eigenvalue {evals[..., 0][low].flat[0]!r} below -1e-10"
        )
    return evals


def is_unitary(a, atol: float = HERMITICITY_ATOL) -> bool:
    m = as_matrix(a)
    return bool(np.max(np.abs(dag(m) @ m - np.eye(m.shape[0]))) <= atol)


@dataclass(frozen=True)
class DensityOperator:
    """A finite-dimensional quantum state: Hermitian, unit trace, positive.

    The constructor validates all three invariants and freezes the matrix.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise QmathError(f"density operator must be square, got shape {m.shape}")
        density_spectrum(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, vec) -> "DensityOperator":
        """Projector onto a (normalized) state vector."""
        v = np.asarray(vec, dtype=complex).ravel()
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, np.conj(v)))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def from_diagonal(cls, probs) -> "DensityOperator":
        p = np.asarray(probs, dtype=float)
        return cls(np.diag(p.astype(complex)))

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "DensityOperator":
        v = np.zeros(dim, dtype=complex)
        v[index] = 1.0
        return cls.pure(v)

    def expectation(self, op) -> float:
        """Real expectation value of a Hermitian observable."""
        return float(_expectation(as_matrix(op), self.matrix))

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal().real.copy()


def _partial_trace_matrix(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace of a matrix, or of each matrix in a (..., D, D) stack."""
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if mat.shape[-2:] != (total, total):
        raise QmathError(
            f"joint dimension {mat.shape[-1]} does not match subsystem dims {dims}"
        )
    keep = sorted(keep)
    n = len(dims)
    if any(k < 0 or k >= n for k in keep) or len(set(keep)) != len(keep):
        raise QmathError(f"invalid keep set {keep} for {n} subsystems")
    lead = mat.shape[:-2]
    t = mat.reshape(lead + tuple(dims + dims))
    # Trace out the complement, highest index first so axes stay valid.
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        half = (t.ndim - len(lead)) // 2
        t = np.trace(t, axis1=len(lead) + idx, axis2=len(lead) + idx + half)
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(lead + (d_keep, d_keep))


def partial_trace(joint, dims, keep):
    """Marginal state on the kept subsystem indices (original order).

    Returns a :class:`DensityOperator` when given one, otherwise a bare
    matrix (useful for unnormalized states).
    """
    if isinstance(joint, DensityOperator):
        return DensityOperator(_partial_trace_matrix(joint.matrix, dims, keep))
    return _partial_trace_matrix(np.asarray(joint, dtype=complex), dims, keep)


def shannon_entropy(p):
    """-sum p ln p in nats over the last axis; entries up to ``EIG_CLAMP`` count as zero.

    A probability vector gives a float, a stack of them one entropy per vector.
    """
    v = np.asarray(p, dtype=float)
    return -(v * np.log(np.where(v > EIG_CLAMP, v, 1.0))).sum(axis=-1)


def von_neumann_entropy(rho):
    """-tr(rho ln rho) in nats, eigenvalues up to 1e-12 counting as zero.

    A state gives a float, a (..., d, d) stack of them one entropy per state.
    """
    return shannon_entropy(_eigvalsh(hermitize(rho)))


def mutual_information(joint, dims, cut):
    """S(X) + S(Y) - S(XY) across the bipartition ``cut`` | complement.

    ``cut`` lists the subsystem indices of the X side; ``joint`` is one
    state or a (..., D, D) stack of them.
    """
    dims = [int(d) for d in dims]
    cut = sorted(int(c) for c in cut)
    rest = sorted(set(range(len(dims))) - set(cut))
    if not cut or not rest:
        raise QmathError("cut must be a proper nonempty bipartition")
    mat = as_matrix(joint)
    s_x = von_neumann_entropy(_partial_trace_matrix(mat, dims, cut))
    s_y = von_neumann_entropy(_partial_trace_matrix(mat, dims, rest))
    s_xy = von_neumann_entropy(mat)
    return s_x + s_y - s_xy


def _gaussian(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """The (2, *shape) draws of ``rng.normal(size=shape) + 1j * rng.normal(size=shape)``,
    in one call and the same stream order: real parts, then imaginary parts."""
    return rng.normal(size=(2, *shape))


def _complex(draws) -> np.ndarray:
    """The complex matrix of :func:`_gaussian` draws (2, rows, cols), or of each in a
    (..., 2, rows, cols) stack, as ``real + 1j * imag`` gives it."""
    return draws[..., 0, :, :] + 1j * draws[..., 1, :, :]


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR with the phase convention fixed."""
    g = _complex(_gaussian(rng, (dim, dim)))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> DensityOperator:
    """Random mixed state from a Wishart-like construction."""
    return DensityOperator(_wishart(_gaussian(rng, (dim, dim if rank is None else rank))))


def _wishart(draws) -> np.ndarray:
    """g g† / tr(g g†) for the complex (dim, rank) matrix g of :func:`_gaussian` draws, or
    for each in a (..., 2, dim, rank) stack; each state is the one its draws alone give,
    bit for bit."""
    g = _complex(draws)
    m = g @ dag(g)
    return m / _trace(m)[..., None, None]

