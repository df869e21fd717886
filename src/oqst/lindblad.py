"""Markovian propagation between control operations, with heat/work integrals.

A :class:`ThermalGenerator` bundles a Hamiltonian, a set of jump dissipators
and an inverse temperature.  Propagation is available either as the exact
superoperator exponential or as the first-order map ``rho + L rho * dt``.
The generator is the one place that builds its Liouvillian and per-step
superoperators; it keeps the Liouvillian and the most recently used
``STEP_CACHE_SIZE`` step maps, each with its nonzero diagonals.  Every
drift runs through one banded kernel, ``_banded_product``, on level-major
columns: ``_propagate_matrix`` lays density matrices out that way, and the
cavity's population path holds its populations that way.  ``apply`` is the
generator's action L(rho), not a propagator, and ``heat_work_segment`` is
the one-state case of the stacked segment form ``_segments``.

The exact map is ``expm(L dt)``, computed here with numpy only: scaling
and squaring with a diagonal Padé approximant (Higham, "The scaling and
squaring method for the matrix exponential revisited", SIAM J. Matrix
Anal. Appl. 26, 1179, 2005).  The degree m follows the 1-norm of the
argument: m = 3, 5, 7, 9 up to theta_m = 0.0150, 0.254, 0.950, 2.10, and
beyond that m = 13 after halving the argument until its norm is at most
theta_13 = 5.37.  Each theta_m bounds the approximant's backward error by
the unit roundoff 2**-53.  The cavity's 81 x 81 Liouvillian at the
paper's 82 us step has norm 0.021, so it takes degree 5 and no squaring.

Unit conventions are the caller's: rates carry 1/time, the Hamiltonian
carries the energy unit used for all reported work and heat, and ``beta``
is expressed in the inverse of that energy unit so that entropies stay in
nats.  The cavity factory uses single-photon energy quanta as the energy
unit and seconds as time.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .qmath import (
    HERMITICITY_ATOL, DensityOperator, _eigvalsh, _expectation, _matmul, _trace, dag, hermitize,
)

# First-order steps may leak positivity at this scale before it is a bug.
FIRST_ORDER_LEAK = 1e-9
METHODS = ("exact", "first_order")
# Step maps kept per generator.  The float step lengths of a uniform
# schedule take a few distinct values per binade of elapsed time (19 over
# 50000 steps), so all of them stay cached.
STEP_CACHE_SIZE = 32
# CODATA 2018 values, exactly as scipy.constants holds them (J s, J/K).
HBAR = 1.0545718176461565e-34
K_B = 1.380649e-23
# Largest ||A||_1 for which the degree-m Padé approximant of exp(A) has
# backward error <= 2**-53 (Higham 2005, Table 2.3), and the coefficients
# b_0 .. b_m of its numerator p_m(x) = sum b_k x^k; the denominator is p_m(-x).
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068e0,
               13: 5.371920351148152e0}
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}


class LindbladError(ValueError):
    """Raised for invalid generators, protocols or propagation requests."""


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix, by scaling and squaring.

    Higham's algorithm (SIAM J. Matrix Anal. Appl. 26, 1179, 2005): the
    diagonal Padé approximant r_m of the smallest degree m in {3, 5, 7, 9}
    with ``||A||_1 <= theta_m``; beyond theta_9, degree 13 on A / 2**s
    with s the least nonnegative integer giving ``||A / 2**s||_1 <=
    theta_13``, then s squarings.  The theta_m (``_PADE_THETA``) make the
    backward error of r_m at most the unit roundoff 2**-53 in exact
    arithmetic: r_m(A) = exp(A + E) with ``||E||_1 <= 2**-53 ||A||_1``.
    On Liouvillians and rate matrices with ``||A||_1`` up to 1e3 it agrees
    with ``scipy.linalg.expm`` to 1e-12 relative in the 1-norm.  A diagonal
    matrix gets exp of its diagonal, so zero gives the identity exactly.  A
    real input gives a float64 result; a non-finite one raises.
    """
    a = np.asarray(a)
    if not np.iscomplexobj(a):
        a = a.astype(np.float64)
    norm = np.abs(a).sum(axis=0).max()
    if not np.isfinite(norm):
        raise LindbladError("expm needs a finite matrix")
    if np.count_nonzero(a) == np.count_nonzero(np.diagonal(a)):
        return np.diag(np.exp(np.diagonal(a)))
    m = next((m for m, theta in _PADE_THETA.items() if norm <= theta), 13)
    s = max(0, int(np.ceil(np.log2(norm / _PADE_THETA[13])))) if m == 13 else 0
    a = a * 2.0**-s
    b = _PADE_COEFFS[m]
    eye = np.eye(len(a))
    powers = [eye, a @ a]  # A^0, A^2, A^4, ...: up to A^(m-1), or A^6 for m = 13
    while len(powers) < (m // 2 if m < 13 else 3) + 1:
        powers.append(powers[-1] @ powers[1])
    if m < 13:
        u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
        v = sum(b[2 * k] * p for k, p in enumerate(powers))
    else:
        _, a2, a4, a6 = powers
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


@dataclass(frozen=True)
class ThermalGenerator:
    """Lindblad generator with jump operators, rates and temperature metadata.

    ``hamiltonian`` enters both the coherent term and the default energy
    bookkeeping; ``beta`` is the inverse temperature in the Hamiltonian's
    energy unit.
    """

    dim: int
    hamiltonian: np.ndarray
    dissipators: tuple  # ((jump operator, rate >= 0), ...)
    beta: float

    def __post_init__(self):
        h = np.array(self.hamiltonian, dtype=complex)
        if h.shape != (self.dim, self.dim):
            raise LindbladError("hamiltonian shape does not match dim")
        if np.max(np.abs(h - dag(h))) > HERMITICITY_ATOL:
            raise LindbladError("hamiltonian is not Hermitian within 1e-10")
        ops = []
        for op, rate in self.dissipators:
            if rate < 0:
                raise LindbladError("dissipator rates must be nonnegative")
            m = np.array(op, dtype=complex)
            if m.shape != (self.dim, self.dim):
                raise LindbladError("jump operator shape does not match dim")
            m.setflags(write=False)
            ops.append((m, float(rate)))
        h.setflags(write=False)
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "dissipators", tuple(ops))

    def apply(self, mat: np.ndarray) -> np.ndarray:
        """Generator action L(rho) on a matrix or on each matrix of a (..., d, d) stack."""
        h = self.hamiltonian
        out = -1j * (_matmul(h, mat) - _matmul(mat, h))
        for op, rate in self.dissipators:
            od = dag(op)
            anti = od @ op
            out += rate * (_matmul(_matmul(op, mat), od)
                           - 0.5 * (_matmul(anti, mat) + _matmul(mat, anti)))
        return out

    def liouvillian_matrix(self) -> np.ndarray:
        """Superoperator matrix acting on row-major vectorized states."""
        return self._liouvillian

    @cached_property
    def _liouvillian(self) -> np.ndarray:
        d = self.dim
        eye = np.eye(d)
        h = self.hamiltonian
        lm = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for op, rate in self.dissipators:
            anti = dag(op) @ op
            lm += rate * (
                np.kron(op, np.conj(op))
                - 0.5 * (np.kron(anti, eye) + np.kron(eye, anti.T))
            )
        lm.setflags(write=False)
        return lm

    @cached_property
    def _step_maps(self) -> OrderedDict:
        return OrderedDict()

    def superoperator(self, dt: float, method: str) -> np.ndarray:
        """Step map as a superoperator matrix: exp(L dt) or first-order 1 + L dt."""
        return self._step(dt, method)[0]

    def _step(self, dt: float, method: str) -> tuple:
        """The step map and its ``_diagonals``; the ``STEP_CACHE_SIZE`` latest are kept."""
        key = (method, float(dt))
        if method not in METHODS:
            raise LindbladError(f"unknown propagation method {method!r}")
        if not 0 <= key[1] < math.inf:
            raise LindbladError("dt must be finite and nonnegative")
        maps = self._step_maps
        if key in maps:
            maps.move_to_end(key)
            return maps[key]
        lm = self.liouvillian_matrix()
        step = expm(lm * dt) if method == "exact" else np.eye(lm.shape[0]) + lm * dt
        offsets, bands = _diagonals(step)
        step.setflags(write=False)
        bands.setflags(write=False)
        maps[key] = step, (offsets, bands)
        if len(maps) > STEP_CACHE_SIZE:
            maps.popitem(last=False)
        return maps[key]


def n_thermal(omega: float, temperature: float) -> float:
    """Bose-Einstein occupation 1/(exp(hbar omega / kB T) - 1)."""
    if temperature <= 0:
        raise LindbladError("temperature must be positive")
    x = HBAR * omega / (K_B * temperature)
    return 1.0 / np.expm1(x)


def thermal_cavity_generator(
    omega_c: float, temperature: float, lifetime_tc: float, cutoff: int
) -> ThermalGenerator:
    """Damped cavity mode on a truncated number basis, in a rotating frame.

    Photon loss at rate ``(1 + n_th)/T_c`` and gain at ``n_th/T_c``.  The
    Hamiltonian is the number operator in single-photon energy units; it
    commutes with every state these scenarios reach, so it only sets the
    energy bookkeeping.  ``beta`` comes out dimensionless as
    ``ln(1 + 1/n_th)``.
    """
    if temperature <= 0 or lifetime_tc <= 0:
        raise LindbladError("temperature and lifetime must be positive")
    if cutoff < 1:
        raise LindbladError("cutoff must be at least 1")
    dim = cutoff + 1
    nth = n_thermal(omega_c, temperature)
    lower = np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)
    number = np.diag(np.arange(dim, dtype=float)).astype(complex)
    return ThermalGenerator(
        dim=dim,
        hamiltonian=number,
        dissipators=(
            (lower, (1.0 + nth) / lifetime_tc),
            (dag(lower), nth / lifetime_tc),
        ),
        beta=float(np.log1p(1.0 / nth)),
    )


def gibbs_state(hamiltonian, beta: float) -> DensityOperator:
    """exp(-beta H)/Z for a Hermitian H."""
    h = hermitize(hamiltonian)
    evals, vecs = np.linalg.eigh(h)
    w = np.exp(-beta * (evals - evals.min()))
    w = w / w.sum()
    return DensityOperator((vecs * w) @ dag(vecs))


def _clamp_negative(mat: np.ndarray) -> np.ndarray:
    """Zero out small negative weight of each (..., d, d) matrix; a larger leak is an error."""
    rows = mat.reshape((-1,) + mat.shape[-2:])
    diag = np.diagonal(rows, axis1=-2, axis2=-1)
    low = diag.real.min(axis=-1)
    full = np.abs(rows - diag[..., None] * np.eye(mat.shape[-1])).max(axis=(-2, -1)) >= 1e-14
    if full.any():
        low[full] = _eigvalsh(rows[full])[:, 0]
    if low.min() >= 0.0:
        return mat
    if low.min() < -FIRST_ORDER_LEAK:
        raise LindbladError(f"first-order step lost positivity by {low.min():.3e}")
    fix = low < 0.0
    evals, vecs = np.linalg.eigh(rows[fix])  # exact for a diagonal matrix
    evals = np.clip(evals, 0.0, None)
    evals *= (_trace(rows[fix]) / evals.sum(axis=-1))[:, None]
    out = rows.copy()
    out[fix] = _matmul(vecs * evals[:, None, :], dag(vecs))
    return out.reshape(mat.shape)


def _diagonals(m) -> tuple:
    """Offsets ``k`` of the nonzero diagonals of (..., d, d) matrices ``m``, in ascending
    order, and their bands ``b[..., j, i] = m[..., i, i + k[j]]`` (zero off the matrix)."""
    d = m.shape[-1]
    offsets = [k for k in range(1 - d, d) if np.diagonal(m, k, -2, -1).any()]
    bands = np.zeros(m.shape[:-2] + (len(offsets), d), dtype=m.dtype)
    for j, k in enumerate(offsets):
        bands[..., j, max(0, -k) : d - max(0, k)] = np.diagonal(m, k, -2, -1)
    return offsets, bands


def _padded_levels(d: int, pad: int, n: int, dtype=float) -> np.ndarray:
    """The ``(d, n)`` middle of a new zero buffer with ``pad`` zero levels below and above."""
    return np.zeros((d + 2 * pad, n), dtype)[pad:pad + d]


def _banded_product(offsets, bands, padded, pad: int) -> np.ndarray:
    """``m @ p`` for each column ``p`` of ``padded[pad:-pad]``, with ``offsets, bands =
    _diagonals(m)`` and no offset beyond ``pad``, into a new zero-padded buffer.

    Each band multiplies the rows of ``padded`` shifted by its offset, and the
    products add up in offset order, column by column, so each column's result
    depends on that column alone; off the matrix a band is zero and meets a
    zero level.
    """
    d, columns = bands.shape[-1], bands[..., None]
    levels = _padded_levels(d, pad, padded.shape[1], np.result_type(bands, padded))
    np.multiply(columns[0], padded[pad + offsets[0]:pad + offsets[0] + d], out=levels)
    for j, k in enumerate(offsets[1:], 1):
        levels += columns[j] * padded[pad + k:pad + k + d]
    return levels


def _propagate_matrix(gen: ThermalGenerator, mat: np.ndarray, dt: float, method: str) -> np.ndarray:
    """Evolve (..., D, D) states of system ⊗ rest for ``dt``: the system's step map acts
    through its bands on the vectorised system index, laid out level-major with one column
    per state and rest index; the result is hermitized and, for first order, clamped."""
    if dt == 0.0 and method in METHODS:  # a zero step builds no map
        return mat
    offsets, bands = gen._step(dt, method)[1]
    d, rest = gen.dim, mat.shape[-1] // gen.dim
    pad, split = max(0, -offsets[0], offsets[-1]), (d, d, -1, rest, rest)
    levels = _padded_levels(d * d, pad, mat.size // (d * d), mat.dtype)
    levels.reshape(split)[...] = mat.reshape(-1, d, rest, d, rest).transpose(1, 3, 0, 2, 4)
    out = _banded_product(offsets, bands, levels.base, pad).reshape(split)
    # one C-order copy back: later sums over a state's entries add in memory order
    out = hermitize(np.ascontiguousarray(out.transpose(2, 0, 3, 1, 4)).reshape(mat.shape))
    return _clamp_negative(out) if method == "first_order" else out


def propagate(
    gen: ThermalGenerator, rho: DensityOperator, dt: float, method: str = "exact"
) -> DensityOperator:
    """Evolve a state for ``dt`` under the generator; trace is preserved."""
    if rho.dim != gen.dim:
        raise LindbladError("state dimension does not match generator")
    return DensityOperator(_propagate_matrix(gen, rho.matrix, dt, method))


@dataclass(frozen=True)
class Protocol:
    """Hamiltonian schedule: piecewise constant with sudden switches.

    ``hamiltonian(t)`` is right-continuous at switch times and
    ``hamiltonian_before(t)`` gives the left limit, which is what the work
    bookkeeping of a switch at a segment boundary needs.  A callable
    schedule covers continuously driven cases.
    """

    switch_times: tuple = ()
    hamiltonians: tuple = ()
    function: Callable | None = None

    def __post_init__(self):
        if self.function is not None:
            return
        times = tuple(float(t) for t in self.switch_times)
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise LindbladError("switch times must be strictly increasing")
        hams = tuple(np.array(h, dtype=complex) for h in self.hamiltonians)
        if len(hams) != len(times) + 1:
            raise LindbladError("need one more Hamiltonian than switch times")
        for h in hams:
            if np.max(np.abs(h - dag(h))) > HERMITICITY_ATOL:
                raise LindbladError("protocol Hamiltonians must be Hermitian")
            h.setflags(write=False)
        object.__setattr__(self, "switch_times", times)
        object.__setattr__(self, "hamiltonians", hams)

    @classmethod
    def constant(cls, hamiltonian) -> "Protocol":
        return cls(switch_times=(), hamiltonians=(np.asarray(hamiltonian),))

    @classmethod
    def sudden(cls, hamiltonians, switch_times) -> "Protocol":
        return cls(switch_times=tuple(switch_times), hamiltonians=tuple(hamiltonians))

    def hamiltonian(self, t: float) -> np.ndarray:
        if self.function is not None:
            return np.asarray(self.function(t), dtype=complex)
        idx = int(np.searchsorted(self.switch_times, t, side="right"))
        return self.hamiltonians[idx]

    def hamiltonian_before(self, t: float) -> np.ndarray:
        if self.function is not None:
            return np.asarray(self.function(t), dtype=complex)
        idx = int(np.searchsorted(self.switch_times, t, side="left"))
        return self.hamiltonians[idx]


def _drift_energetics(h_before, h, before, after) -> tuple:
    """Work <h - h_before, before> of a switch and heat <h, after> - <h, before> of a drift."""
    return (_expectation(h - h_before, before),
            _expectation(h, after) - _expectation(h, before))


def _segments(gen: ThermalGenerator, hams, mats: np.ndarray, taus, method: str) -> tuple:
    """Summed work and heat, and end states, of (N, d, d) states whose substep k switches
    from ``hams[k]`` to ``hams[k + 1]`` and then drifts from ``taus[k]`` to ``taus[k + 1]``."""
    work = heat = 0.0
    for h_before, h, t0, t1 in zip(hams, hams[1:], taus, taus[1:]):
        after = _propagate_matrix(gen, mats, t1 - t0, method)
        w, q = _drift_energetics(h_before, h, mats, after)
        work, heat, mats = work + w, heat + q, after
    return work, heat, mats


def heat_work_segment(
    gen: ThermalGenerator,
    protocol: Protocol,
    rho_start: DensityOperator,
    t_start: float,
    t_end: float,
    substeps: int = 100,
    method: str = "exact",
) -> tuple[float, float, DensityOperator]:
    """Work and heat over a drift segment, left-endpoint Riemann convention.

    Work accumulates protocol switches against the current state; heat
    accumulates state changes against the current Hamiltonian, so that
    ``work + heat`` telescopes exactly to the segment's energy change.
    The generator drives the state; for protocols that alter the coherent
    dynamics mid-segment the generator must be built to match.
    """
    if t_end < t_start:
        raise LindbladError("t_end must not precede t_start")
    if substeps < 1:
        raise LindbladError("substeps must be positive")
    taus = np.linspace(t_start, t_end, substeps + 1)
    hams = [protocol.hamiltonian_before(t_start)] + [protocol.hamiltonian(t) for t in taus[:-1]]
    if any(m.shape != (gen.dim, gen.dim) for m in (rho_start.matrix, *hams)):
        raise LindbladError("state or protocol Hamiltonian dimension does not match generator")
    work, heat, mats = _segments(gen, hams, rho_start.matrix[None], taus, method)
    return float(work[0]), float(heat[0]), DensityOperator(mats[0])
