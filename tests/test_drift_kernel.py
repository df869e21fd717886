"""The one drift kernel: the banded step-map product behind every propagation.

``lindblad._banded_product`` applies a step map through its nonzero diagonals
to level-major columns.  ``lindblad._propagate_matrix`` runs it on system
states and on joint states of system and tracked units, and the cavity's
population path runs it on number-basis populations.  The oracles are the
dense superoperator product and, for the first-order step,
``mat + dt * gen.apply(mat)``.
"""

import sys

import numpy as np
import pytest

from oqst import lindblad, qmath
from oqst.lindblad import (
    LindbladError,
    Protocol,
    ThermalGenerator,
    heat_work_segment,
    propagate,
    thermal_cavity_generator,
    _banded_product,
    _clamp_negative,
    _diagonals,
    _padded_levels,
    _propagate_matrix,
)
from oqst.qmath import DensityOperator, dag, hermitize, _partial_trace_matrix
from oqst.scenarios import CavityConfig, run_cavity

T_STEP = 82e-6
METHODS = ("exact", "first_order")
# Both sides sum the same products in different orders, so they differ by a
# few roundings of the largest term sum: bounds relative to max(|S| @ |v|).
BANDED_REL_TOL = 1e-15
# apply() rounds the products H rho, rho H and L rho L^dagger on their own.
APPLY_REL_TOL = 1e-14


def cavity_generator():
    return thermal_cavity_generator(2 * np.pi * 51.1e9, 0.8, 65e-3, cutoff=8)


def random_generator(rng, d=3):
    """A generator whose Liouvillian has every one of its 2 d^2 - 1 diagonals nonzero."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    jumps = tuple((rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), rate)
                  for rate in (0.2, 0.1))
    return ThermalGenerator(d, 0.5 * (g + dag(g)), jumps, beta=1.0)


def random_states(rng, n, dim):
    """Full-rank states, half maximally mixed, so a first-order step keeps them positive."""
    return np.stack([0.5 * qmath.random_density(rng, dim).matrix + 0.5 * np.eye(dim) / dim
                     for _ in range(n)])


def cases():
    rng = np.random.default_rng(14)
    return [(cavity_generator(), T_STEP), (random_generator(rng), 0.01)]


def scale(step, vecs):
    return (np.abs(vecs) @ np.abs(step).T).max()


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("which", [0, 1], ids=["cavity", "random"])
def test_banded_product_matches_dense_superoperator(method, which):
    gen, dt = cases()[which]
    step = gen.superoperator(dt, method)
    offsets, bands = _diagonals(step)
    d2 = gen.dim**2
    assert len(offsets) == ({"first_order": 3, "exact": 17}[method] if which == 0 else 2 * d2 - 1)
    assert bands.dtype == complex
    rng = np.random.default_rng(which)
    vecs = rng.normal(size=(40, d2)) + 1j * rng.normal(size=(40, d2))
    dense = vecs @ step.T
    pad = max(-offsets[0], offsets[-1])
    levels = _padded_levels(d2, pad, 40, complex)
    levels[...] = vecs.T
    out = _banded_product(offsets, bands, levels.base, pad)
    assert not out.base[:pad].any() and not out.base[pad + d2:].any()
    assert np.abs(out.T - dense).max() <= BANDED_REL_TOL * scale(step, vecs)
    mats = random_states(rng, 20, gen.dim)
    flat = mats.reshape(20, d2)
    out = _propagate_matrix(gen, mats, dt, method)
    assert np.abs(out - hermitize((flat @ step.T).reshape(mats.shape))).max() <= (
        BANDED_REL_TOL * scale(step, flat))


@pytest.mark.parametrize("which", [0, 1], ids=["cavity", "random"])
def test_first_order_step_matches_generator_action(which):
    gen, dt = cases()[which]
    mats = random_states(np.random.default_rng(which + 10), 30, gen.dim)
    oracle = _clamp_negative(hermitize(mats + dt * gen.apply(mats)))
    out = _propagate_matrix(gen, mats, dt, "first_order")
    step = gen.superoperator(dt, "first_order")
    assert np.abs(out - oracle).max() <= APPLY_REL_TOL * scale(step, mats.reshape(30, -1))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("which, rest", [(0, 2), (0, 3), (1, 2)])
def test_marginal_of_drifted_joint_is_drifted_marginal(method, which, rest):
    gen, dt = cases()[which]
    joints = random_states(np.random.default_rng(rest), 12, gen.dim * rest)
    drifted = _propagate_matrix(gen, joints, dt, method)
    dims = [gen.dim, rest]
    marginal = _partial_trace_matrix(drifted, dims, [0])
    expected = _propagate_matrix(gen, _partial_trace_matrix(joints, dims, [0]), dt, method)
    assert np.abs(marginal - expected).max() <= 1e-14
    # the rest rides along: its own marginal does not move
    assert np.abs(_partial_trace_matrix(drifted, dims, [1])
                  - _partial_trace_matrix(joints, dims, [1])).max() <= 1e-14


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("rest", [1, 2])
def test_each_row_of_a_stack_is_its_one_state_call(method, rest):
    for gen, dt in cases():
        stack = random_states(np.random.default_rng(rest), 9, gen.dim * rest)
        out = _propagate_matrix(gen, stack, dt, method)
        assert out.flags.c_contiguous  # sums over a state's entries add in memory order
        for mat, row in zip(stack, out):
            assert np.array_equal(_propagate_matrix(gen, mat, dt, method), row)
            if rest == 1:
                assert np.array_equal(propagate(gen, DensityOperator(mat), dt, method).matrix, row)


def test_step_map_and_bands_are_cached_together():
    gen = cavity_generator()
    step, (offsets, bands) = gen._step(T_STEP, "exact")
    assert gen.superoperator(T_STEP, "exact") is step
    assert gen._step(T_STEP, "exact")[1][1] is bands
    assert np.array_equal(bands, _diagonals(step)[1]) and not bands.flags.writeable
    assert len(gen._step_maps) == 1


def test_no_drift_calls_the_generator_action(monkeypatch):
    def refuse(self, mat):
        raise AssertionError("a drift step called ThermalGenerator.apply")

    monkeypatch.setattr(ThermalGenerator, "apply", refuse)
    for exact in (False, True):
        run_cavity(CavityConfig(steps=12, trajectories=3, seed=2, dense=True,
                                exact_propagator=exact))
    gen = cavity_generator()
    rho = DensityOperator.basis_state(9, 3)
    heat_work_segment(gen, Protocol.constant(gen.hamiltonian), rho, 0.0, T_STEP, 2,
                      method="first_order")


def count_kernel_calls(monkeypatch) -> list:
    """Rebind every package reference to ``_banded_product`` to a wrapper that counts its
    calls; returns the one-element count."""
    calls = [0]
    kernel = lindblad._banded_product

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "oqst":
            for attr, value in list(vars(module).items()):
                if value is kernel:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("dense, exact", [(False, False), (False, True), (True, False),
                                          (True, True)],
                         ids=["populations", "populations-exact", "dense", "dense-exact"])
def test_every_cavity_drift_reaches_the_one_kernel(monkeypatch, dense, exact):
    calls = count_kernel_calls(monkeypatch)
    run_cavity(CavityConfig(steps=12, trajectories=3, seed=2, dense=dense,
                            exact_propagator=exact))
    assert calls[0] == 12  # one leaf, and every row of it drifts in one call per step


@pytest.mark.parametrize("method", METHODS)
def test_propagate_and_segments_reach_the_one_kernel(monkeypatch, method):
    calls = count_kernel_calls(monkeypatch)
    gen = cavity_generator()
    rho = DensityOperator.basis_state(9, 3)
    propagate(gen, rho, T_STEP, method)
    assert calls[0] == 1
    heat_work_segment(gen, Protocol.constant(gen.hamiltonian), rho, 0.0, T_STEP, 3,
                      method=method)
    assert calls[0] == 4  # one per substep


class TestRejectedRequests:
    def test_unknown_method_rejected_at_zero_dt(self):
        gen = cavity_generator()
        rho = DensityOperator.basis_state(9, 2)
        with pytest.raises(LindbladError, match="unknown propagation method"):
            propagate(gen, rho, 0.0, method="bogus")
        assert np.array_equal(propagate(gen, rho, 0.0, "exact").matrix, rho.matrix)
        assert len(gen._step_maps) == 0  # a zero step builds no map

    def test_protocol_hamiltonian_of_the_wrong_shape_rejected(self):
        gen = cavity_generator()
        protocol = Protocol.constant(np.eye(3))
        with pytest.raises(LindbladError, match="dimension"):
            heat_work_segment(gen, protocol, DensityOperator.basis_state(9, 2), 0.0, T_STEP)

    def test_state_of_the_wrong_dimension_rejected(self):
        gen = cavity_generator()
        protocol = Protocol.constant(gen.hamiltonian)
        with pytest.raises(LindbladError, match="dimension"):
            heat_work_segment(gen, protocol, DensityOperator.basis_state(3, 2), 0.0, T_STEP)


def test_heat_work_segment_is_the_one_state_case_of_the_stacked_form():
    gen = cavity_generator()
    h0, h1 = gen.hamiltonian, 1.5 * gen.hamiltonian
    protocol = Protocol.sudden([h0, h1], [T_STEP / 2])
    mats = random_states(np.random.default_rng(5), 6, 9)
    taus = np.linspace(0.0, T_STEP, 5)
    hams = [protocol.hamiltonian_before(0.0)] + [protocol.hamiltonian(t) for t in taus[:-1]]
    for method in METHODS:
        work, heat, ends = lindblad._segments(gen, hams, mats, taus, method)
        for i, mat in enumerate(mats):
            w, q, end = heat_work_segment(gen, protocol, DensityOperator(mat), 0.0, T_STEP,
                                          substeps=4, method=method)
            assert (w, q) == (work[i], heat[i])
            assert np.array_equal(end.matrix, ends[i])
