"""Thermal generator, propagation and segment heat/work checks."""

import numpy as np
import pytest
from scipy.linalg import expm

from oqst import lindblad, qmath
from oqst.channels import random_instrument
from oqst.lindblad import (
    STEP_CACHE_SIZE,
    LindbladError,
    Protocol,
    ThermalGenerator,
    gibbs_state,
    heat_work_segment,
    n_thermal,
    propagate,
    thermal_cavity_generator,
)
from oqst.qmath import DensityOperator, von_neumann_entropy
from oqst.scenarios import RateModel
from oqst.scenarios.cavity import classical_rate_matrix
from oqst.trajectory import ControlSchedule, FixedPolicy, sample_ensemble

OMEGA_C = 2 * np.pi * 51.1e9
T_ENV = 0.8
T_CAV = 65e-3
T_STEP = 82e-6


@pytest.fixture(scope="module")
def cavity():
    return thermal_cavity_generator(OMEGA_C, T_ENV, T_CAV, cutoff=8)


class TestGeneratorConstruction:
    def test_thermal_occupation_matches_quoted_value(self):
        nth = n_thermal(OMEGA_C, T_ENV)
        assert nth == pytest.approx(0.049, abs=0.002)

    def test_rates(self, cavity):
        (_, rate_down), (_, rate_up) = cavity.dissipators
        nth = n_thermal(OMEGA_C, T_ENV)
        assert rate_down == pytest.approx((1 + nth) / T_CAV, rel=1e-12)
        assert rate_up == pytest.approx(nth / T_CAV, rel=1e-12)

    def test_beta_consistent_with_occupation(self, cavity):
        nth = n_thermal(OMEGA_C, T_ENV)
        assert 1.0 / np.expm1(cavity.beta) == pytest.approx(nth, rel=1e-12)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(LindbladError):
            thermal_cavity_generator(OMEGA_C, -1.0, T_CAV, 8)
        with pytest.raises(LindbladError):
            thermal_cavity_generator(OMEGA_C, T_ENV, 0.0, 8)

    def test_rejects_negative_rate(self):
        with pytest.raises(LindbladError):
            ThermalGenerator(2, np.eye(2), ((np.eye(2), -1.0),), 1.0)

    def test_gibbs_is_stationary(self, cavity):
        g = gibbs_state(cavity.hamiltonian, cavity.beta)
        assert np.max(np.abs(cavity.apply(g.matrix))) <= 1e-8

    def test_single_photon_decay_rate(self, cavity):
        # term-by-term dissipator bookkeeping for |1><1|
        rho = DensityOperator.basis_state(9, 1)
        nth = n_thermal(OMEGA_C, T_ENV)
        deriv = cavity.apply(rho.matrix)
        assert deriv[0, 0].real == pytest.approx((1 + nth) / T_CAV, rel=1e-12)


class TestPropagation:
    def test_zero_dt_is_identity(self, cavity):
        rho = DensityOperator.basis_state(9, 2)
        for method in ("exact", "first_order"):
            out = propagate(cavity, rho, 0.0, method)
            assert np.array_equal(out.matrix, rho.matrix)

    def test_first_order_close_to_exact(self, cavity):
        rho = DensityOperator.basis_state(9, 2)
        a = propagate(cavity, rho, T_STEP, "first_order")
        b = propagate(cavity, rho, T_STEP, "exact")
        # second-order error bound for one step of length T_a
        assert np.max(np.abs(a.matrix - b.matrix)) <= (T_STEP / T_CAV) ** 2 * 4

    def test_long_time_relaxes_to_gibbs(self, cavity):
        rho = DensityOperator.basis_state(9, 5)
        out = propagate(cavity, rho, 50 * T_CAV, "exact")
        g = gibbs_state(cavity.hamiltonian, cavity.beta)
        assert np.max(np.abs(out.matrix - g.matrix)) <= 1e-8

    def test_gibbs_fixed_point_any_dt(self, cavity):
        g = gibbs_state(cavity.hamiltonian, cavity.beta)
        for dt in (T_STEP, 10 * T_STEP, T_CAV):
            out = propagate(cavity, g, dt, "exact")
            assert np.max(np.abs(out.matrix - g.matrix)) <= 1e-10

    def test_trace_preserved_random_steps(self, cavity):
        rng = np.random.default_rng(404)
        for _ in range(1000):
            rho = qmath.random_density(rng, 9)
            dt = float(rng.uniform(0, 5 * T_STEP))
            method = "exact" if rng.random() < 0.5 else "first_order"
            out = propagate(cavity, rho, dt, method)
            assert abs(np.trace(out.matrix).real - 1.0) <= 1e-12

    def test_negative_dt_rejected(self, cavity):
        with pytest.raises(LindbladError):
            propagate(cavity, DensityOperator.maximally_mixed(9), -1e-6)

    @pytest.mark.parametrize("method", ["exact", "first_order"])
    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_non_finite_dt_rejected(self, cavity, dt, method):
        # once a numpy LinAlgError from the eigensolver, which verify re-raises
        with pytest.raises(LindbladError, match="finite"):
            propagate(cavity, DensityOperator.maximally_mixed(9), dt, method)
        with pytest.raises(LindbladError, match="finite"):
            cavity.superoperator(dt, method)

    @pytest.mark.parametrize("method", ["exact", "first_order"])
    def test_negative_dt_superoperator_rejected(self, cavity, method):
        # exp(L dt) for dt < 0 is not a positive map, so it must never be cached
        cached = dict(cavity._step_maps)
        with pytest.raises(LindbladError, match="nonnegative"):
            cavity.superoperator(-0.1 * T_CAV, method)
        assert dict(cavity._step_maps) == cached

    def test_coherences_decay(self, cavity):
        v = np.zeros(9)
        v[0] = v[1] = 1
        rho = DensityOperator.pure(v)
        out = propagate(cavity, rho, T_CAV, "exact")
        assert abs(out.matrix[0, 1]) < abs(rho.matrix[0, 1])


# Agreement of lindblad.expm with scipy.linalg.expm, fixed before the
# numpy implementation was written: relative difference in the 1-norm.
EXPM_REL_TOL = 1e-12


def norm1(a):
    return np.abs(a).sum(axis=0).max()


def assert_expm_matches_scipy(a):
    ours, oracle = lindblad.expm(a), expm(a)
    assert ours.dtype == oracle.dtype
    assert norm1(ours - oracle) <= EXPM_REL_TOL * norm1(oracle)


def random_generator(rng, d, rates):
    """A generator with a random Hamiltonian and one random jump operator per rate."""
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    jumps = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in rates]
    return ThermalGenerator(d, h + h.conj().T, tuple(zip(jumps, rates)), beta=1.0)


class TestExpm:
    def test_random_liouvillians(self):
        rng = np.random.default_rng(11)
        norms = []
        for _ in range(60):
            d = int(rng.integers(2, 10))
            lm = random_generator(rng, d, rng.uniform(0, 2, size=2)).liouvillian_matrix()
            a = lm * 10 ** rng.uniform(-4, 3) / norm1(lm)
            norms.append(norm1(a))
            assert_expm_matches_scipy(a)
        assert min(norms) < lindblad._PADE_THETA[3] and max(norms) > 100  # squaring ran

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 10.0])
    def test_stiff_rates(self, scale):
        rng = np.random.default_rng(12)
        for d in (2, 5, 9):
            gen = random_generator(rng, d, np.geomspace(1e-4, 1e4, 4))
            lm = gen.liouvillian_matrix() * scale / norm1(gen.liouvillian_matrix())
            assert_expm_matches_scipy(lm)

    def test_cavity_liouvillian_over_step_lengths(self, cavity):
        for dt in np.geomspace(T_STEP, 1.0, 12):
            assert_expm_matches_scipy(cavity.liouvillian_matrix() * dt)

    def test_real_rate_matrices_give_real_results(self, cavity):
        for rates in (classical_rate_matrix(cavity) * 10 * T_CAV,
                      RateModel.thermal([0.0, 0.7, 1.3], 1.3, attempt_rate=0.5).rates * 0.02):
            assert lindblad.expm(rates).dtype == np.float64
            assert_expm_matches_scipy(rates)
        assert lindblad.expm(np.array([[0, 1], [2, 3]])).dtype == np.float64

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_zero_matrix_gives_the_identity_exactly(self, dtype):
        out = lindblad.expm(np.zeros((4, 4), dtype=dtype))
        assert out.dtype == dtype
        assert np.array_equal(out, np.eye(4))

    def test_one_by_one(self):
        for x in (-3.0, 0.5, 2.0 + 1.5j):
            assert_expm_matches_scipy(np.array([[x]]))

    @pytest.mark.parametrize("degree", [3, 5, 7, 9, 13])
    def test_each_pade_degree(self, degree):
        rng = np.random.default_rng(degree)
        theta = lindblad._PADE_THETA[degree]
        # just below theta_m, and for degree 13 just above it: one squaring
        for scale in (0.99, 1.01) if degree == 13 else (0.99,):
            for a in (rng.normal(size=(6, 6)), rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))):
                assert_expm_matches_scipy(a * scale * theta / norm1(a))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input(self, bad):
        a = np.eye(3)
        a[0, 1] = bad
        with pytest.raises(LindbladError):
            lindblad.expm(a)


def test_physical_constants_match_scipy():
    from scipy import constants

    assert lindblad.HBAR == constants.hbar
    assert lindblad.K_B == constants.k


class TestStepMapCache:
    def test_uniform_schedule_computes_each_exponential_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(lindblad, "expm", lambda m: calls.append(1) or expm(m))
        gen = thermal_cavity_generator(OMEGA_C, T_ENV, T_CAV, cutoff=8)
        instr = random_instrument(np.random.default_rng(1), 9, 2, 1)
        schedule = ControlSchedule.uniform(1000, T_STEP)
        list(sample_ensemble(gen, schedule, FixedPolicy([instr] * 1000),
                             DensityOperator.maximally_mixed(9), [2]))
        # rounding makes t_k - t_(k-1) take a few distinct values; one exponential each
        lengths = np.diff((0.0,) + schedule.times)
        assert len(calls) == len(set(lengths)) < STEP_CACHE_SIZE

    def test_irregular_schedule_keeps_a_bounded_cache(self):
        # 300 distinct step lengths at d=9 once left 301 cached matrices (31.6 MB)
        gen = thermal_cavity_generator(OMEGA_C, T_ENV, T_CAV, cutoff=8)
        rng = np.random.default_rng(300)
        schedule = ControlSchedule(times=tuple(np.cumsum(rng.uniform(0.5, 1.5, 300)) * T_STEP))
        policy = FixedPolicy([random_instrument(rng, 9, 2, 1)] * 300)
        rho0 = DensityOperator.maximally_mixed(9)
        (rec,) = sample_ensemble(gen, schedule, policy, rho0, [5])
        assert len(gen._step_maps) == STEP_CACHE_SIZE
        # evicted maps are rebuilt to the same bits
        (again,) = sample_ensemble(gen, schedule, policy, rho0, [5])
        assert np.array_equal(again.ledgers, rec.ledgers)
        # column sums of the ledger computed with an unbounded cache
        assert sum(rec.outcomes) == 146
        for col, expected in [("q_seg", -1.5078411419253277), ("s_end", 30833.11735644909),
                              ("sigma_seg", 12.01686874519347), ("sigma_ctrl", 195.43877894233776),
                              ("e_sys_end", 1209.8011593601555)]:
            assert rec.ledgers[col].sum() == pytest.approx(expected, rel=1e-12)


class TestHeatWorkSegment:
    def test_constant_protocol_zero_work(self, cavity):
        protocol = Protocol.constant(cavity.hamiltonian)
        rho = DensityOperator.basis_state(9, 3)
        work, heat, rho_end = heat_work_segment(cavity, protocol, rho, 0.0, T_STEP, substeps=5)
        assert work == 0.0
        de = rho_end.expectation(cavity.hamiltonian) - rho.expectation(cavity.hamiltonian)
        assert heat == pytest.approx(de, abs=1e-10)

    def test_gibbs_start_zero_heat(self, cavity):
        protocol = Protocol.constant(cavity.hamiltonian)
        g = gibbs_state(cavity.hamiltonian, cavity.beta)
        work, heat, _ = heat_work_segment(cavity, protocol, g, 0.0, T_STEP, substeps=3)
        assert work == 0.0
        assert abs(heat) <= 1e-10

    def test_fock3_heat_first_order_bookkeeping(self, cavity):
        # one Euler step from |3><3|: down flux 3*(1+nth)/Tc, up flux 4*nth/Tc
        nth = n_thermal(OMEGA_C, T_ENV)
        protocol = Protocol.constant(cavity.hamiltonian)
        rho = DensityOperator.basis_state(9, 3)
        work, heat, _ = heat_work_segment(
            cavity, protocol, rho, 0.0, T_STEP, substeps=1, method="first_order"
        )
        expected = (-3 * (1 + nth) / T_CAV + 4 * nth / T_CAV) * T_STEP
        assert heat == pytest.approx(expected, rel=1e-10)
        assert work == 0.0

    def test_sudden_switch_work(self):
        gen = ThermalGenerator(2, np.zeros((2, 2)), (), beta=1.0)
        h0 = np.diag([0.0, 1.0]).astype(complex)
        h1 = np.diag([0.0, 2.0]).astype(complex)
        protocol = Protocol.sudden([h0, h1], [1.0])
        rho = DensityOperator.from_diagonal([0.25, 0.75])
        work, heat, _ = heat_work_segment(gen, protocol, rho, 1.0, 2.0, substeps=4)
        assert work == pytest.approx(0.75, abs=1e-12)
        assert heat == pytest.approx(0.0, abs=1e-12)

    def test_energy_closure_with_driving(self, cavity):
        # piecewise protocol with a mid-segment switch
        h0 = cavity.hamiltonian
        h1 = 1.5 * cavity.hamiltonian
        protocol = Protocol.sudden([h0, h1], [T_STEP / 2])
        rho = DensityOperator.basis_state(9, 2)
        work, heat, rho_end = heat_work_segment(cavity, protocol, rho, 0.0, T_STEP, substeps=50)
        e_start = rho.expectation(protocol.hamiltonian_before(0.0))
        e_end = rho_end.expectation(protocol.hamiltonian(T_STEP - 1e-12))
        assert work + heat == pytest.approx(e_end - e_start, abs=1e-10)

    def test_heat_is_the_first_law_remainder_with_a_switch_each_substep(self):
        # one heat formula: what the first law leaves of the energy change past the work
        rng = np.random.default_rng(83)
        for _ in range(100):
            cutoff, substeps = int(rng.integers(1, 4)), int(rng.integers(2, 6))
            gen = thermal_cavity_generator(OMEGA_C, T_ENV, T_CAV, cutoff)
            hams = [qmath.hermitize(rng.normal(size=(cutoff + 1,) * 2))
                    for _ in range(substeps + 1)]
            taus = np.linspace(0.0, T_STEP, substeps + 1)
            protocol = Protocol.sudden(hams, taus[:-1])  # a switch as each substep starts
            rho = qmath.random_density(rng, cutoff + 1)
            work, heat, rho_end = heat_work_segment(gen, protocol, rho, 0.0, T_STEP, substeps,
                                                    method="exact")
            e_start, e_end = rho.expectation(hams[0]), rho_end.expectation(hams[-1])
            assert heat == e_end - (e_start + work)

    def test_engine_segment_is_the_same_segment_bit_for_bit(self, cavity):
        # a ledger's first segment (no switch, one substep) is heat_work_segment's, to the bit
        rng = np.random.default_rng(84)
        schedule = ControlSchedule.uniform(1, T_STEP)
        protocol = Protocol.constant(cavity.hamiltonian)
        for seed in range(20):
            rho = qmath.random_density(rng, 9)
            policy = FixedPolicy([random_instrument(rng, 9, 2)])
            for method in ("exact", "first_order"):
                (rec,) = sample_ensemble(cavity, schedule, policy, rho, [seed], method=method)
                work, heat, rho_end = heat_work_segment(
                    cavity, protocol, rho, schedule.t0, schedule.times[0], 1, method=method)
                (row,) = rec.ledgers
                assert (work, heat) == (row.w_seg, row.q_seg)
                assert rho_end.expectation(cavity.hamiltonian) == row.e_sys_pre

    def test_segment_second_law_diagonal_states(self, cavity):
        rng = np.random.default_rng(606)
        protocol = Protocol.constant(cavity.hamiltonian)
        for _ in range(200):
            p = rng.dirichlet(np.ones(9))
            rho = DensityOperator.from_diagonal(p)
            for method in ("exact", "first_order"):
                work, heat, rho_end = heat_work_segment(
                    cavity, protocol, rho, 0.0, T_STEP, substeps=1, method=method
                )
                ds = von_neumann_entropy(rho_end) - von_neumann_entropy(rho)
                assert ds - cavity.beta * heat >= -1e-10

    def test_reversed_interval_rejected(self, cavity):
        with pytest.raises(LindbladError):
            heat_work_segment(
                cavity, Protocol.constant(cavity.hamiltonian),
                DensityOperator.maximally_mixed(9), 1.0, 0.0,
            )


class TestProtocol:
    def test_right_continuity(self):
        h0 = np.zeros((2, 2))
        h1 = np.eye(2)
        p = Protocol.sudden([h0, h1], [1.0])
        assert np.array_equal(p.hamiltonian(1.0), h1)
        assert np.array_equal(p.hamiltonian_before(1.0), h0)

    def test_callable_schedule(self):
        p = Protocol(function=lambda t: t * np.eye(2))
        assert np.array_equal(p.hamiltonian(2.0), 2 * np.eye(2))

    def test_non_increasing_switches_rejected(self):
        with pytest.raises(LindbladError):
            Protocol.sudden([np.eye(2)] * 3, [2.0, 1.0])
