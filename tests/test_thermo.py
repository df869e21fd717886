"""Control energetics, stochastic entropy and entropy production checks."""

import math
import re

import numpy as np
import pytest

from oqst import qmath
from oqst.channels import (
    apply_instrument,
    projective_instrument,
    random_instrument,
    stinespring_dilate,
    unitary_kick,
)
from oqst.lindblad import ThermalGenerator, _propagate_matrix, thermal_cavity_generator
from oqst.qmath import DensityOperator, dag, mutual_information, von_neumann_entropy
from oqst.thermo import (
    ENTROPY_LEMMA_FLOOR,
    LEDGER_DTYPE,
    ThermoError,
    _entropy_lemma,
    average_control_entropy_production,
    control_energetics,
    entropy_production_step,
)
from oqst.trajectory import (
    ControlSchedule, EngineError, FixedPolicy, TrajectoryRecord, sample_ensemble,
)

SZ = np.diag([1.0, -1.0]).astype(complex)


class TestControlEnergetics:
    def test_projective_z_on_plus(self):
        # H = (w/2) sigma_z with w = 1
        rho = DensityOperator.pure([1, 1])
        instr = projective_instrument(np.eye(2))
        ce = control_energetics(instr, 0.5 * SZ, rho)
        assert ce.w_system == pytest.approx(0.0, abs=1e-12)
        assert ce.q_system[0] == pytest.approx(+0.5, abs=1e-12)
        assert ce.q_system[1] == pytest.approx(-0.5, abs=1e-12)
        assert ce.average_system_heat() == pytest.approx(0.0, abs=1e-12)

    def test_identity_instrument_all_zero(self):
        rho = DensityOperator.pure([1, 2j])
        ce = control_energetics(unitary_kick(np.eye(2)), 0.5 * SZ, rho)
        assert ce.w_system == pytest.approx(0.0, abs=1e-14)
        assert ce.q_system[0] == pytest.approx(0.0, abs=1e-14)
        assert ce.w_unit == 0.0

    def test_zero_average_heat_random(self):
        rng = np.random.default_rng(313)
        for _ in range(200):
            dim = int(rng.integers(2, 5))
            instr = random_instrument(rng, dim, int(rng.integers(2, 4)), int(rng.integers(1, 3)))
            rho = qmath.random_density(rng, dim)
            h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = 0.5 * (h + dag(h))
            ce = control_energetics(instr, h, rho)
            assert abs(ce.average_system_heat()) <= 1e-10

    def test_first_law_per_outcome(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            instr = random_instrument(rng, 3, 2, 2)
            rho = qmath.random_density(rng, 3)
            h = np.diag(rng.normal(size=3)).astype(complex)
            ce = control_energetics(instr, h, rho)
            e_pre = rho.expectation(h)
            for res in apply_instrument(instr, rho):
                if res.state is None:
                    continue
                de = res.state.expectation(h) - e_pre
                assert de == pytest.approx(ce.w_system + ce.q_system[res.label], abs=1e-10)

    def test_engine_pre_control_state_gives_the_ledger_bit_for_bit(self):
        # one heat formula: control_energetics on the state the engine measured gives the
        # ledger's control work and heat, the first-law remainder, to the last bit
        rng = np.random.default_rng(117)
        for case in range(200):
            cutoff, steps, dt = int(rng.integers(1, 4)), int(rng.integers(1, 4)), 1e-3
            gen = thermal_cavity_generator(2 * np.pi * 51.1e9, 0.8, 65e-3, cutoff)
            instrs = [random_instrument(rng, cutoff + 1, int(rng.integers(2, 4)))
                      for _ in range(steps)]
            rho0 = qmath.random_density(rng, cutoff + 1)
            schedule = ControlSchedule.uniform(steps, dt)
            (rec,) = sample_ensemble(gen, schedule, FixedPolicy(instrs), rho0, [case])
            before, t_prev = rho0.matrix, schedule.t0
            for k, (t, instr, row) in enumerate(zip(schedule.times, instrs, rec.ledgers)):
                pre = DensityOperator(_propagate_matrix(gen, before[None], t - t_prev, "exact")[0])
                assert pre.expectation(gen.hamiltonian) == row.e_sys_pre  # the engine's state
                ce = control_energetics(instr, gen.hamiltonian, pre)
                assert ce.w_system == row.w_ctrl_sys
                assert ce.q_system[row.outcome] == row.q_ctrl_sys
                before, t_prev = rec.states[k], t

    def test_unit_energetics_commuting_projectors(self):
        # diagonal unit Hamiltonian commutes with the readout, so the
        # average unit heat vanishes and the unit first law closes
        rng = np.random.default_rng(55)
        instr = random_instrument(rng, 2, 2, 1)
        dil = stinespring_dilate(instr)
        h_unit = np.diag(np.arange(dil.unit_dim, dtype=float)).astype(complex)
        rho = qmath.random_density(rng, 2)
        ce = control_energetics(instr, 0.5 * SZ, rho, h_unit=h_unit)
        avg_q_unit = sum(
            ce.probabilities[i] * ce.q_unit[lab]
            for i, lab in enumerate(ce.labels) if lab in ce.q_unit
        )
        assert abs(avg_q_unit) <= 1e-10
        for lab in ce.labels:
            if lab in ce.de_unit:
                assert ce.de_unit[lab] == pytest.approx(ce.w_unit + ce.q_unit[lab], abs=1e-10)

    def test_incomplete_instrument_rejected(self):
        from oqst.channels import Instrument, OutcomeBranch
        broken = Instrument(2, (OutcomeBranch(0, (0.5 * np.eye(2),)),))
        with pytest.raises(ThermoError):
            control_energetics(broken, SZ, DensityOperator.maximally_mixed(2))


class TestStochasticEntropy:
    """The ledger's stochastic entropy: the record's -ln p so far plus the state's entropy."""

    @staticmethod
    def first_row(rho0, instr):
        """The ledger row of one control of ``instr`` on ``rho0``, with no drift before it."""
        gen = ThermalGenerator(2, np.zeros((2, 2)), (), beta=1.0)
        (rec,) = sample_ensemble(gen, ControlSchedule.uniform(1, 1.0), FixedPolicy([instr]),
                                 rho0, [0])
        return rec.ledgers[0]

    def test_initial_gibbs(self):
        rho = DensityOperator.from_diagonal([0.7, 0.3])
        s = self.first_row(rho, unitary_kick(np.eye(2))).s_start
        assert s == pytest.approx(von_neumann_entropy(rho), abs=1e-14)

    def test_fair_measurement_pure_outcome(self):
        row = self.first_row(DensityOperator.pure([1, 1]), projective_instrument(np.eye(2)))
        assert row.logp_increment == pytest.approx(math.log(2), abs=1e-12)
        assert row.s_end == pytest.approx(math.log(2), abs=1e-12)

    def test_deterministic_outcomes_pure_state(self):
        row = self.first_row(DensityOperator.basis_state(2, 1), projective_instrument(np.eye(2)))
        assert row.s_end == pytest.approx(0.0, abs=1e-12)

    def test_negative_log_prob_rejected(self):
        with pytest.raises(EngineError):
            TrajectoryRecord(outcomes=(), kinds=(), log_prob=-0.5,
                             ledgers=np.zeros(0, LEDGER_DTYPE), states=np.zeros((0, 2, 2)),
                             final_state=np.eye(2) / 2, times=())


def make_ledger(**overrides):
    base = dict(
        step=1, outcome=0, logp_increment=math.log(2),
        e_sys_start=0.0, e_sys_pre=0.0, e_sys_end=0.5, de_unit=0.0,
        w_seg=0.0, q_seg=0.0, w_ctrl_sys=0.0, w_ctrl_unit=0.0,
        q_ctrl_sys=0.5, q_ctrl_unit=0.0,
        s_start=0.0, s_pre=0.0, s_end=math.log(2),
        sigma_ctrl=math.nan, sigma_seg=math.nan,
    )
    base.update(overrides)
    return np.array([tuple(base[name] for name in LEDGER_DTYPE.names)], dtype=LEDGER_DTYPE)


class TestEntropyProductionStep:
    def test_balanced_sensor_outcome_gives_log2(self):
        ledger = make_ledger(q_ctrl_sys=0.0, e_sys_end=0.0)
        (done,) = entropy_production_step(ledger, beta=3.0)
        assert done.sigma_ctrl == pytest.approx(math.log(2), abs=1e-12)
        assert done.sigma_seg == 0.0

    def test_thermal_state_no_control(self):
        ledger = make_ledger(
            logp_increment=0.0, q_ctrl_sys=0.0, e_sys_end=0.0, s_end=0.0,
        )
        (done,) = entropy_production_step(ledger, beta=1.0)
        assert done.sigma_seg == pytest.approx(0.0, abs=1e-12)
        assert done.sigma_ctrl == pytest.approx(0.0, abs=1e-12)

    def test_first_law_violation_raises(self):
        ledger = make_ledger(e_sys_end=1.0)  # de != w + q
        with pytest.raises(ThermoError):
            entropy_production_step(ledger, beta=1.0)

    def test_segment_second_law_violation_raises(self):
        ledger = make_ledger(s_pre=-1.0, s_start=0.0, q_seg=0.0, q_ctrl_sys=0.0,
                             e_sys_end=0.0, s_end=-1.0 + math.log(2))
        with pytest.raises(ThermoError):
            entropy_production_step(ledger, beta=1.0)

    @pytest.mark.parametrize("broken, message", [
        (dict(e_sys_end=1.0), "first law residual 5.000e-01 beyond 1e-10 on step 3"),
        (dict(s_pre=-1.0, e_sys_end=0.0, q_ctrl_sys=0.0, s_end=-1.0 + math.log(2)),
         "segment entropy production -1.000e+00 below -1e-10 on step 3"),
    ])
    def test_violation_names_the_first_failing_step(self, broken, message):
        ledger = np.concatenate([
            make_ledger(step=1), make_ledger(step=2),
            make_ledger(step=3, **broken), make_ledger(step=4, **broken),
        ])
        with pytest.raises(ThermoError, match=re.escape(message)):
            entropy_production_step(ledger, beta=1.0)

    def test_segment_law_breaks_below_the_reported_floor(self):
        # the engine and the law flags share one floor, -1e-10: -1e-8 breaks the law in both
        ok = np.concatenate([make_ledger(step=s, q_ctrl_sys=0.0, e_sys_end=0.0)
                             for s in (1, 2, 3)])
        bad = ok.copy()
        bad["s_pre"][1] -= 1e-8
        bad["s_end"][1] -= 1e-8
        with pytest.raises(ThermoError, match=re.escape(
                "segment entropy production -1.000e-08 below -1e-10 on step 2")) as info:
            entropy_production_step(np.stack([ok, ok, bad, ok]), beta=1.0)
        assert info.value.row == 2

    def test_batch_violation_names_the_lowest_failing_row(self):
        good = np.concatenate([make_ledger(step=1), make_ledger(step=2)])
        bad = np.concatenate([make_ledger(step=1), make_ledger(step=2, e_sys_end=1.0)])
        batch = np.stack([good, bad, bad])
        with pytest.raises(ThermoError, match="on step 2$") as info:
            entropy_production_step(batch, beta=1.0)
        assert info.value.row == 1
        with pytest.raises(ThermoError) as info:
            entropy_production_step(bad, beta=1.0)
        assert info.value.row is None


def random_sqrt_family(rng, dim, n_ops):
    """Positive operators whose squares sum to the identity."""
    blocks = []
    for _ in range(n_ops):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        blocks.append(g @ dag(g) + 1e-3 * np.eye(dim))
    total = sum(blocks)
    evals, vecs = np.linalg.eigh(total)
    inv_sqrt = (vecs / np.sqrt(evals)) @ dag(vecs)
    family = []
    for b in blocks:
        m = inv_sqrt @ b @ inv_sqrt
        evals_m, vecs_m = np.linalg.eigh(0.5 * (m + dag(m)))
        family.append((vecs_m * np.sqrt(np.clip(evals_m, 0, None))) @ dag(vecs_m))
    return family


def lemma_sides(rho, family):
    """S(rho) and S_Sh(p) + sum_n p_n S(rho_n) of one readout, a batch of one."""
    lhs, rhs = _entropy_lemma(np.array(family, dtype=complex)[None], rho.matrix[None])
    return lhs[0], rhs[0]


class TestMeasurementEntropyLemma:
    def test_maximally_mixed_z_projectors_equality(self):
        lhs, rhs = lemma_sides(
            DensityOperator.maximally_mixed(2), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        )
        assert rhs - lhs >= ENTROPY_LEMMA_FLOOR
        assert lhs == pytest.approx(math.log(2), abs=1e-12)
        assert rhs == pytest.approx(math.log(2), abs=1e-12)

    def test_pure_state_own_basis(self):
        lhs, rhs = lemma_sides(
            DensityOperator.basis_state(2, 0), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        )
        assert rhs - lhs >= ENTROPY_LEMMA_FLOOR
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_random_sqrt_families(self):
        rng = np.random.default_rng(2718)
        for _ in range(500):
            dim = int(rng.integers(2, 5))
            rho = qmath.random_density(rng, dim)
            family = random_sqrt_family(rng, dim, int(rng.integers(2, 5)))
            lhs, rhs = lemma_sides(rho, family)
            assert rhs - lhs >= -1e-9

    def test_invalid_operator_set_rejected(self):
        with pytest.raises(ThermoError):
            lemma_sides(DensityOperator.maximally_mixed(2), [np.eye(2), np.eye(2)])


class TestAverageControlEntropyProduction:
    def test_positive_random(self):
        rng = np.random.default_rng(161)
        for _ in range(200):
            dim = int(rng.integers(2, 5))
            instr = random_instrument(rng, dim, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
            rho = qmath.random_density(rng, dim)
            assert average_control_entropy_production(instr, rho) >= -1e-10

    def test_single_outcome_unitary_invariance(self):
        # a no-readout operation produces exactly zero on average
        rng = np.random.default_rng(9)
        rho = qmath.random_density(rng, 3)
        u = qmath.random_unitary(rng, 3)
        assert abs(average_control_entropy_production(unitary_kick(u), rho)) <= 1e-10

    def test_projective_equals_shannon_minus_spectrum(self):
        rho = DensityOperator.pure([1, 1])
        instr = projective_instrument(np.eye(2))
        val = average_control_entropy_production(instr, rho)
        assert val == pytest.approx(math.log(2), abs=1e-10)


class TestDataProcessing:
    def test_mutual_information_never_increases_under_local_maps(self):
        rng = np.random.default_rng(1234)
        for _ in range(500):
            ds = int(rng.integers(2, 4))
            du = int(rng.integers(2, 4))
            joint = qmath.random_density(rng, ds * du)
            channel = random_instrument(rng, ds, 1, int(rng.integers(1, 4)))
            before = mutual_information(joint, [ds, du], [0])
            out = np.zeros_like(joint.matrix)
            for k in channel.outcomes[0].kraus:
                k_full = np.kron(k, np.eye(du))
                out += k_full @ joint.matrix @ dag(k_full)
            after = mutual_information(out, [ds, du], [0])
            assert before - after >= -1e-9
