"""Stabilization-scenario checks below acceptance scale."""

import numpy as np
import pytest

from oqst.channels import verify_instrument
from oqst.lindblad import thermal_cavity_generator
from oqst.scenarios import (
    CavityConfig,
    CavityPolicy,
    TruncationLeakError,
    atom_instrument,
    atom_transfer,
    cavity_efficiency,
    feedback_decision,
    run_cavity,
)
from oqst.scenarios.cavity import (
    classical_rate_matrix,
    sensor_weights,
    thermal_populations,
)
from oqst.thermo import first_law_residual

NT, CUTOFF = 2, 8


class TestSensorWeights:
    def test_quoted_values(self):
        pi = sensor_weights(NT, CUTOFF)
        assert pi[1, 0] == pytest.approx(1.0, abs=1e-12)
        assert pi[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert pi[0, 2] == pytest.approx(0.5, abs=1e-12)
        assert pi[1, 2] == pytest.approx(0.5, abs=1e-12)

    def test_normalization_exact(self):
        pi = sensor_weights(NT, CUTOFF)
        assert np.allclose(pi.sum(axis=0), 1.0, atol=1e-15)


class TestAtomTransfer:
    def test_emitter_deterministic_at_target_minus_one(self):
        m = atom_transfer("emitter", NT, CUTOFF)
        assert m[0][2, 1] == pytest.approx(1.0, abs=1e-12)  # 1 -> 2, outcome 0
        assert m[1][1, 1] == pytest.approx(0.0, abs=1e-12)

    def test_absorber_deterministic_at_target_plus_one(self):
        m = atom_transfer("absorber", NT, CUTOFF)
        assert m[1][2, 3] == pytest.approx(1.0, abs=1e-12)  # 3 -> 2, outcome 1
        assert m[0][3, 3] == pytest.approx(0.0, abs=1e-12)

    def test_column_sums_one(self):
        for kind in ("sensor", "emitter", "absorber"):
            m = atom_transfer(kind, NT, CUTOFF)
            total = m[0] + m[1]
            assert np.allclose(total.sum(axis=0), 1.0, atol=1e-12)

    def test_sensor_is_number_preserving(self):
        m = atom_transfer("sensor", NT, CUTOFF)
        for r in (0, 1):
            assert np.allclose(m[r], np.diag(np.diagonal(m[r])), atol=1e-15)

    def test_instruments_complete(self):
        for kind in ("sensor", "emitter", "absorber"):
            instr = atom_instrument(kind, NT, CUTOFF)
            assert instr.efficient
            report = verify_instrument(instr)
            assert report.passed, (kind, report.max_deviation)

    def test_sensor_qnd_on_fock_state(self):
        from oqst.channels import apply_instrument
        from oqst.qmath import DensityOperator
        instr = atom_instrument("sensor", NT, CUTOFF)
        rho = DensityOperator.basis_state(CUTOFF + 1, 2)
        results = apply_instrument(instr, rho)
        for res in results:
            assert res.probability == pytest.approx(0.5, abs=1e-12)
            assert np.allclose(res.state.matrix, rho.matrix, atol=1e-12)


class TestFeedbackDecision:
    def test_below_target_fires_emitter(self):
        est = np.zeros(9)
        est[1] = 1.0
        assert feedback_decision(est, NT) == "emitter"

    def test_above_target_fires_absorber(self):
        est = np.zeros(9)
        est[3] = 1.0
        assert feedback_decision(est, NT) == "absorber"

    def test_on_target_keeps_measuring(self):
        est = np.zeros(9)
        est[2] = 1.0
        assert feedback_decision(est, NT) == "sensor"

    def test_tie_resolves_to_sensor(self):
        est = np.zeros(9)
        est[1] = est[2] = 0.5
        assert feedback_decision(est, NT) == "sensor"

    def test_cooldown_forces_sensor(self):
        pol = CavityPolicy(target_nt=NT, delay=5)
        est = np.zeros(9)
        est[1] = 1.0
        kinds = ("sensor", "emitter", "sensor", "sensor")
        assert pol.decide(5, est, kinds) == "sensor"      # inside hold-off
        assert pol.decide(7, est, kinds) == "sensor"      # still inside
        assert pol.decide(8, est, kinds) == "emitter"     # window expired


class TestClassicalRateMatrix:
    def test_columns_sum_zero_and_match_thermal_fixed_point(self):
        gen = thermal_cavity_generator(2 * np.pi * 51.1e9, 0.8, 65e-3, CUTOFF)
        rates = classical_rate_matrix(gen)
        assert np.abs(rates.sum(axis=0)).max() <= 1e-12
        p_th = thermal_populations(gen.beta, CUTOFF + 1)
        assert np.abs(rates @ p_th).max() <= 1e-10


@pytest.fixture(scope="module")
def small_run():
    return run_cavity(CavityConfig(steps=60, trajectories=200, seed=5))


class TestCavityRun:
    def test_stabilizes_near_target(self, small_run):
        p2 = small_run.population(2)
        assert p2[40:].mean() > 0.9
        assert small_run.mean_n_avg[40:].mean() == pytest.approx(2.0, abs=0.15)

    def test_record_shape(self, small_run):
        rec = small_run.records[0]
        assert len(rec.outcomes) == 60
        assert set(rec.outcomes) <= {0, 1}
        assert set(rec.kinds) <= {"sensor", "emitter", "absorber"}

    def test_sensor_steps_are_work_free(self, small_run):
        for rec in small_run.records[:50]:
            for kind, ledger in zip(rec.kinds, rec.ledgers):
                if kind == "sensor":
                    assert abs(ledger.w_ctrl_sys) <= 1e-12

    def test_work_spikes_only_on_feedback(self, small_run):
        spikes = 0
        for rec in small_run.records[:50]:
            for kind, ledger in zip(rec.kinds, rec.ledgers):
                if abs(ledger.w_ctrl_sys) > 0.3:
                    assert kind in ("emitter", "absorber")
                    spikes += 1
        assert spikes > 0

    def test_first_and_second_law(self, small_run):
        assert small_run.law_checks["first_law_max_residual"] <= 1e-10
        assert small_run.law_checks["sigma_seg_min"] >= -1e-10

    def test_truncation_monitored(self, small_run):
        assert small_run.law_checks["truncation_max"] <= 1e-6

    def test_efficiency_bounded(self, small_run):
        eff = small_run.efficiency
        assert eff.min() >= 0.0
        assert eff.max() <= 1.0 + 1e-9
        recomputed = cavity_efficiency(small_run)
        assert np.allclose(recomputed, eff, atol=1e-12)

    def test_reproducible(self):
        cfg = CavityConfig(steps=20, trajectories=5, seed=99)
        a = run_cavity(cfg)
        b = run_cavity(cfg)
        for ra, rb in zip(a.records, b.records):
            assert ra.outcomes == rb.outcomes
            assert ra.log_prob == rb.log_prob

    def test_workers_do_not_change_results(self):
        base = run_cavity(CavityConfig(steps=20, trajectories=8, seed=3, workers=1))
        multi = run_cavity(CavityConfig(steps=20, trajectories=8, seed=3, workers=3))
        for ra, rb in zip(base.records, multi.records):
            assert ra.outcomes == rb.outcomes
            assert ra.kinds == rb.kinds
            assert np.array_equal(ra.ledgers, rb.ledgers)
        assert np.array_equal(base.populations, multi.populations)

    def test_long_single_realization(self):
        report = run_cavity(CavityConfig(steps=1000, trajectories=1, seed=17))
        rec = report.records[0]
        assert len(rec.outcomes) == 1000
        assert set(rec.outcomes) <= {0, 1}
        pops = np.array(rec.states)
        n_vec = np.arange(9)
        mean_n = pops @ n_vec
        var_n = pops @ n_vec**2 - mean_n**2
        # fluctuates around the target with mostly tiny conditional variance
        assert abs(mean_n[100:].mean() - 2.0) < 0.2
        assert (var_n[100:] < 0.1).mean() > 0.75


class TestDiagonalDenseEquivalence:
    def test_bit_identical_outcomes_and_close_ledgers(self):
        # target 1 keeps the invariant cutoff >= target + 4 at cutoff 5
        diag = run_cavity(CavityConfig(
            steps=50, trajectories=4, seed=11, cutoff=5, target_nt=1, delay_d=3
        ))
        dense = run_cavity(CavityConfig(
            steps=50, trajectories=4, seed=11, cutoff=5, target_nt=1, delay_d=3, dense=True
        ))
        for a, b in zip(diag.records, dense.records):
            assert a.outcomes == b.outcomes
            assert a.kinds == b.kinds
            for la, lb in zip(a.ledgers, b.ledgers):
                for col in ("w_ctrl_sys", "q_ctrl_sys", "q_seg", "sigma_ctrl",
                            "sigma_seg", "logp_increment", "s_end", "e_sys_end"):
                    assert abs(getattr(la, col) - getattr(lb, col)) <= 1e-9

    @pytest.mark.parametrize("dense", [False, True])
    def test_ledger_rows_and_columns(self, dense):
        report = run_cavity(CavityConfig(steps=12, trajectories=2, seed=4, dense=dense))
        rec = report.records[0]
        assert len(rec.ledgers) == 12
        rows = list(rec.ledgers)
        assert [row.step for row in rows] == list(range(1, 13))
        assert [row.outcome for row in rows] == list(rec.outcomes)
        assert np.array_equal(rec.ledgers["sigma_ctrl"], [row.sigma_ctrl for row in rows])
        assert first_law_residual(rows[3]) == first_law_residual(rec.ledgers)[3]
        batch = np.stack([r.ledgers for r in report.records])
        assert batch["w_ctrl_sys"].shape == (2, 12)
        assert np.abs(first_law_residual(batch)).max() <= 1e-10

    def test_exact_propagator_variant_agrees(self):
        diag = run_cavity(CavityConfig(
            steps=30, trajectories=3, seed=21, exact_propagator=True
        ))
        dense = run_cavity(CavityConfig(
            steps=30, trajectories=3, seed=21, exact_propagator=True, dense=True
        ))
        for a, b in zip(diag.records, dense.records):
            assert a.outcomes == b.outcomes


class TestConfigValidation:
    def test_cutoff_floor(self):
        with pytest.raises(ValueError):
            CavityConfig(cutoff=5)

    def test_step_must_be_short(self):
        with pytest.raises(ValueError):
            CavityConfig(step_ta=1.0)

    def test_first_order_step_map_must_stay_nonnegative(self):
        # at cutoff 40 the top level empties ~4x per step of 6.5 ms
        with pytest.raises(ValueError, match="negative entries"):
            CavityConfig(cutoff=40, step_ta=6.5e-3)
        CavityConfig(cutoff=40, step_ta=6.5e-3, exact_propagator=True)

    def test_truncation_error_type(self):
        assert issubclass(TruncationLeakError, RuntimeError)

    @pytest.mark.parametrize("dense", [False, True])
    def test_leak_names_trajectory_and_step(self, dense):
        config = CavityConfig(steps=12, trajectories=3, seed=83, cutoff=5, target_nt=1,
                              delay_d=3, dense=dense)
        with pytest.raises(TruncationLeakError,
                           match=r"^trajectory 1: population \S+ at the cutoff level on step 11$"):
            run_cavity(config)
