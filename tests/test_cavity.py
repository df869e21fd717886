"""Stabilization-scenario checks below acceptance scale."""

import concurrent.futures
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oqst.channels import COMPLETENESS_ATOL
from oqst.lindblad import thermal_cavity_generator, _banded_product
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
from scipy.linalg import expm

from oqst import trajectory
from oqst.scenarios import cavity
from oqst.scenarios.cavity import (
    ATOM_KINDS,
    classical_rate_matrix,
    sensor_weights,
    thermal_populations,
)
from oqst.qmath import DensityOperator
from oqst.thermo import LEDGER_DTYPE, ThermoError, first_law_residual

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
            assert instr.completeness_deviation <= COMPLETENESS_ATOL, kind

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
        assert ATOM_KINDS[feedback_decision(est, NT)] == "emitter"

    def test_above_target_fires_absorber(self):
        est = np.zeros(9)
        est[3] = 1.0
        assert ATOM_KINDS[feedback_decision(est, NT)] == "absorber"

    def test_on_target_keeps_measuring(self):
        est = np.zeros(9)
        est[2] = 1.0
        assert ATOM_KINDS[feedback_decision(est, NT)] == "sensor"

    def test_tie_resolves_to_sensor(self):
        est = np.zeros(9)
        est[1] = est[2] = 0.5
        assert ATOM_KINDS[feedback_decision(est, NT)] == "sensor"

    @staticmethod
    def reference(p, target):
        """One estimate's kind in plain Python: ``sum`` adds the levels in order."""
        if sum(p[target + 1:]) > p[target]:
            return "absorber"
        return "emitter" if sum(p[:target]) > p[target] else "sensor"

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data(), target=st.integers(1, 4), n=st.integers(1, 9),
           level_major=st.booleans())
    def test_matches_python_sum_reference(self, data, target, n, level_major):
        """Row-major and level-major batches against the reference.  Populations are small
        multiples of 1/64, so every sum is exact and the ties ``p_above == p_target`` and
        ``p_below == p_target`` come up often."""
        dim = target + 5
        weights = st.lists(st.integers(0, 6), min_size=dim, max_size=dim)
        est = np.array(data.draw(st.lists(weights, min_size=n, max_size=n))) / 64.0
        if data.draw(st.booleans()):  # force a tie on one side for the first row
            side = slice(target + 1, None) if data.draw(st.booleans()) else slice(None, target)
            est[0, target] = est[0, side].sum()
        expected = [self.reference(row.tolist(), target) for row in est]
        batch = np.ascontiguousarray(est.T).T if level_major else est
        assert [ATOM_KINDS[c] for c in feedback_decision(batch, target)] == expected
        assert ATOM_KINDS[feedback_decision(est[0], target)] == expected[0]

    def test_exact_ties_keep_measuring(self):
        est = np.zeros((2, 9))
        est[0, [1, 2]] = 0.25                     # p_below == p_target
        est[1, [2, 3, 4]] = 0.25, 0.125, 0.125    # p_above == p_target
        assert feedback_decision(est, NT).tolist() == [cavity.SENSOR] * 2
        assert feedback_decision(np.ascontiguousarray(est.T).T, NT).tolist() == [cavity.SENSOR] * 2

    def test_cooldown_forces_sensor(self):
        instruments = {kind: atom_instrument(kind, NT, CUTOFF) for kind in ATOM_KINDS}
        pol = CavityPolicy(target_nt=NT, delay=5, instruments=instruments)
        est = np.zeros((1, 9))
        est[0, 1] = 1.0
        sent = np.array([[cavity.SENSOR, cavity.EMITTER] + [cavity.SENSOR] * 5])  # kind codes

        def kind(step):
            return ATOM_KINDS[pol.plan(step, est, None, sent[:, : step - 1])[1][0]]

        assert kind(5) == "sensor"      # inside hold-off
        assert kind(7) == "sensor"      # still inside
        assert kind(8) == "emitter"     # window expired


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

    @pytest.mark.parametrize("exact", [False, True])
    def test_sensor_steps_book_exactly_zero_work(self, exact):
        # The diagonal sensor transfer leaves every level's energy as it is,
        # so its work is 0 itself, not a difference of two rounded energies.
        report = run_cavity(CavityConfig(steps=220, trajectories=100, seed=1,
                                         exact_propagator=exact))
        sensor = np.array([rec.kinds for rec in report.records]) == "sensor"
        work = np.stack([rec.ledgers for rec in report.records])["w_ctrl_sys"]
        assert sensor.sum() > 20000
        assert np.count_nonzero(work[sensor]) == 0

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


def _padded(p, pad):
    """Rows ``p`` ``(n, dim)`` laid out level-major between ``pad`` zero levels each side."""
    buf = np.zeros((p.shape[1] + 2 * pad, len(p)))
    buf[pad:pad + p.shape[1]] = p.T
    return buf


def _random_rows(n=50, dim=CUTOFF + 1, seed=3):
    p = np.random.default_rng(seed).random((n, dim))
    return p / p.sum(axis=-1, keepdims=True)


class TestLevelMajorKernels:
    """The kernels the population path runs: the drift's band products on shifted slices of
    the level-major populations (the one banded kernel, ``lindblad._banded_product``), and
    each atom outcome's one-band transfer."""

    @staticmethod
    def assert_matches_dense(m, p):
        offsets, bands = cavity._diagonals(m)
        pad = max(abs(k) for k in offsets)
        levels = _banded_product(offsets, bands, _padded(p, pad), pad)
        assert levels.shape == (len(m), len(p))
        assert np.abs(levels.T - p @ m.T).max() <= 1e-15
        assert not levels.base[:pad].any() and not levels.base[pad + len(m):].any()

    def test_step_maps(self):
        config = CavityConfig()
        rates = classical_rate_matrix(config.generator())
        first_order = np.eye(config.dim) + rates * config.step_ta
        exact = expm(rates * config.step_ta)
        assert len(cavity._diagonals(first_order)[0]) == 3
        assert len(cavity._diagonals(exact)[0]) == 2 * config.dim - 1
        for m in (first_order, exact):
            self.assert_matches_dense(m, _random_rows())

    def test_random_dense_matrix(self):
        self.assert_matches_dense(np.random.default_rng(5).random((7, 7)), _random_rows(dim=7))

    @pytest.mark.parametrize("exact", [False, True])
    def test_the_drift_the_population_path_runs(self, exact):
        config = CavityConfig(exact_propagator=exact)
        rep = cavity._Populations(config)
        rates = classical_rate_matrix(config.generator()) * config.step_ta
        m = expm(rates) if exact else np.eye(config.dim) + rates
        p = _random_rows()
        rows = trajectory._Rows.__new__(trajectory._Rows)
        rows.state = p.copy()
        rep.start(None, rows)
        rep.propagate(None, rows, config.step_ta)
        assert np.abs(rows.state - p @ m.T).max() <= 1e-15

    def test_each_atom_outcome_has_one_band(self):
        offsets = {"sensor": [0], "emitter": [-1, 0], "absorber": [0, 1]}
        for kind in ATOM_KINDS:
            m = atom_transfer(kind, NT, CUTOFF)
            assert cavity._diagonals(m)[0] == offsets[kind]
            for r in (0, 1):
                assert len(cavity._diagonals(m[r])[0]) == 1

    def test_per_row_kinds(self):
        rep = cavity._Populations(CavityConfig())
        stack = np.stack([atom_transfer(kind, NT, CUTOFF) for kind in ATOM_KINDS])
        codes = np.random.default_rng(4).integers(0, 3, 50)
        p = _random_rows()
        weights = rep.transfer(_padded(p, rep.pad), codes)  # (outcome, level, row)
        dense = (stack[codes] * p[:, None, None, :]).sum(-1)  # (row, outcome, level)
        # one nonzero product per weight: the dense sum adds exact zeros to it
        assert np.array_equal(weights.transpose(2, 0, 1), dense)


def _population_step(config, p, codes, branch):
    """Every number one population step computes for rows ``p`` with atoms ``codes``, picking
    outcome ``branch``: drifted state, its energy and entropy, the atom weights, the branch
    sums and the post-control state, each with the row leading."""
    rep = cavity._Populations(config)
    rows = trajectory._Rows.__new__(trajectory._Rows)
    rows.state = p.copy()
    rep.start(None, rows)
    rep.propagate(None, rows, config.step_ta)
    rows.energy = rep.energy(rows)
    entropy = rep.entropy(None, rows)
    weights = rep.transfer(rows.state.base, codes).transpose(2, 0, 1)
    at = np.arange(len(codes))
    probs, work, e_raws, heat, _, pick = rep.branches(None, rows, at, codes)  # outcome-major
    post = pick(at, branch, probs[branch, at])["state"]
    return [rows.state, rows.energy, entropy, weights, probs.T, work, e_raws.T, heat, post]


@pytest.mark.parametrize("exact", [False, True])
def test_stacked_population_step_equals_rows_one_at_a_time(exact):
    """Each row's numbers come from elementwise operations on that row alone: a stacked step
    equals the same rows stepped one at a time, bit for bit."""
    config = CavityConfig(exact_propagator=exact)
    rng = np.random.default_rng(6)
    p, codes, branch = _random_rows(n=40), rng.integers(0, 3, 40), rng.integers(0, 2, 40)
    stacked = _population_step(config, p, codes, branch)
    for i in range(len(p)):
        alone = _population_step(config, p[i:i + 1], codes[i:i + 1], branch[i:i + 1])
        for whole, one in zip(stacked, alone):
            assert whole[i].tobytes() == one[0].tobytes()


def test_a_photon_move_off_by_one_breaks_the_average_heat(monkeypatch):
    """The population path's average-heat check has power: booking one photon too many for an
    emitted photon leaves an average control heat, and the run stops on it."""
    init = cavity._Populations.__init__

    def off_by_one(self, config):
        init(self, config)
        self.photons = self.photons + np.where(np.arange(3) == cavity.EMITTER, [[1.0], [0.0]], 0.0)

    monkeypatch.setattr(cavity._Populations, "__init__", off_by_one)
    with pytest.raises(ThermoError, match=r"^average control heat \S+ is not zero$"):
        run_cavity(CavityConfig(steps=10, trajectories=4, seed=5))


@pytest.mark.parametrize("dense", [False, True])
def test_delayed_estimates_read_the_same_from_every_history(dense):
    """A delayed policy reads its estimates from the kept states when every row is kept, else
    from the ring of the last ``delay`` states: trajectory 0's record is the same bit for bit."""
    config = CavityConfig(steps=30, trajectories=6, seed=9, delay_d=3, dense=dense)
    chunk = cavity._dense_chunk if dense else cavity._diagonal_chunk
    every, first = (chunk(config, range(6), keep_records=keep) for keep in (True, False))
    assert len(every.records) == 6 and len(first.records) == 1
    a, b = every.records[0], first.records[0]
    assert a.outcomes == b.outcomes and a.kinds == b.kinds
    assert a.ledgers.tobytes() == b.ledgers.tobytes()
    assert np.asarray(a.states).tobytes() == np.asarray(b.states).tobytes()
    assert any(kind != "sensor" for kind in a.kinds[config.delay_d:])


def _same_records(a, b):
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.outcomes == rb.outcomes
        assert ra.kinds == rb.kinds
        assert np.array_equal(ra.ledgers, rb.ledgers)
        assert np.array_equal(ra.states, rb.states)


def _reduction(report) -> dict:
    """Everything a report reduces from its trajectories, flattened to named arrays."""
    out = {"populations": report.populations, "var_below": report.var_below_fraction,
           "efficiency": report.efficiency}
    for col, mean in report.stats.column_means.items():
        out[f"mean {col}"], out[f"se {col}"] = mean, report.stats.column_se[col]
    for key, value in {**report.law_checks, **report.totals}.items():
        out[key] = np.asarray(value)
    return out


class TestBlockInvariance:
    """Blocks of ``BLOCK_ROWS`` fix the reduction, whatever the worker count."""

    CONFIG = CavityConfig(steps=30, trajectories=40, seed=8, delay_d=3)

    @pytest.fixture(scope="class")
    def default_blocks(self):
        # one block, in-process at every worker count
        return [run_cavity(replace(self.CONFIG, workers=w)) for w in (1, 2, 3)]

    @pytest.fixture(scope="class")
    def small_blocks(self):
        # six blocks: whole blocks over one, two and three processes
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cavity, "BLOCK_ROWS", 7)
            return [run_cavity(replace(self.CONFIG, workers=w)) for w in (1, 2, 3)]

    def test_records_match(self, default_blocks, small_blocks):
        assert len(default_blocks[0].records) == 40
        for report in default_blocks[1:] + small_blocks:
            _same_records(report, default_blocks[0])

    @pytest.mark.parametrize("layout", ["default_blocks", "small_blocks"])
    def test_reduction_bit_equal_across_workers(self, layout, request):
        reports = request.getfixturevalue(layout)
        first = _reduction(reports[0])
        for report in reports[1:]:
            for key, value in _reduction(report).items():
                assert np.array_equal(value, first[key]), key

    def test_reduction_close_across_block_sizes(self, default_blocks, small_blocks):
        ref = _reduction(default_blocks[0])
        for key, value in _reduction(small_blocks[0]).items():
            assert np.abs(value - ref[key]).max() <= 1e-13, key

    def test_dense_leaves_bit_equal_across_workers(self, monkeypatch):
        # each worker codes its plan kinds in its own run and hands back its closed fold
        monkeypatch.setattr(cavity, "BLOCK_ROWS", 4)
        config = replace(self.CONFIG, steps=16, trajectories=10, dense=True)
        one, two = (run_cavity(replace(config, workers=w)) for w in (1, 2))
        assert any(kind != "sensor" for rec in one.records for kind in rec.kinds)
        _same_records(two, one)
        for key, value in _reduction(two).items():
            assert np.array_equal(value, _reduction(one)[key]), key

    def test_one_block_runs_in_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-block run built a process pool")

        # run_cavity imports the pool class on its pool branch alone
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        report = run_cavity(CavityConfig(steps=10, trajectories=20, seed=2, workers=2))
        assert len(report.records) == 20

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_leak_reported_first_across_blocks(self, workers, monkeypatch):
        # trajectory 1 leaks; in blocks of one it is the second block
        monkeypatch.setattr(cavity, "BLOCK_ROWS", 1)
        config = CavityConfig(steps=12, trajectories=3, seed=83, cutoff=5, target_nt=1,
                              delay_d=3, workers=workers)
        with pytest.raises(TruncationLeakError, match=r"^trajectory 1: .* on step 11$"):
            run_cavity(config)

    @pytest.mark.parametrize("dense", [False, True])
    def test_records_kept_on_request(self, dense):
        config = CavityConfig(steps=10, trajectories=5, seed=6, dense=dense)
        full, lean = run_cavity(config), run_cavity(config, keep_records=False)
        assert len(full.records) == 5
        assert len(lean.records) == 1
        assert lean.records[0].outcomes == full.records[0].outcomes
        for key, value in _reduction(lean).items():
            assert np.array_equal(value, _reduction(full)[key]), key


    @pytest.mark.parametrize("keep_records", [True, False])
    def test_dense_leaf_over_several_engine_blocks(self, keep_records, monkeypatch):
        # a leaf that spans engine blocks reduces and keeps records as one block does
        config = CavityConfig(steps=10, trajectories=5, seed=6, dense=True)
        whole = run_cavity(config, keep_records=keep_records)
        monkeypatch.setattr(trajectory, "BLOCK_ROWS", 2)
        split = run_cavity(config, keep_records=keep_records)
        _same_records(split, whole)
        for key, value in _reduction(split).items():
            assert np.array_equal(value, _reduction(whole)[key]), key

    def test_dense_leak_named_across_engine_blocks(self, monkeypatch):
        # trajectory 1 leaks; in engine blocks of one row it is row 0 of the second block
        monkeypatch.setattr(trajectory, "BLOCK_ROWS", 1)
        config = CavityConfig(steps=12, trajectories=3, seed=83, cutoff=5, target_nt=1,
                              delay_d=3, dense=True)
        with pytest.raises(TruncationLeakError, match=r"^trajectory 1: .* on step 11$"):
            run_cavity(config)


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


class TestExactTree:
    """``run_cavity``'s reduced means against the exact outcome tree of the same physics.

    The tree is the engine's enumeration on the population representation:
    every viable outcome of every step becomes a row, weighed by its
    probability.  Each per-step mean of every ledger column and of every
    level's population from a sampled run must lie within z standard errors
    of the tree's, plus a rounding floor.  The standard errors are the
    tree's own (the exact spread over trajectories, over sqrt(n)), and z is
    the Bonferroni bound for a family-wise false-alarm rate ``FAMILY_RATE``
    over all the compared means, two-sided.
    """

    CONFIG = CavityConfig(steps=12, trajectories=20000, seed=11)
    FAMILY_RATE = 1e-3
    ROUNDING = 1e-12  # step 1's columns have standard errors near 1e-17

    @pytest.fixture(scope="class")
    def tree(self):
        """Leaf probabilities, closed ledgers ``(leaves, steps)`` and post-control
        populations ``(leaves, steps, dim)``."""
        config = self.CONFIG
        gen = config.generator()
        policy = CavityPolicy(config.target_nt, config.delay_d, instruments={
            kind: atom_instrument(kind, config.target_nt, config.cutoff) for kind in ATOM_KINDS})
        schedule = trajectory.ControlSchedule.uniform(config.steps, config.step_ta)
        rho0 = DensityOperator.from_diagonal(thermal_populations(gen.beta, config.dim))
        run = trajectory._Run(gen, schedule, policy, rho0, cavity._Populations(config),
                              method=config.method)
        rows = trajectory._stepped(run, 1, trajectory._expanded)
        return rows.prob, trajectory._block(run, rows).ledger, rows.states

    def z_scores(self, report, tree) -> np.ndarray:
        """|sampled - exact| less the rounding floor, in exact standard errors, of every
        compared mean; and the Bonferroni z they must stay within."""
        prob, ledger, populations = tree
        sampled = [report.stats.column_means[col] for col in ledger.dtype.names]
        values = [ledger[col] for col in ledger.dtype.names]
        sampled.extend(report.populations.T)
        values.extend(np.moveaxis(populations, -1, 0))
        sampled, values = np.array(sampled), np.array(values)  # (q, steps), (q, leaves, steps)
        exact = np.einsum("l,qls->qs", prob, values)
        spread = np.einsum("l,qls->qs", prob, (values - exact[:, None]) ** 2)
        se = np.sqrt(spread / report.stats.n_records)
        excess = np.maximum(np.abs(sampled - exact) - self.ROUNDING, 0.0)
        z = np.divide(excess, se, out=np.where(excess > 0, np.inf, 0.0), where=se > 0)
        return z, NormalDist().inv_cdf(1 - self.FAMILY_RATE / (2 * z.size))

    def test_sampled_means_match_the_tree(self, tree):
        assert tree[0].sum() == pytest.approx(1.0, abs=1e-12)
        z, bound = self.z_scores(run_cavity(self.CONFIG, keep_records=False), tree)
        assert z.size == (len(LEDGER_DTYPE) + self.CONFIG.dim) * self.CONFIG.steps
        assert z.max() <= bound

    def test_a_biased_sampler_fails(self, tree, monkeypatch):
        uniforms = cavity.stream_uniforms
        monkeypatch.setattr(cavity, "stream_uniforms", lambda *args: uniforms(*args) ** 1.05)
        z, bound = self.z_scores(run_cavity(self.CONFIG, keep_records=False), tree)
        assert z.max() > bound
