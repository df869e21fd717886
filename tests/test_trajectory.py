"""Engine-level checks: sampling, enumeration, causality, bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oqst import qmath, trajectory
from oqst.channels import (
    IMPOSSIBLE_BRANCH,
    projective_instrument,
    random_instrument,
    unitary_kick,
)
from oqst.lindblad import ThermalGenerator, propagate, thermal_cavity_generator
from oqst.qmath import DensityOperator, von_neumann_entropy
from oqst.thermo import ThermoError, average_control_entropy_production, first_law_residual
from oqst.trajectory import (
    ControlSchedule,
    EngineError,
    FeedbackPolicy,
    FixedPolicy,
    Moments,
    StepPlan,
    choose_branch,
    derive_stream_seeds,
    enumerate_tree,
    sample_blocks,
    sample_ensemble,
    stream_rng,
    stream_uniforms,
)


def qubit_generator(beta=1.0):
    return ThermalGenerator(
        dim=2, hamiltonian=np.diag([0.0, 1.0]).astype(complex), dissipators=(), beta=beta
    )


Z_INSTR = projective_instrument(np.eye(2))
X_BASIS = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
X_INSTR = projective_instrument(X_BASIS)


class TestChooseBranch:
    def test_inverse_cdf(self):
        probs = np.array([0.2, 0.3, 0.5])
        assert choose_branch(probs, 0.1) == 0
        assert choose_branch(probs, 0.25) == 1
        assert choose_branch(probs, 0.95) == 2

    def test_zero_probability_branch_skipped(self):
        probs = np.array([0.5, 0.0, 0.5])
        assert choose_branch(probs, 0.5) == 2
        assert choose_branch(probs, 0.4999) == 0

    def test_all_zero_raises(self):
        with pytest.raises(EngineError):
            choose_branch(np.array([0.0, 0.0]), 0.5)

    def test_batch_agrees_with_rows(self):
        # plain picks, a tie, and picks past a short total that walk back over
        # one and two sub-floor branches; one row per column, outcome-major
        probs = np.array([
            [0.2, 0.3, 0.5], [0.5, 0.0, 0.5], [0.5, 0.0, 0.5], [0.3, 0.3, 0.0], [0.5, 0.0, 0.0],
        ])
        u = np.array([0.25, 0.5, 0.4999, 0.9, 0.7])
        picks = choose_branch(probs.T, u)
        assert picks.shape == (5,)
        assert picks.tolist() == [choose_branch(p, x) for p, x in zip(probs, u)]
        assert picks.tolist() == [1, 2, 0, 1, 0]

    @pytest.mark.parametrize("bad_row, u, match", [
        ([0.0, 0.0], 0.5, "no branch carries probability mass"),
        ([1e-16, 1.0], 0.0, "impossible-branch selection"),
    ])
    def test_batch_raises_like_rows(self, bad_row, u, match):
        with pytest.raises(EngineError, match=match):
            choose_branch(np.array(bad_row), u)
        with pytest.raises(EngineError, match=match):
            choose_branch(np.array([[0.5, 0.5], bad_row]).T, np.array([0.3, u]))

    @staticmethod
    def reference(probs, u):
        """One row's pick in plain Python: the number of cumulative sums (added in label order)
        not above ``u``, capped at the last label, then back to the nearest viable label."""
        cum, total = [], 0.0
        for p in probs:
            total = p if not cum else total + p
            cum.append(total)
        if total < 1e-12:
            return "no branch carries probability mass"
        at = min(sum(c <= u for c in cum), len(probs) - 1)
        while at >= 0 and probs[at] < IMPOSSIBLE_BRANCH:
            at -= 1
        return at if at >= 0 else "impossible-branch selection"

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data(), k=st.integers(2, 5), n=st.integers(1, 12),
           row_major=st.booleans())
    def test_matches_per_row_reference(self, data, k, n, row_major):
        """Batches in both memory layouts against the per-row reference, with exact zeros,
        sub-floor branches and uniforms exactly on a cumulative boundary."""
        entry = st.one_of(st.sampled_from([0.0, 1e-16, 0.25, 0.5]),
                          st.floats(0.0, 1.0, allow_subnormal=False))
        rows = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                                  min_size=n, max_size=n))
        u = []
        for row in rows:
            if data.draw(st.booleans()):  # a boundary: one of the row's cumulative sums
                u.append(float(np.cumsum(row)[data.draw(st.integers(0, k - 1))]))
            else:
                u.append(data.draw(st.floats(0.0, 1.0, exclude_max=True)))
        expected = [self.reference(row, x) for row, x in zip(rows, u)]
        # outcome-major: the transpose of row-major (n, k) data, or (k, n) data itself
        probs = np.array(rows).T if row_major else np.ascontiguousarray(np.array(rows).T)
        errors = {e for e in expected if isinstance(e, str)}
        if errors:  # a row without mass fails the batch before an impossible pick does
            match = min(errors, key=lambda e: not e.startswith("no branch"))
            with pytest.raises(EngineError, match=match):
                choose_branch(probs, np.array(u))
        else:
            assert choose_branch(probs, np.array(u)).tolist() == expected


class TestStreams:
    def test_uniforms_match_fresh_generators(self):
        rng = np.random.default_rng(9)
        seeds = [0, 2**64 - 1, 2**128 - 1, 2**128 + 5, *map(int, rng.integers(0, 2**63, 20)),
                 *derive_stream_seeds(3, range(5)).tolist()]
        draws = stream_uniforms(seeds, 37)
        assert draws.shape == (len(seeds), 37)
        for row, seed in zip(draws, seeds):
            assert np.array_equal(row, stream_rng(seed).random(37))
        assert stream_uniforms(seeds[:2], 0).shape == (2, 0)

    @pytest.mark.parametrize("steps", [*range(1, 10), 37, 220])
    def test_uniforms_match_fresh_generators_on_both_sides_of_the_array_pass(self, steps):
        # streams of up to 8 uniforms come from one array pass, longer ones from a generator
        derived = derive_stream_seeds(11, range(1000))
        small = [0, 1, 2**63, 2**64 - 1]
        seeds = [*small, 2**128 - 1, *derived.tolist()]
        want = np.array([stream_rng(seed).random(steps) for seed in seeds])
        assert np.array_equal(stream_uniforms(seeds, steps), want)
        as_array = np.concatenate([np.array(small, np.uint64), derived])
        assert np.array_equal(stream_uniforms(as_array, steps), np.delete(want, 4, axis=0))

    @staticmethod
    def splitmix64_reference(master, index):
        """Output ``index + 1`` of splitmix64 from ``master``, in Python ints."""
        m64, golden = (1 << 64) - 1, 0x9E3779B97F4A7C15
        z = ((master & m64) + (index + 1) * golden + golden) & m64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & m64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & m64
        return z ^ (z >> 31)

    @pytest.mark.parametrize("master", [0, 42, 2**63, 2**64 - 1, 2**64, 2**64 + 7, 2**100 + 3,
                                        -1, -42, -(2**70) - 5])
    def test_seeds_match_python_int_reference(self, master):
        seeds = derive_stream_seeds(master, range(300))
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [self.splitmix64_reference(master, i) for i in range(300)]
        for index in (0, 299, 2**63 + 1, 2**64 - 1, -1, -77):
            seed = derive_stream_seeds(master, [index])
            assert seed.tolist() == [self.splitmix64_reference(master, index)]
        assert derive_stream_seeds(master, []).shape == (0,)

    def test_seeds_reject_float_indices(self):
        # a list mixing negative and huge ints becomes float64 in numpy, which loses bits
        with pytest.raises(TypeError, match="integers"):
            derive_stream_seeds(1, [-1, 2**63])


class TestMoments:
    def test_chan_merge_matches_whole_batch(self):
        rng = np.random.default_rng(12)
        data = rng.normal(3.0, 2.0, size=(97, 5)) * rng.random(5) * 10
        for _ in range(20):
            cuts = np.sort(rng.choice(np.arange(1, 97), size=rng.integers(1, 8), replace=False))
            cuts = np.unique(np.append(cuts, [cuts[0] + 1, 97]))  # at least one one-row block
            blocks = np.split(data, cuts[:-1])
            assert min(map(len, blocks)) == 1
            merged = Moments.of(blocks[0])
            for block in blocks[1:]:
                merged = merged.merge(Moments.of(block))
            assert merged.n == len(data)
            mean, std = data.mean(axis=0), data.std(axis=0, ddof=1)
            assert np.all(np.abs(merged.mean - mean) <= 1e-13 * np.abs(mean))
            assert np.all(np.abs(np.sqrt(merged.m2 / (merged.n - 1)) - std) <= 1e-13 * std)
            assert np.allclose(merged.se, std / np.sqrt(len(data)), rtol=1e-13, atol=0)

    def test_single_row_has_zero_error(self):
        m = Moments.of(np.array([[1.0, 2.0]]))
        assert np.array_equal(m.mean, [1.0, 2.0])
        assert np.array_equal(m.se, [0.0, 0.0])


class TestSampling:
    def test_empty_schedule_propagates(self):
        gen = thermal_cavity_generator(2 * np.pi * 51.1e9, 0.8, 65e-3, 5)
        rho0 = DensityOperator.basis_state(6, 3)
        sched = ControlSchedule(times=(), t_final=1e-3)
        (rec,) = sample_ensemble(gen, sched, FixedPolicy([]), rho0, [1])
        assert rec.outcomes == ()
        assert rec.log_prob == 0.0
        expected = propagate(gen, rho0, 1e-3, "exact")
        assert np.allclose(rec.final_state, expected.matrix, atol=1e-12)

    def test_reproducibility_bit_exact(self):
        gen = qubit_generator()
        sched = ControlSchedule.uniform(5, 1.0)
        pol = FixedPolicy([X_INSTR, Z_INSTR, X_INSTR, Z_INSTR, X_INSTR])
        rho0 = DensityOperator.maximally_mixed(2)
        (a,) = sample_ensemble(gen, sched, pol, rho0, [123])
        (b,) = sample_ensemble(gen, sched, pol, rho0, [123])
        assert a.outcomes == b.outcomes
        assert a.log_prob == b.log_prob
        for la, lb in zip(a.ledgers, b.ledgers):
            assert la == lb

    def test_distinct_seeds_vary(self):
        gen = qubit_generator()
        sched = ControlSchedule.uniform(8, 1.0)
        pol = FixedPolicy([X_INSTR, Z_INSTR] * 4)
        rho0 = DensityOperator.maximally_mixed(2)
        seqs = {
            rec.outcomes
            for rec in sample_ensemble(gen, sched, pol, rho0, derive_stream_seeds(0, range(20)))
        }
        assert len(seqs) > 1

    def test_frequencies_match_enumeration(self):
        gen = qubit_generator()
        sched = ControlSchedule.uniform(2, 1.0)
        pol = FixedPolicy([Z_INSTR, Z_INSTR])
        rho0 = DensityOperator.pure([1, 1])
        leaves = enumerate_tree(gen, sched, pol, rho0)
        probs = {o: p for o, p, _ in leaves}
        n = 100_000
        counts = {}
        seeds = derive_stream_seeds(42, range(n)).tolist()
        for rec in sample_ensemble(gen, sched, pol, rho0, seeds, store_states=False):
            counts[rec.outcomes] = counts.get(rec.outcomes, 0) + 1
        for outcome, p in probs.items():
            freq = counts.get(outcome, 0) / n
            se = np.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= 3 * se

    @pytest.mark.parametrize("store_states", [True, False])
    def test_ensemble_record_ledgers_are_recarrays(self, store_states):
        gen = qubit_generator()
        sched = ControlSchedule.uniform(4, 1.0)
        pol = FixedPolicy([X_INSTR, Z_INSTR] * 2)
        rho0 = DensityOperator.pure([1, 0.5])
        seeds = derive_stream_seeds(5, range(trajectory.BLOCK_ROWS + 44)).tolist()  # two blocks
        recs = list(sample_ensemble(gen, sched, pol, rho0, seeds, store_states=store_states))
        for i in (0, len(seeds) - 1):
            rec = recs[i]
            assert isinstance(rec.ledgers, np.recarray) and rec.ledgers.shape == (4,)
            assert np.array_equal(rec.ledgers.sigma_seg, rec.ledgers["sigma_seg"])
            assert rec.ledgers[0].w_seg == rec.ledgers["w_seg"][0]
            assert rec.states.shape == ((4, 2, 2) if store_states else (0,))
            (alone,) = sample_ensemble(gen, sched, pol, rho0, [seeds[i]],
                                       store_states=store_states)
            assert rec.outcomes == alone.outcomes and rec.log_prob == alone.log_prob
            assert rec.ledgers.tobytes() == alone.ledgers.tobytes()
            assert rec.states.tobytes() == alone.states.tobytes()

    def test_ledger_laws_every_step(self):
        gen = thermal_cavity_generator(2 * np.pi * 51.1e9, 0.8, 65e-3, 5)
        fock = projective_instrument(np.eye(6))
        sched = ControlSchedule.uniform(20, 82e-6)
        pol = FixedPolicy([fock] * 20)
        rho0 = DensityOperator.from_diagonal(np.ones(6) / 6)
        for seed in derive_stream_seeds(7, range(10)).tolist():
            (rec,) = sample_ensemble(gen, sched, pol, rho0, [seed], method="first_order")
            for l in rec.ledgers:
                assert abs(first_law_residual(l)) <= 1e-10
                assert l.sigma_seg >= -1e-10

    def test_forced_outcomes_replay(self):
        gen = qubit_generator()
        sched = ControlSchedule.uniform(3, 1.0)
        pol = FixedPolicy([Z_INSTR, X_INSTR, Z_INSTR])
        rho0 = DensityOperator.maximally_mixed(2)
        (rec,) = sample_ensemble(gen, sched, pol, rho0, [5])
        (replay,) = sample_ensemble(
            gen, sched, pol, rho0, [999], forced_outcomes=rec.outcomes
        )
        assert replay.outcomes == rec.outcomes
        assert replay.log_prob == pytest.approx(rec.log_prob, abs=1e-14)

    def test_impossible_forced_outcome_rejected(self):
        gen = qubit_generator()
        sched = ControlSchedule.uniform(2, 1.0)
        pol = FixedPolicy([Z_INSTR, Z_INSTR])
        rho0 = DensityOperator.basis_state(2, 0)
        with pytest.raises(EngineError):
            list(sample_ensemble(gen, sched, pol, rho0, [1], forced_outcomes=(0, 1)))

    @pytest.mark.parametrize("forced", [(0, 0, 0, 0), (0, 0)])
    def test_forced_outcomes_of_the_wrong_length_rejected(self, forced):
        # once cut to the schedule silently, or a bare IndexError
        pol = FixedPolicy([Z_INSTR] * 3)
        with pytest.raises(EngineError, match="3 steps"):
            list(sample_ensemble(qubit_generator(), ControlSchedule.uniform(3, 1.0), pol,
                                 DensityOperator.maximally_mixed(2), [1], forced_outcomes=forced))

    def test_unknown_forced_label_rejected(self):
        # once a ValueError from tuple.index, which `except EngineError` callers miss
        pol = FixedPolicy([Z_INSTR] * 3)
        with pytest.raises(EngineError, match="step 2"):
            list(sample_ensemble(qubit_generator(), ControlSchedule.uniform(3, 1.0), pol,
                                 DensityOperator.maximally_mixed(2), [1],
                                 forced_outcomes=(0, 7, 0)))


class _RecordingPolicy(FixedPolicy):
    """A fixed policy that keeps the arguments of every call."""

    def __init__(self, plans):
        super().__init__(plans)
        self.calls = []

    def plan(self, step, estimates, outcomes, kinds):
        self.calls.append((step, estimates.shape, outcomes.tolist(), kinds.shape))
        return super().plan(step, estimates, outcomes, kinds)


class TestOneCallPerStep:
    def test_sampler_asks_once_per_step_and_block(self):
        pol = _RecordingPolicy([X_INSTR, Z_INSTR, X_INSTR])
        seeds = derive_stream_seeds(9, range(trajectory.BLOCK_ROWS + 44)).tolist()
        records = list(sample_ensemble(qubit_generator(), ControlSchedule.uniform(3, 1.0), pol,
                                       DensityOperator.maximally_mixed(2), seeds))
        assert len(pol.calls) == 6  # 2 blocks x 3 steps
        firsts = [0] * 3 + [trajectory.BLOCK_ROWS] * 3
        for (step, shape, outcomes, kinds_shape), first in zip(pol.calls, firsts):
            n = min(trajectory.BLOCK_ROWS, len(seeds) - first)
            assert shape == (n, 2, 2)
            assert kinds_shape == (n, step - 1)
            assert outcomes == [list(r.outcomes[:step - 1]) for r in records[first:first + n]]
        assert [c[0] for c in pol.calls] == [1, 2, 3, 1, 2, 3]

    def test_enumeration_asks_once_per_level(self):
        pol = _RecordingPolicy([X_INSTR, Z_INSTR, X_INSTR])
        leaves = enumerate_tree(qubit_generator(), ControlSchedule.uniform(3, 1.0), pol,
                                DensityOperator.maximally_mixed(2))
        assert [c[0] for c in pol.calls] == [1, 2, 3]
        assert pol.calls[-1][1] == (4, 2, 2)  # the frontier before the last level
        assert len(leaves) == 8


class TestEnumeration:
    def test_single_fair_measurement(self):
        gen = qubit_generator()
        sched = ControlSchedule.uniform(1, 1.0)
        leaves = enumerate_tree(gen, sched, FixedPolicy([Z_INSTR]), DensityOperator.pure([1, 1]))
        assert len(leaves) == 2
        for _, p, _ in leaves:
            assert p == pytest.approx(0.5, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        gen = qubit_generator()
        sched = ControlSchedule.uniform(3, 1.0)
        instrs = [random_instrument(rng, 2, 2, 2) for _ in range(3)]
        leaves = enumerate_tree(gen, sched, FixedPolicy(instrs), qmath.random_density(rng, 2))
        total = sum(p for _, p, _ in leaves)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_log_prob_matches_exact_probability(self):
        gen = qubit_generator()
        sched = ControlSchedule.uniform(2, 1.0)
        pol = FixedPolicy([X_INSTR, Z_INSTR])
        leaves = enumerate_tree(gen, sched, pol, DensityOperator.basis_state(2, 0))
        for _, p, rec in leaves:
            assert rec.log_prob == pytest.approx(-np.log(p), abs=1e-10)

    def test_leaf_overflow_guard(self):
        gen = qubit_generator()
        sched = ControlSchedule.uniform(4, 1.0)
        pol = FixedPolicy([X_INSTR, Z_INSTR, X_INSTR, Z_INSTR])
        with pytest.raises(EngineError):
            enumerate_tree(
                gen, sched, pol, DensityOperator.maximally_mixed(2), max_leaves=3
            )


class TestEnsembleStatistics:
    def test_enumeration_average_equals_averaged_maps(self):
        gen = qubit_generator()
        sched = ControlSchedule.uniform(2, 1.0)
        pol = FixedPolicy([X_INSTR, Z_INSTR])
        rho0 = DensityOperator.pure([1, 0])
        mean_final = sum(p * rec.states[-1] for _, p, rec in enumerate_tree(gen, sched, pol, rho0))
        averaged = X_INSTR.branch_states(rho0.matrix).sum(axis=0)  # the outcome-averaged maps
        expected = Z_INSTR.branch_states(averaged).sum(axis=0)
        assert np.max(np.abs(mean_final - expected)) <= 1e-10

    def test_monte_carlo_averages(self):
        # control entropy production nonnegative and control heat zero,
        # both within Monte Carlo error
        gen = qubit_generator()
        sched = ControlSchedule.uniform(3, 1.0)
        pol = FixedPolicy([X_INSTR, Z_INSTR, X_INSTR])
        recs = list(sample_ensemble(
            gen, sched, pol, DensityOperator.maximally_mixed(2),
            derive_stream_seeds(21, range(500)), store_states=False,
        ))
        ledgers = np.stack([rec.ledgers for rec in recs])
        sigma, heat = Moments.of(ledgers["sigma_ctrl"]), Moments.of(ledgers["q_ctrl_sys"])
        assert (sigma.mean >= -4 * sigma.se - 1e-10).all()
        assert (np.abs(heat.mean) <= 4 * heat.se + 1e-10).all()


class _DelayedProbe(FeedbackPolicy):
    """Switches basis depending on a delayed estimate's excited population."""

    PLANS = (StepPlan(instrument=Z_INSTR, kind="z"), StepPlan(instrument=X_INSTR, kind="x"))

    def __init__(self, delay):
        self.delay = delay
        self.seen = []

    def plan(self, step, estimates, outcomes, kinds):
        pop1 = np.real(estimates[:, 1, 1])
        self.seen.extend((step, float(p)) for p in pop1)
        return self.PLANS, np.where(pop1 <= 0.5, 0, 1)


class TestCausality:
    def test_decision_ignores_future_outcomes(self):
        gen = qubit_generator()
        steps, delay = 8, 3
        sched = ControlSchedule.uniform(steps, 1.0)
        rho0 = DensityOperator.maximally_mixed(2)
        (base,) = sample_ensemble(gen, sched, _DelayedProbe(delay), rho0, [31])
        n_probe = 6
        # mutate outcomes newer than the estimate the policy saw at n_probe
        for j in range(n_probe - delay, n_probe):
            mutated = list(base.outcomes)
            mutated[j] = 1 - mutated[j]
            try:
                (replay,) = sample_ensemble(
                    gen, sched, _DelayedProbe(delay), rho0, [0],
                    forced_outcomes=tuple(mutated),
                )
            except EngineError:
                continue  # mutation hit a zero-probability branch
            assert replay.kinds[n_probe - 1] == base.kinds[n_probe - 1]

    def test_delayed_estimate_is_past_state(self):
        gen = qubit_generator()
        sched = ControlSchedule.uniform(4, 1.0)
        pol = _DelayedProbe(2)
        rho0 = DensityOperator.basis_state(2, 1)
        (rec,) = sample_ensemble(gen, sched, pol, rho0, [3])
        # steps 1 and 2 must see the initial state's excited population
        assert pol.seen[0] == (1, pytest.approx(1.0))
        assert pol.seen[1] == (2, pytest.approx(1.0))


class TestJointTracking:
    def test_efficient_path_matches_retained_units(self):
        gen = qubit_generator()
        sched = ControlSchedule.uniform(3, 1.0)
        pol = FixedPolicy([X_INSTR, Z_INSTR, X_INSTR])
        rho0 = DensityOperator.maximally_mixed(2)
        (fast,) = sample_ensemble(gen, sched, pol, rho0, [77])
        (slow,) = sample_ensemble(
            gen, sched, pol, rho0, [77], retain_efficient_units=True
        )
        assert fast.outcomes == slow.outcomes
        for lf, ls in zip(fast.ledgers, slow.ledgers):
            assert abs(lf.s_end - ls.s_end) <= 1e-9
            assert abs(lf.sigma_ctrl - ls.sigma_ctrl) <= 1e-9
            assert abs(lf.q_ctrl_sys - ls.q_ctrl_sys) <= 1e-12

    def test_inefficient_instrument_tracks_joint_entropy(self):
        rng = np.random.default_rng(8)
        gen = qubit_generator()
        instr = random_instrument(rng, 2, 2, 2)
        assert not instr.efficient
        sched = ControlSchedule.uniform(1, 1.0)
        rho0 = qmath.random_density(rng, 2)
        leaves = enumerate_tree(gen, sched, FixedPolicy([instr]), rho0)
        # outcome-averaged control entropy production matches the dilation
        # oracle evaluated on the pre-control (phase-rotated) state
        avg = sum(p * rec.ledgers[0].sigma_ctrl for _, p, rec in leaves)
        rho_pre = propagate(gen, rho0, 1.0, "exact")
        oracle = average_control_entropy_production(instr, rho_pre)
        assert avg == pytest.approx(oracle, abs=1e-9)
        # per-outcome joint entropy matches the dilation applied by hand
        from oqst.channels import stinespring_dilate
        from oqst.qmath import dag

        dil = stinespring_dilate(instr)
        correlated = dil.unitary_readout(rho_pre.matrix[None])[0][0]
        for (_, p, rec), (label, p_u) in zip(leaves, dil.projectors):
            p_full = np.kron(np.eye(2), p_u)
            raw = p_full @ correlated @ dag(p_full)
            expected = von_neumann_entropy(raw / np.trace(raw).real)
            s_joint = rec.ledgers[0].s_end - rec.log_prob
            assert s_joint == pytest.approx(expected, abs=1e-9)

    def test_unit_energetics_of_every_leaf(self):
        # Each leaf's step-2 unit work, heat and energy change against the
        # dilation applied by hand to that leaf's own pre-control state.
        from oqst.channels import stinespring_dilate
        from oqst.qmath import dag

        rng = np.random.default_rng(21)
        gen = TestBatchInvariance.GEN
        instr = random_instrument(rng, 2, 2, 2)
        dil = stinespring_dilate(instr)
        g = rng.normal(size=(dil.unit_dim,) * 2) + 1j * rng.normal(size=(dil.unit_dim,) * 2)
        h_unit = g + dag(g)
        sched = ControlSchedule.uniform(2, 0.4)
        pol = FixedPolicy([X_INSTR, StepPlan(instr, h_unit=h_unit)])
        leaves = enumerate_tree(gen, sched, pol, qmath.random_density(rng, 2))
        assert len(leaves) == 4
        v, unit0 = dil.joint_unitary, dil.unit_state.matrix
        dims = [2, dil.unit_dim]
        e_u0 = np.trace(h_unit @ unit0).real
        pre_states = set()
        for outcomes, _, rec in leaves:
            rho_pre = propagate(gen, DensityOperator(rec.states[0]), 0.4, "exact").matrix
            pre_states.add(np.round(rho_pre, 6).tobytes())
            joint = v @ np.kron(rho_pre, unit0) @ dag(v)
            e_uv = np.trace(h_unit @ qmath.partial_trace(joint, dims, [1])).real
            p_full = np.kron(np.eye(2), dict(dil.projectors)[outcomes[1]])
            raw = p_full @ joint @ dag(p_full)
            unit_r = qmath.partial_trace(raw / np.trace(raw).real, dims, [1])
            e_ur = np.trace(h_unit @ unit_r).real
            led = rec.ledgers[1]
            assert led.w_ctrl_unit == pytest.approx(e_uv - e_u0, abs=1e-12)
            assert led.q_ctrl_unit == pytest.approx(e_ur - e_uv, abs=1e-12)
            assert led.de_unit == pytest.approx(e_ur - e_u0, abs=1e-12)
        assert len(pre_states) == 2  # the two x outcomes of step 1 feed distinct states

    def test_max_units_cap(self):
        rng = np.random.default_rng(14)
        gen = qubit_generator()
        instr = random_instrument(rng, 2, 2, 2)
        sched = ControlSchedule.uniform(3, 1.0)
        pol = FixedPolicy([instr] * 3)
        with pytest.raises(EngineError):
            list(sample_ensemble(
                gen, sched, pol, DensityOperator.maximally_mixed(2), [1], max_units=2
            ))

    def test_unitary_kick_work_bookkeeping(self):
        gen = qubit_generator()
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        sched = ControlSchedule.uniform(1, 1.0)
        pol = FixedPolicy([unitary_kick(h)])
        rho0 = DensityOperator.basis_state(2, 1)
        (rec,) = sample_ensemble(gen, sched, pol, rho0, [0])
        l = rec.ledgers[0]
        assert l.logp_increment == pytest.approx(0.0, abs=1e-14)
        assert l.w_ctrl_sys == pytest.approx(-0.5, abs=1e-12)  # <1|H|1> 1 -> 1/2
        assert l.q_ctrl_sys == pytest.approx(0.0, abs=1e-12)
        assert l.sigma_ctrl == pytest.approx(0.0, abs=1e-10)


class _FreshInstrumentPolicy(FeedbackPolicy):
    """A new random instrument per plan, drawn from the step and outcome history.

    With ``keep`` every plan stays referenced; without it each instrument
    dies after its step, so a later one may be allocated at the same id.
    """

    def __init__(self, keep: bool):
        self.kept = {} if keep else None

    def plan(self, step, estimates, outcomes, kinds):
        plans = [self.one_plan(step, tuple(row)) for row in outcomes.tolist()]
        return plans, np.arange(len(plans))

    def one_plan(self, step, outcomes):
        if self.kept is not None and (step, outcomes) in self.kept:
            return self.kept[step, outcomes]
        instr = random_instrument(np.random.default_rng([step, *outcomes]), 2, 2, 1)
        plan = StepPlan(instrument=instr, h_unit=np.diag([0.0, 1.0]).astype(complex))
        if self.kept is not None:
            self.kept[step, outcomes] = plan
        return plan


class TestFreshInstruments:
    def test_fresh_instruments_match_kept_ones(self):
        # The dilation that fixes the unit's work and heat belongs to the
        # instrument object, so a dead instrument's must never be reused.
        gen = qubit_generator()
        sched = ControlSchedule.uniform(4, 1.0)
        rho0 = DensityOperator.maximally_mixed(2)
        kept = enumerate_tree(gen, sched, _FreshInstrumentPolicy(keep=True), rho0)
        for _ in range(20):
            fresh = enumerate_tree(gen, sched, _FreshInstrumentPolicy(keep=False), rho0)
            assert [leaf[0] for leaf in fresh] == [leaf[0] for leaf in kept]
            for (_, _, a), (_, _, b) in zip(fresh, kept):
                assert np.array_equal(a.ledgers, b.ledgers)


class _MixedPolicy(FeedbackPolicy):
    """Row-dependent plans from a delayed estimate, with an inefficient step.

    Step 2 applies an inefficient instrument, so its unit is tracked jointly
    from then on; later steps measure in z (an energetic unit) or in x (a
    switch of the Hamiltonian after the control), depending on the estimate.
    """

    delay = 1

    def __init__(self):
        rng = np.random.default_rng(12)
        self.noisy = StepPlan(random_instrument(rng, 2, 2, 2), kind="noisy")
        self.z = StepPlan(Z_INSTR, kind="z", h_unit=np.diag([0.0, 0.7]).astype(complex))
        self.x = StepPlan(X_INSTR, kind="x", next_hamiltonian=np.diag([0.0, 1.3]).astype(complex))

    def plan(self, step, estimates, outcomes, kinds):
        if step == 2:
            return (self.noisy,), np.zeros(len(estimates), dtype=int)
        return (self.z, self.x), np.where(np.real(estimates[:, 1, 1]) <= 0.5 + 1e-9, 0, 1)


class TestBatchInvariance:
    GEN = ThermalGenerator(
        dim=2, hamiltonian=np.diag([0.0, 1.0]).astype(complex),
        dissipators=((np.array([[0, 1], [0, 0]]), 0.6), (np.array([[0, 0], [1, 0]]), 0.2)),
        beta=float(np.log(3.0)),
    )
    SCHED = ControlSchedule.uniform(5, 0.3)
    RHO0 = DensityOperator.pure([1, 1j])
    OPTIONS = dict(method="first_order", substeps=3)

    def run(self, seeds, **options):
        return list(sample_ensemble(self.GEN, self.SCHED, _MixedPolicy(), self.RHO0, seeds,
                                    **self.OPTIONS, **options))

    def one(self, seed, **options):
        (rec,) = self.run([seed], **options)
        return rec

    @staticmethod
    def assert_same(a, b):
        assert a.outcomes == b.outcomes
        assert a.kinds == b.kinds
        assert np.array_equal(a.ledgers, b.ledgers)
        assert np.array_equal(a.states, b.states)
        assert a.log_prob == b.log_prob

    def test_records_do_not_depend_on_batch_mates(self, monkeypatch):
        seeds = derive_stream_seeds(77, range(64)).tolist()
        batch = self.run(seeds)
        perm = np.random.default_rng(0).permutation(64)
        shuffled = self.run([seeds[i] for i in perm])
        monkeypatch.setattr(trajectory, "BLOCK_ROWS", 7)
        blocked = self.run(seeds)
        for j, seed in enumerate(seeds):
            single = self.one(seed)
            self.assert_same(batch[j], single)
            self.assert_same(shuffled[int(np.flatnonzero(perm == j)[0])], single)
            self.assert_same(blocked[j], single)
        # the case mix this test is meant to cover
        assert {k for r in batch for k in r.kinds} == {"noisy", "z", "x"}
        assert len({r.kinds for r in batch}) > 1

    def test_forced_outcomes_replay_on_every_row(self):
        seeds = derive_stream_seeds(78, range(16)).tolist()
        target = self.one(seeds[3])
        for rec in self.run(seeds, forced_outcomes=target.outcomes):
            self.assert_same(rec, self.one(seeds[0], forced_outcomes=target.outcomes))
            assert rec.outcomes == target.outcomes
            assert np.array_equal(rec.ledgers, target.ledgers)

    def test_tree_without_states_equals_the_tree_with_them(self):
        # a delayed policy without a state history reads its ring of recent states, and the
        # branching leaves the empty history empty
        leaves = enumerate_tree(self.GEN, self.SCHED, _MixedPolicy(), self.RHO0, **self.OPTIONS)
        lean = enumerate_tree(self.GEN, self.SCHED, _MixedPolicy(), self.RHO0,
                              store_states=False, **self.OPTIONS)
        assert len(lean) == len(leaves) > 1
        for (outcomes, p, rec), (lean_outcomes, lean_p, lean_rec) in zip(leaves, lean):
            assert lean_outcomes == outcomes and lean_p == p
            assert lean_rec.kinds == rec.kinds
            assert lean_rec.log_prob == rec.log_prob
            assert lean_rec.ledgers.tobytes() == rec.ledgers.tobytes()
        assert {k for _, _, rec in leaves for k in rec.kinds} == {"noisy", "z", "x"}


class TestBlocks:
    """``sample_blocks`` columns against the records of ``sample_ensemble``."""

    GEN, SCHED, RHO0 = TestBatchInvariance.GEN, TestBatchInvariance.SCHED, TestBatchInvariance.RHO0
    OPTIONS = TestBatchInvariance.OPTIONS
    SEEDS = derive_stream_seeds(79, range(20)).tolist()

    def blocks(self, **options):
        return list(sample_blocks(self.GEN, self.SCHED, _MixedPolicy(), self.RHO0, self.SEEDS,
                                  **self.OPTIONS, **options))

    def records(self, **options):
        return list(sample_ensemble(self.GEN, self.SCHED, _MixedPolicy(), self.RHO0, self.SEEDS,
                                    **self.OPTIONS, **options))

    @pytest.mark.parametrize("store_states", [True, False])
    @pytest.mark.parametrize("forced", [False, True])
    def test_columns_equal_records_bit_for_bit(self, monkeypatch, store_states, forced):
        options = dict(store_states=store_states)
        if forced:
            options["forced_outcomes"] = self.records()[5].outcomes
        monkeypatch.setattr(trajectory, "BLOCK_ROWS", 7)
        blocks, records = self.blocks(**options), self.records(**options)
        assert [b.first for b in blocks] == [0, 7, 14]
        assert [len(b.log_prob) for b in blocks] == [7, 7, 6]
        for block in blocks:
            for j, rec in enumerate(records[block.first:block.first + len(block.log_prob)]):
                assert tuple(block.ledger["outcome"][j].tolist()) == rec.outcomes
                assert tuple(block.kinds[j]) == rec.kinds
                assert block.log_prob[j] == rec.log_prob
                assert block.ledger[j].tobytes() == rec.ledgers.tobytes()
                assert block.final_states[j].tobytes() == rec.final_state.tobytes()
                if store_states:
                    assert block.states[j].tobytes() == rec.states.tobytes()
            if not store_states:
                assert block.states is None
        if forced:
            assert {rec.outcomes for rec in records} == {options["forced_outcomes"]}

    def test_broken_law_names_its_seed_across_blocks(self, monkeypatch):
        records = self.records()
        firsts = {}
        for i, rec in enumerate(records):
            firsts.setdefault(rec.outcomes, i)
        # a sequence first seen in the third block, not in its first row
        target, row = next((o, i) for o, i in firsts.items() if i > 14)
        close = trajectory.entropy_production_step

        def break_target(ledger, beta):
            hit = (ledger["outcome"] == np.array(target)).all(axis=1)
            ledger["w_seg"][hit, 1] += 1.0
            return close(ledger, beta)

        monkeypatch.setattr(trajectory, "entropy_production_step", break_target)
        monkeypatch.setattr(trajectory, "BLOCK_ROWS", 7)
        with pytest.raises(ThermoError, match="on step 2$") as info:
            for _ in sample_blocks(self.GEN, self.SCHED, _MixedPolicy(), self.RHO0, self.SEEDS,
                                   **self.OPTIONS):
                pass
        assert info.value.row == row


class TestScheduleValidation:
    def test_non_increasing_times_rejected(self):
        with pytest.raises(EngineError):
            ControlSchedule(times=(1.0, 1.0))

    def test_t_final_before_last_control_rejected(self):
        with pytest.raises(EngineError):
            ControlSchedule(times=(1.0, 2.0), t_final=1.5)


class TestNonFiniteSchedule:
    # each once built and then failed mid-run, or silently skipped the horizon
    @pytest.mark.parametrize("make", [
        lambda: ControlSchedule.uniform(3, np.nan),
        lambda: ControlSchedule((1.0, 2.0, np.inf)),
        lambda: ControlSchedule((1.0, 2.0, 3.0), t_final=np.nan),
        lambda: ControlSchedule((1.0, 2.0, 3.0), t_final=np.inf),
        lambda: ControlSchedule((1.0, 2.0), t0=-np.inf),
        lambda: ControlSchedule((), t0=np.nan),
    ], ids=["uniform-nan-dt", "inf-time", "nan-t-final", "inf-t-final", "inf-t0", "nan-t0"])
    def test_rejected_at_construction(self, make):
        with pytest.raises(EngineError, match="finite"):
            make()
