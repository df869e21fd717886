"""Instrument construction, application and dilation checks."""

import numpy as np
import pytest

from oqst import qmath
from oqst.channels import (
    COMPLETENESS_ATOL,
    ChannelError,
    Instrument,
    OutcomeBranch,
    StinespringDilation,
    apply_instrument,
    projective_instrument,
    random_instrument,
    stinespring_dilate,
    unitary_kick,
)
from oqst.qmath import DensityOperator, _partial_trace_matrix, dag


def average(instr, mat):
    """The outcome-averaged map of ``instr`` on the matrix ``mat``: its branch states summed."""
    return instr.branch_states(mat).sum(axis=0)


def dilated_branches(dil, rho):
    """Each outcome's probability and reduced post state through the dilation: the unit
    added, the joint unitary run, the unit read out and traced away."""
    raws = dil.unitary_readout(rho.matrix[None])[1][0]
    probs = np.trace(raws, axis1=-2, axis2=-1).real
    return probs, _partial_trace_matrix(raws, [rho.dim, dil.unit_dim], [0]) / probs[:, None, None]


def scaled(instr, factor):
    branches = tuple(
        OutcomeBranch(b.label, tuple(factor * k for k in b.kraus)) for b in instr.outcomes
    )
    return Instrument(dim=instr.dim, outcomes=branches)


class TestVerification:
    def test_projective_passes(self):
        assert projective_instrument(np.eye(2)).completeness_deviation == 0.0

    def test_scaled_fails(self):
        deviation = scaled(projective_instrument(np.eye(2)), 1.1).completeness_deviation
        assert deviation > 0.1 > COMPLETENESS_ATOL

    def test_random_instruments_complete(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            instr = random_instrument(rng, dim, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
            assert instr.completeness_deviation <= COMPLETENESS_ATOL


class TestApplication:
    def test_z_measurement_on_plus(self):
        plus = DensityOperator.pure([1, 1])
        results = apply_instrument(projective_instrument(np.eye(2)), plus)
        assert [r.label for r in results] == [0, 1]
        for r, ket in zip(results, ([1, 0], [0, 1])):
            assert r.probability == pytest.approx(0.5, abs=1e-12)
            assert np.allclose(r.state.matrix, DensityOperator.pure(ket).matrix, atol=1e-12)

    def test_identity_instrument(self):
        rho = DensityOperator.pure([1, 2j])
        (res,) = apply_instrument(unitary_kick(np.eye(2)), rho)
        assert res.probability == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(res.state.matrix, rho.matrix, atol=1e-14)

    def test_probabilities_normalized_random(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            dim = int(rng.integers(2, 5))
            instr = random_instrument(rng, dim, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
            rho = qmath.random_density(rng, dim)
            results = apply_instrument(instr, rho)
            assert sum(r.probability for r in results) == pytest.approx(1.0, abs=1e-10)

    def test_average_matches_branch_sum(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            instr = random_instrument(rng, 3, 2, 2)
            rho = qmath.random_density(rng, 3)
            avg = average(instr, rho.matrix)
            mix = sum(
                r.probability * r.state.matrix
                for r in apply_instrument(instr, rho)
                if r.state is not None
            )
            assert np.allclose(avg, mix, atol=1e-12)
            assert abs(np.trace(avg).real - 1.0) <= 1e-12

    def test_average_map_dephasing(self):
        plus = DensityOperator.pure([1, 1])
        out = average(projective_instrument(np.eye(2)), plus.matrix)
        assert np.allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_impossible_branch_flagged(self):
        zero = DensityOperator.basis_state(2, 0)
        results = apply_instrument(projective_instrument(np.eye(2)), zero)
        assert results[1].probability <= 1e-15
        assert results[1].state is None

    def test_dimension_mismatch(self):
        with pytest.raises(ChannelError):
            apply_instrument(projective_instrument(np.eye(2)), DensityOperator.maximally_mixed(3))


class TestProjectiveConstruction:
    def test_x_basis(self):
        basis = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        instr = projective_instrument(basis)
        assert instr.efficient
        assert instr.completeness_deviation <= COMPLETENESS_ATOL

    def test_fock_basis(self):
        instr = projective_instrument(np.eye(9))
        assert len(instr.outcomes) == 9
        assert instr.completeness_deviation <= 1e-15

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ChannelError):
            projective_instrument([[1, 0], [1, 1]])


class TestDephasing:
    def test_diagonal_unchanged(self):
        rho = DensityOperator.from_diagonal([0.3, 0.7])
        out = average(projective_instrument(np.eye(2)), rho.matrix)
        assert np.allclose(out, rho.matrix, atol=1e-14)

    def test_plus_state_fully_dephased(self):
        out = average(projective_instrument(np.eye(2)), DensityOperator.pure([1, 1]).matrix)
        assert np.allclose(out, np.eye(2) / 2, atol=1e-14)

    def test_idempotent_random(self):
        rng = np.random.default_rng(7)
        dephase = projective_instrument(np.eye(4))
        for _ in range(20):
            rho = qmath.random_density(rng, 4)
            once = average(dephase, rho.matrix)
            twice = average(dephase, once)
            assert np.allclose(twice, once, atol=1e-12)


class TestDilation:
    def test_projective_qubit_matches_shift_unitary(self):
        # The dilated readout acts like the modular shift |r,u> -> |r,u+r>
        # on the populated input columns.
        instr = projective_instrument(np.eye(2))
        dil = stinespring_dilate(instr)
        assert dil.unit_dim == 2
        shift = np.zeros((4, 4), dtype=complex)
        for r in range(2):
            for u in range(2):
                shift[r * 2 + (u + r) % 2, r * 2 + u] = 1.0
        # shift is itself a valid dilation unitary for this instrument
        for src in range(2):
            ket = np.zeros(2)
            ket[src] = 1.0
            rho = DensityOperator.pure(ket)
            joint = shift @ np.kron(rho.matrix, dil.unit_state.matrix) @ dag(shift)
            for label, p_u in dil.projectors:
                p_full = np.kron(np.eye(2), p_u)
                reduced = qmath.partial_trace(p_full @ joint @ dag(p_full), [2, 2], [0])
                direct = instr.branch_states(rho.matrix)[label]  # labels 0, 1 in order
                assert np.allclose(reduced, direct, atol=1e-9)
        # our construction agrees with the shift on the populated columns
        for src in range(2):
            col = src * 2
            assert np.allclose(dil.joint_unitary[:, col], shift[:, col], atol=1e-12)

    def test_identity_instrument_trivial_action(self):
        dil = stinespring_dilate(unitary_kick(np.eye(3)))
        rho = DensityOperator.maximally_mixed(3)
        (probability,), (state,) = dilated_branches(dil, rho)
        assert probability == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(state, rho.matrix, atol=1e-9)
        joint = dil.unitary_readout(rho.matrix[None])[0][0]
        assert np.allclose(
            qmath.partial_trace(joint, [3, dil.unit_dim], [0]), rho.matrix, atol=1e-9
        )

    def test_single_outcome_cptp_map_roundtrip(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            instr = random_instrument(rng, 3, 1, 3)
            dil = stinespring_dilate(instr)
            # compare transfer matrices on a full operator basis
            for i in range(3):
                for j in range(3):
                    e = np.zeros((3, 3), dtype=complex)
                    e[i, j] = 1.0
                    direct = instr.branch_states(e)[0]
                    joint = dil.joint_unitary @ np.kron(e, dil.unit_state.matrix) @ dag(dil.joint_unitary)
                    label, p_u = dil.projectors[0]
                    p_full = np.kron(np.eye(3), p_u)
                    reduced = qmath.partial_trace(p_full @ joint @ dag(p_full), [3, dil.unit_dim], [0])
                    assert np.allclose(reduced, direct, atol=1e-9)

    def test_dilation_consistency_random(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            instr = random_instrument(rng, dim, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
            dil = stinespring_dilate(instr)
            rho = qmath.random_density(rng, dim)
            direct = apply_instrument(instr, rho)
            probs, states = dilated_branches(dil, rho)
            assert [a.label for a in direct] == [label for label, _ in dil.projectors]
            for a, p, state in zip(direct, probs, states):
                assert abs(a.probability - p) <= 1e-9
                if a.state is not None:
                    assert np.max(np.abs(a.state.matrix - state)) <= 1e-9

    def test_unit_state_pure(self):
        rng = np.random.default_rng(41)
        instr = random_instrument(rng, 2, 2, 1)
        dil = stinespring_dilate(instr)
        unit = dil.unit_state.matrix
        assert np.trace(unit @ unit).real == pytest.approx(1.0, abs=1e-12)

    def test_incomplete_instrument_rejected(self):
        with pytest.raises(ChannelError):
            stinespring_dilate(scaled(projective_instrument(np.eye(2)), 0.9))


class TestEfficiency:
    def test_efficient_maps_pure_to_pure(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            instr = random_instrument(rng, dim, int(rng.integers(1, 4)), 1)
            assert instr.efficient
            rho = qmath.random_density(rng, dim, rank=1)
            for r in apply_instrument(instr, rho):
                if r.state is not None:
                    assert np.trace(r.state.matrix @ r.state.matrix).real >= 1 - 1e-9

    def test_multi_kraus_not_efficient(self):
        rng = np.random.default_rng(6)
        assert not random_instrument(rng, 2, 2, 2).efficient


class TestKicks:
    def test_unitary_kick_requires_unitary(self):
        with pytest.raises(ChannelError):
            unitary_kick(np.diag([1.0, 0.5]))

    def test_kick_applies_conjugation(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        rho = DensityOperator.basis_state(2, 0)
        (res,) = apply_instrument(unitary_kick(h), rho)
        assert np.allclose(res.state.matrix, np.ones((2, 2)) / 2, atol=1e-12)


class TestBatchedKernels:
    """The batched branch action and dilation step against kron/BLAS references."""

    @staticmethod
    def joint_states(rng, n, dim):
        return np.stack([qmath.random_density(rng, dim).matrix for _ in range(n)])

    def test_branch_states_act_on_the_leading_factor(self):
        rng = np.random.default_rng(4)
        # one, two and three Kraus operators per outcome; completeness is not needed
        ops = random_instrument(rng, 2, 1, 6).outcomes[0].kraus
        instr = Instrument(dim=2, outcomes=(
            OutcomeBranch(0, ops[:1]), OutcomeBranch(1, ops[1:3]), OutcomeBranch(2, ops[3:]),
        ))
        x = self.joint_states(rng, 5, 6)  # system ⊗ a 3-level rest
        out = instr.branch_states(x)
        assert out.shape == (5, 3, 6, 6)
        for j in range(5):
            for r, b in enumerate(instr.outcomes):
                expected = sum(np.kron(k, np.eye(3)) @ x[j] @ dag(np.kron(k, np.eye(3)))
                               for k in b.kraus)
                assert np.max(np.abs(out[j, r] - expected)) <= 1e-14
            # a row does not depend on its batch-mates
            assert np.array_equal(out[j], instr.branch_states(x[j]))

    def test_unitary_readout_matches_kron_reference(self):
        rng = np.random.default_rng(9)
        instr = random_instrument(rng, 2, 2, 2)
        dil = stinespring_dilate(instr)
        du = dil.unit_dim
        x = self.joint_states(rng, 3, 4)  # system ⊗ a 2-level rest
        dims = [2, du, 2]
        correlated, raws = dil.unitary_readout(x, (2,))
        v_full = np.kron(dil.joint_unitary, np.eye(2))
        for j in range(3):
            # x ⊗ unit, reordered to system ⊗ unit ⊗ rest
            ref = np.kron(x[j], dil.unit_state.matrix).reshape([2, 2, du] * 2)
            ref = ref.transpose(0, 2, 1, 3, 5, 4).reshape(4 * du, 4 * du)
            joint = v_full @ ref @ dag(v_full)
            assert np.max(np.abs(correlated[j] - joint)) <= 1e-14
            system = qmath.partial_trace(x[j], [2, 2], [0])
            for r, (_, p_u) in enumerate(dil.projectors):
                p_full = np.kron(np.kron(np.eye(2), p_u), np.eye(2))
                assert np.max(np.abs(raws[j, r] - p_full @ joint @ dag(p_full))) <= 1e-14
                branch = qmath.partial_trace(raws[j, r], dims, [0])
                assert np.allclose(branch, instr.branch_states(system)[r], atol=1e-13)

    @pytest.mark.parametrize("rest", [(), (2,), (3, 2)])
    def test_unit_readout_is_the_projector_product(self, rest):
        rng = np.random.default_rng(sum(rest) + 11)
        for d, outcomes, kraus in [(2, 2, 1), (2, 3, 2), (3, 2, 2), (2, 1, 2)]:
            dil = stinespring_dilate(random_instrument(rng, d, outcomes, kraus))
            size = int(np.prod(rest, dtype=int))
            correlated, raws = dil.unitary_readout(self.joint_states(rng, 3, d * size), rest)
            for r, (_, p_u) in enumerate(dil.projectors):
                p_full = np.kron(np.kron(np.eye(d), p_u), np.eye(size))
                ref = p_full @ correlated @ dag(p_full)
                assert np.max(np.abs(raws[:, r] - ref)) <= 1e-15

    @pytest.mark.parametrize("projector", [
        np.array([[0.5, 0.5], [0.5, 0.5]]),  # a projector, but not diagonal
        np.diag([0.5, 0.0]),                 # diagonal, but not 0/1
    ])
    def test_dilation_needs_diagonal_unit_projectors(self, projector):
        with pytest.raises(ChannelError, match="diagonal"):
            StinespringDilation(
                system_dim=1, unit_dim=2, unit_state=DensityOperator.basis_state(2, 0),
                joint_unitary=np.eye(2), projectors=((0, projector), (1, np.eye(2) - projector)),
            )
