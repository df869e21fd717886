"""Linear algebra and entropy functional checks."""

import numpy as np
import pytest

from oqst import qmath
from oqst.qmath import (
    DensityOperator,
    QmathError,
    mutual_information,
    partial_trace,
    shannon_entropy,
    von_neumann_entropy,
)


def bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return DensityOperator.pure(v)


class TestDensityOperator:
    def test_valid_construction(self):
        rho = DensityOperator.maximally_mixed(3)
        assert rho.dim == 3
        assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1 / 3)

    def test_rejects_non_hermitian(self):
        with pytest.raises(QmathError):
            DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(QmathError):
            DensityOperator(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(QmathError):
            DensityOperator(np.diag([1.5, -0.5]).astype(complex))

    def test_matrix_is_frozen(self):
        rho = DensityOperator.maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.7


class TestPartialTrace:
    def test_product_state_recovers_factor(self):
        rng = np.random.default_rng(5)
        rho_s = qmath.random_density(rng, 3)
        rho_u = qmath.random_density(rng, 2)
        joint = DensityOperator(np.kron(rho_s.matrix, rho_u.matrix))
        out = partial_trace(joint, [3, 2], [0])
        assert np.allclose(out.matrix, rho_s.matrix, atol=1e-12)

    def test_bell_marginals_maximally_mixed(self):
        rho = bell_state()
        for keep in ([0], [1]):
            out = partial_trace(rho, [2, 2], keep)
            assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_pure_bipartite_spectra_match(self):
        rng = np.random.default_rng(99)
        psi = qmath.random_density(rng, 12, rank=1)
        a = partial_trace(psi, [3, 4], [0])
        b = partial_trace(psi, [3, 4], [1])
        ev_a = np.sort(np.linalg.eigvalsh(a.matrix))[::-1]
        ev_b = np.sort(np.linalg.eigvalsh(b.matrix))[::-1]
        assert np.allclose(ev_a[:3], ev_b[:3], atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(QmathError):
            partial_trace(DensityOperator.maximally_mixed(4), [3, 2], [0])

    def test_trace_and_positivity_preserved_random(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            d1, d2 = rng.integers(2, 5, size=2)
            joint = qmath.random_density(rng, int(d1 * d2))
            out = partial_trace(joint, [int(d1), int(d2)], [int(rng.integers(0, 2))])
            assert abs(np.trace(out.matrix).real - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(out.matrix).min() >= -1e-10


class TestEntropies:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(DensityOperator.pure([1, 1j])) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            s = von_neumann_entropy(DensityOperator.maximally_mixed(d))
            assert s == pytest.approx(np.log(d), abs=1e-12)

    def test_two_thirds_one_third(self):
        rho = DensityOperator.from_diagonal([2 / 3, 1 / 3])
        expected = np.log(3) - (2 / 3) * np.log(2)
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.63651, abs=1e-5)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            rho = qmath.random_density(rng, 4)
            u = qmath.random_unitary(rng, 4)
            rotated = u @ rho.matrix @ qmath.dag(u)
            assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) <= 1e-10

    def test_shannon_cases(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(np.log(2), abs=1e-12)
        expected = -(0.95 * np.log(0.95) + 0.05 * np.log(0.05))
        assert shannon_entropy([0.95, 0.05]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.19852, abs=1e-5)

    def test_shannon_bounded_by_log_dim(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            p = rng.dirichlet(np.ones(n))
            assert shannon_entropy(p) <= np.log(n) + 1e-12


class TestMutualInformation:
    def test_product_state_zero(self):
        rng = np.random.default_rng(4)
        a = qmath.random_density(rng, 2)
        b = qmath.random_density(rng, 3)
        joint = np.kron(a.matrix, b.matrix)
        assert abs(mutual_information(joint, [2, 3], [0])) <= 1e-10

    def test_bell_state(self):
        assert mutual_information(bell_state(), [2, 2], [0]) == pytest.approx(2 * np.log(2), abs=1e-10)

    def test_classically_correlated(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = m[3, 3] = 0.5
        assert mutual_information(m, [2, 2], [0]) == pytest.approx(np.log(2), abs=1e-10)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            joint = qmath.random_density(rng, 6)
            assert mutual_information(joint, [2, 3], [0]) >= -1e-10

    def test_invalid_cut(self):
        with pytest.raises(QmathError):
            mutual_information(bell_state(), [2, 2], [0, 1])


def _reduce_matmul(a, b):
    """The former ``_matmul``: an elementwise product, then a last-axis sum."""
    return np.multiply(a[..., :, None, :], np.swapaxes(b, -1, -2)[..., None, :, :],
                       order="C").sum(-1)


def _reduce_expectation(h, mat):
    """The former ``_expectation``: the same, for the diagonal of h mat, then its trace."""
    return np.multiply(h, np.swapaxes(mat, -1, -2), order="C").sum(-1).sum(-1).real


class TestMultiplyAddKernels:
    """``_matmul`` and ``_expectation`` against the reduce formulas they replace."""

    @staticmethod
    def stacks(d, seed=0, n=64):
        """Complex, real and sparse (d, d) stacks; the sparse ones make signed zeros."""
        rng = np.random.default_rng(seed + d)
        dense = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
        sparse = np.where(rng.random((n, d, d)) < 0.6, 0.0, dense)
        sparse[: n // 2] *= -1
        return [dense, sparse, dense.real.copy(), sparse.real.copy(),
                np.diag(rng.normal(size=d)).astype(complex)]

    @pytest.mark.parametrize("d", [2, 3])
    def test_byte_identical_for_small_d(self, d):
        for a in self.stacks(d, seed=1):
            for b in self.stacks(d, seed=2):
                assert qmath._matmul(a, b).tobytes() == _reduce_matmul(a, b).tobytes()
                assert (qmath._expectation(a, b).tobytes()
                        == _reduce_expectation(a, b).tobytes())

    @pytest.mark.parametrize("d", range(4, 10))
    def test_close_for_larger_d(self, d):
        for a in self.stacks(d, seed=1):
            for b in self.stacks(d, seed=2):
                ref = _reduce_matmul(a, b)
                assert np.abs(qmath._matmul(a, b) - ref).max() <= 1e-13 * np.abs(ref).max()
                ref = _reduce_expectation(a, b)
                scale = max(np.abs(ref).max(), 1.0)
                assert np.abs(qmath._expectation(a, b) - ref).max() <= 1e-13 * scale

    def test_rows_do_not_depend_on_batch_mates(self):
        a, b = self.stacks(5)[:2]
        whole = qmath._matmul(a, b)
        for i in (0, 17, 63):
            assert qmath._matmul(a[i], b[i]).tobytes() == whole[i].tobytes()
            assert qmath._matmul(a[i:i + 1], b).tobytes() == qmath._matmul(
                np.broadcast_to(a[i], b.shape), b).tobytes()

    def test_sandwich_holds_no_cube_of_the_stack(self):
        import tracemalloc

        rng = np.random.default_rng(3)
        n, big = 28, 24
        x = rng.normal(size=(n, big, big)) + 1j * rng.normal(size=(n, big, big))
        op = qmath.random_unitary(rng, big)
        expected = op @ x @ qmath.dag(op)
        tracemalloc.start()
        try:
            out = qmath._sandwich(op, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()
        # an (N, D, D, D) product would take D / 4 times this
        assert peak < 4 * n * big**2 * 16


class TestSpectrumKernel:
    """``_eigvalsh``: a closed form for 2 x 2 stacks, LAPACK for every other size."""

    @staticmethod
    def qubit_matrices(n=10_000):
        """Random Hermitian 2 x 2 matrices, then diagonal, degenerate, rank-1, nearly
        degenerate and 1e+-8-scaled ones."""
        rng = np.random.default_rng(21)
        g = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
        herm = 0.5 * (g + qmath.dag(g))
        diag = np.zeros((200, 2, 2), complex)
        diag[:, 0, 0], diag[:, 1, 1] = rng.normal(size=(2, 200))
        diag[:50, 1, 1] = diag[:50, 0, 0]
        degenerate = rng.normal(size=(100, 1, 1)) * np.eye(2, dtype=complex)
        v = rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))
        rank_one = v[:, :, None] * v[:, None, :].conj()
        near = degenerate.copy()
        near[:, 1, 0] = 1e-9 * (rng.normal(size=100) + 1j * rng.normal(size=100))
        near[:, 0, 1] = near[:, 1, 0].conj()
        return np.concatenate([herm, diag, degenerate, rank_one, near,
                               1e8 * herm[:500], 1e-8 * herm[500:1000]])

    def test_closed_form_matches_lapack_in_ascending_order(self):
        # each is within a few eps * ||A|| of the exact spectrum (see the next test), and on
        # these matrices LAPACK is the one further off, by up to about 6 eps * ||A||
        mats = self.qubit_matrices()
        got, want = qmath._eigvalsh(mats), np.linalg.eigvalsh(mats)
        assert got.shape == want.shape
        assert (got[:, 0] <= got[:, 1]).all()
        norm = np.abs(want).max(axis=-1)  # the spectral norm of a Hermitian matrix
        assert (np.abs(got - want) <= 8 * np.finfo(float).eps * norm[:, None]).all()

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than double here")
    def test_closed_form_is_within_4_eps_of_the_exact_spectrum(self):
        mats = self.qubit_matrices()
        a, d, b = (x.astype(np.longdouble) for x in (mats[:, 0, 0].real, mats[:, 1, 1].real,
                                                    np.abs(mats[:, 1, 0])))
        radius = np.sqrt(((a - d) / 2) ** 2 + b**2)
        exact = np.stack([(a + d) / 2 - radius, (a + d) / 2 + radius], axis=-1)
        norm = np.abs(exact).max(axis=-1)
        error = np.abs(qmath._eigvalsh(mats) - exact).max(axis=-1)
        assert (error <= 4 * np.finfo(float).eps * norm).all()

    def test_rows_do_not_depend_on_batch_mates(self):
        mats = self.qubit_matrices()[:64]
        whole = qmath._eigvalsh(mats)
        for i in (0, 5, 63):
            assert qmath._eigvalsh(mats[i]).tobytes() == whole[i].tobytes()

    @pytest.mark.parametrize("d", [1, 3, 4, 9])
    def test_other_sizes_go_to_lapack(self, d):
        rng = np.random.default_rng(d)
        g = rng.normal(size=(8, d, d)) + 1j * rng.normal(size=(8, d, d))
        mats = g + qmath.dag(g)
        assert qmath._eigvalsh(mats).tobytes() == np.linalg.eigvalsh(mats).tobytes()

    @pytest.mark.parametrize("rotated", [False, True])
    def test_positivity_threshold(self, rotated):
        u = qmath.random_unitary(np.random.default_rng(2), 2) if rotated else np.eye(2)

        def state(low):
            return u @ np.diag([1.0 - low, low]).astype(complex) @ qmath.dag(u)

        qmath.density_spectrum(state(-5e-11))
        with pytest.raises(QmathError, match="eigenvalue .* below -1e-10"):
            qmath.density_spectrum(state(-2e-10))


class TestWishartDraws:
    """verify draws each state's Gaussian matrix alone and forms the states per shape group."""

    @staticmethod
    def former_random_density(rng, dim):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = g @ qmath.dag(g)
        return m / np.trace(m).real

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_stacked_product_matches_one_state_draw_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        draws = np.stack([qmath._gaussian(rng, (dim, dim)) for _ in range(20)])
        after = rng.random()
        rng = np.random.default_rng(dim)
        one_by_one = np.stack([qmath.random_density(rng, dim).matrix for _ in range(20)])
        assert rng.random() == after  # the same stream consumed
        assert qmath._wishart(draws).tobytes() == one_by_one.tobytes()
        rng = np.random.default_rng(dim)
        former = np.stack([self.former_random_density(rng, dim) for _ in range(20)])
        assert one_by_one.tobytes() == former.tobytes()

    def test_draws_are_the_two_normal_calls(self):
        rng = np.random.default_rng(8)
        draws = qmath._gaussian(rng, (6, 3))
        rng = np.random.default_rng(8)
        g = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        assert qmath._complex(draws).tobytes() == g.tobytes()
