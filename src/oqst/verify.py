"""Programmatic invariant suite behind the ``verify`` command.

Each check exercises one law or consistency contract on freshly drawn
random cases and reports a pass flag with the observed worst case.  The
suite is deterministic for a fixed seed.

The random-case checks run in two phases.  They first draw every case one
by one, in a fixed order, from the check's own generator; then they group
the cases by shape (dimensions, outcome count, Kraus count) and evaluate
each group in one call to the library's batched kernels.  A random
instrument is drawn as its Gaussian matrix, and one stacked QR per group
turns those into Kraus operators, bit for bit as one QR per case would.
The one-state functions (``apply_instrument``, ``control_energetics`` and
the like) are those kernels' N = 1 case, and the tests' oracle for these
checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .channels import _branch_states, _dilate, _isometry_kraus, _kraus_draws, _normalized
from .lindblad import Protocol, heat_work_segment, thermal_cavity_generator
from .qmath import (
    DensityOperator,
    dag,
    density_spectrum,
    mutual_information,
    random_unitary,
    von_neumann_entropy,
    _ordered_sum,
    _partial_trace_matrix,
    _random_density_matrix,
    _trace,
)
from .scenarios import CavityConfig, RateModel, law_flags, run_cavity
from .scenarios import run_classical_limit, run_tpm_jarzynski
from .thermo import (
    AVG_HEAT_ATOL,
    CLASSICAL_IDENTITY_ATOL,
    JARZYNSKI_ATOL,
    _control_entropy_production,
    _entropy_lemma,
    _instrument_energetics,
)
from .trajectory import (
    ControlSchedule,
    FixedPolicy,
    derive_stream_seed,
    enumerate_tree,
    sample_ensemble,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_hermitian(rng, dim):
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (h + dag(h))


def _by_shape(cases) -> dict:
    """Positions of ``(ints, arrays)`` cases grouped by their ints and array
    shapes, groups in order of first appearance."""
    groups: dict = {}
    for i, (ints, arrays) in enumerate(cases):
        groups.setdefault((ints, tuple(a.shape for a in arrays)), []).append(i)
    return groups


def _evaluate(cases, kernel, shape=()) -> np.ndarray:
    """Per-case values, in draw order, evaluated one shape group at a time.

    Each case is a pair ``(ints, arrays)``.  ``kernel(*ints, *stacks)`` gets
    a group's arrays stacked along a new leading axis and returns one value
    of ``shape`` per case.  A case no group covers stays NaN, which fails
    every comparison a check makes.
    """
    values = np.full((len(cases), *shape), np.nan)
    for (ints, _), idx in _by_shape(cases).items():
        stacks = [np.stack(column) for column in zip(*(cases[i][1] for i in idx))]
        values[idx] = kernel(*ints, *stacks)
    return values


def _instrument(kraus, n_outcomes):
    """Starts and labels of Kraus stacks (..., A, d, d) split evenly over ``n_outcomes``."""
    per = kraus.shape[-3] // n_outcomes
    return list(range(0, kraus.shape[-3], per)), tuple(range(n_outcomes))


def check_partial_trace(seed: int, samples: int = 500) -> CheckResult:
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(samples):
        d1, d2 = (int(d) for d in rng.integers(2, 5, size=2))
        joint = _random_density_matrix(rng, d1 * d2)
        cases.append(((d1, d2, int(rng.integers(0, 2))), (joint,)))

    def kernel(d1, d2, keep, joints):
        density_spectrum(joints)
        out = _partial_trace_matrix(joints, [d1, d2], [keep])
        density_spectrum(out)
        return np.stack([np.abs(_trace(out) - 1.0), np.linalg.eigvalsh(out)[:, 0]], axis=-1)

    values = _evaluate(cases, kernel, shape=(2,))
    worst_trace, worst_eig = values[:, 0].max(), values[:, 1].min()
    ok = worst_trace <= 1e-12 and worst_eig >= -1e-10
    return CheckResult(
        "partial-trace preserves trace and positivity", ok,
        f"max trace drift {worst_trace:.2e}, min eigenvalue {worst_eig:.2e}",
    )


def _draw_instrument_case(rng, dims, outcomes, kraus_per_outcome):
    """One ``((dim, n_outcomes), (draws, rho))`` case, from the draws of
    ``random_instrument(rng, dim, ...)`` and then ``random_density(rng, dim)``.

    ``_isometry_kraus(draws)`` is the instrument's Kraus stack; a kernel
    takes it for a whole shape group in one stacked QR.
    """
    dim = int(rng.integers(*dims))
    n_out, per = int(rng.integers(*outcomes)), int(rng.integers(*kraus_per_outcome))
    draws = _kraus_draws(rng, dim, n_out * per)
    return (dim, n_out), (draws, _random_density_matrix(rng, dim))


def check_instrument_normalization(seed: int, samples: int = 500) -> CheckResult:
    rng = np.random.default_rng(seed)
    cases = [_draw_instrument_case(rng, (2, 5), (1, 4), (1, 3)) for _ in range(samples)]

    def kernel(dim, n_out, draws, rho):
        density_spectrum(rho)
        kraus = _isometry_kraus(draws)
        probs, viable, states = _normalized(
            _branch_states(kraus, _instrument(kraus, n_out)[0], rho))
        density_spectrum(states[viable])
        return np.abs(_ordered_sum(probs, -1) - 1.0)

    worst = _evaluate(cases, kernel).max()
    return CheckResult(
        "instrument branch probabilities normalize", worst <= 1e-10,
        f"max deviation {worst:.2e}",
    )


def check_dilation_consistency(seed: int, samples: int = 100) -> CheckResult:
    rng = np.random.default_rng(seed)
    cases = [_draw_instrument_case(rng, (2, 4), (1, 3), (1, 3)) for _ in range(samples)]

    def kernel(dim, n_out, draws, rho):
        density_spectrum(rho)
        kraus = _isometry_kraus(draws)
        starts, labels = _instrument(kraus, n_out)
        p_a, ok_a, s_a = _normalized(_branch_states(kraus, starts, rho))
        dilation = _dilate(kraus, starts, labels)
        p_b, ok_b, joint_b = _normalized(dilation.unitary_readout(rho)[1])
        s_b = _partial_trace_matrix(joint_b, [dim, dilation.unit_dim], [0])
        density_spectrum(s_a[ok_a])
        density_spectrum(s_b[ok_b])
        state_dev = np.where(ok_a & ok_b, np.abs(s_a - s_b).max(axis=(-2, -1)), 0.0)
        return np.maximum(np.abs(p_a - p_b), state_dev).max(axis=-1)

    worst = _evaluate(cases, kernel).max()
    return CheckResult(
        "ancilla dilation reproduces each branch", worst <= 1e-9,
        f"max branch deviation {worst:.2e}",
    )


def check_zero_average_control_heat(seed: int, samples: int = 500) -> CheckResult:
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(samples):
        (dim, n_out), arrays = _draw_instrument_case(rng, (2, 5), (2, 4), (1, 3))
        cases.append(((dim, n_out), arrays + (_random_hermitian(rng, dim),)))

    def kernel(dim, n_out, draws, rho, h):
        density_spectrum(rho)
        kraus = _isometry_kraus(draws)
        probs, _, heat = _instrument_energetics(kraus, _instrument(kraus, n_out)[0], h, rho)
        return np.abs(_ordered_sum(probs * heat, -1))

    worst = _evaluate(cases, kernel).max()
    return CheckResult(
        "control heat averages to zero", worst <= AVG_HEAT_ATOL, f"max |avg heat| {worst:.2e}"
    )


def check_control_entropy_production(seed: int, samples: int = 500) -> CheckResult:
    rng = np.random.default_rng(seed)
    cases = [_draw_instrument_case(rng, (2, 5), (1, 4), (1, 3)) for _ in range(samples)]

    def kernel(dim, n_out, draws, rho):
        density_spectrum(rho)
        kraus = _isometry_kraus(draws)
        return _control_entropy_production(_dilate(kraus, *_instrument(kraus, n_out)), rho)

    worst = _evaluate(cases, kernel).min()
    return CheckResult(
        "control entropy production positive on average", worst >= -1e-10,
        f"min average {worst:.2e}",
    )


def check_entropy_lemma(seed: int, samples: int = 500) -> CheckResult:
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(samples):
        dim = int(rng.integers(2, 5))
        rho = _random_density_matrix(rng, dim)
        n_ops = int(rng.integers(2, 5))
        g = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(n_ops)]
        cases.append(((dim, n_ops), (rho, np.array(g))))

    def kernel(dim, n_ops, rho, g):
        density_spectrum(rho)
        # A square-root readout: F_n = (S^-1/2 B_n S^-1/2)^1/2 for positive B_n summing to S.
        blocks = g @ dag(g) + 1e-3 * np.eye(dim)
        evals, vecs = np.linalg.eigh(_ordered_sum(blocks, 1))
        inv_sqrt = ((vecs / np.sqrt(evals)[:, None, :]) @ dag(vecs))[:, None]
        m = inv_sqrt @ blocks @ inv_sqrt
        ev, vv = np.linalg.eigh(0.5 * (m + dag(m)))
        family = (vv * np.sqrt(np.clip(ev, 0, None))[..., None, :]) @ dag(vv)
        lhs, rhs = _entropy_lemma(family, rho)
        return rhs - lhs

    worst = _evaluate(cases, kernel).min()
    return CheckResult(
        "readout entropy inequality holds", worst >= -1e-9, f"min margin {worst:.2e}"
    )


def check_data_processing(seed: int, samples: int = 500) -> CheckResult:
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(samples):
        ds = int(rng.integers(2, 4))
        du = int(rng.integers(2, 4))
        joint = _random_density_matrix(rng, ds * du)
        cases.append(((ds, du), (joint, _kraus_draws(rng, ds, int(rng.integers(1, 4))))))

    def kernel(ds, du, joint, draws):
        density_spectrum(joint)
        kraus = _isometry_kraus(draws)
        before = mutual_information(joint, [ds, du], [0])
        out = _branch_states(kraus, [0], joint)[:, 0]  # the channel on the system factor
        return before - mutual_information(out, [ds, du], [0])

    worst = _evaluate(cases, kernel).min()
    return CheckResult(
        "local channels cannot raise mutual information", worst >= -1e-9,
        f"min contraction {worst:.2e}",
    )


def check_segment_second_law(seed: int, samples: int = 200) -> CheckResult:
    rng = np.random.default_rng(seed)
    gen = thermal_cavity_generator(2 * np.pi * 51.1e9, 0.8, 65e-3, 8)
    protocol = Protocol.constant(gen.hamiltonian)
    worst = np.inf
    for _ in range(samples):
        rho = DensityOperator.from_diagonal(rng.dirichlet(np.ones(9)))
        method = "exact" if rng.random() < 0.5 else "first_order"
        _, heat, rho_end = heat_work_segment(
            gen, protocol, rho, 0.0, 82e-6, substeps=1, method=method
        )
        ds = von_neumann_entropy(rho_end) - von_neumann_entropy(rho)
        worst = min(worst, ds - gen.beta * heat)
    return CheckResult(
        "drift entropy production nonnegative", worst >= -1e-10,
        f"min segment production {worst:.2e}",
    )


def check_cavity_laws(seed: int) -> CheckResult:
    report = run_cavity(CavityConfig(steps=60, trajectories=100, seed=seed), keep_records=False)
    return CheckResult(
        "stabilization run obeys both laws", all(law_flags(report.law_checks).values()),
        f"first-law residual {report.law_checks['first_law_max_residual']:.2e}, "
        f"min drift production {report.law_checks['sigma_seg_min']:.2e}",
    )


def check_diagonal_dense_equality(seed: int) -> CheckResult:
    diag = run_cavity(CavityConfig(
        steps=50, trajectories=3, seed=seed, cutoff=5, target_nt=1, delay_d=3
    ))
    dense = run_cavity(CavityConfig(
        steps=50, trajectories=3, seed=seed, cutoff=5, target_nt=1, delay_d=3, dense=True
    ))
    if any(a.outcomes != b.outcomes for a, b in zip(diag.records, dense.records)):
        return CheckResult(
            "population path matches density-matrix path", False,
            "outcome sequences diverged",
        )
    a = np.stack([r.ledgers for r in diag.records])
    b = np.stack([r.ledgers for r in dense.records])
    worst = max(
        float(np.abs(a[col] - b[col]).max())
        for col in ("w_ctrl_sys", "q_ctrl_sys", "sigma_ctrl", "sigma_seg")
    )
    return CheckResult(
        "population path matches density-matrix path", worst <= 1e-9,
        f"max ledger deviation {worst:.2e}",
    )


def check_sampler_against_tree(seed: int, samples: int = 20000) -> CheckResult:
    from .channels import projective_instrument
    from .lindblad import ThermalGenerator

    gen = ThermalGenerator(2, np.diag([0.0, 1.0]).astype(complex), (), beta=1.0)
    x_basis = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    pol = FixedPolicy([projective_instrument(np.eye(2)), projective_instrument(x_basis)])
    sched = ControlSchedule.uniform(2, 1.0)
    rho0 = DensityOperator.pure([1, 1])
    probs = {o: p for o, p, _ in enumerate_tree(gen, sched, pol, rho0)}
    seeds = [derive_stream_seed(seed, i) for i in range(samples)]
    counts = Counter(rec.outcomes for rec in sample_ensemble(
        gen, sched, pol, rho0, seeds, store_states=False
    ))
    worst = 0.0
    for outcome, p in probs.items():
        freq = counts.get(outcome, 0) / samples
        se = max(np.sqrt(p * (1 - p) / samples), 1e-9)
        worst = max(worst, abs(freq - p) / se)
    return CheckResult(
        "sampled frequencies match the outcome tree", worst <= 3.0,
        f"worst deviation {worst:.2f} standard errors",
    )


def check_jarzynski(seed: int, samples: int = 100) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        dim = int(rng.integers(2, 4))
        rep = run_tpm_jarzynski(
            _random_hermitian(rng, dim), _random_hermitian(rng, dim),
            random_unitary(rng, dim), float(rng.uniform(0.2, 2.0)),
        )
        worst = max(worst, rep.identity_residual)
    return CheckResult(
        "exponentiated energy jumps average to the partition ratio",
        worst <= JARZYNSKI_ATOL, f"max residual {worst:.2e}",
    )


def check_classical_identity(seed: int) -> CheckResult:
    worst = 0.0
    for energies, beta, p0 in (
        ([0.0, 1.0], 1.0, [0.9, 0.1]),
        ([0.0, 0.7, 1.3], 1.3, [0.5, 0.3, 0.2]),
    ):
        model = RateModel.thermal(energies, beta, attempt_rate=0.5)
        rep = run_classical_limit(model, steps=6, dt=0.02, mode="enumerate", p0=np.array(p0))
        worst = max(worst, rep.max_identity_residual, rep.max_redefined_residual)
    return CheckResult(
        "record- and state-based productions differ by the backward entropy",
        worst <= CLASSICAL_IDENTITY_ATOL, f"max residual {worst:.2e}",
    )


ALL_CHECKS = (
    check_partial_trace,
    check_instrument_normalization,
    check_dilation_consistency,
    check_zero_average_control_heat,
    check_control_entropy_production,
    check_entropy_lemma,
    check_data_processing,
    check_segment_second_law,
    check_cavity_laws,
    check_diagonal_dense_equality,
    check_sampler_against_tree,
    check_jarzynski,
    check_classical_identity,
)


def run_all(seed: int = 0) -> list:
    """Run every invariant check on streams derived from ``seed``.

    A check that raises one of the package's own error types (a law or a
    precondition broke mid-run) counts as failed, with the error as its
    detail, and the remaining checks still run.
    """
    results = []
    for i, check in enumerate(ALL_CHECKS):
        try:
            results.append(check(derive_stream_seed(seed, i) % (2**32)))
        except Exception as exc:
            if not type(exc).__module__.startswith(f"{__package__}."):
                raise
            results.append(CheckResult(check.__name__, False, f"{type(exc).__name__}: {exc}"))
    return results
