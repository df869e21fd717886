"""Programmatic invariant suite behind the ``verify`` command.

Each check exercises one law or consistency contract on freshly drawn
random cases and reports a pass flag with the observed worst case.  The
suite is deterministic for a fixed seed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import qmath
from .channels import apply_instrument, random_instrument, stinespring_dilate
from .lindblad import Protocol, heat_work_segment, thermal_cavity_generator
from .qmath import DensityOperator, dag, mutual_information, von_neumann_entropy
from .scenarios import CavityConfig, RateModel, law_flags, run_cavity
from .scenarios import run_classical_limit, run_tpm_jarzynski
from .thermo import (
    average_control_entropy_production,
    check_measurement_entropy_lemma,
    control_energetics,
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


def check_partial_trace(seed: int, samples: int = 500) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst_trace = 0.0
    worst_eig = 0.0
    for _ in range(samples):
        d1, d2 = rng.integers(2, 5, size=2)
        joint = qmath.random_density(rng, int(d1 * d2))
        out = qmath.partial_trace(joint, [int(d1), int(d2)], [int(rng.integers(0, 2))])
        worst_trace = max(worst_trace, abs(np.trace(out.matrix).real - 1.0))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(out.matrix).min()))
    ok = worst_trace <= 1e-12 and worst_eig >= -1e-10
    return CheckResult(
        "partial-trace preserves trace and positivity", ok,
        f"max trace drift {worst_trace:.2e}, min eigenvalue {worst_eig:.2e}",
    )


def check_instrument_normalization(seed: int, samples: int = 500) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        dim = int(rng.integers(2, 5))
        instr = random_instrument(rng, dim, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        rho = qmath.random_density(rng, dim)
        total = sum(r.probability for r in apply_instrument(instr, rho))
        worst = max(worst, abs(total - 1.0))
    return CheckResult(
        "instrument branch probabilities normalize", worst <= 1e-10,
        f"max deviation {worst:.2e}",
    )


def check_dilation_consistency(seed: int, samples: int = 100) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        dim = int(rng.integers(2, 4))
        instr = random_instrument(rng, dim, int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        dil = stinespring_dilate(instr)
        rho = qmath.random_density(rng, dim)
        for a, b in zip(apply_instrument(instr, rho), dil.apply(rho)):
            worst = max(worst, abs(a.probability - b.probability))
            if a.state is not None and b.state is not None:
                worst = max(worst, float(np.max(np.abs(a.state.matrix - b.state.matrix))))
    return CheckResult(
        "ancilla dilation reproduces each branch", worst <= 1e-9,
        f"max branch deviation {worst:.2e}",
    )


def check_zero_average_control_heat(seed: int, samples: int = 500) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        dim = int(rng.integers(2, 5))
        instr = random_instrument(rng, dim, int(rng.integers(2, 4)), int(rng.integers(1, 3)))
        rho = qmath.random_density(rng, dim)
        ce = control_energetics(instr, _random_hermitian(rng, dim), rho)
        worst = max(worst, abs(ce.average_system_heat()))
    return CheckResult(
        "control heat averages to zero", worst <= 1e-10, f"max |avg heat| {worst:.2e}"
    )


def check_control_entropy_production(seed: int, samples: int = 500) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(samples):
        dim = int(rng.integers(2, 5))
        instr = random_instrument(rng, dim, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        rho = qmath.random_density(rng, dim)
        worst = min(worst, average_control_entropy_production(instr, rho))
    return CheckResult(
        "control entropy production positive on average", worst >= -1e-10,
        f"min average {worst:.2e}",
    )


def check_entropy_lemma(seed: int, samples: int = 500) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(samples):
        dim = int(rng.integers(2, 5))
        rho = qmath.random_density(rng, dim)
        n_ops = int(rng.integers(2, 5))
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
            ev, vv = np.linalg.eigh(0.5 * (m + dag(m)))
            family.append((vv * np.sqrt(np.clip(ev, 0, None))) @ dag(vv))
        report = check_measurement_entropy_lemma(rho, family)
        worst = min(worst, report.margin)
    return CheckResult(
        "readout entropy inequality holds", worst >= -1e-9, f"min margin {worst:.2e}"
    )


def check_data_processing(seed: int, samples: int = 500) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(samples):
        ds = int(rng.integers(2, 4))
        du = int(rng.integers(2, 4))
        joint = qmath.random_density(rng, ds * du)
        channel = random_instrument(rng, ds, 1, int(rng.integers(1, 4)))
        before = mutual_information(joint, [ds, du], [0])
        out = channel.branch_states(joint.matrix)[0]  # the channel on the system factor
        worst = min(worst, before - mutual_information(out, [ds, du], [0]))
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
            qmath.random_unitary(rng, dim), float(rng.uniform(0.2, 2.0)),
        )
        worst = max(worst, rep.identity_residual)
    return CheckResult(
        "exponentiated energy jumps average to the partition ratio",
        worst <= 1e-10, f"max residual {worst:.2e}",
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
        worst <= 1e-8, f"max residual {worst:.2e}",
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
