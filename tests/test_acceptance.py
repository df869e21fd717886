"""Acceptance gate: one test per release criterion, each at its pinned tolerance.

Each test prints a single PASS line with the measured value so a plain
``pytest -v -s tests/test_acceptance.py`` run doubles as the acceptance
report.  Tolerances live here and nowhere else.
"""

import time

import numpy as np
import pytest

from oqst import qmath
from oqst.channels import projective_instrument, random_instrument
from oqst.lindblad import Protocol, ThermalGenerator, heat_work_segment, thermal_cavity_generator
from oqst.qmath import DensityOperator, dag, mutual_information, von_neumann_entropy
from oqst.scenarios import (
    CavityConfig,
    CavityPolicy,
    RateModel,
    atom_instrument,
    run_cavity,
    run_classical_limit,
    run_tpm_jarzynski,
)
from oqst.scenarios.cavity import thermal_populations
from oqst.thermo import (
    _entropy_lemma,
    average_control_entropy_production,
    control_energetics,
    first_law_residual,
)
from oqst.trajectory import (
    ControlSchedule,
    FixedPolicy,
    derive_stream_seeds,
    enumerate_tree,
    sample_ensemble,
)

MASTER_SEED = 1


@pytest.fixture(scope="module")
def cavity_run():
    """The shared criterion-1..5 run: defaults, 2000 trajectories, 220 steps."""
    config = CavityConfig(steps=220, trajectories=2000, seed=MASTER_SEED)
    t0 = time.perf_counter()
    report = run_cavity(config)
    elapsed = time.perf_counter() - t0
    return report, elapsed


def _horizon(report) -> int:
    """First step at which the ensemble target population reaches 0.9."""
    p_target = report.population(report.config.target_nt)
    idx = int(np.argmax(p_target >= 0.9))
    assert p_target[idx] >= 0.9, "stabilization never reached 0.9"
    return idx + 1


def test_criterion_01_stabilization_probability(cavity_run):
    report, elapsed = cavity_run
    horizon = _horizon(report)
    window = report.population(2)[2 * horizon :]
    avg = float(window.mean())
    assert abs(avg - 0.96) <= 0.03
    assert elapsed <= 120.0
    print(f"\nACCEPTANCE 1 PASS: stabilized p2 = {avg:.4f} (target 0.96 +/- 0.03), "
          f"runtime {elapsed:.1f}s <= 120s")


def test_criterion_02_control_entropy_production(cavity_run):
    report, _ = cavity_run
    horizon = _horizon(report)
    avg = float(report.stats.column_means["sigma_ctrl"][2 * horizon :].mean())
    assert abs(avg - 0.70) <= 0.15
    print(f"\nACCEPTANCE 2 PASS: stabilized per-step Sigma_ctrl = {avg:.4f} nats "
          f"(target 0.70 +/- 0.15)")


def test_criterion_03_efficiency_curve(cavity_run):
    report, _ = cavity_run
    eta = report.efficiency
    horizon = _horizon(report)
    peak = float(eta[:2 * horizon].max())
    assert 0.6 <= peak <= 0.9
    # local maxima (array ends count when they dominate their neighbor)
    window = eta[: 3 * horizon]
    maxima = []
    for i in range(len(window)):
        left = window[i - 1] if i > 0 else -np.inf
        right = window[i + 1] if i + 1 < len(window) else -np.inf
        if window[i] > left and window[i] > right and window[i] >= 0.3:
            maxima.append(i + 1)
    assert len(maxima) >= 2
    late = float(eta[min(10 * horizon, len(eta)) - 1])
    assert late < 0.1
    print(f"\nACCEPTANCE 3 PASS: peak eta = {peak:.3f} in [0.6, 0.9], "
          f"local maxima at steps {maxima}, eta(10x horizon) = {late:.3f} < 0.1")


def test_criterion_04_conditional_variance(cavity_run):
    report, _ = cavity_run
    horizon = _horizon(report)
    frac = float(report.var_below_fraction[2 * horizon :].mean())
    assert frac > 0.8
    print(f"\nACCEPTANCE 4 PASS: fraction of stabilized steps with var(n) < 0.1 "
          f"is {frac:.3f} > 0.8")


def test_criterion_05_first_law_closure(cavity_run):
    report, _ = cavity_run
    worst = report.law_checks["first_law_max_residual"]
    # other scenarios: dense cavity, two-point protocol, random instruments
    dense = run_cavity(CavityConfig(
        steps=40, trajectories=5, seed=MASTER_SEED, dense=True
    ))
    worst = max(worst, dense.law_checks["first_law_max_residual"])
    from oqst.scenarios import tpm_process
    sz = np.diag([1.0, -1.0]).astype(complex)
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    gen, sched, pol, rho0, h0 = tpm_process(0.5 * sz, sz, hadamard, beta=1.0)
    for _, _, rec in enumerate_tree(gen, sched, pol, rho0, hamiltonian0=h0):
        for ledger in rec.ledgers:
            worst = max(worst, abs(first_law_residual(ledger)))
    rng = np.random.default_rng(5)
    gen2 = ThermalGenerator(3, np.diag([0.0, 1.0, 2.0]).astype(complex), (), beta=1.0)
    instr = random_instrument(rng, 3, 2, 2)
    sched2 = ControlSchedule.uniform(3, 1.0)
    for seed in derive_stream_seeds(MASTER_SEED, range(20)).tolist():
        (rec,) = sample_ensemble(
            gen2, sched2, FixedPolicy([instr] * 3), qmath.random_density(rng, 3), [seed]
        )
        for ledger in rec.ledgers:
            worst = max(worst, abs(first_law_residual(ledger)))
    assert worst <= 1e-10
    print(f"\nACCEPTANCE 5 PASS: max |dE - W - Q| over every sampled step = {worst:.2e} <= 1e-10")


def test_criterion_06_zero_average_control_heat():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(500):
        dim = int(rng.integers(2, 5))
        instr = random_instrument(rng, dim, int(rng.integers(2, 4)), int(rng.integers(1, 3)))
        rho = qmath.random_density(rng, dim)
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        ce = control_energetics(instr, 0.5 * (h + dag(h)), rho)
        worst = max(worst, abs(ce.average_system_heat()))
    assert worst <= 1e-10
    print(f"\nACCEPTANCE 6 PASS: |avg Q_ctrl| over 500 random instruments = {worst:.2e} <= 1e-10")


def test_criterion_07_second_law_suite(cavity_run):
    report, _ = cavity_run
    assert report.law_checks["sigma_seg_min"] >= -1e-10
    rng = np.random.default_rng(707)
    # segment production for the thermal generator on random diagonal states
    gen = thermal_cavity_generator(2 * np.pi * 51.1e9, 0.8, 65e-3, 8)
    protocol = Protocol.constant(gen.hamiltonian)
    worst_seg = np.inf
    for _ in range(100):
        rho = DensityOperator.from_diagonal(rng.dirichlet(np.ones(9)))
        _, heat, rho_end = heat_work_segment(
            gen, protocol, rho, 0.0, 82e-6, substeps=1,
            method="first_order" if rng.random() < 0.5 else "exact",
        )
        worst_seg = min(
            worst_seg,
            von_neumann_entropy(rho_end) - von_neumann_entropy(rho) - gen.beta * heat,
        )
    assert worst_seg >= -1e-10
    worst_ctrl = np.inf
    for _ in range(500):
        dim = int(rng.integers(2, 5))
        instr = random_instrument(rng, dim, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        worst_ctrl = min(
            worst_ctrl,
            average_control_entropy_production(instr, qmath.random_density(rng, dim)),
        )
    assert worst_ctrl >= -1e-10
    worst_lemma = np.inf
    for _ in range(500):
        dim = int(rng.integers(2, 5))
        rho = qmath.random_density(rng, dim)
        blocks = []
        for _ in range(int(rng.integers(2, 5))):
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
        # the readout's lemma, a batch of one
        lhs, rhs = _entropy_lemma(np.array(family, dtype=complex)[None], rho.matrix[None])
        worst_lemma = min(worst_lemma, rhs[0] - lhs[0])
    assert worst_lemma >= -1e-9
    worst_dp = np.inf
    for _ in range(500):
        ds, du = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        joint = qmath.random_density(rng, ds * du)
        channel = random_instrument(rng, ds, 1, int(rng.integers(1, 4)))
        before = mutual_information(joint, [ds, du], [0])
        out = np.zeros_like(joint.matrix)
        for k in channel.outcomes[0].kraus:
            kf = np.kron(k, np.eye(du))
            out += kf @ joint.matrix @ dag(kf)
        worst_dp = min(worst_dp, before - mutual_information(out, [ds, du], [0]))
    assert worst_dp >= -1e-9
    print(f"\nACCEPTANCE 7 PASS: min Sigma_seg = {report.law_checks['sigma_seg_min']:.2e} "
          f"(cavity) / {worst_seg:.2e} (random segments); min avg Sigma_ctrl = {worst_ctrl:.2e}; "
          f"min lemma margin = {worst_lemma:.2e}; min data-processing contraction = {worst_dp:.2e}")


def test_criterion_08_jarzynski_identity():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 4))
        h0 = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h1 = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rep = run_tpm_jarzynski(
            0.5 * (h0 + dag(h0)), 0.5 * (h1 + dag(h1)),
            qmath.random_unitary(rng, dim), float(rng.uniform(0.2, 2.0)),
        )
        worst = max(worst, rep.identity_residual)
    assert worst <= 1e-10
    worst_q = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 4))
        h0 = np.diag(np.sort(rng.normal(size=dim))).astype(complex)
        h1 = np.diag(np.sort(rng.normal(size=dim))).astype(complex)
        u = np.zeros((dim, dim), dtype=complex)
        for i, j in enumerate(rng.permutation(dim)):
            u[j, i] = 1.0
        rep = run_tpm_jarzynski(h0, h1, u, beta=1.0)
        worst_q = max(worst_q, max(abs(leaf.q_ctrl) for leaf in rep.leaves))
    assert worst_q <= 1e-12
    print(f"\nACCEPTANCE 8 PASS: max |<exp(-b dE)> - Z1/Z0| = {worst:.2e} <= 1e-10 "
          f"over 100 random cases; max classical-permutation |Q_ctrl| = {worst_q:.2e} <= 1e-12")


def test_criterion_09_classical_limit_identity():
    worst = 0.0
    for energies, beta, p0 in (
        ([0.0, 1.0], 1.0, [0.9, 0.1]),
        ([0.0, 0.7, 1.3], 1.3, [0.5, 0.3, 0.2]),
    ):
        model = RateModel.thermal(energies, beta, attempt_rate=0.5)
        rep = run_classical_limit(model, steps=8, dt=0.02, mode="enumerate", p0=np.array(p0))
        worst = max(worst, rep.max_identity_residual)
    assert worst <= 1e-8
    eq_model = RateModel.thermal([0.0, 1.0], beta=1.0)
    eq = run_classical_limit(eq_model, steps=6, dt=0.02, mode="enumerate")
    assert np.abs(eq.sigma_state).max() <= 1e-10
    assert eq.sigma_record.min() > 0.0
    print(f"\nACCEPTANCE 9 PASS: max identity residual = {worst:.2e} <= 1e-8; "
          f"at equilibrium Sigma_state = {np.abs(eq.sigma_state).max():.2e} "
          f"while Sigma_record = {eq.sigma_record.min():.4f} > 0")


def _frequency_check(gen, sched, pol, rho0, samples, seed_tag, **kwargs):
    leaves = enumerate_tree(gen, sched, pol, rho0, **kwargs)
    probs = {o: p for o, p, _ in leaves}
    counts: dict = {}
    seeds = derive_stream_seeds(seed_tag, range(samples)).tolist()
    for rec in sample_ensemble(gen, sched, pol, rho0, seeds, store_states=False, **kwargs):
        counts[rec.outcomes] = counts.get(rec.outcomes, 0) + 1
    worst = 0.0
    for outcome, p in probs.items():
        freq = counts.get(outcome, 0) / samples
        se = max(np.sqrt(p * (1 - p) / samples), 1e-12)
        worst = max(worst, abs(freq - p) / se)
    stray = sum(v for k, v in counts.items() if k not in probs)
    assert stray == 0
    return worst


def test_criterion_10_oracle_equivalence():
    z = projective_instrument(np.eye(2))
    x = projective_instrument(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    gen_q = ThermalGenerator(2, np.diag([0.0, 1.0]).astype(complex), (), beta=1.0)
    worst = _frequency_check(
        gen_q, ControlSchedule.uniform(2, 1.0), FixedPolicy([z, z]),
        DensityOperator.pure([1, 1]), samples=30_000, seed_tag=101,
    )
    worst = max(worst, _frequency_check(
        gen_q, ControlSchedule.uniform(3, 1.0), FixedPolicy([x, z, x]),
        DensityOperator.maximally_mixed(2), samples=20_000, seed_tag=102,
    ))
    # delayed-feedback sensor process on a small cavity
    gen_c = thermal_cavity_generator(2 * np.pi * 51.1e9, 0.8, 65e-3, 5)
    instruments = {k: atom_instrument(k, 1, 5) for k in ("sensor", "emitter", "absorber")}
    pol_c = CavityPolicy(1, 2, instruments=instruments)
    rho0_c = DensityOperator.from_diagonal(thermal_populations(gen_c.beta, 6))
    worst = max(worst, _frequency_check(
        gen_c, ControlSchedule.uniform(3, 82e-6), pol_c, rho0_c,
        samples=20_000, seed_tag=103, method="first_order",
    ))
    assert worst <= 3.0

    # population fast path vs density-matrix path, shared seeds
    diag = run_cavity(CavityConfig(
        steps=50, trajectories=4, seed=MASTER_SEED, cutoff=5, target_nt=1, delay_d=3
    ))
    dense = run_cavity(CavityConfig(
        steps=50, trajectories=4, seed=MASTER_SEED, cutoff=5, target_nt=1, delay_d=3,
        dense=True,
    ))
    worst_ledger = 0.0
    for a, b in zip(diag.records, dense.records):
        assert a.outcomes == b.outcomes
        assert a.kinds == b.kinds
        for la, lb in zip(a.ledgers, b.ledgers):
            for col in ("w_ctrl_sys", "q_ctrl_sys", "q_seg", "sigma_ctrl",
                        "sigma_seg", "logp_increment", "s_end"):
                worst_ledger = max(worst_ledger, abs(getattr(la, col) - getattr(lb, col)))
    assert worst_ledger <= 1e-9
    print(f"\nACCEPTANCE 10 PASS: sampled frequencies within {worst:.2f} standard errors "
          f"(<= 3) of enumeration; fast path matches dense path bit-for-bit in outcomes, "
          f"ledgers within {worst_ledger:.2e} <= 1e-9")
