"""The stacked random-case checks of ``oqst verify`` against one-state oracles.

Each random-case check draws all its cases first and then evaluates them one
shape group at a time through the batched kernels.  The oracles here draw
the same cases one at a time and evaluate them with the public one-state
functions, or with a batched kernel on a batch of one where the package has no
one-state form (the dilation's branches, the readout entropy lemma).
"""

import dataclasses

import numpy as np
import pytest

from oqst import channels, qmath, thermo, verify
from oqst import lindblad
from oqst.channels import (
    _branch_states,
    _dilate,
    apply_instrument,
    random_instrument,
    stinespring_dilate,
)
from oqst.qmath import DensityOperator, dag, mutual_information, partial_trace
from oqst.qmath import von_neumann_entropy
from oqst.lindblad import Protocol, heat_work_segment, thermal_cavity_generator
from oqst.thermo import (
    _control_entropy_production,
    _entropy_lemma,
    _instrument_energetics,
    average_control_entropy_production,
    control_energetics,
)
from oqst.trajectory import derive_stream_seeds


# -- one-state oracles: one value per case, in draw order --------------------

def oracle_partial_trace(rng, samples=500):
    for _ in range(samples):
        d1, d2 = rng.integers(2, 5, size=2)
        joint = qmath.random_density(rng, int(d1 * d2))
        out = partial_trace(joint, [int(d1), int(d2)], [int(rng.integers(0, 2))])
        yield abs(np.trace(out.matrix).real - 1.0), float(np.linalg.eigvalsh(out.matrix).min())


def oracle_instrument_normalization(rng, samples=500):
    for _ in range(samples):
        dim = int(rng.integers(2, 5))
        instr = random_instrument(rng, dim, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        rho = qmath.random_density(rng, dim)
        yield abs(sum(r.probability for r in apply_instrument(instr, rho)) - 1.0)


def oracle_dilation_consistency(rng, samples=100):
    for _ in range(samples):
        dim = int(rng.integers(2, 4))
        instr = random_instrument(rng, dim, int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        dil = stinespring_dilate(instr)
        rho = qmath.random_density(rng, dim)
        # each branch through the dilation: unit added, joint unitary run, unit read out
        raws = dil.unitary_readout(rho.matrix[None])[1][0]
        probs = np.trace(raws, axis1=-2, axis2=-1).real
        worst = 0.0
        for a, p, raw in zip(apply_instrument(instr, rho), probs, raws):
            worst = max(worst, abs(a.probability - p))
            if a.state is not None and p >= channels.IMPOSSIBLE_BRANCH:
                state = qmath._partial_trace_matrix(raw, [dim, dil.unit_dim], [0]) / p
                worst = max(worst, float(np.max(np.abs(a.state.matrix - state))))
        yield worst


def oracle_zero_average_control_heat(rng, samples=500):
    for _ in range(samples):
        dim = int(rng.integers(2, 5))
        instr = random_instrument(rng, dim, int(rng.integers(2, 4)), int(rng.integers(1, 3)))
        rho = qmath.random_density(rng, dim)
        ce = control_energetics(instr, verify._random_hermitian(rng, dim), rho)
        yield abs(ce.average_system_heat())


def oracle_control_entropy_production(rng, samples=500):
    for _ in range(samples):
        dim = int(rng.integers(2, 5))
        instr = random_instrument(rng, dim, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        yield average_control_entropy_production(instr, qmath.random_density(rng, dim))


def oracle_entropy_lemma(rng, samples=500):
    for _ in range(samples):
        dim = int(rng.integers(2, 5))
        rho = qmath.random_density(rng, dim)
        blocks = []
        for _ in range(int(rng.integers(2, 5))):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            blocks.append(g @ dag(g) + 1e-3 * np.eye(dim))
        evals, vecs = np.linalg.eigh(sum(blocks))
        inv_sqrt = (vecs / np.sqrt(evals)) @ dag(vecs)
        family = []
        for b in blocks:
            m = inv_sqrt @ b @ inv_sqrt
            ev, vv = np.linalg.eigh(0.5 * (m + dag(m)))
            family.append((vv * np.sqrt(np.clip(ev, 0, None))) @ dag(vv))
        lhs, rhs = _entropy_lemma(np.array(family, dtype=complex)[None], rho.matrix[None])
        yield rhs[0] - lhs[0]  # the readout's lemma, a batch of one


def oracle_data_processing(rng, samples=500):
    for _ in range(samples):
        ds, du = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        joint = qmath.random_density(rng, ds * du)
        channel = random_instrument(rng, ds, 1, int(rng.integers(1, 4)))
        out = channel.branch_states(joint.matrix)[0]
        yield (mutual_information(joint, [ds, du], [0])
               - mutual_information(out, [ds, du], [0]))


ORACLES = {
    verify.check_partial_trace: oracle_partial_trace,
    verify.check_instrument_normalization: oracle_instrument_normalization,
    verify.check_dilation_consistency: oracle_dilation_consistency,
    verify.check_zero_average_control_heat: oracle_zero_average_control_heat,
    verify.check_control_entropy_production: oracle_control_entropy_production,
    verify.check_entropy_lemma: oracle_entropy_lemma,
    verify.check_data_processing: oracle_data_processing,
}


def stream_seed(seed, check):
    """The seed ``verify.run_all(seed)`` gives ``check``."""
    return int(derive_stream_seeds(seed, [verify.ALL_CHECKS.index(check)])[0]) % (2**32)


def stacked_values(monkeypatch, check, seed):
    """The per-case values the stacked ``check`` computed, and its result."""
    seen = []

    def recording(*args, **kwargs):
        seen.append(evaluate(*args, **kwargs))
        return seen[-1]

    evaluate = verify._evaluate
    monkeypatch.setattr(verify, "_evaluate", recording)
    result = check(seed)
    assert len(seen) == 1
    return seen[0], result


@pytest.mark.parametrize("check", list(ORACLES), ids=lambda c: c.__name__)
@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_stacked_check_matches_one_state_oracle(monkeypatch, check, seed):
    s = stream_seed(seed, check)
    values, result = stacked_values(monkeypatch, check, s)
    expected = np.array(list(ORACLES[check](np.random.default_rng(s))))
    assert values.shape == expected.shape
    assert np.max(np.abs(values - expected)) <= 1e-14
    assert result.passed


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_partial_trace_reports_the_observed_minimum(seed):
    s = stream_seed(seed, verify.check_partial_trace)
    cases = np.array(list(oracle_partial_trace(np.random.default_rng(s))))
    detail = verify.check_partial_trace(s).detail
    assert detail.endswith(f"min eigenvalue {cases[:, 1].min():.2e}")
    assert cases[:, 1].min() > 0.0  # full-rank states: the old 0.0 floor hid this


# -- operator-batched kernels, row by row -----------------------------------

SHAPES = [  # (system dim, outcomes, Kraus operators per outcome, tracked rest)
    (2, 1, 1, ()),
    (2, 3, 1, (3,)),
    (3, 2, 2, (2,)),
    (4, 1, 3, ()),
    (3, 3, 2, (2, 2)),
]


@pytest.mark.parametrize("d, n_out, per, rest", SHAPES)
def test_operator_batched_kernels_match_one_instrument_calls(d, n_out, per, rest):
    rng = np.random.default_rng(17 * d + n_out + per)
    n, big = 4, d * int(np.prod(rest, dtype=int))
    instrs = [random_instrument(rng, d, n_out, per) for _ in range(n)]
    kraus = np.stack([i._kraus for i in instrs])
    starts, labels = instrs[0]._starts, instrs[0].labels
    x = np.stack([qmath.random_density(rng, big).matrix for _ in range(n)])
    rho = np.stack([qmath.random_density(rng, d).matrix for _ in range(n)])
    h = np.stack([verify._random_hermitian(rng, d) for _ in range(n)])

    branches = _branch_states(kraus, starts, x)
    dilation = _dilate(kraus, starts, labels)
    correlated, raws = dilation.unitary_readout(x, rest)
    probs, w_sys, q_sys = _instrument_energetics(kraus, starts, h, rho)
    production = _control_entropy_production(dilation, rho)
    # square-root readouts: F_a = (K_a† K_a)^(1/2) square-sum to the identity
    ev, vv = np.linalg.eigh(dag(kraus) @ kraus)
    family = (vv * np.sqrt(np.clip(ev, 0, None))[..., None, :]) @ dag(vv)
    lhs, rhs = _entropy_lemma(family, rho)
    entropies = von_neumann_entropy(x)
    informations = mutual_information(x, [d, *rest], [0]) if rest else None

    for j, instr in enumerate(instrs):
        one = stinespring_dilate(instr)
        assert np.array_equal(branches[j], instr.branch_states(x[j]))
        assert np.array_equal(dilation.joint_unitary[j], one.joint_unitary)
        c1, r1 = one.unitary_readout(x[j:j + 1], rest)
        assert np.array_equal(correlated[j], c1[0]) and np.array_equal(raws[j], r1[0])
        state = DensityOperator(rho[j])
        ce = control_energetics(instr, h[j], state)
        assert np.array_equal(probs[j], ce.probabilities) and w_sys[j] == ce.w_system
        assert [q_sys[j, r] for r in range(n_out)] == [ce.q_system[r] for r in labels]
        assert production[j] == average_control_entropy_production(instr, state)
        one_lhs, one_rhs = _entropy_lemma(family[j][None], rho[j][None])
        assert (lhs[j], rhs[j]) == (one_lhs[0], one_rhs[0])
        assert entropies[j] == von_neumann_entropy(x[j])
        if rest:
            assert informations[j] == mutual_information(x[j], [d, *rest], [0])


@pytest.mark.parametrize("dim, total", [(2, 1), (2, 6), (3, 4), (4, 9)])
def test_stacked_qr_matches_one_instrument_draw_bit_for_bit(dim, total):
    # verify's instrument checks orthonormalize each shape group in one QR
    rng = np.random.default_rng(dim * total)
    draws = np.stack([channels._kraus_draws(rng, dim, total) for _ in range(50)])
    rng = np.random.default_rng(dim * total)
    one_by_one = np.stack([channels._random_kraus(rng, dim, total) for _ in range(50)])
    assert np.array_equal(channels._isometry_kraus(draws), one_by_one)


def test_stacked_dilation_checks_every_instrument():
    rng = np.random.default_rng(5)
    kraus = np.stack([random_instrument(rng, 2, 2)._kraus for _ in range(3)])
    kraus[1] *= 1.01
    with pytest.raises(channels.ChannelError, match="cannot dilate"):
        _dilate(kraus, [0, 1], (0, 1))
    with pytest.raises(thermo.ThermoError, match="completeness"):
        _instrument_energetics(kraus, [0, 1], np.zeros((3, 2, 2)), np.stack([np.eye(2) / 2] * 3))


def test_stacked_validation_checks_every_state():
    states = np.stack([np.eye(2) / 2] * 3)
    states[2, 0, 1] = 1e-3  # not Hermitian
    with pytest.raises(qmath.QmathError, match="Hermitian"):
        qmath.density_spectrum(states)


# -- power: each check fails when a kernel it relies on breaks ---------------

SYSTEM_ENERGETICS = thermo.system_energetics
BRANCH_ENTROPIES = thermo._branch_entropies


def drop_last_kraus(kraus, starts, mat):
    kraus = kraus.copy()
    kraus[..., -1, :, :] = 0.0
    return channels._branch_states(kraus, starts, mat)


def system_phase(dilation):
    """The same dilation followed by a system phase: still unitary, wrong branches."""
    rows = np.arange(dilation.joint_unitary.shape[-1]) // dilation.unit_dim
    phase = np.exp(0.3j * rows)[:, None]
    return dataclasses.replace(dilation, joint_unitary=phase * dilation.joint_unitary)


def flip_first_heat(h, mat, raws):
    probs, w_sys, q_sys = SYSTEM_ENERGETICS(h, mat, raws)
    q_sys = q_sys.copy()
    q_sys[:, 0] *= -1.0
    return probs, w_sys, q_sys


def no_conditional_entropy(raws):
    probs, _ = BRANCH_ENTROPIES(raws)
    return probs, np.zeros(probs.shape[:-1])


def global_unitary(kraus, starts, mat):
    """A unitary on both factors in place of the channel on the first."""
    u = qmath.random_unitary(np.random.default_rng(mat.shape[-1]), mat.shape[-1])
    return (u @ mat @ dag(u))[:, None]


BREAKS = [
    (verify.check_partial_trace, verify, "_partial_trace_matrix",
     lambda mat, dims, keep: qmath._partial_trace_matrix(mat, dims, keep) * (1 + 1e-11)),
    (verify.check_instrument_normalization, verify, "_branch_states", drop_last_kraus),
    (verify.check_dilation_consistency, verify, "_dilate",
     lambda *args: system_phase(channels._dilate(*args))),
    (verify.check_zero_average_control_heat, thermo, "system_energetics", flip_first_heat),
    (verify.check_control_entropy_production, thermo, "_branch_entropies", no_conditional_entropy),
    (verify.check_entropy_lemma, thermo, "_branch_entropies", no_conditional_entropy),
    (verify.check_data_processing, verify, "_branch_states", global_unitary),
]


@pytest.mark.parametrize("check, module, name, broken", BREAKS,
                         ids=[check.__name__ for check, *_ in BREAKS])
def test_check_fails_on_a_broken_kernel(monkeypatch, check, module, name, broken):
    assert check(3, samples=100).passed
    monkeypatch.setattr(module, name, broken)
    assert not check(3, samples=100).passed


@pytest.mark.parametrize("check", list(ORACLES), ids=lambda c: c.__name__)
def test_check_fails_when_a_shape_group_goes_unevaluated(monkeypatch, check):
    by_shape = verify._by_shape
    monkeypatch.setattr(verify, "_by_shape", lambda cases: dict(list(by_shape(cases).items())[1:]))
    result = check(3, samples=100)
    assert not result.passed
    assert "nan" in result.detail


def oracle_segment_second_law(rng, samples=200):
    """The drift entropy production of each case, one ``heat_work_segment`` call per case."""
    gen = thermal_cavity_generator(2 * np.pi * 51.1e9, 0.8, 65e-3, 8)
    protocol = Protocol.constant(gen.hamiltonian)
    for _ in range(samples):
        rho = DensityOperator.from_diagonal(rng.dirichlet(np.ones(9)))
        method = "exact" if rng.random() < 0.5 else "first_order"
        _, heat, rho_end = heat_work_segment(gen, protocol, rho, 0.0, 82e-6, substeps=1,
                                             method=method)
        yield von_neumann_entropy(rho_end) - von_neumann_entropy(rho) - gen.beta * heat


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_segment_check_matches_one_state_calls(monkeypatch, seed):
    s = stream_seed(seed, verify.check_segment_second_law)
    calls = []
    segments = lindblad._segments
    monkeypatch.setattr(verify, "_segments", lambda *args: calls.append(args[4]) or segments(*args))
    values, result = stacked_values(monkeypatch, verify.check_segment_second_law, s)
    expected = np.array(list(oracle_segment_second_law(np.random.default_rng(s))))
    assert np.array_equal(values, expected)
    assert result.passed and result.detail.endswith(f"{expected.min():.2e}")
    assert sorted(calls) == ["exact", "first_order"]  # one kernel call per method group


def test_segment_check_fails_with_the_heat_sign_flipped(monkeypatch):
    assert verify.check_segment_second_law(3, samples=100).passed
    segments = lindblad._segments

    def flipped(*args):
        work, heat, mats = segments(*args)
        return work, -heat, mats

    monkeypatch.setattr(verify, "_segments", flipped)
    assert not verify.check_segment_second_law(3, samples=100).passed
