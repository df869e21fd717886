"""The cavity's population ledgers, recomputed column by column from closed forms.

The engine assembles every ledger row in one place for both state
representations, so the dense-versus-population tests compare
representations only.  This oracle keeps the population bookkeeping
honest on its own: from each record's post-control populations, its atom
kinds and outcomes, and the transfer matrices in dense form, it rebuilds
the drift, the control's branch weights, energies n . p, the work as the
level-shift sum  sum_i (n_i - n_m) M[i, m] p_m,  the heat as the first-law
residual, and the stochastic entropy  s = -ln P(record) + H(p).
"""

import numpy as np
import pytest
from scipy.linalg import expm

from oqst.qmath import shannon_entropy
from oqst.scenarios import CavityConfig, atom_transfer, run_cavity
from oqst.scenarios.cavity import BLOCK_ROWS, classical_rate_matrix, thermal_populations

TRAJECTORIES = BLOCK_ROWS + 4  # two reduction leaves
ATOL = 1e-12


def step_map(config: CavityConfig) -> np.ndarray:
    """The dense population map of one step."""
    rates = classical_rate_matrix(config.generator())
    if config.exact_propagator:
        return expm(rates * config.step_ta)
    return np.eye(config.dim) + rates * config.step_ta


def expected_ledger(config: CavityConfig, drift, rec, beta: float) -> dict:
    """Every ledger column of one population record, as arrays over its steps."""
    n = np.arange(config.dim, dtype=float)
    transfers = {kind: atom_transfer(kind, config.target_nt, config.cutoff)
                 for kind in set(rec.kinds)}
    shift = {kind: (n[:, None] - n[None, :]) * (m[0] + m[1]) for kind, m in transfers.items()}
    cols = {name: [] for name in ("e_sys_start", "e_sys_pre", "e_sys_end", "w_seg", "q_seg",
                                  "w_ctrl_sys", "q_ctrl_sys", "logp_increment", "s_start",
                                  "s_pre", "s_end", "post")}
    p = thermal_populations(beta, config.dim)
    log_prob, s_prev = 0.0, shannon_entropy(p)
    for kind, outcome in zip(rec.kinds, rec.outcomes):
        mid = drift @ p
        weights = transfers[kind] @ mid  # (2, dim): joint outcome and post level
        prob = weights[outcome].sum()
        post = weights[outcome] / prob
        work = float(np.sum(shift[kind] * mid[None, :]))
        e_start, e_pre, e_end = n @ p, n @ mid, n @ post
        s_pre = log_prob + shannon_entropy(mid)
        log_prob -= np.log(prob)
        s_end = log_prob + shannon_entropy(post)
        for name, value in (("e_sys_start", e_start), ("e_sys_pre", e_pre), ("e_sys_end", e_end),
                            ("w_seg", 0.0), ("q_seg", e_pre - e_start), ("w_ctrl_sys", work),
                            ("q_ctrl_sys", e_end - e_pre - work),
                            ("logp_increment", -np.log(prob)), ("s_start", s_prev),
                            ("s_pre", s_pre), ("s_end", s_end), ("post", post)):
            cols[name].append(value)
        p, s_prev = post, s_end
    out = {name: np.array(values) for name, values in cols.items()}
    out["sigma_ctrl"] = out["s_end"] - out["s_pre"] - beta * out["q_ctrl_sys"]
    out["sigma_seg"] = out["s_pre"] - out["s_start"] - beta * out["q_seg"]
    return out


@pytest.fixture(scope="module", params=[False, True], ids=["first_order", "exact"])
def population_run(request):
    config = CavityConfig(steps=8, trajectories=TRAJECTORIES, seed=12, delay_d=1,
                          exact_propagator=request.param)
    return config, run_cavity(config)


def test_every_ledger_column_matches_the_closed_forms(population_run):
    config, report = population_run
    assert len(report.records) == TRAJECTORIES
    drift = step_map(config)
    for i, rec in enumerate(report.records):
        want = expected_ledger(config, drift, rec, report.beta)
        led = rec.ledgers
        assert np.abs(np.asarray(rec.states) - want["post"]).max() <= ATOL, i
        assert list(led["step"]) == list(range(1, config.steps + 1))
        assert list(led["outcome"]) == list(rec.outcomes)
        for col in ("de_unit", "w_ctrl_unit", "q_ctrl_unit"):
            assert not led[col].any(), (i, col)
        for col, values in want.items():
            if col != "post":
                assert np.abs(led[col] - values).max() <= ATOL, (i, col)
        assert rec.log_prob == pytest.approx(want["logp_increment"].sum(), abs=ATOL)


def test_both_leaves_and_all_kinds_are_covered(population_run):
    _, report = population_run
    kinds = {kind for rec in report.records for kind in rec.kinds}
    assert kinds == {"sensor", "emitter", "absorber"}
    assert any(k != "sensor" for rec in report.records[BLOCK_ROWS:] for k in rec.kinds)
