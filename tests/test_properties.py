"""Property test: random instruments over random schedules keep both laws per step.

Every generated case runs the exact outcome-tree expansion.  A case either
stops with an ``EngineError`` (a configuration the engine refuses, such as
a further control after an energetic inefficient unit) or returns leaves
whose every ledger step closes the first law within ``FIRST_LAW_ATOL`` and
has segment entropy production above ``SEGMENT_EP_FLOOR``.  Trajectories
sampled from the same case must each be a leaf of that tree, with the
leaf's ledger.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from oqst import qmath
from oqst.channels import random_instrument
from oqst.lindblad import ThermalGenerator
from oqst.thermo import FIRST_LAW_ATOL, SEGMENT_EP_FLOOR, first_law_residual
from oqst.trajectory import (
    ControlSchedule, EngineError, FixedPolicy, StepPlan, derive_stream_seeds, enumerate_tree,
    sample_ensemble,
)

MAX_JOINT_DIM = 64


def thermal_ladder(dim: int, n_th: float, gamma: float) -> ThermalGenerator:
    """Equally spaced levels with detailed-balance decay and excitation."""
    lower = np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)
    return ThermalGenerator(
        dim=dim,
        hamiltonian=np.diag(np.arange(dim, dtype=float)).astype(complex),
        dissipators=((lower, gamma * (1 + n_th)), (lower.conj().T, gamma * n_th)),
        beta=float(np.log1p(1 / n_th)),
    )


@st.composite
def cases(draw):
    dim = draw(st.integers(2, 3))
    retain = draw(st.booleans())
    with_h_unit = draw(st.booleans())
    lengths = draw(st.lists(st.floats(0.05, 2.0), min_size=1, max_size=3, unique=True))
    plans, joint_dim = [], dim
    for _ in lengths:
        # (outcomes, Kraus per outcome) whose tracked unit keeps the joint state small
        shapes = [(n, k) for n in (1, 2, 3) for k in (1, 2)
                  if not (k > 1 or retain) or joint_dim * max(n * k, 2) <= MAX_JOINT_DIM]
        if not shapes:
            break
        n_outcomes, kraus = draw(st.sampled_from(shapes))
        instr = random_instrument(np.random.default_rng(draw(st.integers(0, 2**32))),
                                  dim, n_outcomes, kraus)
        unit_dim = max(n_outcomes * kraus, 2)
        if kraus > 1 or retain:
            joint_dim *= unit_dim
        h_unit = (np.diag(np.arange(unit_dim, dtype=float)).astype(complex)
                  if with_h_unit and draw(st.booleans()) else None)
        plans.append(StepPlan(instrument=instr, h_unit=h_unit))
    gen = thermal_ladder(dim, draw(st.floats(0.05, 2.0)), draw(st.floats(0.1, 2.0)))
    rho0 = qmath.random_density(np.random.default_rng(draw(st.integers(0, 2**32))), dim)
    schedule = ControlSchedule(times=tuple(np.cumsum(lengths[: len(plans)])))
    return gen, schedule, plans, rho0, retain


@settings(max_examples=40, derandomize=True, deadline=None)
@given(cases())
def test_every_ledger_step_keeps_both_laws(case):
    gen, schedule, plans, rho0, retain = case
    try:
        leaves = enumerate_tree(gen, schedule, FixedPolicy(plans), rho0,
                                retain_efficient_units=retain, max_units=len(plans))
    except EngineError:
        return
    assert abs(sum(p for _, p, _ in leaves) - 1.0) <= 1e-9
    for _, _, rec in leaves:
        assert np.abs(first_law_residual(rec.ledgers)).max() <= FIRST_LAW_ATOL
        assert rec.ledgers.sigma_seg.min() >= SEGMENT_EP_FLOOR
    by_outcomes = {outcomes: rec for outcomes, _, rec in leaves}
    seeds = derive_stream_seeds(schedule.n_steps, range(20)).tolist()
    for rec in sample_ensemble(gen, schedule, FixedPolicy(plans), rho0, seeds,
                               retain_efficient_units=retain, max_units=len(plans)):
        leaf = by_outcomes[rec.outcomes]
        for col in rec.ledgers.dtype.names:
            assert np.abs(rec.ledgers[col] - leaf.ledgers[col]).max(initial=0.0) <= 1e-12
