"""A cavity leaf reduced step by step: the same tally as the whole leaf's arrays, the same
failure as one trajectory at a time, and memory that does not grow with trajectory-steps."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oqst import thermo
from oqst.scenarios import CavityConfig, TruncationLeakError, run_cavity
from oqst.scenarios import cavity
from oqst.qmath import _ordered_sum
from oqst.scenarios.cavity import ATOM_PREP_WORK, number_populations
from oqst.thermo import LEDGER_DTYPE, ThermoError, first_law_residual
from oqst.trajectory import Moments

# One leaf each, in which a higher trajectory leaks (breaks the first law at a tolerance
# below rounding) on an earlier step than a lower one does.
LEAKING = CavityConfig(steps=40, trajectories=12, seed=5, delay_d=3)
BREAKING = replace(LEAKING, seed=14)


def _kept(config):
    return run_cavity(config, keep_records=True).records


def _lower_row_fails_later(values, fails_at):
    """A threshold from ``values`` (rows, steps) at which the lowest row that fails
    (``fails_at(values, threshold)``) first does so on a later step than some higher row;
    returns (threshold, that row, its first failing step counted from 1)."""
    for threshold in np.unique(values):
        fails = fails_at(values, threshold)
        rows = np.flatnonzero(fails.any(axis=1))
        first = fails.argmax(axis=1)
        if len(rows) > 1 and (first[rows[1:]] < first[rows[0]]).any():
            return threshold, int(rows[0]), int(first[rows[0]]) + 1
    raise AssertionError("no threshold makes a higher row fail first")


@pytest.mark.parametrize("dense", [False, True])
class TestLowestFailingTrajectory:
    """Errors name the lowest failing trajectory at its first failing step, not the first
    failure in time; within one trajectory a leak comes before a broken law."""

    def test_leak(self, dense, monkeypatch):
        config = replace(LEAKING, dense=dense)
        tops = np.stack([number_populations(rec.states)[:, -1] for rec in _kept(config)])
        limit, row, step = _lower_row_fails_later(tops, lambda v, t: v > t)
        monkeypatch.setattr(cavity, "TRUNCATION_LEAK", limit)
        with pytest.raises(TruncationLeakError,
                           match=rf"^trajectory {row}: population \S+ at the cutoff level "
                                 rf"on step {step}$"):
            run_cavity(config)

    def test_broken_law(self, dense, monkeypatch):
        config = replace(BREAKING, dense=dense)
        residuals = np.abs(np.stack([first_law_residual(rec.ledgers) for rec in _kept(config)]))
        tolerance, row, step = _lower_row_fails_later(residuals, lambda v, t: v > t)
        monkeypatch.setattr(thermo, "FIRST_LAW_ATOL", tolerance)
        with pytest.raises(ThermoError, match=rf"^trajectory {row}: first law residual \S+ "
                                              rf"beyond \S+ on step {step}$"):
            run_cavity(config)

    def test_segment_law_below_the_reported_floor(self, dense, monkeypatch):
        # sigma_seg = -1e-8 on step 7 of trajectory 2, which the law flags report as broken,
        # stops the run with the trajectory and step named
        close = cavity._close

        def lowered(led, beta):
            at = (np.arange(len(led))[:, None] == 2) & (led["step"] == 7)
            led["s_pre"] = np.where(at, led["s_start"] + beta * led["q_seg"] - 1e-8, led["s_pre"])
            return close(led, beta)

        monkeypatch.setattr(cavity, "_close", lowered)
        with pytest.raises(ThermoError, match=r"^trajectory 2: segment entropy production "
                                              r"-1\.000e-08 below -1e-10 on step 7$"):
            run_cavity(replace(LEAKING, dense=dense))

    def test_leak_before_a_broken_law_of_the_same_trajectory(self, dense, monkeypatch):
        # every trajectory breaks the segment law on step 1; trajectory 0 leaks later
        config = replace(LEAKING, dense=dense)
        tops = number_populations(_kept(config)[0].states)[:, -1]
        limit = np.sort(tops)[-2]
        step = int(np.argmax(tops > limit)) + 1
        assert step > 1
        monkeypatch.setattr(thermo, "SEGMENT_EP_FLOOR", np.inf)
        monkeypatch.setattr(cavity, "TRUNCATION_LEAK", limit)
        with pytest.raises(TruncationLeakError, match=rf"^trajectory 0: .* on step {step}$"):
            run_cavity(config)


@pytest.mark.parametrize("dense, exact, delay, steps", [
    (False, False, 5, 40),
    (False, True, 1, 64),
    (False, False, 0, 40),
    (False, False, 5, 3),  # fewer steps than the delay
    (True, False, 5, 34),
    (True, True, 0, 34),
    (True, False, 1, 34),
    (True, True, 5, 3),
])
def test_streamed_tally_equals_batch_moments(dense, exact, delay, steps):
    """Each leaf of a two-leaf run tallies, bit for bit, what the stacked ledgers and states of
    its kept records reduce to, and keeping every record changes nothing."""
    config = CavityConfig(steps=steps, trajectories=260, seed=12, delay_d=delay,
                          exact_propagator=exact, dense=dense)
    chunk = cavity._dense_chunk if dense else cavity._diagonal_chunk
    for leaf in (range(0, 256), range(256, 260)):
        full, lean = chunk(config, leaf, keep_records=True), chunk(config, leaf, keep_records=False)
        assert len(full.records) == len(leaf)
        ledgers = np.stack([rec.ledgers for rec in full.records])
        pops = np.stack([number_populations(rec.states) for rec in full.records])
        kinds = np.array([[cavity.ATOM_KINDS.index(k) for k in rec.kinds] for rec in full.records])
        # var(n) summed over the levels left to right, as the fold sums them: a matrix-vector
        # product's last bit would depend on the stacked array's shape
        n_vec = np.arange(config.dim, dtype=float)
        mean_n = _ordered_sum(pops * n_vec, -1)
        var_n = _ordered_sum(pops * n_vec**2, -1) - mean_n**2
        for tally in (full, lean):
            assert tally.moments.n == len(leaf)
            for i, col in enumerate(LEDGER_DTYPE.names):
                want = Moments.of(ledgers[col])
                assert tally.moments.sums[i].tobytes() == want.sums.tobytes(), col
                assert tally.moments.m2[i].tobytes() == want.m2.tobytes(), col
            assert tally.populations.tobytes() == pops.sum(axis=0).tobytes()
            assert np.array_equal(tally.narrow, (var_n < 0.1).sum(axis=0))
            assert tally.atoms[cavity.SENSOR] == int((kinds == cavity.SENSOR).sum())
            assert float(tally.atoms @ ATOM_PREP_WORK) == float(ATOM_PREP_WORK[kinds].sum())
            assert tally.first_law_max == float(np.abs(first_law_residual(ledgers)).max())
            assert tally.sigma_seg_min == float(ledgers["sigma_seg"].min())
            assert tally.truncation_max == float(pops[:, :, -1].max())


def test_leaf_memory_does_not_grow_with_trajectory_steps():
    """A 256-row population leaf at 1000 steps allocates at most 64 bytes per
    trajectory-step at its peak: only the policy's histories (outcomes and kinds) and the
    uniforms are that long."""
    config = CavityConfig(steps=1000, trajectories=256, seed=1)
    cavity._diagonal_chunk(replace(config, steps=5), range(4), keep_records=False)  # warm up
    tracemalloc.start()
    try:
        cavity._diagonal_chunk(config, range(256), keep_records=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 256 * 1000, f"{peak / (256 * 1000):.1f} bytes per trajectory-step"


def _tally_bytes(tally):
    """Every number of a tally, as bytes."""
    return [tally.moments.n, tally.moments.sums.tobytes(), tally.moments.m2.tobytes(),
            tally.populations.tobytes(), tally.narrow.tobytes(), tally.atoms.tobytes(),
            tally.first_law_max, tally.sigma_seg_min, tally.truncation_max]


@pytest.mark.parametrize("n, steps", [(4, 50), (260, 17), (1, 5)])
def test_tally_does_not_depend_on_the_window(monkeypatch, n, steps):
    """A leaf's whole tally, the var(n) < 0.1 counts included, is the same bit for bit for
    any window width: no number in it comes from a product whose last bit depends on the
    window's shape."""
    config = CavityConfig(steps=steps, trajectories=n, seed=3)
    tallies = []
    for width in (1, 5, 16):
        monkeypatch.setattr(cavity, "_FOLD_STEPS", width)
        tallies.append(_tally_bytes(cavity._diagonal_chunk(config, range(n),
                                                           keep_records=False)))
    assert tallies[0] == tallies[1] == tallies[2]
