"""Every number `oqst run projective`, `tpm` and `classical` write, recomputed by another route.

The projective readout and the two-point measurement are expanded by the engine's outcome
tree; the classical limit is recomputed from its grid distributions with scipy's ``expm``
(or, sampled, from its empirical joints) in vectorised form.  Each test runs the CLI and
compares every column of its CSV and every total and flag of its ``summary.json``.
"""

import csv
import dataclasses
import json

import numpy as np
import pytest
from scipy.linalg import expm

from oqst.channels import projective_instrument
from oqst.cli import EXIT_OK, RunConfig, _prepare_run, emit_outputs, main
from oqst.lindblad import ThermalGenerator
from oqst.qmath import DensityOperator
from oqst.scenarios import RateModel, run_classical_limit, tpm_process
from oqst.thermo import (
    AVG_HEAT_ATOL, CLASSICAL_IDENTITY_ATOL, JARZYNSKI_RTOL, OUTCOME_ENTROPY_FLOOR,
    RECORD_PRODUCTION_FLOOR,
)
from oqst.trajectory import ControlSchedule, FixedPolicy, enumerate_tree

SZ = np.diag([1.0, -1.0]).astype(complex)
HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def run_cli(out, *argv):
    assert main(["run", *argv, "--out", str(out)]) == EXIT_OK
    with open(out / "summary.json", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {col: [row[col] for row in rows] for col in rows[0]}


def assert_close(emitted_values, expected, what):
    # the files carry 12 significant digits; allow that rounding plus 1e-12
    expected = np.atleast_1d(np.asarray(expected, dtype=float))
    assert len(emitted_values) == len(expected), what
    for i, (cell, x) in enumerate(zip(emitted_values, expected)):
        assert abs(float(cell) - x) <= 1e-12 + 6e-12 * abs(x), (what, i, cell, x)


def assert_totals(emitted: dict, expected: dict):
    assert set(emitted) == set(expected)
    for key, value in expected.items():
        assert_close([emitted[key]], [value], key)


def entropy(p) -> float:
    p = np.asarray(p)[np.asarray(p) > 0]
    return float(-(p * np.log(p)).sum())


class TestProjectiveOracle:
    """`outcomes.csv` and the totals from a one-step tree of the projective readout."""

    OMEGA = 1.3

    def tree(self):
        h = 0.5 * self.OMEGA * SZ
        gen = ThermalGenerator(dim=2, hamiltonian=np.zeros((2, 2)), dissipators=(), beta=1.0)
        policy = FixedPolicy([projective_instrument(np.eye(2))])
        rho0 = DensityOperator.pure([1, 1])
        leaves = enumerate_tree(gen, ControlSchedule.uniform(1, 1.0), policy, rho0,
                                hamiltonian0=h)
        return rho0, leaves

    def test_outputs(self, tmp_path):
        summary = run_cli(tmp_path, "projective", "--omega", str(self.OMEGA))
        rho0, leaves = self.tree()
        probs = np.array([p for _, p, _ in leaves])
        led = np.concatenate([rec.ledgers for _, _, rec in leaves])
        post = led["e_sys_end"]
        cols = read_csv(tmp_path / "outcomes.csv")
        assert [int(r) for r in cols["outcome"]] == [o[0] for o, _, _ in leaves]
        assert_close(cols["probability"], probs, "probability")
        assert_close(cols["Q_ctrl"], led["q_ctrl_sys"], "Q_ctrl")
        assert_close(cols["Q_closed"], post - probs @ post, "Q_closed")
        assert_close(cols["post_energy"], post, "post_energy")
        avg_heat = float(probs @ led["q_ctrl_sys"])
        spectrum = entropy(np.linalg.eigvalsh(rho0.matrix))
        # the readout's work is one number for the whole instrument, on every leaf
        assert np.allclose(led["w_ctrl_sys"], led["w_ctrl_sys"][0], atol=1e-15)
        assert_totals(summary["totals"], {
            "W_ctrl": led["w_ctrl_sys"][0],
            "avg_heat": avg_heat,
            "shannon_outcomes": entropy(probs),
            "shannon_spectrum": spectrum,
        })
        assert summary["law_checks"] == {
            "avg_heat_zero": abs(avg_heat) <= AVG_HEAT_ATOL,
            "outcome_entropy_dominates": entropy(probs) - spectrum >= OUTCOME_ENTROPY_FLOOR,
        }

    def test_each_column_reads_its_own_field(self, tmp_path):
        # the two heat routes agree on every honest report; shift one apart to tell the
        # columns apart
        config = RunConfig(scenario="projective")
        report = _prepare_run(config)()
        shifted = {r: q + 10.0 for r, q in report.q_closed.items()}
        emit_outputs(dataclasses.replace(report, q_closed=shifted), config, str(tmp_path))
        cols = read_csv(tmp_path / "outcomes.csv")
        assert_close(cols["Q_ctrl"], [report.q_ctrl[r] for r in report.labels], "Q_ctrl")
        assert_close(cols["Q_closed"], [shifted[r] for r in report.labels], "Q_closed")


class TestTpmOracle:
    """`leaves.csv` and the totals from the tree of `tpm_process`."""

    BETA = 0.7

    def test_outputs(self, tmp_path):
        summary = run_cli(tmp_path, "tpm", "--beta", str(self.BETA))
        gen, schedule, policy, rho0, h0 = tpm_process(0.5 * SZ, SZ, HADAMARD, self.BETA)
        leaves = enumerate_tree(gen, schedule, policy, rho0, hamiltonian0=h0)
        led = np.stack([rec.ledgers for _, _, rec in leaves])  # (leaves, 3 steps)
        probs = np.array([p for _, p, _ in leaves])
        eps0, eps1 = led["e_sys_end"][:, 0], led["e_sys_end"][:, 2]
        cols = read_csv(tmp_path / "leaves.csv")
        assert list(cols) == ["r0", "r1", "probability", "eps0", "eps1", "Q_first", "W_drive",
                              "W_ctrl", "Q_ctrl"]
        assert [int(r) for r in cols["r0"]] == [o[0] for o, _, _ in leaves]
        assert [int(r) for r in cols["r1"]] == [o[2] for o, _, _ in leaves]
        assert_close(cols["probability"], probs, "probability")
        assert_close(cols["eps0"], eps0, "eps0")
        assert_close(cols["eps1"], eps1, "eps1")
        assert_close(cols["Q_first"], led["q_ctrl_sys"][:, 0], "Q_first")
        # no drift between the readouts: the drive's work is the energy change across it
        assert_close(cols["W_drive"], led["e_sys_pre"][:, 2] - eps0, "W_drive")
        assert_close(cols["W_ctrl"], led["w_ctrl_sys"][:, 2], "W_ctrl")
        assert_close(cols["Q_ctrl"], led["q_ctrl_sys"][:, 2], "Q_ctrl")
        exp_average = float(probs @ np.exp(-self.BETA * (eps1 - eps0)))
        levels0, levels1 = np.linalg.eigvalsh(0.5 * SZ), np.linalg.eigvalsh(SZ)
        z_ratio = np.exp(-self.BETA * levels1).sum() / np.exp(-self.BETA * levels0).sum()
        assert_totals(summary["totals"], {
            "exp_average": exp_average,
            "z_ratio": z_ratio,
            "identity_residual": abs(exp_average - z_ratio) / z_ratio,
        })
        assert summary["law_checks"] == {
            "jarzynski_identity_ok": abs(exp_average - z_ratio) / z_ratio <= JARZYNSKI_RTOL,
        }


class TestClassicalOracle:
    """`steps.csv` and the totals from the grid's joints, in closed vectorised form."""

    STEPS, DT, BETA, ENERGIES = 20, 0.02, 1.0, [0.0, 1.0]

    @staticmethod
    def expected(model, joints, dt):
        """Every column and total of a run whose step ``n`` has joint ``joints[n][t, s]`` of
        (next ``t``, previous ``s``)."""
        e, beta = model.energies, model.beta
        p_prev, p_next = joints.sum(axis=1), joints.sum(axis=2)
        safe = np.where(joints > 0, joints, 1.0)
        heat = (joints * (e[:, None] - e[None, :])).sum(axis=(1, 2))
        log_next = np.log(np.where(p_next > 0, p_next, 1.0))[:, :, None]
        log_prev = np.log(np.where(p_prev > 0, p_prev, 1.0))[:, None, :]
        # S(next | previous) and S(previous | next), from the joint and each marginal
        sigma_record = -(joints * (np.log(safe) - log_prev)).sum(axis=(1, 2)) - beta * heat
        backward = -(joints * (np.log(safe) - log_next)).sum(axis=(1, 2))
        sigma_state = (np.array([entropy(p) for p in p_next])
                       - np.array([entropy(p) for p in p_prev]) - beta * heat)
        redefined = joints * (-log_next + log_prev - beta * (e[:, None] - e[None, :]))
        identity = sigma_record - sigma_state - backward
        steps = np.arange(1, len(joints) + 1)
        columns = {"step": steps, "time": steps * dt, "heat_avg": heat,
                   "Sigma_record": sigma_record, "Sigma_state": sigma_state,
                   "backward_entropy": backward, "identity_residual": identity}
        totals = {"max_identity_residual": np.abs(identity).max(),
                  "max_redefined_residual": np.abs(redefined.sum(axis=(1, 2))
                                                   - sigma_state).max()}
        flags = {"difference_identity_ok": np.abs(identity).max() <= CLASSICAL_IDENTITY_ATOL,
                 "record_production_nonnegative": bool(
                     (sigma_record >= RECORD_PRODUCTION_FLOOR).all())}
        return columns, totals, flags

    def check(self, out, summary, columns, totals, flags):
        cols = read_csv(out / "steps.csv")
        assert list(cols) == list(columns)
        for name, values in columns.items():
            assert_close(cols[name], values, name)
        assert_totals(summary["totals"], totals)
        assert summary["law_checks"] == flags

    def test_enumerated(self, tmp_path):
        summary = run_cli(tmp_path, "classical", "--steps", str(self.STEPS))
        model = RateModel.thermal(self.ENERGIES, self.BETA)
        report = run_classical_limit(model, steps=self.STEPS, dt=self.DT)
        transition = expm(np.asarray(model.rates) * self.DT)
        joints = transition[None] * report.distributions[:-1, None, :]
        assert np.abs(report.distributions[1:] - joints.sum(axis=2)).max() <= 1e-12
        self.check(tmp_path, summary, *self.expected(model, joints, self.DT))

    def test_sampled(self, tmp_path):
        argv = ("--steps", str(self.STEPS), "--mode", "gillespie", "--traj", "300",
                "--seed", "4")
        summary = run_cli(tmp_path, "classical", *argv)
        model = RateModel.thermal(self.ENERGIES, self.BETA)
        report = run_classical_limit(model, steps=self.STEPS, dt=self.DT, mode="gillespie",
                                     trajectories=300, seed=4)
        joints = report.sample_joints
        assert np.allclose(joints * 300, np.round(joints * 300), rtol=0, atol=1e-9)
        assert (joints.sum(axis=(1, 2)) == pytest.approx(1.0, abs=1e-12))
        self.check(tmp_path, summary, *self.expected(model, joints, self.DT))
