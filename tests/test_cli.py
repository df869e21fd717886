"""Command-line contract: parsing, outputs, determinism, exit codes."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from oqst import cli
from oqst.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    CliError,
    RunConfig,
    _prepare_run,
    emit_outputs,
    main,
    parse_config,
)
from oqst.scenarios import CavityConfig, run_cavity


class TestParsing:
    def test_cavity_flags(self):
        cfg = parse_config([
            "run", "cavity", "--steps", "50", "--traj", "10", "--seed", "42",
            "--out", "/tmp/x", "--workers", "2",
        ])
        assert cfg.scenario == "cavity"
        assert cfg.params["steps"] == 50
        assert cfg.params["traj"] == 10
        assert cfg.seed == 42
        assert cfg.out_dir == "/tmp/x"
        assert cfg.workers == 2

    def test_defaults_applied(self):
        cfg = parse_config(["run", "cavity"])
        assert cfg.params["target"] == 2
        assert cfg.params["delay"] == 5
        assert cfg.params["cutoff"] == 8
        assert cfg.seed == 0

    def test_verify_command(self):
        cfg = parse_config(["verify", "--seed", "7"])
        assert cfg.scenario == "verify"
        assert cfg.seed == 7

    def test_unknown_scenario_rejected(self):
        with pytest.raises(CliError):
            parse_config(["run", "warpdrive"])

    def test_unknown_param_key_rejected(self):
        with pytest.raises(CliError):
            RunConfig(scenario="tpm", params={"gamma": 1.0})

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(CliError):
            RunConfig(scenario="tpm", params={"beta": -1.0})

    def test_config_file_with_flag_override(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "scenario": "cavity", "seed": 5,
            "params": {"steps": 30, "traj": 4},
        }))
        cfg = parse_config(["run", "cavity", "--config", str(path), "--seed", "9"])
        assert cfg.seed == 9           # flag wins
        assert cfg.params["steps"] == 30

    def test_config_file_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"scenario": "tpm", "bogus": 1}))
        with pytest.raises(CliError):
            parse_config(["run", "tpm", "--config", str(path)])

    def test_round_trip(self, tmp_path):
        cfg = parse_config(["run", "classical", "--dt", "0.01", "--seed", "3"])
        path = tmp_path / "echo.json"
        path.write_text(json.dumps(cfg.to_json()))
        again = parse_config(["run", "classical", "--config", str(path)])
        assert again == cfg

    def test_env_workers_default(self, monkeypatch):
        monkeypatch.setenv("OQST_WORKERS", "3")
        cfg = parse_config(["run", "tpm"])
        assert cfg.workers == 3

    def test_workers_precedence_flag_file_env(self, monkeypatch, tmp_path):
        # the environment is read only when neither the flag nor the file gives a count
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"scenario": "cavity", "workers": 2}))
        monkeypatch.setenv("OQST_WORKERS", "abc")
        assert parse_config(["run", "cavity", "--config", str(path)]).workers == 2
        assert parse_config(["run", "cavity", "--config", str(path), "--workers", "3"]).workers == 3
        monkeypatch.setenv("OQST_WORKERS", "4")
        assert parse_config(["run", "cavity", "--config", str(path)]).workers == 2
        path.write_text(json.dumps({"scenario": "cavity"}))
        assert parse_config(["run", "cavity", "--config", str(path)]).workers == 4
        monkeypatch.setenv("OQST_WORKERS", "abc")
        with pytest.raises(CliError, match="OQST_WORKERS"):
            parse_config(["run", "cavity", "--config", str(path)])

    def test_env_not_read_when_the_file_sets_workers(self, monkeypatch, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"scenario": "cavity", "workers": 2,
                                    "params": {"steps": 3, "traj": 2}}))
        monkeypatch.setenv("OQST_WORKERS", "abc")
        assert main(["run", "cavity", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == EXIT_OK

    @pytest.mark.parametrize("env", ["0", "-3"])
    def test_env_workers_below_one_exit_code(self, monkeypatch, tmp_path, env):
        # the same count rule as --workers and a config file's "workers"
        monkeypatch.setenv("OQST_WORKERS", env)
        assert main(["run", "tpm", "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()


class TestExecution:
    def test_tpm_outputs(self, tmp_path):
        code = main(["run", "tpm", "--beta", "1.0", "--out", str(tmp_path)])
        assert code == EXIT_OK
        leaves = (tmp_path / "leaves.csv").read_text().splitlines()
        assert leaves[0].startswith("r0,r1,probability")
        assert len(leaves) == 5  # header + four leaves
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["law_checks"]["jarzynski_identity_ok"] is True
        assert summary["totals"]["z_ratio"] == pytest.approx(1.36843304644, abs=1e-9)

    def test_tpm_cold(self, tmp_path):
        # at beta 800, exp(-beta eps) of h1's ground level is beyond the float range unshifted
        assert main(["run", "tpm", "--beta", "800", "--out", str(tmp_path)]) == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert all(np.isfinite(value) for value in summary["totals"].values())
        assert summary["law_checks"]["jarzynski_identity_ok"] is True
        # Z1/Z0 = cosh(800) / cosh(400)
        assert summary["totals"]["z_ratio"] == pytest.approx(np.exp(400.0), rel=1e-9)

    def test_tpm_beyond_the_float_range(self, tmp_path):
        # at beta 2000, Z1/Z0 = cosh(2000) / cosh(1000) ~ e^1000 is beyond the float range;
        # the identity is checked before that factor, so it holds, and the two totals that
        # carry the factor are written as null, with no RuntimeWarning on the way
        assert main(["run", "tpm", "--beta", "2000", "--out", str(tmp_path)]) == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["law_checks"]["jarzynski_identity_ok"] is True
        assert np.isfinite(summary["totals"]["identity_residual"])
        assert summary["totals"]["exp_average"] is None and summary["totals"]["z_ratio"] is None

    def test_cavity_outputs_row_counts(self, tmp_path):
        code = main([
            "run", "cavity", "--steps", "25", "--traj", "3",
            "--seed", "42", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        traj = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(traj) == 26  # header + steps
        ens = (tmp_path / "ensemble.csv").read_text().splitlines()
        assert len(ens) == 26
        assert ens[0] == "step,p0,p1,p2,p3,Sigma_ctrl_avg,Sigma_ctrl_se,Sigma_seg_avg,efficiency"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["law_checks"]["first_law_ok"] is True

    def test_dense_cavity_outputs(self, tmp_path):
        # the dense path records density matrices, not population vectors
        code = main(["run", "cavity", "--dense", "--steps", "10", "--traj", "2",
                     "--seed", "4", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert len((tmp_path / "trajectory.csv").read_text().splitlines()) == 11

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = main([
                "run", "cavity", "--steps", "20", "--traj", "4",
                "--seed", "7", "--out", str(out),
            ])
            assert code == EXIT_OK
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
        assert (a / "ensemble.csv").read_bytes() == (b / "ensemble.csv").read_bytes()

    def test_byte_identical_across_worker_counts(self, tmp_path):
        a, b = tmp_path / "w1", tmp_path / "w3"
        main(["run", "cavity", "--steps", "20", "--traj", "6", "--seed", "3",
              "--out", str(a), "--workers", "1"])
        main(["run", "cavity", "--steps", "20", "--traj", "6", "--seed", "3",
              "--out", str(b), "--workers", "3"])
        assert (a / "ensemble.csv").read_bytes() == (b / "ensemble.csv").read_bytes()
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
        # three blocks of 256 trajectories, spread over one, two and three processes
        outs = [tmp_path / f"blocks-w{w}" for w in (1, 2, 3)]
        for w, out in zip((1, 2, 3), outs):
            assert main(["run", "cavity", "--steps", "20", "--traj", "600", "--seed", "3",
                         "--out", str(out), "--workers", str(w)]) == EXIT_OK
        summaries = []
        for out in outs:
            for name in ("ensemble.csv", "trajectory.csv"):
                assert (out / name).read_bytes() == (outs[0] / name).read_bytes()
            summary = json.loads((out / "summary.json").read_text())
            del summary["config"]["out"], summary["config"]["workers"]
            summaries.append(summary)
        assert summaries[1] == summaries[0] and summaries[2] == summaries[0]

    def test_cavity_run_keeps_one_record(self, tmp_path, monkeypatch):
        reports = []

        def run_and_keep(*args, **kwargs):
            reports.append(run_cavity(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "run_cavity", run_and_keep)
        assert main(["run", "cavity", "--steps", "20", "--traj", "600", "--seed", "3",
                     "--out", str(tmp_path)]) == EXIT_OK
        (report,) = reports
        assert report.stats.n_records == 600
        assert len(report.records) == 1

    def test_classical_outputs(self, tmp_path):
        code = main(["run", "classical", "--dt", "0.02", "--steps", "5",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        steps = (tmp_path / "steps.csv").read_text().splitlines()
        assert len(steps) == 6
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["law_checks"]["difference_identity_ok"] is True

    def test_projective_outputs(self, tmp_path):
        code = main(["run", "projective", "--out", str(tmp_path)])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["law_checks"]["avg_heat_zero"] is True

    def test_parse_error_exit_code(self):
        assert main(["run", "nonsense"]) == EXIT_CONFIG
        assert main([]) == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [["--help"], ["run", "cavity", "--help"], ["verify", "-h"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        out, err = capsys.readouterr()
        assert info.value.code == 0
        assert "usage:" in out
        assert "error" not in err

    @pytest.mark.parametrize("argv", [["run", "cavity", "--steps", "many"], ["--bogus"],
                                      ["verify", "--workers", "2"]])
    def test_invalid_arguments_exit_code(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG
        assert "error: invalid arguments" in capsys.readouterr().err

    def test_invalid_cavity_config_exit_code(self, tmp_path):
        code = main(["run", "cavity", "--target", "6", "--cutoff", "8",
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_classical_step_too_long_exit_code(self, tmp_path):
        # dt times the largest rate of the thermal model exceeds the step-rate limit
        code = main(["run", "classical", "--mode", "gillespie", "--dt", "0.05", "--beta", "0.7",
                     "--steps", "20", "--traj", "300", "--seed", "11",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_mistyped_config_param_exit_code(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"scenario": "cavity", "params": {"steps": "ten"}}))
        code = main(["run", "cavity", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("check, value, flag, fails_run", [
        ("truncation_max", 1e-5, "truncation_ok", True),
        ("efficiency_max", 1.05, "efficiency_bounded", False),
    ])
    def test_cavity_law_flags(self, tmp_path, check, value, flag, fails_run):
        report = run_cavity(CavityConfig(steps=10, trajectories=3, seed=2))
        report = dataclasses.replace(report, law_checks={**report.law_checks, check: value})
        ok = emit_outputs(report, RunConfig(scenario="cavity"), str(tmp_path))
        assert ok is not fails_run
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["law_checks"][flag] is False
        assert summary["law_checks"]["first_law_ok"] is True

    @pytest.mark.parametrize("scenario, broken, flag", [
        ("projective", {"avg_heat": 1e-6}, "avg_heat_zero"),
        ("tpm", {"identity_residual": 1.0}, "jarzynski_identity_ok"),
        ("classical", {"sigma_record": -np.ones(5)}, "record_production_nonnegative"),
    ])
    def test_noncavity_law_flags(self, tmp_path, scenario, broken, flag):
        params = {"steps": 5} if scenario == "classical" else {}
        config = RunConfig(scenario=scenario, params=params)
        report = dataclasses.replace(_prepare_run(config)(), **broken)
        assert emit_outputs(report, config, str(tmp_path)) is False
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["law_checks"][flag] is False

    def test_non_finite_numbers_are_written_as_null(self, tmp_path):
        def refuse(name):
            raise ValueError(f"summary.json holds {name}, which strict JSON has no word for")

        config = RunConfig(scenario="tpm")
        report = dataclasses.replace(_prepare_run(config)(), z1=np.inf, exp_average=np.nan,
                                     identity_residual=np.nan)
        assert emit_outputs(report, config, str(tmp_path)) is False
        summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=refuse)
        assert summary["totals"] == {"exp_average": None, "z_ratio": None,
                                     "identity_residual": None}
        assert summary["law_checks"]["jarzynski_identity_ok"] is False

    @pytest.mark.parametrize("scenario, params, workers", [
        ("cavity", {"steps": 5, "traj": 2.5}, 1),
        ("classical", {"steps": 2.5}, 1),
        ("cavity", {"steps": 5, "traj": True}, 1),
        ("cavity", {"steps": 5, "traj": 2}, 2.7),
    ])
    def test_non_integer_count_exit_code(self, tmp_path, scenario, params, workers):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"scenario": scenario, "params": params, "workers": workers}))
        code = main(["run", scenario, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config", [
        {"scenario": "tpm", "seed": 2.5},
        {"scenario": "tpm", "seed": True},
        {"scenario": "tpm", "seed": "x"},
        {"scenario": "tpm", "params": [1]},
        {"scenario": "classical", "params": {"steps": 5, "mode": "foo"}},
        {"scenario": "tpm", "seed": -1},
        {"scenario": "tpm", "seed": 2**64},
        {"scenario": "projective", "params": {"omega": float("nan")}},
        {"scenario": "tpm", "params": {"beta": float("inf")}},
        {"scenario": "tpm", "params": {"beta": float("nan")}},
        {"scenario": "tpm", "params": {"beta": 10**400}},
        {"scenario": "classical", "params": {"steps": 5, "beta": float("nan")}},
        {"scenario": "classical", "params": {"steps": 5, "energies": [float("nan"), 1.0]}},
    ])
    def test_invalid_config_file_value_exit_code(self, tmp_path, config):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        code = main(["run", config["scenario"], "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [
        ["projective", "--omega", "nan"],
        ["tpm", "--beta", "inf"],
        ["classical", "--beta", "nan"],
        ["cavity", "--steps", "5", "--traj", "3", "--seed", str(2**64)],
        ["cavity", "--steps", "5", "--traj", "3", "--seed", "-1"],
    ])
    def test_invalid_flag_value_exit_code(self, tmp_path, flags):
        assert main(["run", *flags, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_io_failure_exit_code(self, tmp_path):
        # creating the output directory under a regular file cannot work
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["run", "tpm", "--out", str(blocker / "sub")])
        assert code == EXIT_IO

    def test_verify_failure_exit_code(self, tmp_path, monkeypatch):
        import oqst.verify as verify_mod
        from oqst.verify import CheckResult

        monkeypatch.setattr(
            verify_mod, "run_all",
            lambda seed=0: [CheckResult("stub", False, "forced failure")],
        )
        code = main(["verify", "--out", str(tmp_path)])
        assert code == EXIT_INVARIANT

    def test_verify_runs_in_one_process(self, tmp_path, monkeypatch):
        # verify reads no worker count and echoes none
        import oqst.verify as verify_mod
        from oqst.verify import CheckResult

        monkeypatch.setenv("OQST_WORKERS", "abc")
        monkeypatch.setattr(verify_mod, "run_all", lambda seed=0: [CheckResult("stub", True, "ok")])
        assert main(["verify", "--out", str(tmp_path)]) == EXIT_OK
        config = json.loads((tmp_path / "summary.json").read_text())["config"]
        assert "workers" not in config

    def test_verify_reports_a_raising_check(self, tmp_path, monkeypatch, capsys):
        import oqst.verify as verify_mod
        from oqst.thermo import ThermoError
        from oqst.verify import CheckResult

        def check_raises(seed):
            raise ThermoError("trajectory 2: broken law on step 5")

        monkeypatch.setattr(verify_mod, "ALL_CHECKS", (
            check_raises, lambda seed: CheckResult("stub", True, "ok"),
        ))
        code = main(["verify", "--out", str(tmp_path)])
        assert code == EXIT_INVARIANT
        assert len(capsys.readouterr().out.splitlines()) == 2
        checks = json.loads((tmp_path / "summary.json").read_text())["checks"]
        assert checks["check_raises"] == {
            "passed": False, "detail": "ThermoError: trajectory 2: broken law on step 5",
        }
        assert checks["stub"]["passed"] is True

    def test_verify_success_exit_code(self, tmp_path, monkeypatch):
        import oqst.verify as verify_mod
        from oqst.verify import CheckResult

        monkeypatch.setattr(
            verify_mod, "run_all",
            lambda seed=0: [CheckResult("stub", True, "ok")],
        )
        code = main(["verify", "--out", str(tmp_path)])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["all_passed"] is True


class TestCavityOutputOracle:
    """Every emitted cavity number, recomputed from the run's records by another route.

    260 trajectories make two reduction leaves (256 + 4), so the leaf merge
    is on the path; the CLI reduces with ``keep_records=False`` while the
    records come from a ``keep_records=True`` run of the same config.
    """

    STEPS, TRAJ, SEED, TARGET = 5, 260, 3, 2
    PREP_WORK = {"sensor": 0.5, "emitter": 1.0, "absorber": 0.0}

    @pytest.fixture(scope="class")
    def emitted(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("oracle")
        code = main(["run", "cavity", "--steps", str(self.STEPS), "--traj", str(self.TRAJ),
                     "--seed", str(self.SEED), "--out", str(out)])
        assert code == EXIT_OK
        report = run_cavity(CavityConfig(steps=self.STEPS, trajectories=self.TRAJ,
                                         seed=self.SEED, target_nt=self.TARGET))
        assert len(report.records) == self.TRAJ
        return out, report

    @staticmethod
    def read_csv(path) -> dict:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        return {col: [row[col] for row in rows] for col in rows[0]}

    @staticmethod
    def assert_close(emitted_values, expected, what):
        # the files carry 12 significant digits; allow that rounding plus 1e-12
        for i, (cell, x) in enumerate(zip(emitted_values, np.asarray(expected, dtype=float))):
            assert abs(float(cell) - x) <= 1e-12 + 6e-12 * abs(x), (what, i, cell, x)

    @staticmethod
    def populations(rec) -> np.ndarray:
        states = np.asarray(rec.states)
        return states.real if states.ndim == 2 else np.einsum("kii->ki", states).real

    def test_trajectory_csv(self, emitted):
        out, report = emitted
        rec = report.records[0]
        cols = self.read_csv(out / "trajectory.csv")
        assert cols["atom_kind"] == list(rec.kinds)
        assert [int(x) for x in cols["outcome"]] == list(rec.outcomes)
        assert [int(x) for x in cols["step"]] == list(range(1, self.STEPS + 1))
        self.assert_close(cols["time"], report.times, "time")
        n = np.arange(report.config.dim, dtype=float)
        pops = self.populations(rec)
        mean_n = np.array([sum(n[i] * p[i] for i in range(len(n))) for p in pops])
        var_n = np.array([sum((n[i] - m) ** 2 * p[i] for i in range(len(n)))
                          for p, m in zip(pops, mean_n)])
        self.assert_close(cols["mean_n"], mean_n, "mean_n")
        self.assert_close(cols["var_n"], var_n, "var_n")
        ledger = rec.ledgers
        for col, field in {"W_ctrl": "w_ctrl_sys", "Q_ctrl": "q_ctrl_sys", "W_seg": "w_seg",
                           "Q_seg": "q_seg", "Sigma_ctrl": "sigma_ctrl",
                           "Sigma_seg": "sigma_seg", "logp_increment": "logp_increment"}.items():
            self.assert_close(cols[col], ledger[field], col)

    def test_ensemble_csv(self, emitted):
        out, report = emitted
        cols = self.read_csv(out / "ensemble.csv")
        batch = np.stack([rec.ledgers for rec in report.records])
        pops = np.stack([self.populations(rec) for rec in report.records])
        for k in range(4):
            self.assert_close(cols[f"p{k}"], pops[:, :, k].mean(axis=0), f"p{k}")
        sigma_ctrl = batch["sigma_ctrl"]
        self.assert_close(cols["Sigma_ctrl_avg"], sigma_ctrl.mean(axis=0), "Sigma_ctrl_avg")
        self.assert_close(cols["Sigma_ctrl_se"],
                          sigma_ctrl.std(axis=0, ddof=1) / np.sqrt(self.TRAJ), "Sigma_ctrl_se")
        self.assert_close(cols["Sigma_seg_avg"], batch["sigma_seg"].mean(axis=0), "Sigma_seg_avg")
        # efficiency: free-energy gain over work plus information spent
        beta, n = report.beta, np.arange(report.config.dim, dtype=float)
        p_gibbs = np.exp(-beta * n) / np.exp(-beta * n).sum()
        f_gibbs = p_gibbs @ n + (p_gibbs @ np.log(p_gibbs)) / beta
        info = np.cumsum(batch["logp_increment"], axis=1)
        shannon = batch["s_end"] - info  # stochastic entropy less the record's surprisal
        f_avg = (batch["e_sys_end"] - shannon / beta).mean(axis=0)
        spent = (np.cumsum(batch["w_ctrl_sys"], axis=1) + info / beta).mean(axis=0)
        expected = np.where(spent > 1e-12, (f_avg - f_gibbs) / np.where(spent > 1e-12, spent, 1.0),
                            0.0)
        self.assert_close(cols["efficiency"], expected, "efficiency")

    def test_summary_totals_and_margins(self, emitted):
        out, report = emitted
        summary = json.loads((out / "summary.json").read_text())
        totals, checks = summary["totals"], summary["law_checks"]
        batch = np.stack([rec.ledgers for rec in report.records])
        pops = np.stack([self.populations(rec) for rec in report.records])
        kinds = [kind for rec in report.records for kind in rec.kinds]
        expected = {
            "work_cavity_total": batch["w_ctrl_sys"].mean(axis=0).sum(),
            "information_total_nats": batch["logp_increment"].mean(axis=0).sum(),
            "atom_prep_work_total": sum(self.PREP_WORK[k] for k in kinds) / self.TRAJ,
            "p_target_final": pops[:, -1, self.TARGET].mean(),
            "sensor_fraction": kinds.count("sensor") / (self.TRAJ * self.STEPS),
        }
        assert set(totals) == set(expected)
        for key, value in expected.items():
            self.assert_close([totals[key]], [value], key)
        de = batch["e_sys_end"] - batch["e_sys_start"] + batch["de_unit"]
        work = batch["w_seg"] + batch["w_ctrl_sys"] + batch["w_ctrl_unit"]
        heat = batch["q_seg"] + batch["q_ctrl_sys"] + batch["q_ctrl_unit"]
        self.assert_close([checks["first_law_max_residual"]], [np.abs(de - work - heat).max()],
                          "first_law_max_residual")
        self.assert_close([checks["sigma_seg_min"]], [batch["sigma_seg"].min()], "sigma_seg_min")
        self.assert_close([checks["truncation_max"]], [pops[:, :, -1].max()], "truncation_max")
