"""Command-line contract: parsing, outputs, determinism, exit codes."""

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
        ("tpm", {"exp_average": 2.0}, "jarzynski_identity_ok"),
        ("classical", {"sigma_record": -np.ones(5)}, "record_production_nonnegative"),
    ])
    def test_noncavity_law_flags(self, tmp_path, scenario, broken, flag):
        params = {"steps": 5} if scenario == "classical" else {}
        config = RunConfig(scenario=scenario, params=params)
        report = dataclasses.replace(_prepare_run(config)(), **broken)
        assert emit_outputs(report, config, str(tmp_path)) is False
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["law_checks"][flag] is False

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
    ])
    def test_invalid_config_file_value_exit_code(self, tmp_path, config):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        code = main(["run", config["scenario"], "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
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
