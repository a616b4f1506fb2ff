import json
import os

import pytest

from growthlab.cli import cli_main


def _write_evolve_config(tmp_path, output: str) -> str:
    """A 3-step evolve run of 6 agents, written to tmp_path/run.json."""
    path = tmp_path / "run.json"
    path.write_text(
        json.dumps(
            {
                "experiment": "evolve",
                "steps": 3,
                "seed": 1,
                "economy": {"alphas": [0.5, 0.5]},
                "evolution": {"population_size": 6, "observation_sample": 2},
                "output": output,
            }
        )
    )
    return str(path)


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScalarCommands:
    def test_equilibrium_prints_growth(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "equilibrium",
            "--sigma", "0.5,0.5",
            "--alpha", "0.5,0.5",
            "--s", "0.1",
            "--delta", "0.03",
            "--prices", "1,1",
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.02, abs=1e-15)

    def test_calibrate_prints_scaling(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "calibrate",
            "--target", "0.0185",
            "--alpha", "0.5,0.5",
            "--delta", "0.03",
            "--prices", "1,1",
        )
        assert code == 0
        assert out.strip() == "0.097"

    def test_equilibrium_special_case(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "equilibrium",
            "--sigma", "0,1",
            "--alpha", "0.5,0.5",
            "--s", "0.1",
            "--delta", "0.03",
        )
        assert code == 0
        assert float(out.strip()) == -0.03


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "nonsense")
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "calibrate", "--bogus", "1")
        assert code == 2

    def test_config_error_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"experiment": "switch", "economy": {"alphas": [0.9, 0.9]}})
        )
        code, _, err = run_cli(capsys, "converge", "--config", str(bad))
        assert code == 2
        assert "economy.alphas" in err or "experiment" in err

    def test_missing_alpha_is_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "converge", "--output", str(tmp_path / "x.csv")
        )
        assert code == 2
        assert "alpha" in err

    def test_equilibrium_prices_must_match_sectors(self, capsys):
        code, out, err = run_cli(
            capsys,
            "equilibrium",
            "--sigma", "0.5,0.5",
            "--alpha", "0.5,0.5",
            "--s", "0.1",
            "--prices", "1,1,5",
        )
        assert code == 2
        assert out == ""
        assert "economy.prices" in err

    def test_bad_steps_flag_over_config_writes_nothing(self, capsys, tmp_path):
        out_path = tmp_path / "pop.csv"
        cfg_path = _write_evolve_config(tmp_path, str(out_path))
        code, _, err = run_cli(
            capsys, "evolve", "--config", cfg_path, "--steps", "-5"
        )
        assert code == 2
        assert "steps" in err
        assert os.listdir(tmp_path) == ["run.json"]

    def test_unknown_config_key_writes_nothing(self, capsys, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "experiment": "switch",
            "economy": {"alphas": [0.5, 0.5]},
            "switch": {"mutaton_sd": 0.5},
            "output": str(tmp_path / "trace.csv"),
        }))
        code, out, err = run_cli(capsys, "converge", "--config", str(cfg_path))
        assert code == 2
        assert out == ""
        assert "switch.mutaton_sd: unknown key" in err
        assert os.listdir(tmp_path) == ["run.json"]

    def test_bad_price_named_before_calibration(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys,
            "converge",
            "--alpha", "0.5,0.5",
            "--prices", "1,0",
            "--output", str(tmp_path / "trace.csv"),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: economy.prices: ")
        assert os.listdir(tmp_path) == []

    def test_bad_price_schedule_row_named(self, capsys, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "experiment": "switch",
            "economy": {"alphas": [0.5, 0.5]},
            "price_schedule": [[1.0, 1.0], [1.0, -2.0]],
            "output": str(tmp_path / "trace.csv"),
        }))
        code, out, err = run_cli(capsys, "converge", "--config", str(cfg_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: price_schedule[1]: ")
        assert os.listdir(tmp_path) == ["run.json"]

    @pytest.mark.parametrize(
        "command, given, path",
        [
            ("converge", "flag", "seed"),
            ("evolve", "flag", "seed"),
            ("landscape", "flag", "seed"),
            ("landscape", "env", "seed"),
            ("converge", "config", "seed"),
            ("evolve", "evolution", "evolution.seed"),
        ],
    )
    def test_negative_seed_rejected(
        self, capsys, tmp_path, monkeypatch, command, given, path
    ):
        experiment = {"converge": "switch"}.get(command, command)
        doc = {
            "experiment": experiment,
            "steps": 3,
            "economy": {"alphas": [0.5, 0.5]},
            "output": str(tmp_path / "out.csv"),
        }
        if given == "config":
            doc["seed"] = -1
        elif given == "evolution":
            doc["evolution"] = {
                "seed": -1, "population_size": 4, "observation_sample": 2
            }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(doc))
        argv = [command, "--config", str(cfg_path)]
        if given == "flag":
            argv += ["--seed", "-1"]
        if given == "env":
            monkeypatch.setenv("GROWTHLAB_SEED", "-1")
        else:
            monkeypatch.delenv("GROWTHLAB_SEED", raising=False)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: must be >= 0, got -1\n"
        assert os.listdir(tmp_path) == ["run.json"]

    def test_calibrate_bad_price_named(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            capsys,
            "calibrate",
            "--alpha", "0.3,0.7",
            "--delta", "0.05",
            "--target", "0.02",
            "--prices", "1,0",
        )
        assert code == 2
        assert out == ""
        assert err == "error: economy.prices: every price must be a positive finite real\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["calibrate", "--delta", "0.03", "--steps-per-year", "0"],
             "steps_per_year: must be a positive real, got 0.0"),
            (["calibrate", "--delta", "0.03", "--steps-per-year", "-2"],
             "steps_per_year: must be a positive real, got -2.0"),
            (["calibrate", "--delta", "0"],
             "economy.deprecation: deprecation must lie in (0, 1]"),
            (["equilibrium", "--sigma", "0.5,0.5", "--delta", "0"],
             "economy.deprecation: deprecation must lie in (0, 1]"),
            (["equilibrium", "--sigma", "0.5,0.5", "--s", "0.1", "--delta", "1.5"],
             "economy.deprecation: deprecation must lie in (0, 1]"),
        ],
        ids=["calibrate-spy-0", "calibrate-spy-neg", "calibrate-delta-0",
             "equilibrium-delta-0", "equilibrium-delta-1.5"],
    )
    def test_bad_economy_value_named(self, capsys, argv, message):
        # calibrate reads its economy as the config loader reads a document
        code, out, err = run_cli(
            capsys, *argv, "--alpha", "0.5,0.5", "--target", "0.02"
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "economy, flags, message",
        [
            ({"alphas": [0.5, 0.5]}, ["--switch-steps", "1,x"],
             "not a comma-separated int list: '1,x'"),
            (3, ["--alpha", "0.5,0.5"], "error: economy: expected dict, got int"),
        ],
        ids=["switch-steps", "economy-not-object"],
    )
    def test_bad_outside_input_writes_nothing(
        self, capsys, tmp_path, economy, flags, message
    ):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "experiment": "switch", "seed": 1, "economy": economy,
            "output": str(tmp_path / "trace.csv"),
        }))
        code, out, err = run_cli(capsys, "converge", "--config", str(cfg_path), *flags)
        assert code == 2
        assert out == ""
        assert message in err
        assert os.listdir(tmp_path) == ["run.json"]

    def test_calibrate_floor_target_is_config_error_free(self, capsys):
        # boundary rejection surfaces as a domain error -> runtime exit 1
        code, _, err = run_cli(
            capsys,
            "calibrate",
            "--target", "-0.03",
            "--alpha", "0.5,0.5",
            "--delta", "0.03",
        )
        assert code == 1
        assert "target" in err


class TestConvergeCommand:
    def test_writes_trace_with_row_count(self, capsys, tmp_path):
        out_path = str(tmp_path / "trace.csv")
        code, out, _ = run_cli(
            capsys,
            "converge",
            "--alpha", "0.5,0.5",
            "--delta", "0.03",
            "--prices", "1,1",
            "--target", "0.0185",
            "--steps", "500",
            "--seed", "42",
            "--output", out_path,
        )
        assert code == 0
        lines = open(out_path).read().splitlines()
        assert len(lines) == 501
        assert lines[0].startswith("step,agent_id,income,log_income,growth")

    def test_single_step_with_drawn_switches(self, capsys, tmp_path):
        # the drawn switch window never reaches past the last step
        out_path = tmp_path / "trace.csv"
        code, _, err = run_cli(
            capsys, "converge", "--alpha", "0.5,0.5", "--steps", "1",
            "--output", str(out_path),
        )
        assert (code, err) == (0, "")
        lines = out_path.read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("1,0,")

    def test_config_file_plus_flag_override(self, capsys, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "experiment": "switch",
                    "steps": 60,
                    "seed": 1,
                    "economy": {"alphas": [0.5, 0.5]},
                    "output": str(tmp_path / "a.csv"),
                }
            )
        )
        out_path = str(tmp_path / "b.csv")
        code, _, _ = run_cli(
            capsys, "converge", "--config", str(cfg_path), "--output", out_path
        )
        assert code == 0
        assert os.path.exists(out_path)

    def test_seed_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        out_c = str(tmp_path / "c.csv")
        args = ["converge", "--alpha", "0.5,0.5", "--steps", "80"]
        monkeypatch.setenv("GROWTHLAB_SEED", "7")
        assert cli_main(args + ["--output", out_a]) == 0
        monkeypatch.setenv("GROWTHLAB_SEED", "99")
        assert cli_main(args + ["--seed", "7", "--output", out_b]) == 0
        assert cli_main(args + ["--output", out_c]) == 0
        capsys.readouterr()
        a, b, c = (open(p, "rb").read() for p in (out_a, out_b, out_c))
        assert a == b  # flag seed 7 == env seed 7
        assert a != c  # env seed 99 diverges

    def test_env_seed_leaves_config_seed_alone(self, capsys, tmp_path, monkeypatch):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "experiment": "switch",
            "steps": 40,
            "seed": 1,
            "economy": {"alphas": [0.5, 0.5]},
            "output": str(tmp_path / "a.csv"),
        }))
        monkeypatch.setenv("GROWTHLAB_SEED", "5")
        assert cli_main(["converge", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        dumped = json.loads((tmp_path / "a.config.json").read_text())
        assert dumped["seed"] == 1
        # the effective config re-runs to the same bytes under the variable
        rerun = str(tmp_path / "b.csv")
        effective = str(tmp_path / "a.config.json")
        assert cli_main(["converge", "--config", effective, "--output", rerun]) == 0
        capsys.readouterr()
        assert open(rerun, "rb").read() == (tmp_path / "a.csv").read_bytes()

    def test_env_seed_must_be_integer(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("GROWTHLAB_SEED", "abc")
        code, out, err = run_cli(
            capsys,
            "converge",
            "--alpha", "0.5,0.5",
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert out == ""
        assert err == "error: GROWTHLAB_SEED must be an integer, got 'abc'\n"
        assert os.listdir(tmp_path) == []


class TestEvolveCommand:
    def test_runs_and_writes(self, capsys, tmp_path):
        out_path = str(tmp_path / "pop.csv")
        code, _, _ = run_cli(
            capsys,
            "evolve",
            "--alpha", "0.5,0.5",
            "--steps", "15",
            "--population", "6",
            "--sample", "2",
            "--seed", "3",
            "--output", out_path,
        )
        assert code == 0
        lines = open(out_path).read().splitlines()
        assert len(lines) == 1 + 16 * 6


    def test_population_flag_overrides_config(self, capsys, tmp_path):
        out_path = str(tmp_path / "pop.csv")
        cfg_path = _write_evolve_config(tmp_path, out_path)
        code, _, _ = run_cli(capsys, "evolve", "--config", cfg_path, "--population", "9")
        assert code == 0
        lines = open(out_path).read().splitlines()
        assert len(lines) == 1 + 4 * 9


class TestConfigOverlay:
    def test_economy_flags_override_config(self, capsys, tmp_path):
        out_path = str(tmp_path / "trace.csv")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "experiment": "switch",
                    "steps": 30,
                    "seed": 1,
                    "economy": {"alphas": [0.3, 0.7], "scaling": 0.1},
                    "output": out_path,
                }
            )
        )
        code, _, _ = run_cli(
            capsys,
            "converge",
            "--config", str(cfg_path),
            "--alpha", "0.5,0.5",
            "--target", "0.05",
        )
        assert code == 0
        effective = json.loads((tmp_path / "trace.config.json").read_text())
        assert effective["economy"]["alphas"] == [0.5, 0.5]
        assert effective["target_growth"] == 0.05
        assert "scaling" not in effective["economy"]


class TestLandscapeCommand:
    def test_runs_and_writes(self, capsys, tmp_path):
        out_path = str(tmp_path / "land.csv")
        code, _, _ = run_cli(
            capsys,
            "landscape",
            "--alpha", "0.25,0.25,0.5",
            "--samples", "12",
            "--seed", "2",
            "--output", out_path,
        )
        assert code == 0
        lines = open(out_path).read().splitlines()
        assert lines[0] == "sigma_0,sigma_1,sigma_2,response,equilibrium_growth"
        assert len(lines) == 13
