import argparse
import csv
import json
import os
import warnings

import pytest

from growthlab.cli import _build_parser, _overlay, cli_main


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

    def test_config_of_another_experiment_is_exit_2(self, capsys, tmp_path):
        other = tmp_path / "evolve.json"
        other.write_text(json.dumps({"experiment": "evolve", "economy": {"alphas": [0.5, 0.5]}}))
        code, out, err = run_cli(capsys, "converge", "--config", str(other))
        assert (code, out) == (2, "")
        assert err == "error: config is for experiment 'evolve', subcommand needs 'switch'\n"
        assert os.listdir(tmp_path) == ["evolve.json"]

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

    @pytest.mark.parametrize("flags", [
        ["--target", "0.0185", "--prices", "1.7e308,1.7e308"],
        ["--target", "1e308"],
    ], ids=["prices", "target"])
    def test_calibrated_scaling_past_float_range_named(self, capsys, flags):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "calibrate", "--alpha", "0.5,0.5", "--delta", "0.03", *flags)
        assert code == 2
        assert out == ""
        assert err == "error: target_growth: scaling must be positive and finite\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["calibrate", "--delta", "0.03", "--steps-per-year", "0"],
             "steps_per_year: must be a positive real, got 0.0"),
            (["calibrate", "--delta", "0.03", "--steps-per-year", "-2"],
             "steps_per_year: must be a positive real, got -2.0"),
            # 1.02 ** 1e300 overflows; 1 / 1e-310 is inf, and 1.02 ** inf too
            (["calibrate", "--delta", "0.03", "--steps-per-year", "1e-300"],
             "target_growth: the per-step rate of 0.02 at 1e-300 steps per year "
             "is past float range"),
            (["calibrate", "--delta", "0.03", "--steps-per-year", "1e-310"],
             "target_growth: the per-step rate of 0.02 at 1e-310 steps per year "
             "is past float range"),
            (["calibrate", "--delta", "0"],
             "economy.deprecation: deprecation must lie in (0, 1]"),
            (["equilibrium", "--sigma", "0.5,0.5", "--delta", "0"],
             "economy.deprecation: deprecation must lie in (0, 1]"),
            (["equilibrium", "--sigma", "0.5,0.5", "--s", "0.1", "--delta", "1.5"],
             "economy.deprecation: deprecation must lie in (0, 1]"),
        ],
        ids=["calibrate-spy-0", "calibrate-spy-neg", "calibrate-spy-overflow",
             "calibrate-spy-inf-exponent", "calibrate-delta-0",
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
            ({"alphas": [0.5, 0.5]}, ["--mutation-sd", "nan"],
             "error: switch.mutation_sd: must be finite and >= 0\n"),
            ({"alphas": [0.5, 0.5]}, ["--alpha", "0.5,x"],
             "not a comma-separated float list: '0.5,x'"),
        ],
        ids=["switch-steps", "economy-not-object", "mutation-sd-nan", "alpha-not-float"],
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
        # a target at the floor is bad input at its key, as in every command
        code, out, err = run_cli(
            capsys,
            "calibrate",
            "--target", "-0.03",
            "--alpha", "0.5,0.5",
            "--delta", "0.03",
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: target_growth: target growth must exceed -deprecation "
            "(-0.03); got -0.03\n"
        )

    def test_target_at_or_below_minus_100_percent(self, capsys, tmp_path):
        # a per-year rate of -100% or less has no per-step rate
        code, out, err = run_cli(
            capsys, "calibrate", "--target", "-1.5", "--alpha", "0.5,0.5",
            "--delta", "0.03", "--steps-per-year", "12",
        )
        assert (code, out) == (2, "")
        assert err == "error: target_growth: growth rate must exceed -1 (-100%), got -1.5\n"
        cfg_path = tmp_path / "run.json"
        for experiment, command in [("switch", "converge"), ("evolve", "evolve"),
                                    ("landscape", "landscape")]:
            cfg_path.write_text(json.dumps({
                "experiment": experiment, "economy": {"alphas": [0.5, 0.5]},
                "target_growth": -2.0, "steps_per_year": 12,
                "output": str(tmp_path / "out.csv"),
            }))
            code, out, err = run_cli(capsys, command, "--config", str(cfg_path))
            assert (code, out) == (2, "")
            assert err.startswith("error: target_growth: growth rate must exceed -1")
            assert os.listdir(tmp_path) == ["run.json"]

    def test_per_step_rate_past_float_range_in_a_document(self, capsys, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "experiment": "landscape", "economy": {"alphas": [0.5, 0.5]},
            "steps_per_year": 1e-300, "output": str(tmp_path / "out.csv"),
        }))
        code, out, err = run_cli(capsys, "landscape", "--config", str(cfg_path))
        assert (code, out) == (2, "")
        assert err == (
            "error: steps_per_year: the per-step rate of 0.0185 at 1e-300 steps "
            "per year is past float range\n"
        )
        assert os.listdir(tmp_path) == ["run.json"]

    @pytest.mark.parametrize("argv, message", [
        (["landscape", "--alpha", "0.5,0.4"],
         "economy.alphas: production coefficients must sum to 1 within 1e-12 (got 0.9)"),
        (["converge", "--alpha", "0.5,0.5", "--initial-sigma", "0.5,0.6"],
         "switch.initial_sigma: strategy weights must sum to 1 within 1e-12 (got 1.1)"),
        (["equilibrium", "--alpha", "0.5,0.5", "--sigma", "0.5,0.6"],
         "sigma: strategy weights must sum to 1 within 1e-12 (got 1.1)"),
        (["equilibrium", "--alpha", "0.5,0.5", "--sigma", "nan,1"],
         "sigma: strategy weights must be finite"),
        (["equilibrium", "--alpha", "0.5,0.5", "--sigma", "0.2,0.3,0.5"],
         "sigma: sector counts differ: strategy 3, params 2, coefficients 2"),
    ], ids=["alphas", "initial-sigma", "sigma-sum", "sigma-nan", "sigma-sectors"])
    def test_strategy_off_the_simplex_named(self, argv, message, capsys, tmp_path,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"
        assert os.listdir(tmp_path) == []

    def test_start_without_a_fixed_point_named(self, capsys, tmp_path, monkeypatch):
        # sector 1 is productive but receives nothing: response 0, no fixed point
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "converge", "--alpha", "0.5,0.5",
                                 "--initial-sigma", "1,0", "--steps", "20")
        assert (code, out) == (2, "")
        assert err == ("error: switch.initial_sigma: equilibrium growth is -deprecation "
                       "while some sector still receives investment; its capital/income "
                       "ratio diverges\n")
        assert os.listdir(tmp_path) == []

    def test_output_under_a_regular_file_writes_nothing(self, capsys, tmp_path):
        (tmp_path / "file").write_text("")
        code, out, err = run_cli(capsys, "landscape", "--alpha", "0.5,0.5", "--samples",
                                 "3", "--output", str(tmp_path / "file" / "out.csv"))
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert os.listdir(tmp_path) == ["file"]
        assert (tmp_path / "file").read_text() == ""

    def test_unwritable_extra_file_writes_nothing(self, capsys, tmp_path, monkeypatch):
        # the output opens, the config beside it cannot: the output is removed
        monkeypatch.chdir(tmp_path)
        (tmp_path / "x.config.json").mkdir()
        code, out, err = run_cli(capsys, "landscape", "--alpha", "0.5,0.5",
                                 "--samples", "3", "--output", "x.csv")
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert os.listdir(tmp_path) == ["x.config.json"]

    @pytest.mark.parametrize("output, in_document", [
        ("", False), (".", False), ("..", False), ("new/deeper/", False), ("", True),
    ], ids=["empty", "dot", "dot-dot", "directory", "empty-in-document"])
    def test_output_naming_no_file_writes_nothing(self, output, in_document, capsys,
                                                   tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["landscape", "--alpha", "0.5,0.5", "--samples", "3"]
        if in_document:
            (tmp_path / "run.json").write_text(json.dumps({
                "experiment": "landscape", "economy": {"alphas": [0.5, 0.5]},
                "output": output}))
            argv += ["--config", "run.json"]
        else:
            argv += ["--output", output]
        before = os.listdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: output: must name a file, got {output!r}\n"
        assert os.listdir(tmp_path) == before

    @pytest.mark.parametrize("key, value", [
        ("initial_sigma", [0.2, 0.3, 0.5]),
        ("switch_sigmas", [[0.2, 0.3, 0.5]]),
    ], ids=["initial-sigma", "switch-sigmas"])
    def test_switch_strategy_sector_count_named(self, key, value, capsys, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "experiment": "switch",
            "economy": {"alphas": [0.5, 0.5]},
            "switch": {"switch_steps": [5], key: value},
            "output": str(tmp_path / "trace.csv"),
        }))
        code, out, err = run_cli(capsys, "converge", "--config", str(cfg_path))
        assert (code, out) == (2, "")
        path = "switch.initial_sigma" if key == "initial_sigma" else "switch.switch_sigmas[0]"
        assert err == (f"error: {path}: sector counts differ: "
                       "strategy 3, params 2, coefficients 2\n")
        assert os.listdir(tmp_path) == ["run.json"]

    def test_equilibrium_ratio_past_float_range(self, capsys, tmp_path):
        # g* + delta below ~1e-308: the ratio overflows, a runtime error
        out_csv = tmp_path / "trace.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "converge", "--alpha", "0.5,0.5", "--delta", "1e-310",
                "--target", "0", "--steps", "3", "--output", str(out_csv),
            )
        assert caught == []
        assert (code, out) == (1, "")
        assert err.startswith(
            "error: the equilibrium capital/income ratio is past float range: "
            "g* + deprecation is "
        )
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [
        ["equilibrium", "--sigma", "0.5,0.5"],
        ["converge", "--svg", "--steps", "5", "--output", "c.csv"],
        ["evolve", "--svg", "--steps", "5", "--population", "8", "--output", "e.csv"],
        ["landscape", "--samples", "10", "--output", "l.csv"],
    ], ids=lambda argv: argv[0])
    def test_growth_past_float_range(self, argv, capsys, tmp_path, monkeypatch):
        # scaling 1e10 at prices 1e-300: g* + delta overflows for every strategy
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv, "--alpha", "0.5,0.5",
                                     "--prices", "1e-300,1e-300", "--s", "1e10")
        assert caught == []
        assert (code, out) == (1, "")
        assert err == "error: g* + deprecation is past float range\n"
        assert os.listdir(tmp_path) == []


#: flag -> (its argument, the run document key it sets, the value written there)
FLAG_KEYS = {
    "--seed": ("5", "seed", 5),
    "--output": ("o.csv", "output", "o.csv"),
    "--svg": (None, "emit_svg", True),
    "--steps": ("7", "steps", 7),
    "--alpha": ("0.5,0.5", "economy.alphas", [0.5, 0.5]),
    "--delta": ("0.1", "economy.deprecation", 0.1),
    "--prices": ("1,2", "economy.prices", [1.0, 2.0]),
    "--s": ("0.2", "economy.scaling", 0.2),
    "--target": ("0.04", "target_growth", 0.04),
    "--steps-per-year": ("12", "steps_per_year", 12.0),
    "--initial-sigma": ("0.4,0.6", "switch.initial_sigma", [0.4, 0.6]),
    "--switch-steps": ("3,5", "switch.switch_steps", [3, 5]),
    "--mutation-sd": ("0.1", "switch.mutation_sd", 0.1),
    "--population": ("9", "evolution.population_size", 9),
    "--imitation-probability": ("0.5", "evolution.imitation_probability", 0.5),
    "--imitation-sd": ("0.3", "evolution.imitation_error_sd", 0.3),
    "--rule": ("pairwise-better", "evolution.selection_rule", "pairwise-better"),
    "--sample": ("4", "evolution.observation_sample", 4),
    "--samples": ("11", "landscape.samples", 11),
}
#: flags that set no key, and each subcommand's required flags
NOT_KEYS = {"-h", "--help", "--config", "--sigma"}
REQUIRED = {
    "equilibrium": ["--sigma", "0.5,0.5"],
    "calibrate": ["--alpha", "0.3,0.7", "--delta", "0.03", "--target", "0.02"],
}


def _subparsers() -> dict:
    (action,) = (a for a in _build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    return action.choices


FLAGS = [
    (command, flag)
    for command, sub in _subparsers().items()
    for action in sub._actions
    for flag in action.option_strings
    if flag not in NOT_KEYS
]


@pytest.mark.parametrize("command, flag", FLAGS, ids=["".join(c) for c in FLAGS])
def test_flag_lands_on_its_documented_key(command, flag):
    arg, key, value = FLAG_KEYS[flag]
    args = _build_parser().parse_args(
        [command, *REQUIRED.get(command, []), flag, *([arg] if arg else [])]
    )
    doc = _overlay(args, {})
    section, _, leaf = key.rpartition(".")
    assert (doc[section] if section else doc)[leaf] == value
    if flag == "--seed":  # evolve's population seed follows the run seed
        assert doc.get("evolution") == ({"seed": 5} if command == "evolve" else None)
    if arg:  # --help shows the key as the flag's metavar
        help_text = " ".join(_subparsers()[command].format_help().split())
        assert f"{flag} {key.upper()}" in help_text


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

    @pytest.mark.parametrize("seed", range(10))
    def test_drawn_start_has_a_fixed_point(self, seed, capsys, tmp_path):
        # the noise clips alpha's 0.001 sector to 0 in most first draws
        out_path = tmp_path / "trace.csv"
        code, _, err = run_cli(capsys, "converge", "--alpha", "0.001,0.999", "--steps",
                               "50", "--seed", str(seed), "--output", str(out_path))
        assert (code, err) == (0, "")
        first = next(csv.DictReader(out_path.read_text().splitlines()))
        g, g_star = float(first["growth"]), float(first["equilibrium_growth"])
        assert abs(g - g_star) <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_drawn_switches_have_a_positive_response(self, seed, capsys, tmp_path):
        # as the start, each drawn switch skips noisy copies of alpha with a 0 sector
        out_path = tmp_path / "trace.csv"
        code, _, err = run_cli(capsys, "converge", "--alpha", "0.001,0.999", "--steps",
                               "50", "--seed", str(seed), "--output", str(out_path))
        assert (code, err) == (0, "")
        delta = json.loads((tmp_path / "trace.config.json").read_text())["economy"][
            "deprecation"]
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        assert len(rows) == 50
        assert all(float(row["equilibrium_growth"]) > -delta for row in rows)

    def test_given_zero_response_switch_is_kept(self, capsys, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "experiment": "switch",
            "steps": 30,
            "economy": {"alphas": [0.5, 0.5], "deprecation": 0.03},
            "switch": {"initial_sigma": [0.5, 0.5], "switch_steps": [10],
                       "switch_sigmas": [[1.0, 0.0]]},
            "output": str(tmp_path / "trace.csv"),
        }))
        code, _, err = run_cli(capsys, "converge", "--config", str(cfg_path))
        assert (code, err) == (0, "")
        rows = list(csv.DictReader((tmp_path / "trace.csv").read_text().splitlines()))
        switched = [r for r in rows if (r["sigma_0"], r["sigma_1"]) == ("1", "0")]
        assert switched and len(switched) < len(rows)
        assert all(float(r["equilibrium_growth"]) == -0.03 for r in switched)

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

    def test_env_seed_ignores_the_unused_evolution_seed(
        self, capsys, tmp_path, monkeypatch
    ):
        # a converge document without seed takes the variable, whatever its
        # (ignored) evolution section says
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "experiment": "switch",
            "steps": 40,
            "economy": {"alphas": [0.5, 0.5]},
            "evolution": {"seed": 3},
            "output": str(tmp_path / "env.csv"),
        }))
        monkeypatch.setenv("GROWTHLAB_SEED", "7")
        assert cli_main(["converge", "--config", str(cfg_path)]) == 0
        monkeypatch.delenv("GROWTHLAB_SEED")
        flag = str(tmp_path / "flag.csv")
        assert cli_main(["converge", "--config", str(cfg_path), "--seed", "7",
                         "--output", flag]) == 0
        capsys.readouterr()
        assert (tmp_path / "env.csv").read_bytes() == open(flag, "rb").read()
        assert json.loads((tmp_path / "env.config.json").read_text())["seed"] == 7

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


    def test_overflowing_imitation_draws_finish(self, capsys, tmp_path):
        # imitation sd 1e308 draws rows whose total is past float range
        out_path = tmp_path / "pop.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(
                capsys, "evolve", "--alpha", "0.5,0.5", "--steps", "3",
                "--population", "3", "--sample", "2", "--imitation-probability", "1",
                "--imitation-sd", "1e308", "--output", str(out_path),
            )
        assert caught == []
        assert (code, err) == (0, "")
        assert len(out_path.read_text().splitlines()) == 1 + 4 * 3

    def test_null_section_takes_flags(self, capsys, tmp_path):
        # a null section is absent, for the flags as for the loader
        cfg_path = tmp_path / "run.json"
        out_path = tmp_path / "pop.csv"
        cfg_path.write_text(json.dumps({
            "experiment": "evolve", "steps": 3, "seed": 1,
            "economy": {"alphas": [0.5, 0.5]}, "evolution": None,
            "output": str(out_path),
        }))
        code, _, err = run_cli(capsys, "evolve", "--config", str(cfg_path),
                               "--population", "4", "--sample", "2")
        assert (code, err) == (0, "")
        assert len(out_path.read_text().splitlines()) == 1 + 4 * 4

    def test_env_seed_fills_seed_beside_evolution_seed(
        self, capsys, tmp_path, monkeypatch
    ):
        # an evolve document that sets only evolution.seed: the population
        # keeps that seed, and the variable fills the unused top-level seed
        doc = {
            "experiment": "evolve", "steps": 4, "emit_svg": True,
            "economy": {"alphas": [0.5, 0.5]},
            "evolution": {"seed": 3, "population_size": 5,
                          "observation_sample": 2, "imitation_probability": 0.5},
        }
        files = {}
        for env in (None, "7"):
            name = "env" if env else "plain"
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps({**doc, "output": str(tmp_path / f"{name}.csv")}))
            if env:
                monkeypatch.setenv("GROWTHLAB_SEED", env)
            else:
                monkeypatch.delenv("GROWTHLAB_SEED", raising=False)
            assert cli_main(["evolve", "--config", str(cfg_path)]) == 0
            files[name] = {
                p.name.removeprefix(name): p.read_bytes()
                for p in tmp_path.glob(f"{name}.*") if p.suffix in (".csv", ".svg")
            }
            effective = json.loads((tmp_path / f"{name}.config.json").read_text())
            assert effective["evolution"]["seed"] == 3
            assert effective["seed"] == (7 if env else 0)
        capsys.readouterr()
        assert any(suffix.endswith(".svg") for suffix in files["env"])
        assert files["env"] == files["plain"]


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
