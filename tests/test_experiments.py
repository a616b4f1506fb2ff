import json
import os
from dataclasses import replace

import numpy as np
import pytest

from growthlab.cli import cli_main
from growthlab.config import config_from_dict, load_config
from growthlab.core import Strategy
from growthlab.dynamics import equilibrium_state, run_hold
from growthlab.experiments import (
    switch_experiment,
    fmt17,
    landscape_experiment,
    evolve_experiment,
    run_experiment,
    trace_header,
    write_trace_csv,
)


def _switch_doc(tmp_path, **overrides):
    doc = {
        "experiment": "switch",
        "steps": 200,
        "seed": 11,
        "economy": {"alphas": [0.5, 0.5], "deprecation": 0.03, "prices": [1.0, 1.0]},
        "target_growth": 0.0185,
        "output": str(tmp_path / "trace.csv"),
    }
    doc.update(overrides)
    return doc


class TestCsvFormat:
    def test_seventeen_digit_round_trip(self):
        values = [0.1, 1 / 3, 0.0185, 1e-17, 123456.789, -0.03]
        for v in values:
            assert float(fmt17(v)) == v

    def test_trace_schema(self, tmp_path):
        cfg = config_from_dict(_switch_doc(tmp_path))
        result = switch_experiment(cfg)
        lines = open(result.output).read().splitlines()
        assert lines[0] == (
            "step,agent_id,income,log_income,growth,equilibrium_growth,"
            "excess_growth,sigma_0,sigma_1"
        )
        assert len(lines) == 1 + 200
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "0"
        assert len(first) == 9

    def test_header_helper(self):
        assert trace_header(3).endswith("sigma_0,sigma_1,sigma_2")


class TestSwitchExperiment:
    def test_writes_panels_and_config(self, tmp_path):
        cfg = config_from_dict(_switch_doc(tmp_path, emit_svg=True))
        result = switch_experiment(cfg)
        stem = os.path.splitext(result.output)[0]
        for suffix in (".config.json", ".growth.csv", ".excess.csv",
                       ".growth.svg", ".excess.svg"):
            assert os.path.exists(stem + suffix), suffix

    def test_panel_contents_match_trace(self, tmp_path):
        cfg = config_from_dict(_switch_doc(tmp_path))
        result = switch_experiment(cfg)
        stem = os.path.splitext(result.output)[0]
        trace = [l.split(",") for l in open(result.output).read().splitlines()[1:]]
        growth_panel = [
            l.split(",") for l in open(stem + ".growth.csv").read().splitlines()[1:]
        ]
        excess_panel = [
            l.split(",") for l in open(stem + ".excess.csv").read().splitlines()[1:]
        ]
        for t_row, g_row, e_row in zip(trace, growth_panel, excess_panel):
            assert g_row[0] == t_row[0]
            assert g_row[1] == t_row[4]
            assert g_row[2] == t_row[5]
            assert e_row[1] == t_row[6]

    def test_excess_growth_never_meaningfully_negative(self, tmp_path):
        cfg = config_from_dict(_switch_doc(tmp_path, seed=3))
        result = switch_experiment(cfg)
        rows = [l.split(",") for l in open(result.output).read().splitlines()[1:]]
        excess = np.array([float(r[6]) for r in rows])
        assert excess.min() >= -1e-10

    def test_each_switch_overshoots_new_equilibrium(self, tmp_path):
        doc = _switch_doc(tmp_path, seed=19)
        cfg = config_from_dict(doc)
        result = switch_experiment(cfg)
        rows = [l.split(",") for l in open(result.output).read().splitlines()[1:]]
        sigmas = [(r[7], r[8]) for r in rows]
        for t in range(1, len(rows)):
            if sigmas[t] != sigmas[t - 1]:  # a switch took effect at step t+1
                growth = float(rows[t][4])
                g_star = float(rows[t][5])
                assert growth > g_star

    def test_deterministic_given_seed(self, tmp_path):
        doc = _switch_doc(tmp_path, seed=29)
        out1 = switch_experiment(config_from_dict(dict(doc)))
        bytes1 = open(out1.output, "rb").read()
        out2 = switch_experiment(config_from_dict(dict(doc)))
        bytes2 = open(out2.output, "rb").read()
        assert bytes1 == bytes2

    def test_explicit_empty_switches_reproduces_hold(self, tmp_path):
        sigma = [0.48, 0.52]
        doc = _switch_doc(
            tmp_path,
            switch={"initial_sigma": sigma, "switch_steps": []},
        )
        cfg = config_from_dict(doc)
        result = switch_experiment(cfg)
        start = equilibrium_state(
            Strategy(np.asarray(sigma)), cfg.coefficients, cfg.params, cfg.prices.at(1)
        )
        records = run_hold(start, cfg.params, cfg.coefficients, cfg.prices, cfg.steps)
        hold_path = str(tmp_path / "hold.csv")
        write_trace_csv(records, cfg.params.sectors, hold_path)
        assert open(result.output, "rb").read() == open(hold_path, "rb").read()


class TestEvolveExperiment:
    def test_population_csv_schema(self, tmp_path):
        doc = {
            "experiment": "evolve",
            "steps": 20,
            "seed": 7,
            "economy": {"alphas": [0.5, 0.5]},
            "evolution": {"population_size": 6, "observation_sample": 2},
            "output": str(tmp_path / "pop.csv"),
        }
        result = evolve_experiment(config_from_dict(doc))
        lines = open(result.output).read().splitlines()
        assert lines[0] == (
            "step,agent_id,income,log_income,growth,equilibrium_growth,sigma_0,sigma_1"
        )
        # steps 0..20 inclusive, 6 agents each
        assert len(lines) == 1 + 21 * 6
        assert lines[1].split(",")[0] == "0"

    def test_deterministic(self, tmp_path):
        doc = {
            "experiment": "evolve",
            "steps": 30,
            "seed": 13,
            "economy": {"alphas": [0.5, 0.5]},
            "evolution": {"population_size": 8, "observation_sample": 3,
                          "imitation_probability": 0.2},
            "output": str(tmp_path / "pop.csv"),
        }
        r1 = evolve_experiment(config_from_dict(dict(doc)))
        b1 = open(r1.output, "rb").read()
        r2 = evolve_experiment(config_from_dict(dict(doc)))
        assert open(r2.output, "rb").read() == b1


class TestLandscapeExperiment:
    def test_rows_and_schema(self, tmp_path):
        doc = {
            "experiment": "landscape",
            "economy": {"alphas": [0.3, 0.7]},
            "landscape": {"samples": 25},
            "seed": 5,
            "output": str(tmp_path / "land.csv"),
        }
        result = landscape_experiment(config_from_dict(doc))
        lines = open(result.output).read().splitlines()
        assert lines[0] == "sigma_0,sigma_1,response,equilibrium_growth"
        assert len(lines) == 26
        # response is maximal near sigma == alpha
        best = max(float(l.split(",")[2]) for l in lines[1:])
        assert best <= 0.3**0.3 * 0.7**0.7 + 1e-12


# overrides of _switch_doc for the closure test; the first three set every
# key of their section, the last is the --config document of a CLI run
CLOSURE_CASES = {
    "switch": {
        "seed": 5,
        "steps": 60,
        "switch": {
            "initial_sigma": [0.3, 0.7],
            "switch_steps": [10, 40],
            "switch_sigmas": [[0.6, 0.4], [0.5, 0.5]],
            "mutation_sd": 0.03,
            "min_switches": 1,
            "max_switches": 3,
        },
        "price_schedule": [[1.0, 1.0], [1.1, 0.9]],
    },
    "evolve": {
        "experiment": "evolve",
        "steps": 20,
        "evolution": {
            "population_size": 6,
            "imitation_error_sd": 0.05,
            "imitation_probability": 0.2,
            "selection_rule": "growth-proportional",
            "observation_sample": 3,
            "seed": 8,
        },
        "emit_svg": True,
    },
    "landscape": {
        "experiment": "landscape",
        "economy": {"alphas": [0.2, 0.8], "scaling": 0.1},
        "target_growth": None,
        "landscape": {"samples": 40},
        "steps_per_year": 4.0,
    },
    "cli": {
        "experiment": "evolve",
        "steps": 5,
        "evolution": {"population_size": 5, "observation_sample": 2},
    },
}


class TestConfigClosure:
    def test_effective_config_reproduces_results(self, tmp_path):
        doc = _switch_doc(tmp_path, seed=37)
        cfg = config_from_dict(doc)
        result = run_experiment(cfg)
        original = open(result.output, "rb").read()
        effective = os.path.splitext(result.output)[0] + ".config.json"
        cfg2 = load_config(effective)
        # redirect the rerun so the first output survives the comparison
        from dataclasses import replace

        cfg2 = replace(cfg2, output_path=str(tmp_path / "rerun.csv"))
        result2 = run_experiment(cfg2)
        assert open(result2.output, "rb").read() == original


    @pytest.mark.parametrize("case", ["switch", "evolve", "landscape", "cli"])
    def test_effective_config_reloads_equal(self, tmp_path, case):
        doc = _switch_doc(tmp_path, **CLOSURE_CASES[case])
        if case == "cli":
            cfg_path = tmp_path / "run.json"
            cfg_path.write_text(json.dumps(doc))
            argv = ["evolve", "--config", str(cfg_path), "--alpha", "0.3,0.7",
                    "--population", "7", "--seed", "4", "--steps", "12"]
            assert cli_main(argv) == 0
            # the same overrides written into the document by hand
            doc.update(steps=12, seed=4)
            doc["economy"] = dict(doc["economy"], alphas=[0.3, 0.7])
            doc["evolution"] = dict(doc["evolution"], population_size=7, seed=4)
            expected = config_from_dict(doc)
        else:
            expected = config_from_dict(doc)
            run_experiment(expected)
        stem = os.path.splitext(expected.output_path)[0]
        cfg = load_config(stem + ".config.json")
        assert cfg == expected
        rerun = run_experiment(replace(cfg, output_path=str(tmp_path / "rerun.csv")))
        original = open(expected.output_path, "rb").read()
        assert open(rerun.output, "rb").read() == original


class TestWriteTraceCsv:
    def test_round_trip_values(self, tmp_path):
        from growthlab.dynamics import TraceRecord

        records = [
            TraceRecord(1, 0, 1.0185, 0.0185, 0.0185, 0.0, (0.5, 0.5), np.log(1.0185)),
            TraceRecord(2, 0, 1 / 3, -0.03, 0.001, -0.031, (0.25, 0.75), np.log(1 / 3)),
        ]
        path = str(tmp_path / "t.csv")
        write_trace_csv(records, 2, path)
        lines = open(path).read().splitlines()
        row = lines[2].split(",")
        assert float(row[2]) == 1 / 3
        assert float(row[3]) == np.log(1 / 3)
        assert float(row[7]) == 0.25
