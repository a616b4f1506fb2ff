import json

import numpy as np
import pytest

from growthlab import ConfigurationError
from growthlab.config import (
    annual_to_step_rate,
    config_from_dict,
    dump_config,
    load_config,
)
from growthlab.equilibrium import equilibrium_growth, optimal_strategy


MINIMAL = {"experiment": "landscape", "economy": {"alphas": [0.5, 0.5]}}


class TestDefaults:
    def test_minimal_config_materializes_defaults(self):
        cfg = config_from_dict(dict(MINIMAL))
        assert cfg.steps == 500
        assert cfg.seed == 0
        assert cfg.emit_svg is False
        assert cfg.params.deprecation == 0.03
        assert np.array_equal(cfg.params.prices, [1.0, 1.0])
        assert cfg.target_growth == 0.0185
        # scaling calibrated so the optimal strategy grows at the target
        g = equilibrium_growth(
            optimal_strategy(cfg.coefficients), cfg.coefficients, cfg.params
        )
        assert g == pytest.approx(0.0185, abs=1e-12)

    def test_explicit_scaling_skips_calibration(self):
        doc = {
            "experiment": "landscape",
            "economy": {"alphas": [0.5, 0.5], "scaling": 0.08},
        }
        cfg = config_from_dict(doc)
        assert cfg.params.scaling == 0.08
        assert cfg.target_growth is None

    def test_evolution_defaults(self):
        doc = {"experiment": "evolve", "economy": {"alphas": [0.5, 0.5]}, "seed": 5}
        cfg = config_from_dict(doc)
        assert cfg.evolution.population_size == 50
        assert cfg.evolution.imitation_probability == 0.02
        assert cfg.evolution.imitation_error_sd == 0.02
        assert cfg.evolution.selection_rule == "imitate-best-observed"
        assert cfg.evolution.observation_sample == 5
        assert cfg.evolution.seed == 5  # inherits the run seed


class TestValidationErrors:
    def test_bad_alphas_named(self):
        doc = {"experiment": "landscape", "economy": {"alphas": [0.5, 0.4]}}
        with pytest.raises(ConfigurationError, match=r"economy\.alphas"):
            config_from_dict(doc)

    def test_missing_economy(self):
        with pytest.raises(ConfigurationError, match="economy"):
            config_from_dict({"experiment": "landscape"})

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"experiment": "switch", "economy": {"alphas": [0.5, 0.5]},
              "switch": {"mutaton_sd": 0.5}}, "switch.mutaton_sd"),
            ({"experiment": "landscape",
              "economy": {"alphas": [0.5, 0.5], "delta": 0.1}}, "economy.delta"),
            ({"experiment": "landscape", "economy": {"alphas": [0.5, 0.5]}, "seeed": 3},
             "seeed"),
            ({"experiment": "evolve", "economy": {"alphas": [0.5, 0.5]},
             "evolution": {"population": 9}}, "evolution.population"),
        ],
    )
    def test_unknown_key_named(self, doc, path):
        with pytest.raises(ConfigurationError, match=rf"^{path}: unknown key$"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"steps_per_year": -2}, "steps_per_year"),
            ({"steps_per_year": 0}, "steps_per_year"),
            ({"steps_per_year": float("nan")}, "steps_per_year"),
            ({"economy": {"alphas": [0.5, 0.5], "deprecation": 0}},
             "economy.deprecation"),
            ({"economy": {"alphas": [0.5, 0.5], "deprecation": 1.5, "scaling": 0.1}},
             "economy.deprecation"),
            ({"steps": "10"}, "steps"),
            ({"economy": {"alphas": "x"}}, "economy.alphas"),
            ({"economy": {"alphas": [0.5, 0.5], "deprecation": "a"}},
             "economy.deprecation"),
            ({"emit_svg": 1}, "emit_svg"),
            ({"economy": {"alphas": [0.5, 0.5], "sectors": 3}}, "economy.sectors"),
            ({"price_schedule": []}, "price_schedule"),
            ({"experiment": "switch", "switch": {"switch_sigmas": [[0.5, 0.5]]}},
             "switch.switch_sigmas"),
            ({"experiment": "switch",
              "switch": {"switch_steps": [5, 9], "switch_sigmas": [[0.5, 0.5]]}},
             "switch.switch_sigmas"),
            ({"experiment": "switch", "switch": {"mutation_sd": -1}},
             "switch.mutation_sd"),
            ({"experiment": "switch", "switch": {"min_switches": 5, "max_switches": 2}},
             "switch.max_switches"),
            ({"experiment": "evolve", "evolution": {"population_size": 0}},
             "evolution.population_size"),
            ({"experiment": "evolve", "evolution": {"imitation_probability": 2}},
             "evolution.imitation_probability"),
            ({"experiment": "evolve", "evolution": {"observation_sample": 0}},
             "evolution.observation_sample"),
        ],
    )
    def test_bad_value_named(self, doc, path):
        doc = {"experiment": "landscape", "economy": {"alphas": [0.5, 0.5]}, **doc}
        with pytest.raises(ConfigurationError, match=rf"^{path}: "):
            config_from_dict(doc)

    def test_config_file_root_must_be_object(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps([MINIMAL]))
        with pytest.raises(ConfigurationError, match="^config root must be a JSON object$"):
            load_config(str(path))

    def test_other_experiments_sections_allowed(self):
        doc = dict(MINIMAL, switch={"anything": 1}, landscape={"samples": 5})
        assert config_from_dict(doc).switch is None

    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError, match="experiment"):
            config_from_dict({"experiment": "warp", "economy": {"alphas": [1.0]}})

    def test_bad_prices_dimension(self):
        doc = {
            "experiment": "landscape",
            "economy": {"alphas": [0.5, 0.5], "prices": [1.0]},
        }
        with pytest.raises(ConfigurationError, match=r"economy\.prices"):
            config_from_dict(doc)

    def test_scaling_and_target_mutually_exclusive(self):
        doc = {
            "experiment": "landscape",
            "economy": {"alphas": [0.5, 0.5], "scaling": 0.1},
            "target_growth": 0.0185,
        }
        with pytest.raises(ConfigurationError, match="target_growth"):
            config_from_dict(doc)

    def test_switch_steps_must_increase(self):
        doc = {
            "experiment": "switch",
            "economy": {"alphas": [0.5, 0.5]},
            "switch": {"switch_steps": [10, 10]},
        }
        with pytest.raises(ConfigurationError, match=r"switch\.switch_steps\[1\]"):
            config_from_dict(doc)

    def test_switch_steps_in_range(self):
        doc = {
            "experiment": "switch",
            "steps": 100,
            "economy": {"alphas": [0.5, 0.5]},
            "switch": {"switch_steps": [10, 200]},
        }
        with pytest.raises(ConfigurationError, match=r"switch\.switch_steps\[1\]"):
            config_from_dict(doc)

    def test_sigma_dimension_checked(self):
        doc = {
            "experiment": "switch",
            "economy": {"alphas": [0.5, 0.5]},
            "switch": {"initial_sigma": [1.0]},
        }
        with pytest.raises(ConfigurationError, match=r"switch\.initial_sigma"):
            config_from_dict(doc)

    def test_bad_price_schedule_row(self):
        doc = {
            "experiment": "landscape",
            "economy": {"alphas": [0.5, 0.5]},
            "price_schedule": [[1.0, 1.0], [1.0]],
        }
        with pytest.raises(ConfigurationError, match=r"price_schedule\[1\]"):
            config_from_dict(doc)

    def test_landscape_samples_positive(self):
        doc = {
            "experiment": "landscape",
            "economy": {"alphas": [0.5, 0.5]},
            "landscape": {"samples": 0},
        }
        with pytest.raises(ConfigurationError, match=r"landscape\.samples"):
            config_from_dict(doc)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "doc",
        [
            MINIMAL,
            {
                "experiment": "switch",
                "steps": 300,
                "seed": 9,
                "economy": {
                    "alphas": [0.3, 0.3, 0.4],
                    "deprecation": 0.05,
                    "prices": [1.0, 1.5, 0.5],
                },
                "switch": {"switch_steps": [50, 100], "mutation_sd": 0.01},
            },
            {
                "experiment": "evolve",
                "economy": {"alphas": [0.5, 0.5], "scaling": 0.097},
                "evolution": {"population_size": 12, "observation_sample": 3},
            },
            {
                "experiment": "landscape",
                "economy": {"alphas": [0.25, 0.75]},
                "landscape": {"samples": 10},
                "price_schedule": [[1.0, 1.0], [1.2, 0.9]],
            },
        ],
    )
    def test_load_dump_load_fixed_point(self, doc):
        first = config_from_dict(dict(doc))
        dumped = dump_config(first)
        second = config_from_dict(json.loads(json.dumps(dumped)))
        assert first == second
        assert dump_config(second) == dumped

    def test_load_config_from_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(MINIMAL))
        cfg = load_config(str(path))
        assert cfg.experiment == "landscape"

    def test_missing_file(self):
        with pytest.raises(ConfigurationError):
            load_config("/nonexistent/config.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_config(str(path))


class TestAnnualConversion:
    def test_identity_by_default(self):
        assert annual_to_step_rate(0.0185, 1.0) == 0.0185

    def test_geometric_split(self):
        per_step = annual_to_step_rate(0.0185, 12.0)
        assert (1 + per_step) ** 12 == pytest.approx(1.0185, rel=1e-12)
