import json

import numpy as np
import pytest

from growthlab import ConfigurationError, DomainError, config
from growthlab.config import (
    LandscapeSpec,
    SwitchSpec,
    annual_to_step_rate,
    config_from_dict,
    dump_config,
    load_config,
)
from growthlab.equilibrium import equilibrium_growth, optimal_strategy
from growthlab.evolution import EvolutionConfig


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
            ({"experiment": "switch", "switch": {"mutation_sd": float("nan")}},
             "switch.mutation_sd"),
            ({"experiment": "evolve", "evolution": {"imitation_error_sd": float("inf")}},
             "evolution.imitation_error_sd"),
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

    def test_document_root_must_be_object(self):
        with pytest.raises(ConfigurationError, match="^config root must be a JSON object$"):
            config_from_dict([])

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

    @pytest.mark.parametrize("section, field, value", [
        (EvolutionConfig, "population_size", 5.5),
        (EvolutionConfig, "observation_sample", 2.5),
        (EvolutionConfig, "seed", 1.5),
        (EvolutionConfig, "seed", True),
        (LandscapeSpec, "samples", 2.5),
        (LandscapeSpec, "samples", np.int64(2)),
        (SwitchSpec, "min_switches", 1.5),
        (SwitchSpec, "max_switches", 7.0),
    ])
    def test_constructors_take_the_loaders_integer_rule(self, section, field, value):
        # an int that is not a bool, as the loader requires of a JSON integer
        with pytest.raises(ConfigurationError, match=f"^{field}: expected an integer"):
            section(**{field: value})


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

    def test_one_row_schedule_at_economy_prices_is_not_dumped(self):
        # a one-row schedule equal to economy.prices is the constant schedule
        doc = dict(MINIMAL, economy={"alphas": [0.5, 0.5], "prices": [1.0, 2.0]},
                   price_schedule=[[1.0, 2.0]])
        first = config_from_dict(doc)
        dumped = dump_config(first)
        assert "price_schedule" not in dumped
        assert config_from_dict(json.loads(json.dumps(dumped))) == first

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

    def test_rate_at_or_below_minus_one_is_rejected(self):
        # (1 + annual) ** (1 / steps_per_year) has no real root below -1
        for annual in (-1.0, -2.0):
            with pytest.raises(DomainError, match="must exceed -1"):
                annual_to_step_rate(annual, 12.0)
        doc = dict(MINIMAL, target_growth=-2.0, steps_per_year=12)
        with pytest.raises(ConfigurationError, match="^target_growth: "):
            config_from_dict(doc)

    def test_geometric_split(self):
        per_step = annual_to_step_rate(0.0185, 12.0)
        assert (1 + per_step) ** 12 == pytest.approx(1.0185, rel=1e-12)


def test_each_section_type_is_resolved_once_per_process():
    docs = [dict(MINIMAL, experiment=e) for e in ("switch", "evolve", "landscape")]
    for doc in docs:
        config_from_dict(doc)
    resolved = config._field_types.cache_info()
    for doc in docs * 2:
        config_from_dict(doc)
    after = config._field_types.cache_info()
    assert (after.misses, after.currsize) == (resolved.misses, resolved.currsize) == (3, 3)
    assert after.hits == resolved.hits + 6
