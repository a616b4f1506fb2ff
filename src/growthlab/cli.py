"""Command line interface.

Subcommands:
  equilibrium  print the equilibrium growth rate of a strategy
  calibrate    print the scaling factor for a target equilibrium growth
  converge     strategy-switch experiment, writes the trace CSV (+charts)
  evolve       population imitation loop, writes the population CSV
  landscape    sample response/growth over the strategy simplex

Global flags: --config PATH (JSON run configuration), --seed N, --output
PATH, --svg, --steps N.  Every flag is written onto the --config document at
its key and the result is validated by the config loader, so flags override
config values.  The GROWTHLAB_SEED environment variable acts as --seed only
when neither that flag nor the --config document gives a seed, so re-running
an effective .config.json reproduces its run.  Exit codes: 0 success,
2 configuration/usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import (
    RunConfig,
    SwitchSpec,
    _economy_inputs,
    annual_to_step_rate,
    config_from_dict,
    economy_from_dict,
    read_document,
)
from .core import ConfigurationError, GrowthLabError, Strategy
from .equilibrium import calibrate_scaling, equilibrium_growth
from .experiments import run_experiment

SEED_ENV_VAR = "GROWTHLAB_SEED"


def _floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growthlab",
        description="Growth-economy simulator: equilibrium analysis, "
        "strategy-switch convergence, imitation dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON run configuration file")
        p.add_argument("--seed", type=int, help="master random seed")
        p.add_argument("--output", help="output CSV path")
        p.add_argument(
            "--svg", action="store_true", default=None, help="also write SVG charts"
        )
        p.add_argument("--steps", type=int, help="number of simulation steps")

    def add_economy(p: argparse.ArgumentParser) -> None:
        p.add_argument("--alpha", type=_floats, help="production coefficients")
        p.add_argument("--delta", type=float, help="deprecation rate in (0, 1]")
        p.add_argument("--prices", type=_floats, help="sector prices")
        p.add_argument("--s", type=float, dest="scaling", help="scaling factor")
        p.add_argument(
            "--target",
            type=float,
            help="target equilibrium growth of the optimal strategy "
            "(calibrates the scaling factor)",
        )

    p_eq = sub.add_parser("equilibrium", help="print g* for a strategy")
    add_economy(p_eq)
    p_eq.add_argument("--sigma", type=_floats, required=True, help="strategy weights")

    p_cal = sub.add_parser("calibrate", help="print s for a target growth")
    p_cal.add_argument("--target", type=float, required=True)
    p_cal.add_argument("--alpha", type=_floats, required=True)
    p_cal.add_argument("--delta", type=float, required=True)
    p_cal.add_argument("--prices", type=_floats)
    p_cal.add_argument(
        "--steps-per-year",
        type=float,
        help="interpret --target as per-year and convert (default 1: per step)",
    )

    p_conv = sub.add_parser("converge", help="strategy-switch experiment")
    add_common(p_conv)
    add_economy(p_conv)
    p_conv.add_argument("--initial-sigma", type=_floats, help="starting strategy")
    p_conv.add_argument("--switch-steps", type=_ints, help="steps to switch at")
    p_conv.add_argument(
        "--mutation-sd",
        type=float,
        help=f"sd of the imitation error (default {SwitchSpec.mutation_sd})",
    )

    p_evo = sub.add_parser("evolve", help="population imitation loop")
    add_common(p_evo)
    add_economy(p_evo)
    p_evo.add_argument("--population", type=int, help="number of agents")
    p_evo.add_argument("--imitation-probability", type=float)
    p_evo.add_argument("--imitation-sd", type=float)
    p_evo.add_argument("--rule", help="selection rule")
    p_evo.add_argument("--sample", type=int, help="peers observed per decision")

    p_land = sub.add_parser("landscape", help="sample the strategy simplex")
    add_common(p_land)
    add_economy(p_land)
    p_land.add_argument("--samples", type=int, help="number of simplex samples")

    return parser


def _resolve_seed(args, doc: dict) -> int | None:
    """The --seed flag, else GROWTHLAB_SEED if the document sets no seed."""
    if args.seed is not None:
        return args.seed
    evolution = doc.get("evolution")
    if doc.get("seed") is not None or (
        isinstance(evolution, dict) and evolution.get("seed") is not None
    ):
        return None
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigurationError(
                f"{SEED_ENV_VAR} must be an integer, got {env!r}"
            )
    return None


def _section(doc: dict, name: str) -> dict:
    section = doc.setdefault(name, {})
    if not isinstance(section, dict):
        raise ConfigurationError(f"{name}: expected dict, got {type(section).__name__}")
    return section


#: flag dest -> the run document key the flag overrides
_KEYS = {
    "output": "output",
    "svg": "emit_svg",
    "steps": "steps",
    "alpha": "economy.alphas",
    "delta": "economy.deprecation",
    "prices": "economy.prices",
    "scaling": "economy.scaling",
    "target": "target_growth",
    "steps_per_year": "steps_per_year",
    "initial_sigma": "switch.initial_sigma",
    "switch_steps": "switch.switch_steps",
    "mutation_sd": "switch.mutation_sd",
    "population": "evolution.population_size",
    "imitation_probability": "evolution.imitation_probability",
    "imitation_sd": "evolution.imitation_error_sd",
    "rule": "evolution.selection_rule",
    "sample": "evolution.observation_sample",
    "samples": "landscape.samples",
}


def _overlay(args, doc: dict) -> dict:
    """Write every given flag onto the run document at its key.

    ``--s`` drops ``target_growth`` and ``--target`` drops ``economy.scaling``,
    so a flag also wins over the key that excludes it; given both, ``--s``
    wins.
    """
    for dest, key in _KEYS.items():
        value = getattr(args, dest, None)
        if value is not None:
            section, _, leaf = key.rpartition(".")
            (_section(doc, section) if section else doc)[leaf] = value
    if getattr(args, "scaling", None) is not None:  # calibrate has no --s
        doc.pop("target_growth", None)
    elif args.target is not None:
        _section(doc, "economy").pop("scaling", None)
    return doc


def _experiment_config(args, experiment: str) -> RunConfig:
    if args.config:
        doc = read_document(args.config)
    else:  # an empty economy makes a missing --alpha read "economy.alphas: ..."
        doc = {"experiment": experiment, "economy": {}}
    found = doc.get("experiment", experiment)
    if found != experiment:
        raise ConfigurationError(
            f"config is for experiment {found!r}, subcommand needs {experiment!r}"
        )
    _overlay(args, doc)
    seed = _resolve_seed(args, doc)
    if seed is not None:
        doc["seed"] = seed
        if experiment == "evolve":
            _section(doc, "evolution")["seed"] = seed
    return config_from_dict(doc)


def _print_number(value: float) -> None:
    print(f"{value:.12g}")


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "equilibrium":
            doc = _overlay(args, {"economy": {}})
            coefficients, params, *_ = economy_from_dict(doc)
            sigma = Strategy(np.asarray(args.sigma))
            _print_number(equilibrium_growth(sigma, coefficients, params))
            return 0
        if args.command == "calibrate":
            coefficients, deprecation, prices, steps_per_year = _economy_inputs(
                _overlay(args, {"economy": {}})
            )
            target = annual_to_step_rate(args.target, steps_per_year)
            _print_number(calibrate_scaling(target, coefficients, deprecation, prices))
            return 0

        experiment = {"converge": "switch", "evolve": "evolve", "landscape": "landscape"}[
            args.command
        ]
        cfg = _experiment_config(args, experiment)
        result = run_experiment(cfg)
        print(result.output)
        for extra in result.extras:
            print(extra)
        return 0
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GrowthLabError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
