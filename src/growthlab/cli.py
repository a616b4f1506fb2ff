"""Command line interface.

Subcommands:
  equilibrium  print the equilibrium growth rate of a strategy
  calibrate    print the scaling factor for a target equilibrium growth
  converge     strategy-switch experiment, writes the trace CSV (+charts)
  evolve       population imitation loop, writes the population CSV
  landscape    sample response/growth over the strategy simplex

Global flags: --config PATH (JSON run configuration), --seed N, --output
PATH, --svg, --steps N.  Every flag is written onto the --config document at
its key (the flag's dest, which --help shows as its metavar) and only the
config loader judges the result, so flags override config values.  The
GROWTHLAB_SEED environment variable is the value of an unset ``seed``, so
re-running an effective .config.json reproduces its run.  Exit codes: 0
success, 2 configuration/usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .config import (
    RunConfig,
    SwitchSpec,
    _strategy,
    config_from_dict,
    economy_from_dict,
    read_document,
)
from .core import ConfigurationError, GrowthLabError
from .equilibrium import equilibrium_growth
from .experiments import run_experiment

SEED_ENV_VAR = "GROWTHLAB_SEED"


def _list_of(kind: type):
    """An argparse type: a comma-separated list of ``kind`` (float or int)."""
    def parse(text: str) -> list:
        try:
            return [kind(x) for x in text.split(",") if x != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated {kind.__name__} list: {text!r}")
    return parse


# the keys of --s and --target exclude each other (see _overlay)
_SCALING, _TARGET = "economy.scaling", "target_growth"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  A flag's dest is the run document
    key it overrides (--help shows it as the metavar); only command, config
    and sigma are not keys."""
    parser = argparse.ArgumentParser(
        prog="growthlab",
        description="Growth-economy simulator: equilibrium analysis, "
        "strategy-switch convergence, imitation dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_economy(p: argparse.ArgumentParser, calibrate: bool = False) -> None:
        """The economy flags; calibrate requires three of them and has no --s."""
        p.add_argument("--alpha", dest="economy.alphas", type=_list_of(float),
                       required=calibrate, help="production coefficients")
        p.add_argument("--delta", dest="economy.deprecation", type=float,
                       required=calibrate, help="deprecation rate in (0, 1]")
        p.add_argument("--prices", dest="economy.prices", type=_list_of(float),
                       help="sector prices")
        p.add_argument("--target", dest=_TARGET, type=float, required=calibrate,
                       help="target equilibrium growth of the optimal strategy "
                       "(calibrates the scaling factor)")
        if not calibrate:
            p.add_argument("--s", dest=_SCALING, type=float, help="scaling factor")

    p_eq = sub.add_parser("equilibrium", help="print g* for a strategy")
    add_economy(p_eq)
    p_eq.add_argument("--sigma", type=_list_of(float), required=True, help="strategy weights")

    p_cal = sub.add_parser("calibrate", help="print s for a target growth")
    add_economy(p_cal, calibrate=True)
    p_cal.add_argument(
        "--steps-per-year",
        type=float,
        help="interpret --target as per-year and convert (default 1: per step)",
    )

    p_conv, p_evo, p_land = runs = [
        sub.add_parser("converge", help="strategy-switch experiment"),
        sub.add_parser("evolve", help="population imitation loop"),
        sub.add_parser("landscape", help="sample the strategy simplex"),
    ]
    for p in runs:
        p.add_argument("--config", help="JSON run configuration file")
        p.add_argument("--seed", type=int, help="master random seed")
        p.add_argument("--output", help="output CSV path")
        p.add_argument("--svg", dest="emit_svg", action="store_true", default=None,
                       help="also write SVG charts")
        p.add_argument("--steps", type=int, help="number of simulation steps")
        add_economy(p)

    p_conv.add_argument("--initial-sigma", dest="switch.initial_sigma", type=_list_of(float),
                        help="starting strategy")
    p_conv.add_argument("--switch-steps", dest="switch.switch_steps", type=_list_of(int),
                        help="steps to switch at")
    p_conv.add_argument(
        "--mutation-sd",
        dest="switch.mutation_sd",
        type=float,
        help=f"sd of the imitation error (default {SwitchSpec.mutation_sd})",
    )

    p_evo.add_argument("--population", dest="evolution.population_size", type=int,
                       help="number of agents")
    p_evo.add_argument("--imitation-probability",
                       dest="evolution.imitation_probability", type=float)
    p_evo.add_argument("--imitation-sd", dest="evolution.imitation_error_sd",
                       type=float)
    p_evo.add_argument("--rule", dest="evolution.selection_rule",
                       help="selection rule")
    p_evo.add_argument("--sample", dest="evolution.observation_sample", type=int,
                       help="peers observed per decision")

    p_land.add_argument("--samples", dest="landscape.samples", type=int,
                        help="number of simplex samples")

    return parser


def _overlay(args, doc: dict) -> dict:
    """Write every given flag onto the run document at its key (its dest).

    ``evolve --seed`` also writes ``evolution.seed``.  ``--s`` nulls
    ``target_growth`` and ``--target`` nulls ``economy.scaling``, so a flag
    also wins over the key that excludes it; given both, ``--s`` wins.  A
    null section is absent, as to the loader, and a section that is not a
    JSON object is left for the loader to reject.
    """
    values = {key: value for key, value in vars(args).items()
              if value is not None and key not in ("command", "config", "sigma")}
    if "seed" in values and args.command == "evolve":
        values["evolution.seed"] = values["seed"]
    if _SCALING in values:
        values[_TARGET] = None
    elif _TARGET in values:
        values[_SCALING] = None
    for key, value in values.items():
        name, _, leaf = key.rpartition(".")
        if name and doc.get(name) is None:
            doc[name] = {}
        section = doc[name] if name else doc
        if isinstance(section, dict):
            section[leaf] = value
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
    env = os.environ.get(SEED_ENV_VAR)
    if doc.get("seed") is None and env is not None:
        try:
            doc["seed"] = int(env)
        except ValueError:
            raise ConfigurationError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
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
            sigma = _strategy(args.sigma, "sigma", params, coefficients)
            _print_number(equilibrium_growth(sigma, coefficients, params))
            return 0
        if args.command == "calibrate":
            _, params, *_ = economy_from_dict(_overlay(args, {"economy": {}}))
            _print_number(params.scaling)
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
    except (GrowthLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
