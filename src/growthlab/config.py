"""Run configuration: JSON documents -> validated RunConfig and back.

A run is described by one JSON object (see README for the schema).  Loading
materializes every default, so dumping the loaded config yields a complete
"effective" document; loading that dump reproduces the identical RunConfig.
Validation errors always name the exact key path that failed, and a key the
loader does not know is an error, so a misspelt key cannot fall back to its
default.

Each experiment section is a frozen dataclass (SwitchSpec, EvolutionConfig,
LandscapeSpec) whose fields are the section's keys: their annotations give
the JSON types, their defaults the defaults, and their ``__post_init__`` the
range checks.  Loading and dumping read those fields, so the schema is
written down once.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import cache
from types import UnionType
from typing import Any, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .core import (
    ConfigurationError,
    DomainError,
    EconomyParams,
    GrowthLabError,
    ProductionCoefficients,
    Strategy,
    _check_deprecation,
    _check_int,
    _check_prices,
    _check_sectors,
)
from .dynamics import PriceSchedule, _check_switch_steps, equilibrium_state
from .equilibrium import calibrate_scaling
from .evolution import EvolutionConfig

DEFAULT_TARGET_GROWTH = 0.0185


@dataclass(frozen=True)
class SwitchSpec:
    """Switch-experiment section; null fields are drawn from the run seed."""

    initial_sigma: tuple[float, ...] | None = None
    switch_steps: tuple[int, ...] | None = None
    switch_sigmas: tuple[tuple[float, ...], ...] | None = None
    mutation_sd: float = 0.02
    # default switch schedule density: 6..10 changes in a 500-step run
    min_switches: int = 6
    max_switches: int = 10

    def __post_init__(self):
        if self.switch_sigmas is not None:
            if self.switch_steps is None:
                raise ConfigurationError("switch_sigmas: requires switch.switch_steps")
            if len(self.switch_sigmas) != len(self.switch_steps):
                raise ConfigurationError(
                    f"switch_sigmas: expected {len(self.switch_steps)} strategy vectors"
                )
        if not 0.0 <= self.mutation_sd < np.inf:
            raise ConfigurationError("mutation_sd: must be finite and >= 0")
        if not (0 <= _check_int(self.min_switches, "min_switches")
                <= _check_int(self.max_switches, "max_switches")):
            raise ConfigurationError(
                "max_switches: need 0 <= min_switches <= max_switches"
            )


@dataclass(frozen=True)
class LandscapeSpec:
    samples: int = 1000

    def __post_init__(self):
        if _check_int(self.samples, "samples") < 1:
            raise ConfigurationError(f"samples: must be >= 1, got {self.samples}")


#: experiment -> (document key and RunConfig field of its section, section type)
_SECTIONS = {
    "switch": ("switch", SwitchSpec),
    "evolve": ("evolution", EvolutionConfig),
    "landscape": ("landscape", LandscapeSpec),
}
EXPERIMENTS = tuple(_SECTIONS)

#: keys of a run document; the sections of other experiments are allowed
_TOP_KEYS = (
    "experiment", "steps", "seed", "output", "emit_svg", "steps_per_year",
    "target_growth", "economy", "price_schedule",
) + tuple(name for name, _ in _SECTIONS.values())
_ECONOMY_KEYS = ("alphas", "sectors", "deprecation", "prices", "scaling")
_field_types = cache(get_type_hints)  # of a section type, resolved on its first load


@dataclass(frozen=True)
class RunConfig:
    """Fully validated description of one experiment run."""

    experiment: str
    params: EconomyParams
    coefficients: ProductionCoefficients
    prices: PriceSchedule
    steps: int
    seed: int
    output_path: str
    emit_svg: bool
    target_growth: float | None
    steps_per_year: float = 1.0
    evolution: EvolutionConfig | None = None
    switch: SwitchSpec | None = None
    landscape: LandscapeSpec | None = None


_REQUIRED = object()


def _fail(path: str, message: str) -> ConfigurationError:
    return ConfigurationError(f"{path}: {message}")


@contextmanager
def _at(path: str):
    """Report a GrowthLabError raised in the block as a ConfigurationError at
    ``path``."""
    try:
        yield
    except GrowthLabError as exc:
        raise _fail(path, str(exc)) from exc


def _parse(value, kind, path: str):
    """Check a JSON value against a type annotation and convert it.

    ``tuple[X, ...]`` takes a JSON list of X, ``X | None`` takes X (null is
    handled by the caller), ``float`` also takes integers.
    """
    if isinstance(kind, UnionType):
        kind = next(k for k in get_args(kind) if k is not type(None))
    if get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise _fail(path, f"expected a list, got {value!r}")
        item = get_args(kind)[0]
        return tuple(_parse(v, item, f"{path}[{i}]") for i, v in enumerate(value))
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _fail(path, f"expected a number, got {value!r}")
        return float(value)
    if kind is int:
        return _check_int(value, path)
    if not isinstance(value, kind):
        raise _fail(path, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _reject_unknown(doc: dict, known, path: str) -> None:
    """Raise on the first key of ``doc`` that is not in ``known``."""
    for key in doc:
        if key not in known:
            raise _fail(f"{path}{key}", "unknown key")


def _get(doc: dict, key: str, path: str, kind, default=_REQUIRED):
    if key not in doc or doc[key] is None:
        if default is _REQUIRED:
            raise _fail(f"{path}{key}", "missing required key")
        return default
    return _parse(doc[key], kind, f"{path}{key}")


def _load_section(doc: dict, name: str, spec, inherited: dict):
    """Build a section dataclass from doc[name].

    Absent or null keys keep the field defaults, or the ``inherited`` values.
    """
    section = _get(doc, name, "", dict, {})
    kinds = _field_types(spec)
    _reject_unknown(section, kinds, f"{name}.")
    values = dict(inherited)
    for f in fields(spec):
        if section.get(f.name) is not None:
            values[f.name] = _parse(section[f.name], kinds[f.name], f"{name}.{f.name}")
    try:
        return spec(**values)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{name}.{exc}") from exc


def _plain(value):
    """Tuples, also nested, as JSON lists."""
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


def economy_from_dict(
    doc: dict,
) -> tuple[ProductionCoefficients, EconomyParams, float | None, float]:
    """Validate the economy of a run document.

    Reads ``economy``, ``target_growth`` and ``steps_per_year``.  Without
    ``economy.scaling`` the scaling factor is calibrated so the optimal
    strategy's equilibrium growth equals the (per-step converted) target.
    Returns (coefficients, params, target_growth, steps_per_year).
    """
    steps_per_year = _get(doc, "steps_per_year", "", float, 1.0)
    if not 0.0 < steps_per_year < np.inf:
        raise _fail("steps_per_year", f"must be a positive real, got {steps_per_year}")

    economy = _get(doc, "economy", "", dict)
    _reject_unknown(economy, _ECONOMY_KEYS, "economy.")
    alphas = _get(economy, "alphas", "economy.", tuple[float, ...])
    with _at("economy.alphas"):
        coefficients = ProductionCoefficients(np.asarray(alphas))
    n = coefficients.sectors

    sectors = _get(economy, "sectors", "economy.", int, n)
    if sectors != n:
        raise _fail("economy.sectors", f"{sectors} != len(economy.alphas) = {n}")
    deprecation = _get(economy, "deprecation", "economy.", float, 0.03)
    with _at("economy.deprecation"):
        _check_deprecation(deprecation)
    prices = _get(economy, "prices", "economy.", tuple[float, ...], (1.0,) * n)
    with _at("economy.prices"):
        prices = _check_prices(prices, n)
    scaling = _get(economy, "scaling", "economy.", float, None)
    target_growth = _get(doc, "target_growth", "", float, None)
    if scaling is not None and target_growth is not None:
        raise _fail(
            "target_growth",
            "mutually exclusive with economy.scaling; give one of the two",
        )
    if scaling is None:
        # the default target's per-step rate is past float range only by steps_per_year
        rate_key = "steps_per_year" if target_growth is None else "target_growth"
        if target_growth is None:
            target_growth = DEFAULT_TARGET_GROWTH
        with _at(rate_key):
            per_step_target = annual_to_step_rate(target_growth, steps_per_year)
        with _at("target_growth"):
            scaling = calibrate_scaling(
                per_step_target, coefficients, deprecation, prices
            )
    with _at("economy"):
        params = EconomyParams(scaling, deprecation, prices)
    return coefficients, params, target_growth, steps_per_year


def config_from_dict(doc: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig with all defaults set."""
    if not isinstance(doc, dict):
        raise ConfigurationError("config root must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "")

    experiment = _get(doc, "experiment", "", str)
    if experiment not in EXPERIMENTS:
        raise _fail("experiment", f"must be one of {EXPERIMENTS}, got {experiment!r}")

    steps = _get(doc, "steps", "", int, 500)
    if steps < 1:
        raise _fail("steps", f"must be >= 1, got {steps}")
    seed = _get(doc, "seed", "", int, 0)
    if seed < 0:
        raise _fail("seed", f"must be >= 0, got {seed}")
    output_path = _get(doc, "output", "", str, "growthlab_out.csv")
    if os.path.basename(output_path) in ("", ".", ".."):
        raise _fail("output", f"must name a file, got {output_path!r}")
    emit_svg = _get(doc, "emit_svg", "", bool, False)
    coefficients, params, target_growth, steps_per_year = economy_from_dict(doc)

    schedule_rows = doc.get("price_schedule")
    if schedule_rows is None:
        prices = PriceSchedule.constant(params.prices)
    else:
        rows = _parse(schedule_rows, tuple[tuple[float, ...], ...], "price_schedule")
        if not rows:
            raise _fail("price_schedule", "expected a non-empty list of price vectors")
        for i, row in enumerate(rows):
            with _at(f"price_schedule[{i}]"):
                _check_prices(row, params.sectors)
        prices = PriceSchedule(rows)

    name, spec = _SECTIONS[experiment]
    # the population's random streams default to the run seed
    inherited = {"seed": seed} if spec is EvolutionConfig else {}
    section = _load_section(doc, name, spec, inherited)
    if spec is SwitchSpec:
        if section.initial_sigma is not None:  # the run starts at its fixed point
            path = "switch.initial_sigma"
            initial = _strategy(section.initial_sigma, path, params, coefficients)
            with _at(path):
                equilibrium_state(initial, coefficients, replace(params, prices=prices.at(1)))
        try:
            _check_switch_steps(section.switch_steps or (), steps)
        except ConfigurationError as exc:
            raise ConfigurationError(f"switch.{exc}") from exc
        for i, vec in enumerate(section.switch_sigmas or ()):
            _strategy(vec, f"switch.switch_sigmas[{i}]", params, coefficients)

    return RunConfig(
        experiment=experiment,
        params=params,
        coefficients=coefficients,
        prices=prices,
        steps=steps,
        seed=seed,
        output_path=output_path,
        emit_svg=emit_svg,
        target_growth=target_growth,
        steps_per_year=steps_per_year,
        **{name: section},
    )


def _strategy(vec: Sequence[float], path: str, params: EconomyParams,
              coefficients: ProductionCoefficients) -> Strategy:
    """The strategy of the weights ``vec`` given at ``path`` (a document key
    or a flag), checked on the simplex and against the economy's sector
    counts; an error is reported at ``path``."""
    with _at(path):
        strategy = Strategy(np.asarray(vec))
        _check_sectors(strategy=strategy.sectors, params=params.sectors,
                       coefficients=coefficients.sectors)
    return strategy


def annual_to_step_rate(annual: float, steps_per_year: float) -> float:
    """Geometric conversion of a per-year growth rate to a per-step rate.

    With the default steps_per_year = 1.0 the rates are identical ("percent
    per year" read as "percent per step").  A rate at or below -1 (all income
    lost) has no per-step root, and a per-step rate past float range is no
    rate: both raise DomainError.
    """
    if annual <= -1.0:
        raise DomainError(f"growth rate must exceed -1 (-100%), got {annual}")
    if steps_per_year == 1.0:
        return annual
    try:
        rate = (1.0 + annual) ** (1.0 / steps_per_year) - 1.0
    except OverflowError:
        rate = np.inf
    if rate == np.inf:
        raise DomainError(
            f"the per-step rate of {annual} at {steps_per_year} steps per year "
            "is past float range"
        )
    return float(rate)


def read_document(path: str) -> dict:
    """Read a JSON run configuration from disk without validating its keys."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError("config root must be a JSON object")
    return doc


def load_config(path: str) -> RunConfig:
    """Load and validate a JSON run configuration from disk."""
    return config_from_dict(read_document(path))


def dump_config(cfg: RunConfig) -> dict[str, Any]:
    """Effective configuration as a JSON-serializable dict (all defaults set).

    Loading the dump reproduces the identical RunConfig; null fields in the
    switch section stay null because they are drawn from the seed at run time.
    """
    economy: dict[str, Any] = {
        "alphas": [float(a) for a in cfg.coefficients.alphas],
        "deprecation": cfg.params.deprecation,
        "prices": [float(p) for p in cfg.params.prices],
        "sectors": cfg.params.sectors,
    }
    if cfg.target_growth is None:
        economy["scaling"] = cfg.params.scaling
    doc: dict[str, Any] = {
        "experiment": cfg.experiment,
        "steps": cfg.steps,
        "seed": cfg.seed,
        "output": cfg.output_path,
        "emit_svg": cfg.emit_svg,
        "steps_per_year": cfg.steps_per_year,
        "economy": economy,
    }
    if cfg.target_growth is not None:
        doc["target_growth"] = cfg.target_growth
    # a schedule other than the one row economy.prices
    if not np.array_equal(cfg.prices.values, [cfg.params.prices]):
        doc["price_schedule"] = [[float(x) for x in row] for row in cfg.prices.values]
    for name, _ in _SECTIONS.values():
        section = getattr(cfg, name)
        if section is not None:
            doc[name] = {
                f.name: _plain(getattr(section, f.name)) for f in fields(section)
            }
    return doc
