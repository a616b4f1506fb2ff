"""Experiment drivers and flat-file emission: the reproducibility surface.

Every driver takes a validated RunConfig, runs deterministically from its
seed, writes CSV (canonical output, floats at 17 significant digits) and
optionally self-contained SVG charts, and drops an effective-config JSON
next to the main output so the exact run can be repeated.

CSV columns, sigma_* being sigma_0,...,sigma_{n-1}:
  trace       step,agent_id,income,log_income,growth,equilibrium_growth,
              excess_growth,sigma_*
  population  step,agent_id,income,log_income,growth,equilibrium_growth,sigma_*
  landscape   sigma_*,response,equilibrium_growth
``income`` is exp(log_income): inf past float range, 0 when absorbed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import RunConfig, dump_config
from .core import ConfigurationError, Strategy, _income, _log_response, _project_rows
from .core import _simplex_point
from .dynamics import TraceRecord, run_switch_experiment
from .equilibrium import _growth_rows, _resolve_prices
from .equilibrium import equilibrium_growth, optimal_strategy, response
from .evolution import (
    evolve_step,
    experiment_stream,
    init_population,
    mutate_strategy,
)
from .svgchart import emit_svg


def fmt17(x: float) -> str:
    """Serialize a float with 17 significant digits (round-trip safe).

    The row writers below put the same ``%.17g`` in one template per row.
    """
    return "%.17g" % x


def _write_lines(path: str, lines: Iterable[str]) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def trace_header(sectors: int) -> str:
    sigma_cols = ",".join(f"sigma_{i}" for i in range(sectors))
    columns = "step,agent_id,income,log_income,growth,equilibrium_growth,excess_growth"
    return f"{columns},{sigma_cols}"


def write_trace_csv(records: Sequence[TraceRecord], sectors: int, path: str) -> None:
    row = "%d,%d" + ",%.17g" * (5 + sectors)
    _write_lines(path, [trace_header(sectors)] + [
        row % (r.step, r.agent_id, r.income, r.log_income, r.growth,
               r.equilibrium_growth, r.excess_growth, *r.strategy)
        for r in records
    ])


def write_effective_config(cfg: RunConfig) -> str:
    """Dump the materialized configuration next to the main output file."""
    path = os.path.splitext(cfg.output_path)[0] + ".config.json"
    _write_lines(path, [json.dumps(dump_config(cfg), indent=2, sort_keys=True)])
    return path


@dataclass(frozen=True)
class ExperimentResult:
    """Paths written by one driver run."""

    output: str
    extras: tuple[str, ...] = ()


def _require(cfg: RunConfig, experiment: str) -> None:
    if cfg.experiment != experiment:
        raise ConfigurationError(
            f"config experiment is {cfg.experiment!r}, driver needs {experiment!r}"
        )


def draw_switch_schedule(
    cfg: RunConfig, rng: np.random.Generator
) -> list[tuple[int, Strategy]]:
    """Materialize the switch schedule, drawing unset parts from the seed.

    Switch strategies are noisy copies of the optimal strategy (imitations
    with Gaussian error of the configured sd), matching a population member
    repeatedly imitating a near-optimal peer.
    """
    sw = cfg.switch
    if sw.switch_steps is not None:
        steps_at = list(sw.switch_steps)
    else:
        lo = min(20, max(2, cfg.steps // 10))
        # switches fall in [lo, hi), and never after the last step
        hi = min(max(lo + 1, cfg.steps - max(2, cfg.steps // 25)), cfg.steps + 1)
        n_max = sw.max_switches
        count = int(rng.integers(sw.min_switches, n_max + 1)) if n_max > 0 else 0
        count = min(count, hi - lo)
        if count <= 0:
            steps_at = []
        else:
            steps_at = sorted(
                int(s) for s in rng.choice(np.arange(lo, hi), count, replace=False)
            )
    if sw.switch_sigmas is not None:
        sigmas = [Strategy(np.asarray(v)) for v in sw.switch_sigmas]
    else:
        alpha = optimal_strategy(cfg.coefficients)
        sigmas = [mutate_strategy(alpha, sw.mutation_sd, rng) for _ in steps_at]
    return list(zip(steps_at, sigmas))


def switch_experiment(cfg: RunConfig) -> ExperimentResult:
    """Strategy-switch run: trace CSV plus the two derived chart series.

    Writes the full trace to the configured output path, then two panel CSVs
    next to it: income growth vs. equilibrium growth, and their difference
    (the excess growth that spikes right after each switch).  With emit_svg
    set, both panels are also rendered as SVG line charts.
    """
    _require(cfg, "switch")
    rng = experiment_stream(cfg.seed)
    sw = cfg.switch
    if sw.initial_sigma is not None:
        initial = Strategy(np.asarray(sw.initial_sigma))
    else:
        alpha = optimal_strategy(cfg.coefficients)
        initial = mutate_strategy(alpha, sw.mutation_sd, rng)
    switches = draw_switch_schedule(cfg, rng)
    records = run_switch_experiment(
        initial,
        switches,
        cfg.params,
        cfg.coefficients,
        cfg.prices,
        cfg.steps,
    )
    write_trace_csv(records, cfg.params.sectors, cfg.output_path)
    extras = [write_effective_config(cfg)]
    extras.extend(_emit_panels(records, cfg.output_path, svg=cfg.emit_svg))
    return ExperimentResult(cfg.output_path, tuple(extras))


#: panel -> (title, y label, its series as (label, TraceRecord field) pairs)
_PANELS = {
    "growth": ("Income growth rate vs. equilibrium growth rate", "income growth rate", (
        ("income growth", "growth"), ("equilibrium growth", "equilibrium_growth"))),
    "excess": ("Growth rate minus equilibrium growth rate", "excess growth rate", (
        ("excess growth", "excess_growth"),)),
}


def _emit_panels(
    records: Sequence[TraceRecord], output_path: str, svg: bool
) -> list[str]:
    stem, _ = os.path.splitext(output_path)
    steps = [r.step for r in records]
    column = {f: [getattr(r, f) for r in records]
              for _, _, series in _PANELS.values() for _, f in series}
    written = []
    for name, (_, _, series) in _PANELS.items():
        fields = [f for _, f in series]
        row = "%d" + ",%.17g" * len(fields)
        written.append(f"{stem}.{name}.csv")
        _write_lines(written[-1], [",".join(["step", *fields])] + [
            row % values for values in zip(steps, *(column[f] for f in fields))
        ])
    for name, (title, y_label, series) in _PANELS.items() if svg else ():
        written.append(f"{stem}.{name}.svg")
        lines = [(label, list(zip(steps, column[f]))) for label, f in series]
        emit_svg(lines, written[-1], title=title, y_label=y_label)
    return written


def evolve_experiment(cfg: RunConfig) -> ExperimentResult:
    """Population imitation loop; writes the per-step population CSV.

    Each agent's g*, response and formatted ``g*,sigma_0,...`` tail are
    computed again only when its strategy or the price row changes.
    """
    _require(cfg, "evolve")
    evo = cfg.evolution
    pop = init_population(cfg.params, cfg.coefficients, evo, cfg.prices.at(1))
    sigma_cols = ",".join(f"sigma_{i}" for i in range(cfg.params.sectors))
    header = f"step,agent_id,income,log_income,growth,equilibrium_growth,{sigma_cols}"
    blocks = [header]  # one block of rows per step
    mean_response: list[tuple[int, float]] = []
    held: list[Strategy | None] = [None] * evo.population_size
    tails = [""] * evo.population_size
    responses = [0.0] * evo.population_size
    last_p: np.ndarray | None = None

    def snapshot(step: int) -> None:
        nonlocal last_p
        p = cfg.prices.at(max(step, 1))
        if last_p is None or (p is not last_p and not np.array_equal(p, last_p)):
            last_p = p
            held[:] = [None] * len(held)
        for i, strategy in enumerate(pop.strategies):
            if strategy is not held[i]:
                held[i] = strategy
                g_star = equilibrium_growth(strategy, cfg.coefficients, cfg.params, p)
                sigma = ",".join(fmt17(s) for s in strategy.weights)
                tails[i] = f"{fmt17(g_star)},{sigma}"
                if cfg.emit_svg:
                    responses[i] = response(strategy, cfg.coefficients)
        if cfg.emit_svg:
            mean_response.append((step, float(np.mean(responses))))
        blocks.append("\n".join(
            "%d,%d,%.17g,%.17g,%.17g,%s" % (step, i, _income(log_y), log_y, g, tail)
            for i, (log_y, g, tail) in enumerate(
                zip(pop.log_income.tolist(), pop.growth.tolist(), tails)
            )
        ))

    snapshot(0)
    for t in range(1, cfg.steps + 1):
        pop = evolve_step(pop, cfg.params, cfg.coefficients, cfg.prices.at(t), evo)
        snapshot(t)
    _write_lines(cfg.output_path, blocks)
    extras = [write_effective_config(cfg)]
    if cfg.emit_svg:
        path = os.path.splitext(cfg.output_path)[0] + ".response.svg"
        series = [("mean response", mean_response)]
        emit_svg(series, path, title="Population mean response", y_label="response")
        extras.append(path)
    return ExperimentResult(cfg.output_path, tuple(extras))


def landscape_experiment(cfg: RunConfig) -> ExperimentResult:
    """Sample the strategy simplex; writes response and equilibrium growth rows.

    One batched draw takes the values of one draw per sample from the seed's
    stream.  Every check runs before the output is opened."""
    _require(cfg, "landscape")
    n, coeffs = cfg.params.sectors, cfg.coefficients
    draws = experiment_stream(cfg.seed).dirichlet(np.ones(n), size=cfg.landscape.samples)
    sigma = _simplex_point(_project_rows(draws), "strategy weights")
    p = _resolve_prices(n, coeffs, cfg.params, cfg.prices.at(1))
    row = "%.17g," * n + "%.17g,%.17g"

    def lines():  # rows computed and formatted in blocks of 2048
        yield ",".join([*(f"sigma_{i}" for i in range(n)), "response,equilibrium_growth"])
        for block in np.split(sigma, range(2048, len(sigma), 2048)):
            with np.errstate(divide="ignore"):  # log 0 = -inf: response 0
                resp = np.exp(_log_response(block, coeffs))
            g_star = _growth_rows(block, coeffs, cfg.params, p)
            values = np.column_stack([block, resp, g_star]).tolist()
            yield "\n".join(row % tuple(v) for v in values)

    _write_lines(cfg.output_path, lines())
    return ExperimentResult(cfg.output_path, (write_effective_config(cfg),))


DRIVERS = {
    "switch": switch_experiment,
    "evolve": evolve_experiment,
    "landscape": landscape_experiment,
}


def run_experiment(cfg: RunConfig) -> ExperimentResult:
    return DRIVERS[cfg.experiment](cfg)
