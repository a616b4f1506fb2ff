"""Experiment drivers and flat-file emission: the reproducibility surface.

Every driver takes a validated RunConfig, runs deterministically from its
seed, writes CSV (canonical output, floats at 17 significant digits) and
optionally self-contained SVG charts, and drops an effective-config JSON
next to the main output so the exact run can be repeated.

Trace CSV columns:      step,agent_id,income,growth,equilibrium_growth,
                        excess_growth,sigma_0,...,sigma_{n-1}
Population CSV columns: step,agent_id,income,growth,equilibrium_growth,
                        sigma_0,...,sigma_{n-1}
Landscape CSV columns:  sigma_0,...,sigma_{n-1},response,equilibrium_growth
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import RunConfig, dump_config
from .core import ConfigurationError, Strategy, project_to_simplex
from .dynamics import TraceRecord, run_switch_experiment
from .equilibrium import equilibrium_growth, optimal_strategy, response
from .evolution import (
    evolve_step,
    experiment_stream,
    init_population,
    mutate_strategy,
)
from .svgchart import emit_svg


def fmt17(x: float) -> str:
    """Serialize a float with 17 significant digits (round-trip safe)."""
    return format(float(x), ".17g")


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
    return f"step,agent_id,income,growth,equilibrium_growth,excess_growth,{sigma_cols}"


def write_trace_csv(records: Sequence[TraceRecord], sectors: int, path: str) -> None:
    lines = [trace_header(sectors)]
    for r in records:
        sigma = ",".join(fmt17(s) for s in r.strategy)
        lines.append(
            f"{r.step},{r.agent_id},{fmt17(r.income)},{fmt17(r.growth)},"
            f"{fmt17(r.equilibrium_growth)},{fmt17(r.excess_growth)},{sigma}"
        )
    _write_lines(path, lines)


def population_header(sectors: int) -> str:
    sigma_cols = ",".join(f"sigma_{i}" for i in range(sectors))
    return f"step,agent_id,income,growth,equilibrium_growth,{sigma_cols}"


def landscape_header(sectors: int) -> str:
    sigma_cols = ",".join(f"sigma_{i}" for i in range(sectors))
    return f"{sigma_cols},response,equilibrium_growth"


def write_effective_config(cfg: RunConfig) -> str:
    """Dump the materialized configuration next to the main output file."""
    stem, _ = os.path.splitext(cfg.output_path)
    path = stem + ".config.json"
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(dump_config(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
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
        hi = max(lo + 1, cfg.steps - max(2, cfg.steps // 25))
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


def _emit_panels(
    records: Sequence[TraceRecord], output_path: str, svg: bool
) -> list[str]:
    stem, _ = os.path.splitext(output_path)
    growth_csv = stem + ".growth.csv"
    excess_csv = stem + ".excess.csv"
    lines = ["step,growth,equilibrium_growth"]
    for r in records:
        lines.append(f"{r.step},{fmt17(r.growth)},{fmt17(r.equilibrium_growth)}")
    _write_lines(growth_csv, lines)
    lines = ["step,excess_growth"]
    for r in records:
        lines.append(f"{r.step},{fmt17(r.excess_growth)}")
    _write_lines(excess_csv, lines)
    written = [growth_csv, excess_csv]
    if svg:
        growth_svg = stem + ".growth.svg"
        excess_svg = stem + ".excess.svg"
        emit_svg(
            [
                ("income growth", [(r.step, r.growth) for r in records]),
                (
                    "equilibrium growth",
                    [(r.step, r.equilibrium_growth) for r in records],
                ),
            ],
            growth_svg,
            title="Income growth rate vs. equilibrium growth rate",
            y_label="income growth rate",
        )
        emit_svg(
            [("excess growth", [(r.step, r.excess_growth) for r in records])],
            excess_svg,
            title="Growth rate minus equilibrium growth rate",
            y_label="excess growth rate",
        )
        written.extend([growth_svg, excess_svg])
    return written


def evolve_experiment(cfg: RunConfig) -> ExperimentResult:
    """Population imitation loop; writes the per-step population CSV.

    Each agent's g*, response and formatted ``g*,sigma_0,...`` tail are
    computed again only when its strategy or the price row changes.
    """
    _require(cfg, "evolve")
    evo = cfg.evolution
    pop = init_population(cfg.params, cfg.coefficients, evo, cfg.prices.at(1))
    blocks = [population_header(cfg.params.sectors)]  # one block of rows per step
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
            f"{step},{i},{fmt17(y)},{fmt17(g)},{tail}"
            for i, (y, g, tail) in enumerate(
                zip(pop.income.tolist(), pop.growth.tolist(), tails)
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
    """Sample the strategy simplex; writes response and equilibrium growth rows."""
    _require(cfg, "landscape")
    rng = experiment_stream(cfg.seed)
    n = cfg.params.sectors
    lines = [landscape_header(n)]
    p = cfg.prices.at(1)
    ones = np.ones(n)
    for _ in range(cfg.landscape.samples):
        sigma = project_to_simplex(rng.dirichlet(ones))
        resp = response(sigma, cfg.coefficients)
        g_star = equilibrium_growth(sigma, cfg.coefficients, cfg.params, p)
        sig = ",".join(fmt17(x) for x in sigma.weights)
        lines.append(f"{sig},{fmt17(resp)},{fmt17(g_star)}")
    _write_lines(cfg.output_path, lines)
    return ExperimentResult(cfg.output_path, (write_effective_config(cfg),))


DRIVERS = {
    "switch": switch_experiment,
    "evolve": evolve_experiment,
    "landscape": landscape_experiment,
}


def run_experiment(cfg: RunConfig) -> ExperimentResult:
    return DRIVERS[cfg.experiment](cfg)
