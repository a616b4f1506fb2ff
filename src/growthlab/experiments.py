"""Experiment drivers and flat-file emission: the reproducibility surface.

Every driver takes a validated RunConfig, runs deterministically from its
seed and returns its files' text, opening none: the output CSV (floats at 17
significant digits) and, by suffix, panel CSVs and SVG charts.  The one
writer, ``run_experiment``, writes them beside an effective-config JSON that
repeats the run; it opens every file before it writes any and removes them
if an open or a write fails, so a failed run leaves none of its files.

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
from dataclasses import dataclass, replace
from itertools import chain, repeat
from typing import Iterator, Sequence

import numpy as np

from .config import RunConfig, dump_config
from .core import Strategy, _income, _log_response, _project_rows
from .core import _simplex_point
from .dynamics import TraceRecord, run_switch_experiment
from .equilibrium import _gain_rows
from .equilibrium import optimal_strategy, response
from .evolution import (
    evolve_step,
    experiment_stream,
    init_population,
    mutate_strategy,
)
from .svgchart import emit_svg


def fmt17(x: float) -> str:
    """Serialize a float with 17 significant digits (round-trip safe).

    The formatters below put the same ``%.17g`` in their templates.
    """
    return "%.17g" % x


#: trace fields in CSV order and their formats; g* and sigma: formatted where they change
_TRACE_COLUMNS = {"step": "%d", "agent_id": "%d", "income": "%.17g", "log_income": "%.17g",
                  "growth": "%.17g", "equilibrium_growth": None, "excess_growth": "%.17g",
                  "strategy": None}


def trace_header(sectors: int) -> str:
    return ",".join([*_TRACE_COLUMNS][:-1] + [f"sigma_{i}" for i in range(sectors)])


#: panel -> (title, y label, its series as (label, TraceRecord field) pairs)
_PANELS = {
    "growth": ("Income growth rate vs. equilibrium growth rate", "income growth rate", (
        ("income growth", "growth"), ("equilibrium growth", "equilibrium_growth"))),
    "excess": ("Growth rate minus equilibrium growth rate", "excess growth rate", (
        ("excess growth", "excess_growth"),)),
}


def format_trace(
    records: Sequence[TraceRecord], sectors: int, svg: bool = False
) -> tuple[str, dict[str, list[str]]]:
    """The trace CSV's text, and the panel files by suffix: each panel's CSV,
    joined from the trace's formatted columns, and with svg its chart, all
    from one transposition of the records.  g* and sigma are formatted again
    only where the record's g* or strategy object is not the previous one's."""
    columns = list(zip(*records)) or [()] * len(TraceRecord._fields)
    columns = dict(zip(TraceRecord._fields, columns))
    text = {f: ((spec + ",") * len(records) % columns[f]).split(",")[:-1]
            for f, spec in _TRACE_COLUMNS.items() if spec}
    text["equilibrium_growth"], text["strategy"] = g_text, sigma_text = [], []
    held = (None, None)
    for g, sigma in zip(columns["equilibrium_growth"], columns["strategy"]):
        if g is not held[0] or sigma is not held[1]:
            held, g_str, sigma_str = (g, sigma), fmt17(g), ",".join(map(fmt17, sigma))
        g_text.append(g_str)
        sigma_text.append(sigma_str)
    rows = map(",".join, zip(*(text[f] for f in _TRACE_COLUMNS)))
    trace = "\n".join([trace_header(sectors), *rows])
    files = {}
    for name, (_, _, series) in _PANELS.items():
        fields = ["step", *(f for _, f in series)]
        rows = map(",".join, zip(*(text[f] for f in fields)))
        files[f".{name}.csv"] = ["\n".join([",".join(fields), *rows])]
    for name, (title, y_label, series) in _PANELS.items() if svg else ():
        lines = [(label, list(zip(columns["step"], columns[f]))) for label, f in series]
        files[f".{name}.svg"] = [emit_svg(lines, title=title, y_label=y_label)]
    return trace, files


@dataclass(frozen=True)
class ExperimentResult:
    """Paths written by one ``run_experiment`` call, the output first."""

    output: str
    extras: tuple[str, ...] = ()


def switch_experiment(cfg: RunConfig) -> tuple[list[str], dict[str, list[str]]]:
    """Strategy-switch run: trace CSV plus the two derived chart series.

    A given strategy is used as given.  A null one is drawn from the seed's
    stream (the start, then the switch steps, then each switch in step
    order) as the first of 16 noisy copies of alpha, a near-optimal peer's
    imitations, with a positive response, else alpha.

    Returns the full trace as the output, and two panel CSVs to go next to
    it: income growth vs. equilibrium growth, and their difference (the
    excess growth that spikes right after each switch).  With emit_svg set,
    both panels are also rendered as SVG line charts.
    """
    rng = experiment_stream(cfg.seed)
    sw = cfg.switch
    alpha = optimal_strategy(cfg.coefficients)

    def strategy(given: Sequence[float] | None) -> Strategy:
        if given is not None:
            return Strategy(np.asarray(given))
        draws = (mutate_strategy(alpha, sw.mutation_sd, rng) for _ in range(16))
        return next((s for s in draws if response(s, cfg.coefficients) > 0.0), alpha)

    initial = strategy(sw.initial_sigma)
    steps_at = sw.switch_steps
    if steps_at is None:
        lo = min(20, max(2, cfg.steps // 10))
        # switches fall in [lo, hi), and never after the last step
        hi = min(max(lo + 1, cfg.steps - max(2, cfg.steps // 25)), cfg.steps + 1)
        n_max = sw.max_switches
        count = int(rng.integers(sw.min_switches, n_max + 1)) if n_max > 0 else 0
        count = min(count, hi - lo)
        picks = rng.choice(np.arange(lo, hi), count, replace=False) if count > 0 else []
        steps_at = sorted(map(int, picks))
    given = sw.switch_sigmas or [None] * len(steps_at)
    switches = [(t, strategy(v)) for t, v in zip(steps_at, given)]
    records = run_switch_experiment(
        initial,
        switches,
        cfg.params,
        cfg.coefficients,
        cfg.prices,
        cfg.steps,
    )
    trace, files = format_trace(records, cfg.params.sectors, svg=cfg.emit_svg)
    return [trace], files


def evolve_experiment(cfg: RunConfig) -> tuple[Iterator[str], dict[str, list[str]]]:
    """Population imitation loop; returns the per-step population CSV.

    Steps 0 (the initial population) to T in one loop on the params of the
    current price row, built (so checked) on step 0 and each price change,
    keeping the log incomes, the growth and each agent's strategy id.  Then
    each price row takes one batched g* over the strategies held on its steps,
    and svg one batched response.  Every check runs before this returns; the
    rows are a generator, formatted per step as they are written.
    """
    evo, coeffs, steps = cfg.evolution, cfg.coefficients, cfg.steps
    n, sectors = evo.population_size, cfg.params.sectors
    log_y, growth = np.empty((steps + 1, n)), np.empty((steps + 1, n))
    ids, table, rows = np.empty((steps + 1, n), dtype=np.intp), [], []
    changes = {0, *cfg.prices.change_steps(steps)}
    for t in range(steps + 1):
        if t in changes:  # rows: each price row's params and first step
            params = replace(cfg.params, prices=cfg.prices.at(t or 1))
            rows.append((params, t))
        pop = evolve_step(pop, params, coeffs, evo) if t else init_population(
            params, coeffs, evo)
        new = np.flatnonzero(pop.parents >= 0) if t else np.arange(n)
        ids[t] = ids[t - 1]  # step 0 numbers every agent anew
        ids[t, new] = np.arange(len(table), len(table) + len(new))
        table.extend(pop.sigma[new])  # the ids' rows: step 0's, then each imitator's
        log_y[t], growth[t] = pop.log_income, pop.growth
    sigma, texts = np.array(table), []  # texts: per step, each held strategy's tail by id
    tail = ",".join(["%.17g"] * (sectors + 1))
    for (params, t0), (_, t1) in zip(rows, [*rows[1:], (None, steps + 1)]):
        held, text = np.flatnonzero(np.bincount(ids[t0:t1].ravel())), [""] * len(table)
        g_star = _gain_rows(sigma[held], coeffs, params) - params.deprecation
        for j, values in zip(held.tolist(), np.column_stack([g_star, sigma[held]]).tolist()):
            text[j] = tail % tuple(values)
        texts += [text] * (t1 - t0)
    files = {}
    if cfg.emit_svg:
        with np.errstate(divide="ignore"):  # log 0 = -inf: response 0
            mean = np.exp(_log_response(sigma, coeffs))[ids].mean(axis=1)
        series = [("mean response", list(enumerate(mean.tolist())))]
        files[".response.svg"] = [
            emit_svg(series, title="Population mean response", y_label="response")]
    step = "\n".join(["%d,%d,%.17g,%.17g,%.17g,%s"] * n)

    def lines():
        yield trace_header(sectors).replace("excess_growth,", "")
        for t, text in enumerate(texts):
            ys = log_y[t].tolist()
            values = zip(repeat(t), range(n), map(_income, ys), ys, growth[t].tolist(),
                         map(text.__getitem__, ids[t].tolist()))
            yield step % tuple(chain.from_iterable(values))

    return lines(), files


def landscape_experiment(cfg: RunConfig) -> tuple[Iterator[str], dict[str, list[str]]]:
    """Sample the strategy simplex; returns response and equilibrium growth rows.

    One batched draw takes the values of one draw per sample from the seed's
    stream.  Every check runs before this returns; the rows are a generator,
    computed as they are written."""
    n, coeffs = cfg.params.sectors, cfg.coefficients
    draws = experiment_stream(cfg.seed).dirichlet(np.ones(n), size=cfg.landscape.samples)
    sigma = _simplex_point(_project_rows(draws), "strategy weights")
    params = replace(cfg.params, prices=cfg.prices.at(1))
    _gain_rows(coeffs.alphas[np.newaxis], coeffs, params)  # its max: checked first
    row = "%.17g," * n + "%.17g,%.17g"

    def lines():  # rows computed and formatted in blocks of 2048
        yield ",".join([*(f"sigma_{i}" for i in range(n)), "response,equilibrium_growth"])
        for block in np.split(sigma, range(2048, len(sigma), 2048)):
            with np.errstate(divide="ignore"):  # log 0 = -inf: response 0
                resp = np.exp(_log_response(block, coeffs))
            g_star = _gain_rows(block, coeffs, params) - params.deprecation
            values = np.column_stack([block, resp, g_star])
            yield "\n".join([row] * len(values)) % tuple(values.ravel().tolist())

    return lines(), {}


DRIVERS = {
    "switch": switch_experiment,
    "evolve": evolve_experiment,
    "landscape": landscape_experiment,
}


def run_experiment(cfg: RunConfig) -> ExperimentResult:
    """Run ``cfg``'s driver and write its files: the output at
    ``cfg.output_path``, then the effective config at ``<stem>.config.json``
    and each of the driver's files at ``<stem><suffix>``, in that order.

    Every file is opened before any is written.  If an open or a write fails
    (also in a driver's lazy rows), the files opened are closed and removed
    and the error is raised again, so a failed run leaves none of its files.
    """
    output, files = DRIVERS[cfg.experiment](cfg)
    stem = os.path.splitext(cfg.output_path)[0]
    config = json.dumps(dump_config(cfg), indent=2, sort_keys=True)
    files = {".config.json": [config], **files}
    paths = [cfg.output_path, *(stem + suffix for suffix in files)]
    opened = []
    try:
        for path in paths:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            opened.append(open(path, "w", encoding="utf-8", newline="\n"))
        for fh, lines in zip(opened, [output, *files.values()]):
            with fh:
                for line in lines:
                    fh.write(line)
                    fh.write("\n")
    except BaseException:
        for fh in opened:  # the unwritten ones have nothing to flush
            fh.close()
            os.remove(fh.name)
        raise
    return ExperimentResult(cfg.output_path, tuple(paths[1:]))
