"""Forward simulation of a single agent's capital, income and growth.

One step of the model, given the price vector of the period, is

    k_i' = (sigma_i / p_i) * y + (1 - deprecation) * k_i
    y'   = scaling * prod(k_i' ** alpha_i),    g' = y' / y - 1

and with constant returns to scale it is computed on the capital/income
ratio x = k / y and the log income, so income cannot overflow:

    1 + g' = scaling * prod((sigma_i / p_i + (1 - deprecation) * x_i) ** alpha_i)
    x'     = (sigma / p + (1 - deprecation) * x) / (1 + g')
    log y' = log y + log(1 + g')

Invested capital is non-malleable: a strategy switch reallocates only new
investment, never the existing per-sector stock.  Zero income is absorbing:
log income -inf, ratio 0, and growth 0.0.  An ``AgentState`` stores the
ratio and the log income, and derives capital, income and ``absorbed``.

The product is the closed forms' ``core._log_response`` on C-ordered rows
(F-ordered rows round differently); a zero factor is log 0 = -inf.  The
kernel's callers silence numpy's divide and overflow warnings once, outside.

Steps are numbered from 1; a PriceSchedule maps each step to a row of its
price table, holding the last row past the end.  Once a held ratio repeats
exactly, the rest of its steps are emitted in one pass, not recomputed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import accumulate, cycle, islice, repeat
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    AgentState,
    ConfigurationError,
    DimensionError,
    DomainError,
    EconomyParams,
    InvariantViolation,
    ProductionCoefficients,
    Strategy,
    _check_prices,
    _equal_fields,
    _freeze,
    _income,
    _log_response,
    production,
)
from . import equilibrium as eq


@dataclass(frozen=True, eq=False)
class PriceSchedule:
    """Prices per simulation step: a (T, n) table whose row t - 1 holds the
    prices of step t; the last row holds past the end.  A constant schedule
    is one row.

    The model itself prescribes no law for dynamic prices; this type makes
    whatever choice the caller made explicit.  The steps on which prices
    change, those t >= 2 whose row differs in value from row t - 1, are found
    once, here, so a loop over the steps recomputes only on them.
    """

    values: np.ndarray
    _changes: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        try:
            arr = np.asarray(self.values, dtype=float)
        except ValueError as exc:  # ragged rows
            raise DimensionError(f"prices must be one rectangular array: {exc}") from None
        if arr.ndim != 2 or arr.size == 0:
            raise DimensionError("a price schedule needs a non-empty (steps, sectors) table")
        values = _freeze(_check_prices(arr, arr.shape[1]))
        changed = (values[1:] != values[:-1]).any(axis=1)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_changes", tuple((np.flatnonzero(changed) + 2).tolist()))

    @classmethod
    def constant(cls, prices) -> "PriceSchedule":
        return cls([prices])

    def at(self, step: int) -> np.ndarray:
        """Price vector for simulation step ``step`` (1-based)."""
        if step < 1:
            raise ConfigurationError(f"step must be >= 1, got {step}")
        return self.values[min(step, len(self.values)) - 1]

    def change_steps(self, steps: int) -> list[int]:
        """The steps t in [2, steps] whose price row differs from the row
        before: the steps on which prices change."""
        return [t for t in self._changes if t <= steps]

    __eq__ = _equal_fields


class TraceRecord(NamedTuple):
    """One row of simulation output."""

    step: int
    agent_id: int  # 0: a trace follows one agent
    income: float  # exp(log_income): inf past float range, 0.0 once absorbed
    growth: float
    equilibrium_growth: float  # of the current strategy at the step's prices
    excess_growth: float  # growth - equilibrium_growth
    strategy: tuple[float, ...]
    log_income: float  # -inf once absorbed


# log 0 = -inf is an absorbed agent; capital past float range reads inf
@np.errstate(divide="ignore", over="ignore")
def step_agent(
    state: AgentState,
    params: EconomyParams,
    coefficients: ProductionCoefficients,
) -> AgentState:
    """Advance one agent by one period at the params' prices.

    Checks sector counts; for another price row, pass its params
    (``dataclasses.replace(params, prices=row)``).  The new state carries its
    ratio and log income, so a loop of calls steps exactly as ``run_hold`` does.
    """
    eq._check_counts(state.sectors, coefficients, params)
    x, log_y, g, _ = _advance(state.ratio, state.log_income,
                              state.strategy.weights / params.prices, params, coefficients)
    x.flags.writeable = False
    return AgentState(ratio=x, log_income=float(log_y), growth=float(g),
                      strategy=state.strategy)


def _advance(x, log_y, invest, params, coefficients):
    """One period of the ratio state: the new (x, log_y, growth) and log(1 + g').

    ``x`` and ``invest`` (sigma / p) are (sectors,) for one agent, with a
    scalar log income, or C-ordered (agents, sectors) with an (agents,) one.
    The capital carried over is ``params.retention`` (1 - deprecation, per
    sector, so it broadcasts over rows) times x, and log(1 + g') is
    ``params.log_scaling`` plus ``_log_response`` of each row: one ``dot`` for
    one agent, np.vecdot for rows, with the same bits, so a population row
    equals the one-agent call bit for bit.  A zero factor (log 0; callers
    silence numpy's warning) absorbs the row: growth -1, then 0.0 while its
    log income stays -inf.  Below full deprecation a live row's zero factor
    is a ratio that underflowed, so it is floored at the smallest positive
    float instead.  Raises DomainError unless each row's growth is finite and
    its log income finite or -inf.
    """
    v = invest + params.retention * x
    log_g = params.log_scaling + _log_response(v, coefficients)
    new_log_y = log_y + log_g
    gross = np.exp(log_g)
    growth = gross - 1.0
    one = v.ndim == 1  # one agent: 0-d values, tested with no reduction
    # finite unless some row is absorbed, or broken
    if not math.isfinite(new_log_y + gross if one
                         else np.add.reduce(new_log_y + gross, axis=None)):
        if not ((new_log_y < np.inf) & (gross < np.inf)).all():  # NaN or +inf
            raise DomainError("growth must be finite")
        # while deprecation < 1 a live row's supported capital stays positive,
        # so its log growth -inf is an underflow: floor its zero factors
        lost = (log_g == -np.inf) & (log_y > -np.inf)
        if params.deprecation < 1.0 and lost.any():
            floored = np.maximum(v, np.finfo(float).smallest_subnormal)
            v = np.where(np.expand_dims(lost, -1), floored, v)
            log_g = params.log_scaling + _log_response(v, coefficients)
            new_log_y = log_y + log_g
            gross = np.exp(log_g)
            growth = gross - 1.0
        growth = np.where(log_y == -np.inf, 0.0, growth)  # absorbed before
        gross = np.where(new_log_y == -np.inf, np.inf, gross)  # so their ratio reads 0
    return (v / gross if one else (v.T / gross).T), new_log_y, growth, log_g


def _check_switch_steps(at_steps: Sequence[int], steps: int) -> None:
    """Raise unless the switch steps increase strictly within [1, steps]."""
    prev = 0
    for i, s in enumerate(at_steps):
        if not prev < s <= steps:
            raise ConfigurationError(f"switch_steps[{i}]: {s} not in ({prev}, {steps}]")
        prev = s


def verify_state_consistency(
    state: AgentState,
    params: EconomyParams,
    coefficients: ProductionCoefficients,
) -> None:
    """Raise unless the capital/income ratio produces income 1 within 1e-12:
    income = production(capital), also past float range.  Absorbed: no check."""
    if state.absorbed:
        return
    derived = production(state.ratio, coefficients, params.scaling)
    if not abs(derived - 1.0) <= 1e-12:
        raise InvariantViolation(
            f"income {state.income!r} inconsistent with capital: its "
            f"capital/income ratio produces {derived!r}, not 1"
        )


def equilibrium_state(
    strategy: Strategy,
    coefficients: ProductionCoefficients,
    params: EconomyParams,
) -> AgentState:
    """Agent state with income 1 sitting exactly at the strategy's equilibrium
    ratio at the params' prices, which is then its capital; stepping such a
    state realizes the equilibrium growth rate immediately.  Requires a
    strategy with positive response.
    """
    eq._check_counts(strategy.sectors, coefficients, params)
    ratio, g = eq._fixed_point_rows(strategy.weights[np.newaxis], coefficients, params)
    ratio.flags.writeable = False
    return AgentState(ratio=ratio[0], log_income=0.0, growth=float(g[0]), strategy=strategy)


def uniform_state(
    strategy: Strategy,
    coefficients: ProductionCoefficients,
    params: EconomyParams,
    capital_level: float = 1.0,
) -> AgentState:
    """Agent state with the same capital in every sector (generic start)."""
    if capital_level <= 0.0:
        raise DomainError("capital_level must be positive")
    capital = np.full(params.sectors, float(capital_level))
    y = production(capital, coefficients, params.scaling)
    return AgentState.from_capital(capital, y, 0.0, strategy)


def run_hold(
    state: AgentState,
    params: EconomyParams,
    coefficients: ProductionCoefficients,
    prices: PriceSchedule,
    steps: int,
) -> list[TraceRecord]:
    """Simulate ``steps`` periods with a fixed strategy; one record per step.

    The no-switch case of ``run_switch_experiment``, with the same checks.
    """
    return run_switch_experiment(
        state.strategy, (), params, coefficients, prices, steps, initial_state=state
    )


def run_switch_experiment(
    initial: Strategy,
    switches: Sequence[tuple[int, Strategy]],
    params: EconomyParams,
    coefficients: ProductionCoefficients,
    prices: PriceSchedule,
    steps: int,
    initial_state: AgentState | None = None,
) -> list[TraceRecord]:
    """Simulate one agent whose strategy is replaced at the given steps.

    A switch scheduled at step t takes effect before step t is computed.
    Capital is untouched by a switch: once invested it cannot be transferred
    between sectors.  The trace records the equilibrium growth of whichever
    strategy is current at each step.  With no switches the output is
    identical to ``run_hold``.

    By default the agent starts exactly at the initial strategy's equilibrium
    with income 1, so pre-switch growth already equals equilibrium growth.

    Checked once, on entry: steps, switch steps, every sector count against
    row 1's params, and that the start income is the production of its
    capital.  Each price row's params (``params`` with its prices) are built,
    so checked, once; a segment steps on its row's, passing no prices.  The
    steps are ``step_agent``'s: growth stays finite, and past float range
    income reads inf but its log does not.
    Sigma / p is fixed from step 1, a switch or a price change to the next,
    so a live step there is a function of its ratio.  Once one (log income
    finite) returns, byte for byte, the ratio of one or two steps back, the
    rest of the segment repeats it and is emitted in one pass, with the
    kernel's bytes: each phase's own growth, ``_income``, and log incomes by
    ``accumulate``, the same sequential float add (log growth < 709.8).
    """
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    _check_switch_steps([at_step for at_step, _ in switches], steps)
    rows = {t: replace(params, prices=prices.at(t)) for t in [1, *prices.change_steps(steps)]}
    for strat in [initial, *(strat for _, strat in switches)]:
        eq._check_counts(strat.sectors, coefficients, rows[1])

    if initial_state is None:
        state = equilibrium_state(initial, coefficients, rows[1])
    else:
        state = initial_state
        verify_state_consistency(state, params, coefficients)

    pending = {1: initial, **dict(switches)}  # the strategy from each of its steps on
    firsts = sorted({*pending, *rows})  # each starts a segment
    records: list[TraceRecord] = []
    x, log_y = state.ratio, state.log_income
    with np.errstate(divide="ignore", over="ignore"):  # absorbed; growth _advance rejects
        for first, stop in zip(firsts, [*firsts[1:], steps + 1]):
            row = rows[first] if first in rows else row
            current = pending[first] if first in pending else current
            sigma = current.as_tuple()
            g_star = eq.equilibrium_growth(current, coefficients, row)
            invest = current.weights / row.prices
            before = last = (b"",)  # steps t - 2, t - 1: (x bytes, x, log g, g, excess)
            for t in range(first, stop):
                x, log_y, g, log_g = _advance(x, log_y, invest, row, coefficients)
                g, log_y = float(g), float(log_y)
                out = (x.tobytes(), x, float(log_g), g, g - g_star)
                records.append(TraceRecord(t, 0, _income(log_y), g, g_star, out[4],
                                           sigma, log_y))
                # a live step whose x is that of step t - 1 or t - 2 repeats to `stop`
                if log_y > -math.inf and out[0] in (last[0], before[0]):
                    phases = [out] if out[0] == last[0] else [last, out]  # period 1 or 2
                    _, xs, log_gs, gs, excess = zip(*phases)
                    log_ys = [*accumulate(islice(cycle(log_gs), stop - t - 1), initial=log_y)]
                    records.extend(map(tuple.__new__, repeat(TraceRecord), zip(
                        range(t + 1, stop), repeat(0), map(_income, log_ys[1:]), cycle(gs),
                        repeat(g_star), cycle(excess), repeat(sigma), log_ys[1:])))
                    x, log_y = xs[(stop - t - 2) % len(xs)], log_ys[-1]  # of step stop - 1
                    break
                before, last = last, out
    return records
