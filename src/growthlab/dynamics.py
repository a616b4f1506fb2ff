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
log income -inf, ratio 0, and growth 0.0 with the ``absorbed`` flag set.

The product is the closed forms' ``core._log_response`` on C-ordered rows
(F-ordered rows round differently); a zero factor is log 0 = -inf, and the
kernel's callers silence numpy's divide warning once, outside their loops.

Steps are numbered from 1; a PriceSchedule maps each step to a price vector
(constant, or a time series that holds its last value past the end).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    _check_sectors,
    _freeze,
    _income,
    _log_response,
    production,
)
from . import equilibrium as eq


@dataclass(frozen=True, eq=False)
class PriceSchedule:
    """Prices per simulation step: a constant vector or a step-indexed series.

    Series lookups past the last entry hold the last value.  The model itself
    prescribes no law for dynamic prices; this type makes whatever choice the
    caller made explicit.
    """

    mode: str  # "constant" | "time-series"
    values: np.ndarray  # (n,) for constant, (T, n) for time-series

    def __post_init__(self):
        if self.mode not in ("constant", "time-series"):
            raise ConfigurationError(f"unknown price schedule mode {self.mode!r}")
        try:
            arr = np.asarray(self.values, dtype=float)
        except ValueError as exc:  # ragged rows
            raise DimensionError(f"prices must be one rectangular array: {exc}") from None
        ndim = 1 if self.mode == "constant" else 2
        if arr.ndim != ndim or arr.size == 0:
            raise DimensionError(
                f"{self.mode} price schedule needs a non-empty {ndim}-d price array"
            )
        object.__setattr__(self, "values", _freeze(_check_prices(arr, arr.shape[-1])))

    @classmethod
    def constant(cls, prices) -> "PriceSchedule":
        return cls("constant", prices)

    @classmethod
    def series(cls, rows) -> "PriceSchedule":
        return cls("time-series", rows)

    @property
    def sectors(self) -> int:
        return int(self.values.shape[-1])

    def at(self, step: int) -> np.ndarray:
        """Price vector for simulation step ``step`` (1-based)."""
        if step < 1:
            raise ConfigurationError(f"step must be >= 1, got {step}")
        if self.mode == "constant":
            return self.values
        return self.values[min(step - 1, self.values.shape[0] - 1)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PriceSchedule):
            return NotImplemented
        return self.mode == other.mode and np.array_equal(self.values, other.values)


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


def step_agent(
    state: AgentState,
    params: EconomyParams,
    coefficients: ProductionCoefficients,
    prices_at_t,
) -> AgentState:
    """Advance one agent by one period under the given prices.

    Checks sector counts and that each price is positive and finite.  The
    new state carries its ratio and log income, so a loop of calls steps
    exactly as ``run_hold`` does.
    """
    p = _step_prices(state.sectors, params, coefficients, prices_at_t)
    # log 0 = -inf is an absorbed agent; capital past float range reads inf
    with np.errstate(divide="ignore", over="ignore"):
        x, log_y, g, absorbed = _advance(
            state.ratio, state.log_income, state.absorbed,
            state.strategy.weights / p, params, coefficients,
        )
        return AgentState._stepped(x, log_y, g, state.strategy, absorbed)


def _step_prices(n: int, params, coefficients, prices_at_t) -> np.ndarray:
    """The period's prices as a float vector, checked against ``n`` sectors
    and for being positive and finite."""
    p = np.asarray(prices_at_t, dtype=float)
    _check_sectors(strategy=n, params=params.sectors, coefficients=coefficients.sectors,
                   prices=p.size)
    return _check_prices(p, n)


def _advance(x, log_y, absorbed, invest, params, coefficients):
    """One period of the ratio state; returns the new (x, log_y, growth, absorbed).

    ``x`` and ``invest`` (sigma / p) are (sectors,) for one agent, with scalar
    log income and flag, or C-ordered (agents, sectors) with (agents,) arrays.
    log(1 + g') is log scaling plus ``_log_response`` of each row, so a
    population row equals the one-agent call bit for bit.  A zero factor (log
    0; callers silence numpy's warning) absorbs the row: growth -1, then 0.0.
    Raises DomainError unless each row's log growth is finite or -inf.
    """
    v = invest + (1.0 - params.deprecation) * x
    log_g = math.log(params.scaling) + _log_response(v, coefficients)
    log_y = log_y + log_g
    gross = np.exp(log_g)
    growth = gross - 1.0
    # one reduction: finite unless some row is absorbed, or broken
    if not math.isfinite(np.add.reduce(log_y, axis=None)):
        if not (log_y < np.inf).all():  # NaN or +inf
            raise DomainError("growth must be finite")
        growth = np.where(absorbed, 0.0, growth)
        absorbed = log_y == -np.inf
        gross = np.where(absorbed, np.inf, gross)  # so their ratio reads 0
    return (v.T / gross).T, log_y, growth, absorbed


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
    prices=None,
) -> AgentState:
    """Agent state with income 1 sitting exactly at the strategy's equilibrium
    ratio, which is then its capital; stepping such a state realizes the
    equilibrium growth rate immediately.  Requires a strategy with positive
    response.
    """
    p = eq._resolve_prices(strategy.sectors, coefficients, params, prices)
    ratio, g = eq._fixed_point_rows(strategy.weights[np.newaxis], coefficients, params, p)
    return AgentState(ratio[0], 1.0, float(g[0]), strategy)


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
    return AgentState(capital, y, 0.0, strategy)


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

    Checked once, on entry: steps, switch steps, every sector count, and
    that the start income is the production of its capital (the schedule
    checked its prices when built).  The steps are ``step_agent``'s: growth
    stays finite, and past float range income reads inf but its log does not.
    """
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    _check_switch_steps([at_step for at_step, _ in switches], steps)
    for strat in [initial, *(strat for _, strat in switches)]:
        _check_sectors(strategy=strat.sectors, params=params.sectors,
                       coefficients=coefficients.sectors, prices=prices.sectors)

    if initial_state is None:
        state = equilibrium_state(initial, coefficients, params, prices.at(1))
    else:
        state = initial_state
        verify_state_consistency(state, params, coefficients)

    pending = dict(switches)
    records: list[TraceRecord] = []
    x, log_y, absorbed = state.ratio, state.log_income, state.absorbed
    current = initial
    last_p = None
    with np.errstate(divide="ignore"):  # log 0 = -inf: an absorbed agent
        for t in range(1, steps + 1):
            p = prices.at(t)
            if t in pending or not (p is last_p or np.array_equal(p, last_p)):
                current = pending.get(t, current)
                sigma, last_p = current.as_tuple(), p
                g_star = eq.equilibrium_growth(current, coefficients, params, p)
                invest = current.weights / p
            x, log_y, g, absorbed = _advance(
                x, log_y, absorbed, invest, params, coefficients
            )
            g, log_y = float(g), float(log_y)
            records.append(TraceRecord(
                t, 0, _income(log_y), g, g_star, g - g_star, sigma, log_y
            ))
    return records
