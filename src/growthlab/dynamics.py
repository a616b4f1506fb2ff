"""Forward simulation of a single agent's capital, income and growth.

One step of the model, given the price vector of the period:

    k_i' = (sigma_i / p_i) * y + (1 - deprecation) * k_i
    y'   = scaling * prod(k_i' ** alpha_i)
    g'   = y' / y - 1                      (while y > 0)

Invested capital is non-malleable: a strategy switch reallocates only new
investment, never the existing per-sector stock.  Income is recomputed from
capital every step rather than accumulated multiplicatively, so the state
fields cannot drift apart.  A zero-income state is absorbing: income stays
zero and growth is reported as 0.0 with the ``absorbed`` flag set, never NaN.

Steps are numbered from 1; a PriceSchedule maps each step to a price vector
(constant, or a time series that holds its last value past the end).
"""

from __future__ import annotations

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
    _freeze,
    _geometric_mean,
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
        arr = np.asarray(self.values, dtype=float)
        ndim = 1 if self.mode == "constant" else 2
        if arr.ndim != ndim or arr.size == 0:
            raise DimensionError(
                f"{self.mode} price schedule needs a non-empty {ndim}-d price array"
            )
        object.__setattr__(self, "values", _freeze(_check_prices(arr, arr.shape[-1])))

    @classmethod
    def constant(cls, prices) -> "PriceSchedule":
        return cls("constant", np.asarray(prices, dtype=float))

    @classmethod
    def series(cls, rows) -> "PriceSchedule":
        return cls("time-series", np.asarray(rows, dtype=float))

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
    agent_id: int
    income: float
    growth: float
    equilibrium_growth: float  # of the current strategy at the step's prices
    excess_growth: float  # growth - equilibrium_growth
    strategy: tuple[float, ...]


def step_agent(
    state: AgentState,
    params: EconomyParams,
    coefficients: ProductionCoefficients,
    prices_at_t,
) -> AgentState:
    """Advance one agent by one period under the given prices.

    Checks sector counts and that each price is positive and finite; raises
    DomainError if the new capital is negative or any new value is not finite.
    """
    p = _step_prices(state.sectors, params, coefficients, prices_at_t)
    k = np.array(state.capital)
    invest = state.strategy.weights / p
    y_new, g_new = _advance(k, state.income, invest, params, coefficients)
    absorbed = not state.income > 0.0 or y_new == 0.0
    return AgentState(k, y_new, g_new, state.strategy, absorbed)


def _step_prices(n: int, params, coefficients, prices_at_t) -> np.ndarray:
    """The period's prices as a float vector, checked against ``n`` sectors
    and for being positive and finite."""
    p = np.asarray(prices_at_t, dtype=float)
    _check_sectors(n, params, coefficients, p.size)
    return _check_prices(p, n)


def _check_sectors(n: int, params, coefficients, n_prices: int) -> None:
    if n != params.sectors or n != coefficients.sectors or n_prices != n:
        raise ConfigurationError(
            f"dimension mismatch: strategy {n}, params {params.sectors}, "
            f"coefficients {coefficients.sectors}, prices {n_prices}"
        )


def _advance(k, y: float, invest, params, coefficients) -> tuple[float, float]:
    """Overwrite capital ``k`` with ``invest * y + (1 - deprecation) * k``,
    where ``invest`` is sigma / p; return the new (income, growth).
    Raises DomainError on negative or non-finite capital, infinite income or
    non-finite growth.  Zero income is absorbing: its growth reads 0.0.
    """
    k *= 1.0 - params.deprecation
    k += invest * y
    y_new = params.scaling * _geometric_mean(k, coefficients)
    if y_new == np.inf:
        raise DomainError("income must be a non-negative real")
    g_new = y_new / y - 1.0 if y > 0.0 else 0.0
    if not g_new < np.inf:  # g >= -1, so this also rejects NaN
        raise DomainError("growth must be finite")
    return y_new, g_new


def _advance_rows(K, y, invest, params, coefficients) -> tuple[np.ndarray, np.ndarray]:
    """``_advance`` on every row of the (agents, sectors) capital ``K`` at once.

    ``y`` holds the incomes and ``invest`` the rows sigma / p.  The arithmetic
    is ``_advance``'s, row by row: each row's log-sum is its own ``np.dot``,
    because a matrix product rounds differently in the last bit.  The same
    DomainErrors are raised when any row fails a check.
    """
    K *= 1.0 - params.deprecation
    K += invest * y[:, None]
    lo = float(K.min())
    if not lo >= 0.0 or float(K.max()) == np.inf:
        raise DomainError("base components must be non-negative finite reals")
    sup = coefficients.support
    alph = coefficients.alphas[sup]
    # a zero factor gives log 0 = -inf and exp(-inf) = 0.0: the zero income
    # that _geometric_mean returns for it directly.  K[:, sup] is laid out
    # column-major, and np.dot on a strided row rounds differently, so the
    # logs are stored row-major.
    with np.errstate(divide="ignore"):
        logs = np.log(K[:, sup], order="C")
    y_new = params.scaling * np.exp([np.dot(alph, row) for row in logs])
    if y_new.max() == np.inf:
        raise DomainError("income must be a non-negative real")
    # 1.0 where income was zero, so absorbed rows read growth 0.0
    g_new = np.divide(y_new, y, out=np.ones_like(y), where=y > 0.0) - 1.0
    if not g_new.max() < np.inf:
        raise DomainError("growth must be finite")
    return y_new, g_new


def verify_state_consistency(
    state: AgentState,
    params: EconomyParams,
    coefficients: ProductionCoefficients,
    rel_tol: float = 1e-12,
) -> None:
    """Raise unless state.income matches production(state.capital) within rel_tol."""
    derived = production(state.capital, coefficients, params.scaling)
    scale = max(abs(derived), abs(state.income), 1e-300)
    if abs(derived - state.income) > rel_tol * scale:
        raise InvariantViolation(
            f"income {state.income!r} inconsistent with capital-derived "
            f"value {derived!r}"
        )


def equilibrium_state(
    strategy: Strategy,
    coefficients: ProductionCoefficients,
    params: EconomyParams,
    prices=None,
    income: float = 1.0,
) -> AgentState:
    """Agent state sitting exactly at the strategy's equilibrium ratio.

    Capital is the equilibrium capital/income ratio scaled to the requested
    income level; stepping such a state realizes the equilibrium growth rate
    immediately.  Requires a strategy with positive response.
    """
    if income <= 0.0:
        raise DomainError("income must be positive")
    ratio = eq.equilibrium_ratio(strategy, coefficients, params, prices)
    capital = ratio * income
    y = production(capital, coefficients, params.scaling)
    g = eq.equilibrium_growth(strategy, coefficients, params, prices)
    return AgentState(capital, y, g, strategy)


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
    agent_id: int = 0,
) -> list[TraceRecord]:
    """Simulate ``steps`` periods with a fixed strategy; one record per step.

    The no-switch case of ``run_switch_experiment``, with the same checks.
    """
    return run_switch_experiment(
        state.strategy, (), params, coefficients, prices, steps,
        initial_state=state, agent_id=agent_id,
    )


def run_switch_experiment(
    initial: Strategy,
    switches: Sequence[tuple[int, Strategy]],
    params: EconomyParams,
    coefficients: ProductionCoefficients,
    prices: PriceSchedule,
    steps: int,
    initial_state: AgentState | None = None,
    agent_id: int = 0,
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
    checked its prices when built).  Each step raises DomainError as
    ``step_agent`` does, so no record holds a non-finite value.
    """
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    last_step = 0
    for at_step, strat in switches:
        if not (1 <= at_step <= steps):
            raise ConfigurationError(
                f"switch step {at_step} outside [1, {steps}]"
            )
        if at_step <= last_step:
            raise ConfigurationError(
                f"switch steps must be strictly increasing (got {at_step} "
                f"after {last_step})"
            )
        _check_sectors(strat.sectors, params, coefficients, prices.sectors)
        last_step = at_step
    _check_sectors(initial.sectors, params, coefficients, prices.sectors)

    if initial_state is None:
        state = equilibrium_state(
            initial, coefficients, params, prices.at(1), income=1.0
        )
    else:
        state = initial_state
        verify_state_consistency(state, params, coefficients)

    pending = dict(switches)
    records: list[TraceRecord] = []
    k = np.array(state.capital)
    y = state.income
    current = initial
    sigma = current.as_tuple()
    last_p: np.ndarray | None = None
    stale = True
    for t in range(1, steps + 1):
        if t in pending:
            current = pending[t]
            sigma = current.as_tuple()
            stale = True
        p = prices.at(t)
        if last_p is None or (p is not last_p and not np.array_equal(p, last_p)):
            last_p = p
            stale = True
        if stale:
            g_star = eq.equilibrium_growth(current, coefficients, params, p)
            invest = current.weights / p
            stale = False
        y, g = _advance(k, y, invest, params, coefficients)
        records.append(TraceRecord(t, agent_id, y, g, g_star, g - g_star, sigma))
    return records
