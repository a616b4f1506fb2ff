"""Shared instance generators and reference loops for the test suite."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from growthlab import (
    EconomyParams,
    ProductionCoefficients,
    Strategy,
    project_to_simplex,
    response,
)
from growthlab.dynamics import PriceSchedule, TraceRecord, step_agent
from growthlab.equilibrium import equilibrium_growth, optimal_strategy


@dataclass(frozen=True)
class Instance:
    """One randomized economy plus a strategy under test."""

    params: EconomyParams
    coefficients: ProductionCoefficients
    strategy: Strategy
    schedule: PriceSchedule


def random_instance(
    rng: np.random.Generator,
    n: int | None = None,
    *,
    target_growth: float = 0.0185,
    delta: float | None = None,
) -> Instance:
    """Random economy with scaling calibrated so the sampled strategy's own
    equilibrium growth equals ``target_growth``.

    Calibrating on the sampled strategy (not the optimum) keeps the
    capital/income contraction factor (1 - delta) / (1 + g) bounded away
    from 1 for every draw, so convergence horizons are uniform across
    instances.
    """
    if n is None:
        n = int(rng.integers(2, 7))
    alphas = rng.dirichlet(np.ones(n))
    coefficients = ProductionCoefficients(alphas)
    strategy = project_to_simplex(rng.dirichlet(np.ones(n)))
    if delta is None:
        # 1 - U[0, 1) lies in (0, 1]
        delta = 1.0 - float(rng.uniform(0.0, 1.0))
    prices = rng.uniform(0.5, 2.0, n)
    resp = response(strategy, coefficients)
    scaling = (target_growth + delta) / (
        float(np.prod(prices ** -alphas)) * resp
    )
    params = EconomyParams(scaling, delta, prices)
    return Instance(params, coefficients, strategy, PriceSchedule.constant(prices))


def default_economy(target_growth: float = 0.0185):
    """Two-sector reference economy calibrated to the default target growth."""
    from growthlab.equilibrium import calibrate_scaling

    coefficients = ProductionCoefficients(np.array([0.5, 0.5]))
    prices = np.array([1.0, 1.0])
    delta = 0.03
    scaling = calibrate_scaling(target_growth, coefficients, delta, prices)
    params = EconomyParams(scaling, delta, prices)
    return params, coefficients, PriceSchedule.constant(prices)


def near_optimal(coefficients, sd, rng, retries: int = 50) -> Strategy:
    """Noisy copy of the optimal strategy with a guaranteed positive response."""
    from growthlab.evolution import mutate_strategy

    alpha = optimal_strategy(coefficients)
    for _ in range(retries):
        cand = mutate_strategy(alpha, sd, rng)
        if response(cand, coefficients) > 0.0:
            return cand
    return alpha


def step_agent_records(state, switches, params, coefficients, prices, steps):
    """Reference trace: a plain ``step_agent`` loop, one record per step."""
    pending = dict(switches)
    records = []
    for t in range(1, steps + 1):
        if t in pending:
            state = replace(state, strategy=pending[t])
        row = replace(params, prices=prices.at(t))
        state = step_agent(state, row, coefficients)
        g_star = equilibrium_growth(state.strategy, coefficients, row)
        records.append(
            TraceRecord(
                t, 0, state.income, state.growth, g_star,
                state.growth - g_star, state.strategy.as_tuple(), state.log_income,
            )
        )
    return records
