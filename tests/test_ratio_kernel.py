"""Properties of the ratio-state step, checked on drawn economies.

Two claims of the model: growth never falls below -deprecation (on every
step of ``run_hold`` and of ``evolve_step``), and the capital/income ratio
is scale-invariant, so scaling the start capital leaves the growth path
unchanged.  A zero-income agent stays absorbed, and no NaN reaches its
records: only its log income is -inf.
"""

import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from growthlab import (
    AgentState,
    EconomyParams,
    EvolutionConfig,
    PriceSchedule,
    ProductionCoefficients,
    Population,
    evolve_step,
    production,
    project_to_simplex,
    run_hold,
    step_agent,
)
from growthlab.evolution import agent_stream

STEPS = 40
FLOOR_TOL = 1e-12  # the same slack as the trajectory tests in test_dynamics.py


def simplex(n: int, low: float = 0.0):
    """Points of the n-simplex; with low = 0, zero weights are drawn too."""
    return st.lists(
        st.floats(low, 1.0), min_size=n, max_size=n
    ).filter(lambda w: sum(w) > 0.0).map(lambda w: project_to_simplex(np.array(w)))


@st.composite
def economies(draw):
    """(coefficients, params, prices) with g* of the even strategy near a
    drawn target, so growth stays in a moderate range."""
    n = draw(st.integers(2, 5))
    coefficients = ProductionCoefficients(draw(simplex(n)).weights)
    delta = draw(st.floats(0.01, 1.0))
    prices = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    target = draw(st.floats(-0.5 * delta, 0.2))
    sup = coefficients.support
    alph = coefficients.alphas[sup]
    gain = np.exp(alph @ np.log(np.full(n, 1.0 / n)[sup] / prices[sup]))
    params = EconomyParams((target + delta) / gain, delta, prices)
    return coefficients, params, prices


def capitals(n: int):
    return st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n).map(np.array)


def state_of(capital, coefficients, params, strategy) -> AgentState:
    income = production(capital, coefficients, params.scaling)
    return AgentState(capital, income, 0.0, strategy)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), economy=economies())
def test_hold_growth_never_below_minus_deprecation(data, economy):
    coefficients, params, prices = economy
    n = params.sectors
    strategy = data.draw(simplex(n))
    start = state_of(data.draw(capitals(n)), coefficients, params, strategy)
    records = run_hold(
        start, params, coefficients, PriceSchedule.constant(prices), STEPS
    )
    assert min(r.growth for r in records) >= -params.deprecation - FLOOR_TOL


@settings(max_examples=30, deadline=None)
@given(data=st.data(), economy=economies())
def test_evolve_growth_never_below_minus_deprecation(data, economy):
    coefficients, params, prices = economy
    n = params.sectors
    agents = [
        state_of(data.draw(capitals(n)), coefficients, params, data.draw(simplex(n)))
        for _ in range(4)
    ]
    config = EvolutionConfig(
        population_size=4, observation_sample=2, imitation_probability=0.5,
        imitation_error_sd=0.1,
    )
    population = Population.from_agents(
        agents, 0, [agent_stream(7, i) for i in range(4)]
    )
    for _ in range(STEPS):
        population = evolve_step(population, params, coefficients, prices, config)
        assert population.growth.min() >= -params.deprecation - FLOOR_TOL


@settings(max_examples=60, deadline=None)
@given(data=st.data(), economy=economies(), factor=st.floats(1e-6, 1e6))
def test_growth_path_is_scale_invariant(data, economy, factor):
    coefficients, params, prices = economy
    n = params.sectors
    strategy = data.draw(simplex(n))
    capital = data.draw(capitals(n))
    schedule = PriceSchedule.constant(prices)
    base = run_hold(
        state_of(capital, coefficients, params, strategy),
        params, coefficients, schedule, STEPS,
    )
    scaled = run_hold(
        state_of(capital * factor, coefficients, params, strategy),
        params, coefficients, schedule, STEPS,
    )
    for one, other in zip(base, scaled):
        assert abs(one.growth - other.growth) <= 1e-12


def test_absorbed_agent_reads_no_nan():
    # full deprecation with all investment in a zero-coefficient sector:
    # income is zero after one step, and the flag keeps it there
    coefficients = ProductionCoefficients(np.array([0.6, 0.4, 0.0]))
    params = EconomyParams(0.5, 1.0, np.ones(3))
    dead = project_to_simplex(np.array([0.0, 0.0, 1.0]))
    live = project_to_simplex(np.array([0.5, 0.3, 0.2]))
    start = state_of(np.ones(3), coefficients, params, dead)
    records = run_hold(
        start, params, coefficients, PriceSchedule.constant(params.prices), 6
    )
    assert [r.growth for r in records] == [-params.deprecation] + [0.0] * 5
    assert [r.income for r in records] == [0.0] * 6
    assert [r.log_income for r in records] == [-np.inf] * 6
    for r in records:
        assert np.isfinite([r.growth, r.equilibrium_growth, r.excess_growth]).all()

    config = EvolutionConfig(
        population_size=2, observation_sample=1, imitation_probability=0.0
    )
    population = Population.from_agents(
        [start, state_of(np.ones(3), coefficients, params, live)],
        0, [agent_stream(3, i) for i in range(2)],
    )
    for step in range(6):
        population = evolve_step(
            population, params, coefficients, params.prices, config
        )
        assert population.absorbed.tolist() == [True, False]
        assert population.growth[0] == (-params.deprecation if step == 0 else 0.0)
        assert np.isfinite(population.ratio).all()
        assert np.isfinite(population.growth).all()


def test_capital_past_float_range_has_no_nan():
    # the uninvested zero-coefficient sector's ratio underflows to 0 while
    # income passes float range: its capital reads 0, not 0 * inf = NaN
    coefficients = ProductionCoefficients(np.array([0.5, 0.5, 0.0]))
    params = EconomyParams(3.0, 0.6, np.ones(3))
    strategy = project_to_simplex(np.array([0.5, 0.5, 0.0]))
    state = state_of(np.ones(3), coefficients, params, strategy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(1200):
            state = step_agent(state, params, coefficients, params.prices)
    assert state.income == np.inf and np.isfinite(state.log_income)
    assert state.ratio[2] == 0.0
    assert state.capital.tolist() == [np.inf, np.inf, 0.0]
