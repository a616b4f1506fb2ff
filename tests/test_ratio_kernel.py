"""Properties of the ratio-state step, checked on drawn economies.

Four claims of the model: growth never falls below -deprecation (on every
step of ``run_hold`` and of ``evolve_step``), the capital/income ratio is
scale-invariant, so scaling the start capital leaves the growth path
unchanged, strategies stay on the simplex after mutation and after
imitation, and every switch approaches its new equilibrium from above.  A zero-income agent stays absorbed, and no NaN reaches its
records: only its log income is -inf.  A switch away from a fixed point
shows in the growth of the very step it takes effect (README derives the
bound).  A switch run, which replays its own steps once its ratio repeats,
matches a ``step_agent`` loop bit for bit.
"""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings, strategies as st

from growthlab import (
    AgentState,
    EconomyParams,
    EvolutionConfig,
    PriceSchedule,
    ProductionCoefficients,
    Population,
    evolve_step,
    calibrate_scaling,
    production,
    project_to_simplex,
    run_hold,
    run_switch_experiment,
    step_agent,
)
from growthlab.core import _log_response
from growthlab.dynamics import equilibrium_state
from growthlab.evolution import SELECTION_RULES, agent_stream, mutate_strategy

from conftest import step_agent_records

STEPS = 40
FLOOR_TOL = 1e-12  # the same slack as the trajectory tests in test_dynamics.py
EXCESS_TOL = 1e-10  # criterion 4's bound on post-switch excess growth
VISIBLE_TOL = 1e-12  # absolute, on the log-growth bound of a switch


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
    return AgentState.from_capital(capital, income, 0.0, strategy)


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
    coefficients, params, _ = economy
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
        population = evolve_step(population, params, coefficients, config)
        assert population.growth.min() >= -params.deprecation - FLOOR_TOL


@settings(max_examples=60, deadline=None)
@given(
    parent=st.integers(1, 6).flatmap(simplex),
    sd=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32),
)
def test_mutation_stays_on_simplex(parent, sd, seed):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        child = mutate_strategy(parent, sd, rng)
        assert child.sectors == parent.sectors
        w = child.weights
        assert w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(
    data=st.data(),
    economy=economies(),
    rule=st.sampled_from(SELECTION_RULES),
    sd=st.floats(0.0, 1.0),
)
def test_imitation_stays_on_simplex(data, economy, rule, sd):
    coefficients, params, _ = economy
    n = params.sectors
    agents = [
        state_of(data.draw(capitals(n)), coefficients, params, data.draw(simplex(n)))
        for _ in range(5)
    ]
    config = EvolutionConfig(
        population_size=5, observation_sample=2, imitation_probability=1.0,
        imitation_error_sd=sd, selection_rule=rule,
    )
    population = Population.from_agents(
        agents, 0, [agent_stream(11, i) for i in range(5)]
    )
    for _ in range(STEPS):
        population = evolve_step(population, params, coefficients, config)
        for strategy in population.strategies:
            w = strategy.weights
            assert strategy.sectors == n
            assert w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-12


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


@st.composite
def switch_runs(draw, b_like_a: bool = False):
    """(a, b, params, coefficients, prices) with 2-6 sectors and zero entries
    drawn in alpha, a and b.  a invests in every sector alpha supports, so
    its response is positive and it has a fixed point to start from.  With
    ``b_like_a``, b is drawn as a is, so its response is positive too.

    Nonzero strategy entries go down to 1e-300 before repair, so a's
    response can be tiny: its fixed point must divide by scaling * response,
    not by g* + deprecation after the two cancel, or the start is off its
    fixed point by more than the bound.  Deprecation starts at 1e-6, so the
    ratio, at most about 1 / (delta * 1e-300), stays in float range.
    """
    n = draw(st.integers(2, 6))
    coefficients = ProductionCoefficients(draw(simplex(n)).weights)
    positive = st.floats(1e-300, 1.0)
    entries = st.one_of(st.just(0.0), positive)
    supported = st.tuples(*(positive if x > 0.0 else entries for x in coefficients.alphas))
    a = draw(supported)
    b = draw(supported if b_like_a else
             st.lists(entries, min_size=n, max_size=n).filter(lambda w: sum(w) > 0.0))
    delta = draw(st.floats(1e-6, 1.0))
    prices = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    target = draw(st.floats(-0.5 * delta, 0.2))
    scaling = calibrate_scaling(target, coefficients, delta, prices)
    params = EconomyParams(scaling, delta, prices)
    return project_to_simplex(a), project_to_simplex(b), params, coefficients, prices


@settings(max_examples=60, deadline=None)
@given(run=switch_runs())
# sector 0's ratio decays by 1/8 a step under b and underflows at step 28;
# exact capital stays positive, so the agent must not be absorbed
@example(run=(
    project_to_simplex(np.array([1e-300, 1.0])),
    project_to_simplex(np.array([0.0, 1.0])),
    EconomyParams(0.875, 0.875, np.ones(2)),
    ProductionCoefficients(np.array([2.4916783929421428e-185, 1.0])),
    np.ones(2),
))
def test_every_switch_overshoots_from_above(run):
    a, b, params, coefficients, prices = run
    records = run_switch_experiment(
        a, [(2, b)], params, coefficients, PriceSchedule.constant(prices), STEPS
    )
    assert min(r.excess_growth for r in records) >= -EXCESS_TOL


@settings(max_examples=60, deadline=None)
@given(data=st.data(), run=switch_runs())
def test_switch_run_matches_a_step_agent_loop(data, run):
    # from a's fixed point the ratio repeats at once; the price change and the
    # switch each end a replay, or land before one starts
    a, b, params, coefficients, prices = run
    steps = data.draw(st.integers(2, 200))
    change, switch = data.draw(st.integers(2, steps)), data.draw(st.integers(1, steps))
    later = np.array(data.draw(st.lists(st.floats(0.5, 2.0), min_size=params.sectors,
                                        max_size=params.sectors)))
    schedule = PriceSchedule([prices] * (change - 1) + [later])
    got = run_switch_experiment(a, [(switch, b)], params, coefficients, schedule, steps)
    start = equilibrium_state(a, coefficients, params)
    want = step_agent_records(start, [(switch, b)], params, coefficients, schedule, steps)
    assert [repr(r) for r in got] == [repr(r) for r in want]


def visibility_slack(run) -> float:
    """log(1+g) - log(1+g*_a) - w (L_b - L_a) for an agent at a's fixed point
    that switches to b at step 2, g being its growth there; w = (g*_a + delta)
    / (1 + g*_a) and L = ``_log_response`` at the prices.  Concavity of log
    makes it at least 0; inf where b leaves a supported sector empty.

    g*_a + delta is s exp(L_a), which does not round to 0, and log(1+g) is
    the step's log income gain, which does not round g to -1 when 1+g is
    tiny: the bound is computed from L and log incomes, not from g.
    """
    a, b, params, coefficients, prices = run
    records = run_switch_experiment(
        a, [(2, b)], params, coefficients, PriceSchedule.constant(prices), 2
    )
    with np.errstate(divide="ignore"):  # a zero entry of b: L_b = -inf
        l_a, l_b = (float(_log_response(s.weights, coefficients, prices)) for s in (a, b))
    if l_b == -np.inf:
        return np.inf
    gain_a = params.scaling * math.exp(l_a)  # g*_a + delta
    gross_a = 1.0 - params.deprecation + gain_a  # 1 + g*_a
    log_gross = records[1].log_income - records[0].log_income  # log(1 + g)
    return log_gross - math.log(gross_a) - gain_a / gross_a * (l_b - l_a)


@settings(max_examples=60, deadline=None)
@given(run=switch_runs(b_like_a=True))
def test_switch_is_visible_in_its_first_step(run):
    assert visibility_slack(run) >= -VISIBLE_TOL


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
        population = evolve_step(population, params, coefficients, config)
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
            state = step_agent(state, params, coefficients)
    assert state.income == np.inf and np.isfinite(state.log_income)
    assert state.ratio[2] == 0.0
    assert state.capital.tolist() == [np.inf, np.inf, 0.0]
