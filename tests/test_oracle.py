"""The stepping kernel against an exact oracle (differential testing,
McKeeman 1998).

``oracle`` steps the model as README writes it, in capital space with
40-digit decimals: k' = (sigma / p) y + (1 - delta) k and y' = s prod(k'^alpha).
It shares no code with the package and does no ratio algebra, and decimal's
exponent range keeps its capital positive where a float underflows.

The kernel matches it while every supported sector's capital/income ratio
is a normal float.  Past that it floors a ratio that underflows to 0 at the
smallest positive float, and the two strict xfails are where it then departs.
"""

import math
import sys
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from growthlab import (EconomyParams, EvolutionConfig, PriceSchedule, ProductionCoefficients,
                       calibrate_scaling, evolve_step, init_population, project_to_simplex,
                       run_switch_experiment)
from growthlab.dynamics import equilibrium_state, step_agent
from growthlab.evolution import SELECTION_RULES

STEPS = 60
TOL = 1e-12  # relative to max(1, |value|): absolute for growth and log income up to 1


def oracle(alphas, scaling, delta, sigmas, prices):
    """(growth, log income, smallest positive supported ratio) of steps
    1..len(sigmas), step t producing with alphas[t-1] and investing
    sigmas[t-1] at prices[t-1], from income 1 at the fixed point of step 1's
    alpha, strategy and prices.  Zero income absorbs: then growth 0, log
    income -inf."""
    with localcontext() as ctx:
        ctx.prec = 40
        s, keep = Decimal(scaling), 1 - Decimal(delta)

        def produce(k, t):  # s prod(k^alpha) over the support of step t's alpha
            alpha = [Decimal(a) for a in alphas[t - 1]]
            if any(a and not x for a, x in zip(alpha, k)):
                return Decimal(0)
            return s * sum(a * x.ln() for a, x in zip(alpha, k) if a).exp()

        def invest(t):  # sigma / p of step t
            return [Decimal(w) / Decimal(q) for w, q in zip(sigmas[t - 1], prices[t - 1])]

        gain = produce(invest(1), 1)  # g* + delta at income 1
        k, y, out = [v / gain for v in invest(1)], Decimal(1), []
        for t in range(1, len(sigmas) + 1):
            k = [v * y + keep * x for v, x in zip(invest(t), k)]
            y_next = produce(k, t)
            g, y = y_next / y - 1 if y else Decimal(0), y_next
            ratio = min((x / y for a, x in zip(alphas[t - 1], k) if a and x and y), default=1)
            out.append((float(g), float(y.ln()) if y else -math.inf, ratio))
        return out


def assert_matches(growth, log_income, exact):
    for got, want in zip(zip(growth, log_income), exact, strict=True):
        for x, exact_x in zip(got, want[:2]):
            assert x == exact_x or abs(x - exact_x) <= TOL * max(1.0, abs(exact_x))


# strategy entries as in test_ratio_kernel.switch_runs: 0, or at least 1e-300
POSITIVE = st.floats(1e-300, 1.0)
ENTRY = st.one_of(st.just(0.0), POSITIVE)


def strategies(alphas, supported: bool):
    """Simplex points; with ``supported``, positive wherever alpha is, so
    that they have a fixed point."""
    entries = [POSITIVE if supported and a > 0 else ENTRY for a in alphas]
    return st.tuples(*entries).filter(any).map(
        lambda w: project_to_simplex(np.array(w)))


def coefficients_of(n):
    """Production coefficients of n sectors, zero entries included."""
    weights = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(any)
    return weights.map(lambda w: ProductionCoefficients(project_to_simplex(np.array(w)).weights))


@st.composite
def economies(draw):
    """(coefficients, params, price rows): 1-6 sectors with zero entries in
    alpha, and the price row changing at a drawn step."""
    n = draw(st.integers(1, 6))
    coefficients = draw(coefficients_of(n))
    delta = draw(st.floats(0.01, 1.0))
    p, q = (draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)) for _ in "pq")
    scaling = calibrate_scaling(draw(st.floats(-0.5 * delta, 0.2)), coefficients, delta, p)
    rows = [p] * (draw(st.integers(2, STEPS)) - 1) + [q]
    return coefficients, EconomyParams(scaling, delta, np.array(p)), rows


@st.composite
def switch_cases(draw):
    """(coefficients, params, price rows, a, b, switch step); a has a fixed point."""
    coefficients, params, rows = draw(economies())
    a, b = (draw(strategies(coefficients.alphas, s)) for s in (True, False))
    return coefficients, params, rows, a, b, draw(st.integers(2, STEPS))


def two_sectors(alpha, delta, a, b, at, prices=(1.0, 1.0), scaling=1.0):
    """A switch case of constant prices."""
    a, b = (project_to_simplex(np.array(w)) for w in (a, b))
    params = EconomyParams(scaling, delta, np.array(prices))
    return ProductionCoefficients(np.array(alpha)), params, [list(prices)], a, b, at


def run_oracle(coefficients, params, rows, sigmas, shock=None):
    """The oracle of STEPS steps; with ``shock`` = (step, coefficients) alpha
    changes to the new coefficients' from that step on."""
    prices = [rows[min(t, len(rows)) - 1] for t in range(1, STEPS + 1)]
    alphas = [coefficients.alphas] * STEPS
    if shock is not None:
        at, after = shock
        alphas[at - 1:] = [after.alphas] * (STEPS - at + 1)
    return oracle(alphas, params.scaling, params.deprecation, sigmas, prices)


def check_switch(case, normal_ratios_only=False):
    """One switch case against the oracle; with ``normal_ratios_only``,
    a draw in which a supported ratio leaves the normal floats is rejected."""
    coefficients, params, rows, a, b, at = case
    sigmas = [a.weights] * (at - 1) + [b.weights] * (STEPS - at + 1)
    exact = run_oracle(coefficients, params, rows, sigmas)
    if normal_ratios_only:
        assume(min(r for *_, r in exact) >= sys.float_info.min)
    records = run_switch_experiment(a, [(at, b)], params, coefficients, PriceSchedule(rows),
                                    STEPS)
    assert_matches([r.growth for r in records], [r.log_income for r in records], exact)


@settings(max_examples=40, deadline=None)
@given(case=switch_cases())
def test_switch_run_matches_the_oracle(case):
    check_switch(case, normal_ratios_only=True)


def test_absorption_at_full_deprecation():
    # b leaves a supported sector empty: both sides absorb on step 3
    check_switch(two_sectors((0.5, 0.5), 1.0, (0.5, 0.5), (0.0, 1.0), 3))


def test_floor_of_a_sector_with_negligible_alpha():
    # sector 0's float ratio underflows on step 28 while its exact capital
    # stays positive; with alpha_0 = 2.5e-185 the floor changes nothing
    check_switch(two_sectors((2.4916783929421428e-185, 1.0), 0.875, (1e-300, 1.0), (0.0, 1.0),
                             2, scaling=0.875))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="at delta = 1 the kernel "
                   "absorbs an agent whose sigma_i / p_i underflows in a supported sector")
def test_underflowing_investment_at_full_deprecation():
    check_switch(two_sectors((0.5, 0.5), 1.0, (0.5, 0.5), (5e-324, 1.0), 2, prices=(2.0, 1.0)))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the floor of an underflowed "
                   "ratio is inexact where its sector's alpha is not negligible")
def test_floored_ratio_near_full_deprecation():
    check_switch(two_sectors((0.01, 0.99), 1.0 - 2.0**-53, (0.5, 0.5), (0.0, 1.0), 2))


@settings(max_examples=10, deadline=None)
@given(economy=economies(), data=st.data())
def test_population_phase_1_matches_the_oracle(economy, data):
    """Each agent of a population that never imitates, row by row."""
    coefficients, params, rows = economy
    sigmas = [data.draw(strategies(coefficients.alphas, True)) for _ in range(4)]
    config = EvolutionConfig(population_size=4, observation_sample=1,
                             imitation_probability=0.0)
    prices = PriceSchedule(rows)
    pop = init_population(replace(params, prices=prices.at(1)), coefficients, config,
                          strategies=sigmas)
    steps = []
    for t in range(1, STEPS + 1):
        pop = evolve_step(pop, replace(params, prices=prices.at(t)), coefficients, config)
        steps.append((pop.growth.tolist(), pop.log_income.tolist()))
    for i, sigma in enumerate(sigmas):
        assert_matches([g[i] for g, _ in steps], [y[i] for _, y in steps],
                       run_oracle(coefficients, params, rows, [sigma.weights] * STEPS))


@settings(max_examples=10, deadline=None)
@given(economy=economies(), data=st.data())
def test_population_phase_2_matches_the_oracle(economy, data):
    """A population that imitates without error.  Each agent's strategies
    are rebuilt from ``parents`` alone, and each agent's rows match the
    oracle on that schedule: imitation moves no capital."""
    coefficients, params, rows = economy
    held = [data.draw(strategies(coefficients.alphas, True)) for _ in range(4)]
    config = EvolutionConfig(population_size=4, observation_sample=2, imitation_probability=0.5,
                             imitation_error_sd=0.0, seed=data.draw(st.integers(0, 2**32)),
                             selection_rule=data.draw(st.sampled_from(SELECTION_RULES)))
    prices = PriceSchedule(rows)
    pop = init_population(replace(params, prices=prices.at(1)), coefficients, config,
                          strategies=held)
    schedules, steps = [[] for _ in held], []
    for t in range(1, STEPS + 1):
        for schedule, sigma in zip(schedules, held):  # step t invests the strategy held
            schedule.append(sigma.weights)
        pop = evolve_step(pop, replace(params, prices=prices.at(t)), coefficients, config)
        held = [sigma if j < 0 else held[j] for sigma, j in zip(held, pop.parents.tolist())]
        assert pop.strategies == held
        steps.append((pop.growth.tolist(), pop.log_income.tolist()))
    for i, schedule in enumerate(schedules):
        exact = run_oracle(coefficients, params, rows, schedule)
        assume(min(r for *_, r in exact) >= sys.float_info.min)
        assert_matches([g[i] for g, _ in steps], [y[i] for _, y in steps], exact)


@st.composite
def technology_shocks(draw):
    """(coefficients before, coefficients after, params, price rows, shock
    step): a change of alpha at a drawn step, the scaling calibrated to the
    first alpha, as criterion 14 has it."""
    before, params, rows = draw(economies())
    return before, draw(coefficients_of(before.sectors)), params, rows, draw(
        st.integers(2, STEPS))


def shocked(before, after):
    """Strategies positive wherever either alpha is: a fixed point under
    the first, and a positive response under the second."""
    return strategies(before.alphas + after.alphas, True)


@settings(max_examples=20, deadline=None)
@given(shock=technology_shocks(), data=st.data())
def test_one_agent_across_a_change_of_alpha_matches_the_oracle(shock, data):
    """step_agent under the new coefficients from the shock on: the invested
    capital carries over and produces with the new alpha."""
    before, after, params, rows, at = shock
    sigma = data.draw(shocked(before, after))
    prices = PriceSchedule(rows)
    state = equilibrium_state(sigma, before, replace(params, prices=prices.at(1)))
    steps = []
    for t in range(1, STEPS + 1):
        row = replace(params, prices=prices.at(t))
        state = step_agent(state, row, before if t < at else after)
        steps.append((state.growth, state.log_income))
    exact = run_oracle(before, params, rows, [sigma.weights] * STEPS, shock=(at, after))
    assume(min(r for *_, r in exact) >= sys.float_info.min)
    assert_matches([g for g, _ in steps], [y for _, y in steps], exact)


@settings(max_examples=10, deadline=None)
@given(shock=technology_shocks(), data=st.data())
def test_population_across_a_change_of_alpha_matches_the_oracle(shock, data):
    """A population that never imitates, stepped by evolve_step under the
    new coefficients from the shock on, row by row."""
    before, after, params, rows, at = shock
    sigmas = [data.draw(shocked(before, after)) for _ in range(4)]
    config = EvolutionConfig(population_size=4, observation_sample=1,
                             imitation_probability=0.0)
    prices = PriceSchedule(rows)
    pop = init_population(replace(params, prices=prices.at(1)), before, config,
                          strategies=sigmas)
    steps = []
    for t in range(1, STEPS + 1):
        row = replace(params, prices=prices.at(t))
        pop = evolve_step(pop, row, before if t < at else after, config)
        steps.append((pop.growth.tolist(), pop.log_income.tolist()))
    for i, sigma in enumerate(sigmas):
        exact = run_oracle(before, params, rows, [sigma.weights] * STEPS, shock=(at, after))
        assume(min(r for *_, r in exact) >= sys.float_info.min)
        assert_matches([g[i] for g, _ in steps], [y[i] for _, y in steps], exact)
