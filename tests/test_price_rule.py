"""One price rule: every public entry that takes prices accepts the same
vectors (one positive finite price per sector) and rejects all others with
DomainError or ConfigurationError."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from growthlab import (
    ConfigurationError,
    DomainError,
    EconomyParams,
    EvolutionConfig,
    PriceSchedule,
    ProductionCoefficients,
    Strategy,
    calibrate_scaling,
    config_from_dict,
    contour_contains,
    equilibrium_growth,
    equilibrium_ratio,
    equilibrium_state,
    evolve_step,
    init_population,
    run_hold,
    step_agent,
)

N = 3
ALPHAS = [0.2, 0.0, 0.8]  # a zero coefficient: its price still counts
COEFFS = ProductionCoefficients(np.array(ALPHAS))
PARAMS = EconomyParams(0.1, 0.05, np.ones(N))
SIGMA = Strategy(np.array([0.3, 0.3, 0.4]))
START = equilibrium_state(SIGMA, COEFFS, PARAMS)
EVOLUTION = EvolutionConfig(
    population_size=3, observation_sample=1, imitation_probability=0.0
)
POPULATION = init_population(PARAMS, COEFFS, EVOLUTION)


def _config(doc: dict) -> None:
    config_from_dict({"experiment": "landscape", "economy": {"alphas": ALPHAS}, **doc})


ENTRIES = {
    "PriceSchedule.constant": lambda v: run_hold(
        START, PARAMS, COEFFS, PriceSchedule.constant(v), 1
    ),
    "PriceSchedule": lambda v: run_hold(
        START, PARAMS, COEFFS, PriceSchedule([v, v]), 2
    ),
    "EconomyParams": lambda v: equilibrium_growth(
        SIGMA, COEFFS, EconomyParams(0.1, 0.05, v)
    ),
    "equilibrium_growth": lambda v: equilibrium_growth(SIGMA, COEFFS, PARAMS, v),
    "equilibrium_ratio": lambda v: equilibrium_ratio(SIGMA, COEFFS, PARAMS, v),
    "contour_contains": lambda v: contour_contains(SIGMA, 0.0, COEFFS, PARAMS, v),
    "equilibrium_state": lambda v: equilibrium_state(SIGMA, COEFFS, PARAMS, v),
    "init_population": lambda v: init_population(PARAMS, COEFFS, EVOLUTION, v),
    "calibrate_scaling": lambda v: calibrate_scaling(0.02, COEFFS, 0.05, v),
    "step_agent": lambda v: step_agent(START, PARAMS, COEFFS, v),
    "evolve_step": lambda v: evolve_step(POPULATION, PARAMS, COEFFS, v, EVOLUTION),
    "config economy.prices": lambda v: _config(
        {"economy": {"alphas": ALPHAS, "prices": v}}
    ),
    "config price_schedule": lambda v: _config({"price_schedule": [[1.0] * N, v]}),
}

# valid prices stay moderate so no entry overflows for another reason
PRICES = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(max_value=0.0),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
)
VECTORS = st.one_of(
    st.lists(PRICES, min_size=N, max_size=N),
    st.lists(PRICES, min_size=0, max_size=N + 2),
)


def _accepts(entry, v: list[float]) -> bool:
    try:
        entry(v)
    except (DomainError, ConfigurationError):
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(VECTORS)
def test_every_entry_applies_the_same_price_rule(v):
    valid = len(v) == N and all(math.isfinite(x) and x > 0.0 for x in v)
    verdicts = {name: _accepts(entry, v) for name, entry in ENTRIES.items()}
    assert verdicts == {name: valid for name in ENTRIES}, v



def _bits(value) -> tuple:
    """The bits of an entry's result: arrays by ``tobytes``, the rest by ``repr``."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if hasattr(value, "ratio"):  # AgentState or Population
        fields = {k: v for k, v in vars(value).items() if k != "rngs"}
        streams = [r.bit_generator.state for r in getattr(value, "rngs", [])]
        return tuple(_bits(v) for v in fields.values()) + (repr(streams),)
    return (repr(value),)


# PARAMS, and params whose prices differ per sector, so a price taken from
# the wrong sector would show
ECONOMIES = [PARAMS, EconomyParams(0.1, 0.05, np.array([0.5, 2.0, 1.25]))]
DEFAULT_PRICES = {
    "equilibrium_growth": lambda params, v: equilibrium_growth(SIGMA, COEFFS, params, v),
    "equilibrium_ratio": lambda params, v: equilibrium_ratio(SIGMA, COEFFS, params, v),
    "equilibrium_state": lambda params, v: equilibrium_state(SIGMA, COEFFS, params, v),
    # at the strategy's own g*: on the contour, where a bit would flip it
    "contour_contains": lambda params, v: contour_contains(
        SIGMA, equilibrium_growth(SIGMA, COEFFS, params), COEFFS, params, v
    ),
    "init_population": lambda params, v: init_population(params, COEFFS, EVOLUTION, v),
}


@pytest.mark.parametrize("params", ECONOMIES)
@pytest.mark.parametrize("name", DEFAULT_PRICES)
def test_the_params_own_prices_give_what_none_gives(name, params):
    entry = DEFAULT_PRICES[name]
    assert _bits(entry(params, params.prices)) == _bits(entry(params, None))


IMITATING = EvolutionConfig(
    population_size=4, observation_sample=2, imitation_probability=1.0, seed=7
)
REQUIRED_PRICES = {
    "step_agent": lambda params, v: step_agent(
        equilibrium_state(SIGMA, COEFFS, params), params, COEFFS, v
    ),
    # evolve_step advances its population's streams: a fresh one per call
    "evolve_step": lambda params, v: evolve_step(
        init_population(params, COEFFS, IMITATING), params, COEFFS, v, IMITATING
    ),
}


@pytest.mark.parametrize("params", ECONOMIES)
@pytest.mark.parametrize("name", REQUIRED_PRICES)
def test_the_params_own_prices_give_what_a_copy_gives(name, params):
    entry = REQUIRED_PRICES[name]
    assert _bits(entry(params, params.prices)) == _bits(entry(params, np.array(params.prices)))
