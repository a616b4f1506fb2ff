"""One price rule: every public entry that takes prices accepts the same
vectors (one positive finite price per sector) and rejects all others with
DomainError or ConfigurationError.  The model reads prices from its
EconomyParams only, so stepping at another price row goes through
``dataclasses.replace(params, prices=row)``, an entry here too."""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from growthlab import (
    ConfigurationError,
    DomainError,
    EconomyParams,
    PriceSchedule,
    ProductionCoefficients,
    Strategy,
    calibrate_scaling,
    config_from_dict,
    equilibrium_growth,
    equilibrium_state,
    run_hold,
    step_agent,
)

N = 3
ALPHAS = [0.2, 0.0, 0.8]  # a zero coefficient: its price still counts
COEFFS = ProductionCoefficients(np.array(ALPHAS))
PARAMS = EconomyParams(0.1, 0.05, np.ones(N))
SIGMA = Strategy(np.array([0.3, 0.3, 0.4]))
START = equilibrium_state(SIGMA, COEFFS, PARAMS)


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
    "replace(PARAMS, prices=v)": lambda v: step_agent(
        START, replace(PARAMS, prices=v), COEFFS
    ),
    "calibrate_scaling": lambda v: calibrate_scaling(0.02, COEFFS, 0.05, v),
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
