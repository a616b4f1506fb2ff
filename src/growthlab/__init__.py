"""Evolutionary growth-economy simulator and analysis toolkit.

Per-sector capital accumulation feeds a Cobb-Douglas production function;
holding a strategy under stable prices drives the capital/income ratio to a
closed-form fixed point, so every strategy has an equilibrium growth rate.
A switch between strategies always approaches the new equilibrium from
above, which biases imitation dynamics toward recent switchers.  This
package simulates the dynamics, computes the closed forms, and packages the
convergence-from-above phenomenon as reproducible experiments.
"""

from .core import (
    AgentState,
    ConfigurationError,
    DegenerateInputError,
    DimensionError,
    DomainError,
    EconomyParams,
    GrowthLabError,
    InvariantViolation,
    ProductionCoefficients,
    SelectionError,
    Strategy,
    production,
    project_to_simplex,
    validate_simplex,
    weighted_geometric_mean,
)
from .dynamics import (
    PriceSchedule,
    TraceRecord,
    equilibrium_state,
    run_hold,
    run_switch_experiment,
    step_agent,
    uniform_state,
)
from .equilibrium import (
    HillClimbResult,
    calibrate_scaling,
    contour_contains,
    equilibrium_growth,
    equilibrium_ratio,
    hill_climb,
    optimal_strategy,
    response,
)
from .evolution import (
    EvolutionConfig,
    Population,
    evolve_step,
    init_population,
    mutate_strategy,
    select_parent,
)
from .config import RunConfig, config_from_dict, dump_config, load_config
from .experiments import run_experiment

__version__ = "0.1.0"

__all__ = [
    "AgentState",
    "ConfigurationError",
    "DegenerateInputError",
    "DimensionError",
    "DomainError",
    "EconomyParams",
    "EvolutionConfig",
    "GrowthLabError",
    "HillClimbResult",
    "InvariantViolation",
    "Population",
    "PriceSchedule",
    "ProductionCoefficients",
    "RunConfig",
    "SelectionError",
    "Strategy",
    "TraceRecord",
    "calibrate_scaling",
    "config_from_dict",
    "contour_contains",
    "dump_config",
    "equilibrium_growth",
    "equilibrium_ratio",
    "equilibrium_state",
    "evolve_step",
    "hill_climb",
    "init_population",
    "load_config",
    "mutate_strategy",
    "optimal_strategy",
    "production",
    "project_to_simplex",
    "response",
    "run_experiment",
    "run_hold",
    "run_switch_experiment",
    "select_parent",
    "step_agent",
    "uniform_state",
    "validate_simplex",
    "weighted_geometric_mean",
]
