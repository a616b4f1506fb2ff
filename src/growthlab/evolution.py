"""Population of imitating agents: selection by realized growth, Gaussian error.

Strategies evolve by selection and variation.  Each step is a synchronous
two-phase update:

  phase 1: every agent advances economically under its current strategy;
  phase 2: each agent, with a fixed probability, observes a sample of peers'
           phase-1 growth figures, selects a parent according to the
           configured rule, and adopts a noisy copy of the parent's strategy.

All phase-2 decisions read the same phase-1 snapshot, so the result does not
depend on the order agents are processed in.  Imitation copies only the
strategy; the imitator's capital stays where it is (invested capital is
non-malleable).  Every agent owns a counter-based random stream derived from
the master seed and its index, so changing the population size never
reshuffles other agents' randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    AgentState,
    ConfigurationError,
    DomainError,
    EconomyParams,
    ProductionCoefficients,
    SelectionError,
    Strategy,
    _check_sectors,
    _clip_renormalize,
    project_to_simplex,
)
from .dynamics import _advance, _step_prices
from .equilibrium import _fixed_point_rows, _resolve_prices

SELECTION_RULES = ("imitate-best-observed", "growth-proportional", "pairwise-better")

# spawn-key prefixes for the per-purpose random streams
_AGENT_STREAM = 1
_EXPERIMENT_STREAM = 0


@dataclass(frozen=True)
class EvolutionConfig:
    """Knobs of the imitation loop.

    The model itself fixes none of these; the defaults below produce several
    strategy changes per agent over a 500-step run.
    """

    population_size: int = 50
    imitation_error_sd: float = 0.02
    imitation_probability: float = 0.02
    selection_rule: str = "imitate-best-observed"
    observation_sample: int = 5
    seed: int = 0

    def __post_init__(self):
        # messages start with the field name; the config loader adds "evolution."
        if self.population_size < 1:
            raise ConfigurationError("population_size: must be a positive integer")
        if self.imitation_error_sd < 0.0:
            raise ConfigurationError("imitation_error_sd: must be >= 0")
        if not (0.0 <= self.imitation_probability <= 1.0):
            raise ConfigurationError("imitation_probability: must lie in [0, 1]")
        if self.selection_rule not in SELECTION_RULES:
            raise ConfigurationError(
                f"selection_rule: unknown rule {self.selection_rule!r}; "
                f"expected one of {SELECTION_RULES}"
            )
        if self.observation_sample < 1:
            raise ConfigurationError("observation_sample: must be a positive integer")
        if self.seed < 0:
            raise ConfigurationError(f"seed: must be >= 0, got {self.seed}")
        if self.observation_sample > self.population_size - 1:
            raise ConfigurationError(
                "observation_sample: must be <= population_size - 1 "
                f"({self.observation_sample} > {self.population_size - 1})"
            )


@dataclass(eq=False)
class Population:
    """The agents as arrays, row i being agent i, plus the step counter and
    each agent's private random stream.

    ``ratio`` is the (agents, sectors) capital/income ratio; ``log_income``,
    ``growth`` (the last realized growth) and ``absorbed`` are (agents,).
    Zero income is absorbing: its row has log income -inf and ratio 0.
    ``from_agents`` checks its input; the plain constructor checks nothing.
    """

    ratio: np.ndarray
    log_income: np.ndarray
    growth: np.ndarray
    absorbed: np.ndarray
    strategies: list[Strategy]
    step: int
    rngs: list[np.random.Generator]

    @classmethod
    def from_agents(
        cls,
        agents: Sequence[AgentState],
        step: int,
        rngs: Sequence[np.random.Generator],
    ) -> "Population":
        """Population of the given agent states, one random stream each."""
        if not agents:
            raise ConfigurationError("a population needs at least one agent")
        if len(agents) != len(rngs):
            raise ConfigurationError("one random stream per agent is required")
        sectors = {a.sectors for a in agents}
        if len(sectors) > 1:
            raise ConfigurationError(
                f"all agents must share one sector count, got {sorted(sectors)}"
            )
        return cls(
            np.array([a.ratio for a in agents]),
            np.array([a.log_income for a in agents]),
            np.array([a.growth for a in agents]),
            np.array([a.absorbed for a in agents]),
            [a.strategy for a in agents],
            step,
            list(rngs),
        )

    @property
    def agents(self) -> list[AgentState]:
        """One AgentState per agent, built on each access."""
        return [
            AgentState._stepped(x, log_y, g, s, a)
            for x, log_y, g, s, a in zip(
                self.ratio, self.log_income.tolist(), self.growth.tolist(),
                self.strategies, self.absorbed.tolist(),
            )
        ]


def agent_stream(master_seed: int, agent_index: int) -> np.random.Generator:
    """Deterministic per-agent random stream derived from the master seed."""
    seq = np.random.SeedSequence(
        entropy=master_seed, spawn_key=(_AGENT_STREAM, agent_index)
    )
    return np.random.default_rng(seq)


def experiment_stream(master_seed: int) -> np.random.Generator:
    """Random stream for experiment-level draws (schedules, initial strategies)."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(_EXPERIMENT_STREAM,))
    return np.random.default_rng(seq)


def mutate_strategy(parent: Strategy, sd: float, rng: np.random.Generator) -> Strategy:
    """Noisy copy of a strategy: per-component N(0, sd**2), then simplex repair.

    sd = 0 returns the parent unchanged.  If the noise wipes out every
    component (nothing positive left to renormalize), fresh noise is drawn up
    to 16 times before falling back to the parent.
    """
    if sd < 0.0:
        raise DomainError("sd must be >= 0")
    if sd == 0.0:
        return parent
    n = parent.sectors
    for _ in range(16):
        child = _clip_renormalize(parent.weights + rng.normal(0.0, sd, size=n))
        if child is not None:
            return Strategy(child)
    return parent


def select_parent(
    observer_index: int,
    population: Population,
    config: EvolutionConfig,
    rng: np.random.Generator,
    params: EconomyParams,
) -> int:
    """Pick the agent whose strategy the observer will imitate.

    Samples ``observation_sample`` distinct peers (never the observer), then
    applies the configured rule:

    - imitate-best-observed: the sampled peer with the highest last realized
      growth, ties broken toward the lowest agent index;
    - growth-proportional: one sampled peer with probability proportional to
      growth + deprecation (the non-negative fitness shift; growth cannot
      fall below -deprecation), uniform if all weights vanish;
    - pairwise-better: the first sampled peer, but only if its growth exceeds
      the observer's; otherwise the observer keeps its own strategy (its own
      index is returned).
    """
    growth = population.growth
    n = growth.size
    if n < 2:
        raise SelectionError("selection needs at least two agents")
    if not (0 <= observer_index < n):
        raise SelectionError(f"observer index {observer_index} out of range")
    k = config.observation_sample
    if k > n - 1:
        raise SelectionError(
            f"observation_sample {k} exceeds available peers {n - 1}"
        )
    # indices 0..n-2 shifted around the observer give distinct peers
    raw = rng.choice(n - 1, size=k, replace=False)
    peers = raw + (raw >= observer_index)

    rule = config.selection_rule
    if rule == "imitate-best-observed":
        ordered = np.sort(peers)
        return int(ordered[int(np.argmax(growth[ordered]))])
    if rule == "growth-proportional":
        ordered = np.sort(peers)
        weights = np.maximum(growth[ordered] + params.deprecation, 0.0)
        total = float(weights.sum())
        if total <= 0.0:
            return int(rng.choice(ordered))
        return int(rng.choice(ordered, p=weights / total))
    # pairwise-better
    peer = int(peers[0])
    if growth[peer] > growth[observer_index]:
        return peer
    return observer_index


def evolve_step(
    population: Population,
    params: EconomyParams,
    coefficients: ProductionCoefficients,
    prices_at_t,
    config: EvolutionConfig,
    _order: Sequence[int] | None = None,
) -> Population:
    """One synchronous two-phase update of the whole population.

    Phase 1 steps every agent at once on the population's arrays, with the
    kernel and the checks of ``step_agent``.  ``_order`` only permutes the
    phase-2 processing order; because every agent draws from its own stream
    and reads the shared phase-1 snapshot, the result is the same for any
    order (exposed for tests).
    """
    p = _step_prices(population.ratio.shape[1], params, coefficients, prices_at_t)
    invest = np.array([s.weights for s in population.strategies]) / p
    with np.errstate(divide="ignore"):  # log 0 = -inf: an absorbed agent
        stepped = _advance(
            population.ratio, population.log_income, population.absorbed,
            invest, params, coefficients,
        )
    strategies = list(population.strategies)
    snapshot = Population(
        *stepped, strategies, population.step + 1, population.rngs
    )
    if config.imitation_probability <= 0.0:
        return snapshot

    indices = range(len(strategies)) if _order is None else _order
    for i in indices:
        rng = population.rngs[i]
        if rng.random() >= config.imitation_probability:
            continue
        parent = select_parent(i, snapshot, config, rng, params)
        if parent == i:
            continue
        # the parent's phase-1 strategy, even if it has imitated already
        strategies[i] = mutate_strategy(
            population.strategies[parent], config.imitation_error_sd, rng
        )
    return snapshot


def init_population(
    params: EconomyParams,
    coefficients: ProductionCoefficients,
    config: EvolutionConfig,
    prices=None,
    strategies: Sequence[Strategy] | None = None,
) -> Population:
    """Fresh population at step 0, every agent at its own strategy's
    equilibrium ratio with income 1.

    Without explicit strategies each agent draws a uniform random simplex
    point from its private stream, so agent i's entire history depends only
    on (seed, i).  The prices are checked once and all rows solved at once.
    """
    n_agents = config.population_size
    if strategies is not None and len(strategies) != n_agents:
        raise ConfigurationError(
            f"got {len(strategies)} strategies for population of {n_agents}"
        )
    rngs = [agent_stream(config.seed, i) for i in range(n_agents)]
    if strategies is None:
        ones = np.ones(params.sectors)
        strategies = [project_to_simplex(rng.dirichlet(ones)) for rng in rngs]
    for n in {s.sectors for s in strategies}:  # each count once, before stacking
        _check_sectors(strategy=n, coefficients=coefficients.sectors)
    sigma = np.array([s.weights for s in strategies])
    p = _resolve_prices(sigma.shape[1], coefficients, params, prices)
    ratio, growth = _fixed_point_rows(sigma, coefficients, params, p)
    return Population(
        ratio, np.zeros(n_agents), growth,
        np.zeros(n_agents, dtype=bool), list(strategies), 0, rngs,
    )
