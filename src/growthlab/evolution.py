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
non-malleable).  Every agent owns a PCG64 stream seeded from the master
seed and its index, so changing the population size never reshuffles
other agents' randomness.  The population is the step kernel's
state as arrays; an agent is absorbed where its log income is -inf.  Its
``sigma`` holds the strategies' weights as one read-only matrix, stacked
once and then carried from step to step: phase 1 divides it by the prices,
and phase 2 copies it only on a step where some agent imitated.
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
    _check_int,
    _check_sectors,
    _clip_renormalize,
    project_to_simplex,
)
from .dynamics import _advance
from .equilibrium import _check_counts, _fixed_point_rows

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
        for name in ("population_size", "observation_sample", "seed"):
            _check_int(getattr(self, name), name)
        if self.population_size < 1:
            raise ConfigurationError("population_size: must be a positive integer")
        if not 0.0 <= self.imitation_error_sd < np.inf:
            raise ConfigurationError("imitation_error_sd: must be finite and >= 0")
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

    ``ratio`` is the (agents, sectors) capital/income ratio; ``log_income``
    and ``growth`` (the last realized growth) are (agents,).  ``sigma`` is
    the read-only, C-ordered (agents, sectors) stack of
    ``strategies[i].weights``.  Zero income is absorbing: its row has log
    income -inf and ratio 0, and ``absorbed`` reads it.  ``parents[i]`` is
    the agent that agent i copied in the step that made this population, or
    -1.  Only ``from_agents`` checks its input.
    """

    ratio: np.ndarray
    log_income: np.ndarray
    growth: np.ndarray
    strategies: list[Strategy]
    sigma: np.ndarray
    step: int
    rngs: list[np.random.Generator]
    parents: np.ndarray

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
        for i, a in enumerate(agents):  # names the first agent that differs
            _check_sectors(**{"agents[0]": agents[0].sectors, f"agents[{i}]": a.sectors})
        return cls(
            np.array([a.ratio for a in agents]),
            np.array([a.log_income for a in agents]),
            np.array([a.growth for a in agents]),
            [a.strategy for a in agents],
            _stack([a.strategy for a in agents]),
            step,
            list(rngs),
            np.full(len(agents), -1),
        )

    @property
    def absorbed(self) -> np.ndarray:
        return self.log_income == -np.inf

    @property
    def agents(self) -> list[AgentState]:
        """One AgentState per agent, built on each access; each ratio is a
        read-only view of its row."""
        ratio = self.ratio.view()
        ratio.flags.writeable = False
        rows = zip(ratio, self.log_income.tolist(), self.growth.tolist(), self.strategies)
        return [AgentState(ratio=x, log_income=y, growth=g, strategy=s)
                for x, y, g, s in rows]


def _stack(strategies: Sequence[Strategy]) -> np.ndarray:
    """The read-only (agents, sectors) matrix of the strategies' weights."""
    sigma = np.array([s.weights for s in strategies])
    sigma.flags.writeable = False
    return sigma


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
    if not 0.0 <= sd < np.inf:
        raise DomainError("sd must be finite and >= 0")
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
    n = population.growth.size
    if not (0 <= observer_index < n):
        raise SelectionError(f"observer index {observer_index} out of range")
    _check_peers(n, config)
    return _pick(observer_index, population.growth.tolist(), config, rng, params)


def _check_peers(n: int, config: EvolutionConfig) -> None:
    """Raise SelectionError unless n agents give each observer its sample."""
    if config.observation_sample > n - 1:
        raise SelectionError(
            f"observation_sample {config.observation_sample} exceeds available peers {n - 1}")


def _pick(i: int, growth: list[float], config: EvolutionConfig,
          rng: np.random.Generator, params: EconomyParams) -> int:
    """``select_parent``'s draw and rule for observer i, unchecked, on the
    growth figures as a list."""
    # indices 0..n-2 shifted around the observer give distinct peers
    raw = rng.choice(len(growth) - 1, size=config.observation_sample, replace=False)
    peers = [j + (j >= i) for j in raw.tolist()]
    rule = config.selection_rule
    if rule == "imitate-best-observed":  # max keeps the first, so the lowest tied index
        return max(sorted(peers), key=growth.__getitem__)
    if rule == "growth-proportional":
        ordered = sorted(peers)
        weights = np.maximum(np.array([growth[j] for j in ordered]) + params.deprecation, 0.0)
        total = float(weights.sum())
        if total <= 0.0:
            return int(rng.choice(ordered))
        return int(rng.choice(ordered, p=weights / total))
    # pairwise-better
    return peers[0] if growth[peers[0]] > growth[i] else i


def evolve_step(
    population: Population,
    params: EconomyParams,
    coefficients: ProductionCoefficients,
    config: EvolutionConfig,
) -> Population:
    """One synchronous two-phase update of the whole population.

    Phase 1 steps every agent at once on the population's arrays, with the
    kernel and the checks of ``step_agent``: the held ``sigma`` divided by
    the params' prices.  Phase 2 decides, then copies: each agent's coin and
    ``select_parent``'s rule read the phase-1 growth and fill ``parents``,
    then each imitator takes a noisy copy of its parent's phase-1 strategy,
    in ``strategies`` and in a copy of ``sigma``.  Each agent draws on its
    own stream, which the step advances in place: stepping one population
    twice draws anew.
    """
    _check_counts(population.ratio.shape[1], coefficients, params)
    strategies, sigma, rngs = population.strategies, population.sigma, population.rngs
    with np.errstate(divide="ignore", over="ignore"):  # absorbed; growth _advance rejects
        stepped = _advance(population.ratio, population.log_income, sigma / params.prices,
                           params, coefficients)[:3]
    step, parents = population.step + 1, np.full(len(strategies), -1)
    chosen = {}  # imitator -> parent
    if config.imitation_probability > 0.0:  # SelectionError before any draw
        _check_peers(len(strategies), config)
        growth = stepped[2].tolist()
        for i, rng in enumerate(rngs):
            if rng.random() < config.imitation_probability:
                parent = _pick(i, growth, config, rng, params)
                if parent != i:
                    chosen[i] = parent
    if not chosen:
        return Population(*stepped, strategies, sigma, step, rngs, parents)
    copies, sigma = list(strategies), sigma.copy()
    for i, j in chosen.items():
        copies[i] = mutate_strategy(strategies[j], config.imitation_error_sd, rngs[i])
        sigma[i] = copies[i].weights
        parents[i] = j
    sigma.flags.writeable = False
    return Population(*stepped, copies, sigma, step, rngs, parents)


def init_population(
    params: EconomyParams,
    coefficients: ProductionCoefficients,
    config: EvolutionConfig,
    *,
    strategies: Sequence[Strategy] | None = None,
) -> Population:
    """Fresh population at step 0, every agent at its own strategy's
    equilibrium ratio at the params' prices, with income 1.

    Without explicit strategies each agent draws a uniform random simplex
    point from its private stream, so agent i's entire history depends only
    on (seed, i).  Each sector count is checked once and all rows solved at once.
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
        _check_counts(n, coefficients, params)
    sigma = _stack(strategies)
    ratio, growth = _fixed_point_rows(sigma, coefficients, params)
    return Population(ratio, np.zeros(n_agents), growth, list(strategies), sigma, 0, rngs,
                      np.full(n_agents, -1))
