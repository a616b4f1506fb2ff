import copy
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from growthlab import (
    AgentState,
    ConfigurationError,
    DimensionError,
    DomainError,
    EconomyParams,
    InvariantViolation,
    ProductionCoefficients,
    SelectionError,
    Strategy,
)
from growthlab.cli import cli_main
from growthlab.dynamics import equilibrium_state, run_hold, step_agent, uniform_state
from growthlab.equilibrium import equilibrium_growth
from growthlab.evolution import (
    SELECTION_RULES,
    EvolutionConfig,
    Population,
    agent_stream,
    evolve_step,
    init_population,
    mutate_strategy,
    select_parent,
)

from conftest import default_economy, random_instance


class TestMutateStrategy:
    def test_zero_sd_is_identity(self):
        parent = Strategy(np.array([0.3, 0.7]))
        assert mutate_strategy(parent, 0.0, np.random.default_rng(0)) is parent

    def test_noise_scale(self):
        rng = np.random.default_rng(1)
        parent = Strategy(np.array([0.5, 0.5]))
        dists = []
        for _ in range(2000):
            child = mutate_strategy(parent, 0.02, rng)
            dists.append(np.max(np.abs(child.weights - parent.weights)))
        assert 0.005 < float(np.mean(dists)) < 0.05

    def test_always_on_simplex(self):
        rng = np.random.default_rng(2)
        parents = [
            Strategy(np.array([0.5, 0.5])),
            Strategy(np.array([1.0, 0.0])),
            Strategy(np.array([0.05, 0.05, 0.9])),
        ]
        for _ in range(100_000 // len(parents)):
            for parent in parents:
                w = mutate_strategy(parent, 0.05, rng).weights
                assert w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-12

    def test_overflowing_draws_are_redrawn_without_warning(self):
        # sd 1e308: a draw is inf, or its clipped total is past float range
        parent = Strategy(np.array([0.5, 0.5]))
        rng = np.random.default_rng(0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            children = [mutate_strategy(parent, 1e308, rng) for _ in range(200)]
        assert caught == []
        assert all(c.weights.min() >= 0.0 and abs(c.weights.sum() - 1.0) <= 1e-12
                   for c in children)

    def test_parent_after_sixteen_failed_draws(self):
        class Draws:
            """Every draw clips to nothing or sums to inf."""
            calls = 0

            def normal(self, loc, scale, size):
                self.calls += 1
                return np.full(size, np.inf if self.calls % 2 else -1.0)

        parent = Strategy(np.array([0.5, 0.5]))
        draws = Draws()
        assert mutate_strategy(parent, 0.1, draws) is parent
        assert draws.calls == 16

    def test_negative_sd_rejected(self):
        # and a non-finite sd, which would leave no finite child
        for sd in (-0.1, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                mutate_strategy(Strategy(np.array([1.0])), sd, np.random.default_rng(0))


def _population_with_growths(growths, params, coefficients):
    """Population scaffold whose agents carry the given last-growth figures."""
    n = params.sectors
    sigma = Strategy(np.full(n, 1.0 / n))
    agents = []
    for g in growths:
        from growthlab import AgentState
        from growthlab.core import production

        capital = np.full(n, 1.0)
        income = production(capital, coefficients, params.scaling)
        agents.append(AgentState.from_capital(capital, income, g, sigma))
    rngs = [agent_stream(0, i) for i in range(len(growths))]
    return Population.from_agents(agents, 0, rngs)


class TestSelectParent:
    def setup_method(self):
        self.params, self.coefficients, _ = default_economy()

    def test_imitate_best_picks_argmax(self):
        pop = _population_with_growths(
            [0.0, 0.01, 0.05, 0.02], self.params, self.coefficients
        )
        cfg = EvolutionConfig(
            population_size=4, observation_sample=3, selection_rule="imitate-best-observed"
        )
        # observer 0 sees all three peers; the argmax is index 2
        choice = select_parent(0, pop, cfg, np.random.default_rng(0), self.params)
        assert choice == 2

    def test_imitate_best_tie_breaks_to_lowest_index(self):
        pop = _population_with_growths(
            [0.0, 0.05, 0.05, 0.05], self.params, self.coefficients
        )
        cfg = EvolutionConfig(population_size=4, observation_sample=3)
        for seed in range(10):
            choice = select_parent(0, pop, cfg, np.random.default_rng(seed), self.params)
            assert choice == 1

    def test_pairwise_better_keeps_own_when_peer_worse(self):
        pop = _population_with_growths([0.05, 0.01], self.params, self.coefficients)
        cfg = EvolutionConfig(
            population_size=2, observation_sample=1, selection_rule="pairwise-better"
        )
        assert select_parent(0, pop, cfg, np.random.default_rng(0), self.params) == 0

    def test_pairwise_better_adopts_when_peer_better(self):
        pop = _population_with_growths([0.01, 0.05], self.params, self.coefficients)
        cfg = EvolutionConfig(
            population_size=2, observation_sample=1, selection_rule="pairwise-better"
        )
        assert select_parent(0, pop, cfg, np.random.default_rng(0), self.params) == 1

    def test_growth_proportional_uniform_when_equal(self):
        pop = _population_with_growths(
            [0.02, 0.02, 0.02, 0.02, 0.02], self.params, self.coefficients
        )
        cfg = EvolutionConfig(
            population_size=5, observation_sample=4, selection_rule="growth-proportional"
        )
        rng = np.random.default_rng(123)
        counts = np.zeros(5)
        draws = 100_000
        for _ in range(draws):
            counts[select_parent(0, pop, cfg, rng, self.params)] += 1
        assert counts[0] == 0  # never the observer
        chi2 = stats.chisquare(counts[1:])
        assert chi2.pvalue > 0.001

    def test_growth_proportional_prefers_higher_growth(self):
        pop = _population_with_growths(
            [0.0, 0.1, 0.0, 0.0], self.params, self.coefficients
        )
        cfg = EvolutionConfig(
            population_size=4, observation_sample=3, selection_rule="growth-proportional"
        )
        rng = np.random.default_rng(5)
        counts = np.zeros(4)
        for _ in range(20_000):
            counts[select_parent(0, pop, cfg, rng, self.params)] += 1
        # weights are g + delta = [.13, .03, .03], so peer 1 should win ~68%
        assert counts[1] / 20_000 == pytest.approx(0.13 / 0.19, abs=0.02)

    def test_growth_proportional_uniform_when_all_weights_vanish(self):
        # every peer grows at exactly -delta: a uniform choice of the sorted
        # sample, drawn after the sample from the same stream
        d = self.params.deprecation
        pop = _population_with_growths([-d] * 5, self.params, self.coefficients)
        cfg = EvolutionConfig(
            population_size=5, observation_sample=3, selection_rule="growth-proportional"
        )
        chosen = set()
        for seed in range(20):
            got = select_parent(2, pop, cfg, np.random.default_rng(seed), self.params)
            rng = np.random.default_rng(seed)
            raw = rng.choice(4, size=3, replace=False)
            assert got == int(rng.choice(np.sort(raw + (raw >= 2))))
            chosen.add(got)
        assert chosen == {0, 1, 3, 4}

    def test_population_of_one_rejected(self):
        pop = _population_with_growths([0.0], self.params, self.coefficients)
        cfg = EvolutionConfig(population_size=2, observation_sample=1)
        with pytest.raises(SelectionError):
            select_parent(0, pop, cfg, np.random.default_rng(0), self.params)

    def test_observer_out_of_range_and_sample_past_the_peers_rejected(self):
        pop = _population_with_growths([0.0, 0.01, 0.02], self.params, self.coefficients)
        cfg = EvolutionConfig(population_size=5, observation_sample=2)
        for observer in (-1, 3):
            with pytest.raises(SelectionError, match=f"observer index {observer} out of range"):
                select_parent(observer, pop, cfg, np.random.default_rng(0), self.params)
        # a config for a larger population can ask for more peers than 3 agents have
        cfg = EvolutionConfig(population_size=5, observation_sample=3)
        with pytest.raises(SelectionError, match="observation_sample 3 exceeds available peers 2"):
            select_parent(0, pop, cfg, np.random.default_rng(0), self.params)


class TestEvolutionConfig:
    def test_observation_sample_bound(self):
        with pytest.raises(ConfigurationError):
            EvolutionConfig(population_size=5, observation_sample=5)

    def test_unknown_rule(self):
        with pytest.raises(ConfigurationError):
            EvolutionConfig(selection_rule="tournament")

    def test_negative_sd(self):
        with pytest.raises(ConfigurationError):
            EvolutionConfig(imitation_error_sd=-0.01)


class TestEvolveStep:
    def setup_method(self):
        self.params, self.coefficients, self.sched = default_economy()

    def test_no_imitation_matches_independent_holds(self):
        cfg = EvolutionConfig(
            population_size=6, observation_sample=3, imitation_probability=0.0, seed=9
        )
        pop = init_population(self.params, self.coefficients, cfg)
        initial_agents = list(pop.agents)
        steps = 40
        current = pop
        for _ in range(steps):
            current = evolve_step(current, self.params, self.coefficients, cfg)
        for agent0, agent_t in zip(initial_agents, current.agents):
            records = run_hold(
                agent0, self.params, self.coefficients, self.sched, steps
            )
            assert agent_t.income == records[-1].income
            assert agent_t.growth == records[-1].growth
            assert np.array_equal(
                agent_t.capital,
                _replay_capital(agent0, self.params, self.coefficients, steps),
            )

    def test_copying_without_variation_converges_to_best_initial_strategy(self):
        cfg = EvolutionConfig(
            population_size=8,
            observation_sample=7,
            imitation_probability=0.5,
            imitation_error_sd=0.0,
            seed=17,
        )
        pop = init_population(self.params, self.coefficients, cfg)
        growths = [
            equilibrium_growth(a.strategy, self.coefficients, self.params)
            for a in pop.agents
        ]
        best = pop.agents[int(np.argmax(growths))].strategy
        for _ in range(200):
            pop = evolve_step(pop, self.params, self.coefficients, cfg)
        for agent in pop.agents:
            assert agent.strategy == best  # exact copies, no variation

    def test_determinism(self):
        cfg = EvolutionConfig(population_size=10, observation_sample=4, seed=23,
                              imitation_probability=0.2)
        runs = []
        for _ in range(2):
            pop = init_population(self.params, self.coefficients, cfg)
            for _ in range(60):
                pop = evolve_step(pop, self.params, self.coefficients, cfg)
            runs.append(pop)
        for a, b in zip(runs[0].agents, runs[1].agents):
            assert np.array_equal(a.capital, b.capital)
            assert a.income == b.income
            assert a.growth == b.growth
            assert a.strategy == b.strategy

    @pytest.mark.parametrize("rule", SELECTION_RULES)
    def test_phase_two_matches_a_replay_of_each_agent(self, rule):
        # each agent alone, in reverse order, from a copy of its own stream
        # taken before the step: coin, select_parent, then mutate_strategy
        inst = random_instance(np.random.default_rng(3), n=3)
        params, coefficients = inst.params, inst.coefficients
        cfg = EvolutionConfig(population_size=10, observation_sample=4, seed=29,
                              imitation_probability=0.5, selection_rule=rule)
        pop = init_population(params, coefficients, cfg)
        imitations = 0
        for _ in range(30):
            streams = copy.deepcopy(pop.rngs)
            out = evolve_step(pop, params, coefficients, cfg)
            for i in reversed(range(cfg.population_size)):
                rng, parent, strategy = streams[i], -1, pop.strategies[i]
                if rng.random() < cfg.imitation_probability:
                    chosen = select_parent(i, out, cfg, rng, params)
                    if chosen != i:
                        parent = chosen
                        strategy = mutate_strategy(pop.strategies[chosen],
                                                   cfg.imitation_error_sd, rng)
                assert out.parents[i] == parent
                assert out.strategies[i] == strategy
            imitations += int((out.parents >= 0).sum())
            pop = out
        assert imitations > 0

    def test_parents_of_a_population_that_copied_nobody(self):
        cfg = EvolutionConfig(population_size=4, observation_sample=1, seed=5,
                              imitation_probability=0.0)
        pop = init_population(self.params, self.coefficients, cfg)
        assert pop.parents.tolist() == [-1] * 4
        out = evolve_step(pop, self.params, self.coefficients, cfg)
        assert out.parents.tolist() == [-1] * 4
        again = Population.from_agents(out.agents, out.step, out.rngs)
        assert again.parents.tolist() == [-1] * 4

    def test_imitation_copies_phase_one_snapshot(self):
        # when two agents imitate in the same step, the parent's strategy read
        # is the pre-imitation one, regardless of processing order
        cfg = EvolutionConfig(
            population_size=4,
            observation_sample=3,
            imitation_probability=1.0,
            imitation_error_sd=0.0,
            seed=31,
        )
        pop = init_population(self.params, self.coefficients, cfg)
        stepped_strategies = [a.strategy for a in pop.agents]
        out = evolve_step(pop, self.params, self.coefficients, cfg)
        for agent in out.agents:
            assert agent.strategy in stepped_strategies

    def test_capital_unchanged_by_imitation(self):
        cfg = EvolutionConfig(
            population_size=4, observation_sample=3, imitation_probability=1.0, seed=37
        )
        pop = init_population(self.params, self.coefficients, cfg)
        phase1_only = [
            _replay_capital(a, self.params, self.coefficients, 1) for a in pop.agents
        ]
        out = evolve_step(pop, self.params, self.coefficients, cfg)
        for expected, agent in zip(phase1_only, out.agents):
            assert np.array_equal(agent.capital, expected)

    def test_long_soak_keeps_strategies_valid(self):
        cfg = EvolutionConfig(
            population_size=8,
            observation_sample=3,
            imitation_probability=0.3,
            seed=41,
        )
        pop = init_population(self.params, self.coefficients, cfg)
        for t in range(10_000):
            pop = evolve_step(pop, self.params, self.coefficients, cfg)
            if t % 1000 == 0:
                for agent in pop.agents:
                    w = agent.strategy.weights
                    assert w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-12
        for agent in pop.agents:
            w = agent.strategy.weights
            assert w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-12
        assert pop.step == 10_000

    def test_selection_bias_toward_recent_switchers(self):
        # right after imitating, realized growth exceeds the adopted
        # strategy's equilibrium growth in nearly every event
        cfg = EvolutionConfig(
            population_size=20,
            observation_sample=5,
            imitation_probability=0.1,
            seed=43,
        )
        pop = init_population(self.params, self.coefficients, cfg)
        events = 0
        above = 0
        exceptions = []
        for t in range(300):
            before = [a.strategy for a in pop.agents]
            pop = evolve_step(pop, self.params, self.coefficients, cfg)
            switched = [
                i for i, agent in enumerate(pop.agents)
                if agent.strategy is not before[i] and agent.strategy != before[i]
            ]
            if not switched:
                continue
            after = evolve_step(
                pop,
                self.params,
                self.coefficients,
                EvolutionConfig(
                    population_size=20, observation_sample=5,
                    imitation_probability=0.0, seed=0,
                ),
            )
            for i in switched:
                events += 1
                g_star = equilibrium_growth(
                    pop.agents[i].strategy, self.coefficients, self.params
                )
                if after.agents[i].growth > g_star:
                    above += 1
                else:
                    exceptions.append((t, i, after.agents[i].growth - g_star))
            pop = after
        assert events > 50
        if exceptions:
            print(f"selection-bias exceptions: {exceptions}")
        assert above / events >= 0.95

    def test_a_population_too_small_for_its_sample_is_a_selection_error(self):
        # the config allows 3 agents; 2 give each observer one peer, not 2
        cfg = EvolutionConfig(population_size=3, observation_sample=2,
                              imitation_probability=1.0)
        pop = init_population(self.params, self.coefficients, cfg)
        two = Population.from_agents(pop.agents[:2], 0, pop.rngs[:2])
        streams = [rng.bit_generator.state for rng in two.rngs]
        with pytest.raises(SelectionError,
                           match="observation_sample 2 exceeds available peers 1"):
            evolve_step(two, self.params, self.coefficients, cfg)
        assert [rng.bit_generator.state for rng in two.rngs] == streams  # no draw

    def test_population_size_change_leaves_existing_streams_alone(self):
        small = EvolutionConfig(population_size=5, observation_sample=2, seed=47)
        large = EvolutionConfig(population_size=9, observation_sample=2, seed=47)
        pop_small = init_population(self.params, self.coefficients, small)
        pop_large = init_population(self.params, self.coefficients, large)
        for a, b in zip(pop_small.agents, pop_large.agents):
            assert a.strategy == b.strategy


def _assert_held_matrix(pop):
    """``pop.sigma`` is the read-only, C-ordered stack of its strategies' weights."""
    sigma, want = pop.sigma, np.array([s.weights for s in pop.strategies])
    assert sigma.flags.c_contiguous and not sigma.flags.writeable
    assert sigma.dtype == want.dtype and sigma.shape == want.shape
    assert sigma.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(rule=st.sampled_from(SELECTION_RULES), seed=st.integers(0, 2**32 - 1),
       sectors=st.integers(1, 5), size=st.integers(2, 8), data=st.data())
def test_held_strategy_matrix_follows_the_strategies(rule, seed, sectors, size, data):
    inst = random_instance(np.random.default_rng(seed), n=sectors)
    params, coefficients = inst.params, inst.coefficients
    cfg = EvolutionConfig(
        population_size=size, observation_sample=data.draw(st.integers(1, size - 1)),
        imitation_probability=data.draw(st.sampled_from([0.0, 0.3, 1.0])),
        imitation_error_sd=data.draw(st.sampled_from([0.0, 0.02, 0.5])),
        selection_rule=rule, seed=seed)
    pop = init_population(params, coefficients, cfg)
    _assert_held_matrix(pop)
    _assert_held_matrix(Population.from_agents(pop.agents, pop.step, pop.rngs))
    for _ in range(20):
        before = pop.sigma.copy()
        out = evolve_step(pop, params, coefficients, cfg)
        assert pop.sigma.tobytes() == before.tobytes()  # the step copies, never writes
        _assert_held_matrix(out)
        pop = out


def _replay_capital(state, params, coefficients, steps):
    from growthlab.dynamics import step_agent

    for _ in range(steps):
        state = step_agent(state, params, coefficients)
    return state.capital


def _step_agent_loop(agents, params, coefficients):
    return [step_agent(a, params, coefficients) for a in agents]


def _assert_same_agents(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.capital, b.capital)
        assert a.income == b.income
        assert a.growth == b.growth
        assert a.absorbed == b.absorbed
        assert a.strategy is b.strategy


class TestFromAgents:
    def test_entry_checks(self):
        params, c, _ = default_economy()
        two = [equilibrium_state(Strategy(np.array([0.5, 0.5])), c, params)] * 2
        three = equilibrium_state(
            Strategy(np.array([0.2, 0.3, 0.5])),
            ProductionCoefficients(np.array([0.2, 0.3, 0.5])),
            EconomyParams(0.1, 0.03, np.ones(3)),
        )
        rngs = [agent_stream(0, i) for i in range(3)]
        with pytest.raises(ConfigurationError, match="at least one agent"):
            Population.from_agents([], 0, [])
        with pytest.raises(ConfigurationError, match="one random stream"):
            Population.from_agents(two, 0, rngs)
        with pytest.raises(DimensionError,
                           match=r"sector counts differ: agents\[0\] 2, agents\[2\] 3"):
            Population.from_agents(two + [three], 0, rngs)
        pop = Population.from_agents(two, 4, rngs[:2])
        assert pop.ratio.shape == (2, 2) and pop.step == 4
        _assert_same_agents(pop.agents, two)


class TestInitPopulation:
    def test_entry_checks(self):
        params, c, _ = default_economy()
        cfg = EvolutionConfig(population_size=2, observation_sample=1)
        half = Strategy(np.array([0.5, 0.5]))
        mixed = [half, Strategy(np.array([0.2, 0.3, 0.5]))]
        with pytest.raises(ConfigurationError):  # not numpy's stacking error
            init_population(params, c, cfg, strategies=mixed)
        # sector 0 is productive but receives nothing: zero response, no ratio
        zero_response = [half, Strategy(np.array([0.0, 1.0]))]
        with pytest.raises(InvariantViolation):
            init_population(params, c, cfg, strategies=zero_response)

    def test_strategy_count_must_match_population(self):
        params, c, _ = default_economy()
        cfg = EvolutionConfig(population_size=3, observation_sample=1)
        half = Strategy(np.array([0.5, 0.5]))
        with pytest.raises(ConfigurationError, match="got 2 strategies for population of 3"):
            init_population(params, c, cfg, strategies=[half, half])

    def test_strategies_are_keyword_only(self):
        # a call that still passes prices fourth must not read them as strategies
        params, c, _ = default_economy()
        cfg = EvolutionConfig(population_size=2, observation_sample=1)
        with pytest.raises(TypeError):
            init_population(params, c, cfg, params.prices)

    def test_rows_match_equilibrium_state(self):
        rng = np.random.default_rng(331)
        for n in range(1, 7):
            inst = random_instance(rng, n=n)
            cfg = EvolutionConfig(population_size=5, observation_sample=1, seed=n)
            params = replace(inst.params, prices=rng.uniform(0.5, 2.0, n))
            pop = init_population(params, inst.coefficients, cfg)
            _assert_same_agents(pop.agents, [
                equilibrium_state(s, inst.coefficients, params)
                for s in pop.strategies
            ])


class TestBatchedPhaseOne:
    """evolve_step steps the whole population on arrays; without imitation
    every agent must match a plain step_agent loop bit for bit."""

    def run_parity(self, agents, params, coefficients, price_rows):
        cfg = EvolutionConfig(
            population_size=len(agents), observation_sample=1,
            imitation_probability=0.0,
        )
        rngs = [agent_stream(0, i) for i in range(len(agents))]
        pop = Population.from_agents(agents, 0, rngs)
        want = list(agents)
        for t, p in enumerate(price_rows, start=1):
            row = replace(params, prices=p)
            pop = evolve_step(pop, row, coefficients, cfg)
            want = _step_agent_loop(want, row, coefficients)
            assert pop.step == t
            _assert_same_agents(pop.agents, want)

    def test_random_economies(self):
        rng = np.random.default_rng(307)
        for n in range(2, 7):
            inst = random_instance(rng, n=n)
            c, params = inst.coefficients, inst.params
            agents = [
                uniform_state(
                    Strategy(rng.dirichlet(np.ones(n))), c, params,
                    capital_level=float(rng.uniform(0.1, 10.0)),
                )
                for _ in range(7)
            ]
            constant = [params.prices] * 150
            self.run_parity(agents, params, c, constant)
            series = list(rng.uniform(0.5, 2.0, (40, n)))
            self.run_parity(agents, params, c, series)

    def test_zero_coefficient_sector_and_absorbed_agent(self):
        c = ProductionCoefficients(np.array([0.6, 0.0, 0.4]))
        params = EconomyParams(0.2, 0.05, np.array([1.0, 1.3, 0.7]))
        dead = Strategy(np.array([0.0, 1.0, 0.0]))
        agents = [
            uniform_state(Strategy(np.array([0.3, 0.3, 0.4])), c, params),
            uniform_state(Strategy(np.array([0.5, 0.0, 0.5])), c, params, 3.0),
            # zero capital in a productive sector: zero income, absorbed
            AgentState.from_capital(np.array([0.0, 1.0, 2.0]), 0.0, 0.0, dead),
            uniform_state(dead, c, params, 0.5),
        ]
        self.run_parity(agents, params, c, [params.prices] * 300)
        # many productive sectors next to an inert one
        rng = np.random.default_rng(313)
        c6 = ProductionCoefficients(np.array([0.2, 0.3, 0.0, 0.1, 0.15, 0.25]))
        params6 = EconomyParams(0.3, 0.05, rng.uniform(0.5, 2.0, 6))
        agents = [
            uniform_state(Strategy(rng.dirichlet(np.ones(6))), c6, params6,
                          capital_level=float(rng.uniform(0.1, 10.0)))
            for _ in range(7)
        ]
        self.run_parity(agents, params6, c6, [params6.prices] * 100)
        # full deprecation with no productive investment absorbs in one step
        params = EconomyParams(0.2, 1.0, np.array([1.0, 1.3, 0.7]))
        agents = [uniform_state(dead, c, params), uniform_state(
            Strategy(np.array([0.4, 0.2, 0.4])), c, params)]
        self.run_parity(agents, params, c, [params.prices] * 5)

    def test_fast_growth_finishes_like_step_agent(self, capsys, tmp_path):
        # 20% growth per step takes income past float range near step 3.9k:
        # the population keeps stepping with finite log income, bit for bit
        # as a step_agent loop does
        params, c, _ = default_economy(0.2)
        cfg = EvolutionConfig(
            population_size=4, observation_sample=1, imitation_probability=0.0
        )
        rng = np.random.default_rng(311)
        strategies = [Strategy(np.array([0.5, 0.5]))] + [
            mutate_strategy(Strategy(np.array([0.5, 0.5])), 0.05, rng)
            for _ in range(3)
        ]
        pop = init_population(params, c, cfg, strategies=strategies)
        want = pop.agents
        for _ in range(5000):
            pop = evolve_step(pop, params, c, cfg)
            want = _step_agent_loop(want, params, c)
        assert np.isfinite(pop.log_income).all() and np.isfinite(pop.growth).all()
        assert pop.log_income.min() > np.log(np.finfo(float).max)
        assert pop.log_income.tolist() == [a.log_income for a in want]
        assert pop.growth.tolist() == [a.growth for a in want]
        assert np.array_equal(pop.ratio, [a.ratio for a in want])

        out = tmp_path / "pop.csv"
        argv = ["evolve", "--alpha", "0.5,0.5", "--target", "0.5", "--steps",
                "5000", "--population", "4", "--sample", "1", "--seed", "1",
                "--output", str(out)]
        assert cli_main(argv) == 0
        assert capsys.readouterr().err == ""
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 5001 * 4
        last = lines[-1].split(",")
        assert last[2] == "inf" and np.isfinite(float(last[3]))
