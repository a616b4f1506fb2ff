from dataclasses import replace

import numpy as np
import pytest

from growthlab import (
    AgentState,
    ConfigurationError,
    DimensionError,
    DomainError,
    EconomyParams,
    ProductionCoefficients,
    Strategy,
    project_to_simplex,
)
from growthlab.dynamics import (
    PriceSchedule,
    TraceRecord,
    equilibrium_state,
    run_hold,
    run_switch_experiment,
    step_agent,
    uniform_state,
    verify_state_consistency,
)
from growthlab.equilibrium import (
    equilibrium_growth,
    equilibrium_ratio,
    optimal_strategy,
)

from conftest import default_economy, near_optimal, random_instance


class TestPriceSchedule:
    def test_constant_lookup(self):
        s = PriceSchedule.constant([1.0, 2.0])
        assert np.array_equal(s.at(1), [1.0, 2.0])
        assert np.array_equal(s.at(999), [1.0, 2.0])

    def test_series_holds_last_value(self):
        s = PriceSchedule.series([[1.0, 1.0], [2.0, 2.0]])
        assert np.array_equal(s.at(1), [1.0, 1.0])
        assert np.array_equal(s.at(2), [2.0, 2.0])
        assert np.array_equal(s.at(50), [2.0, 2.0])

    def test_positive_prices_required(self):
        with pytest.raises(DomainError):
            PriceSchedule.constant([1.0, 0.0])
        with pytest.raises(DomainError):
            PriceSchedule.series([[1.0], [-2.0]])

    def test_ragged_series_is_a_dimension_error(self):
        with pytest.raises(DimensionError, match="rectangular"):
            PriceSchedule.series([[1.0, 1.0], [1.0]])

    def test_step_must_be_positive(self):
        s = PriceSchedule.constant([1.0])
        with pytest.raises(ConfigurationError):
            s.at(0)


class TestStepAgent:
    def test_symmetric_substitution(self):
        # direct substitution check of k' = (sigma/p)*y + (1-delta)*k and
        # y' = s*gm(k'); deprecation 0 lies outside the (0, 1] domain, so the
        # vanishing-deprecation limit is used with a matching tolerance
        c = ProductionCoefficients(np.array([0.5, 0.5]))
        delta = 1e-9
        params = EconomyParams(1.0, delta, np.array([1.0, 1.0]))
        sigma = Strategy(np.array([0.5, 0.5]))
        state = AgentState(np.array([1.0, 1.0]), 1.0, 0.0, sigma)
        out = step_agent(state, params, c, params.prices)
        assert out.capital == pytest.approx([1.5, 1.5], abs=1e-8)
        assert out.income == pytest.approx(1.5, abs=1e-8)
        assert out.growth == pytest.approx(0.5, abs=1e-8)

    def test_full_deprecation_single_sector(self):
        c = ProductionCoefficients(np.array([1.0]))
        params = EconomyParams(0.9, 1.0, np.array([1.0]))
        sigma = Strategy(np.array([1.0]))
        state = AgentState(np.array([2.0]), 1.8, 0.0, sigma)
        out = step_agent(state, params, c, params.prices)
        assert out.capital == pytest.approx([1.8])
        assert out.income == pytest.approx(1.62)
        assert out.growth == pytest.approx(-0.1)

    def test_uninvested_sector_decays_at_deprecation_rate(self):
        c = ProductionCoefficients(np.array([0.5, 0.5]))
        params = EconomyParams(0.1, 0.05, np.array([1.0, 1.0]))
        sigma = Strategy(np.array([0.0, 1.0]))
        state = uniform_state(sigma, c, params, capital_level=3.0)
        for _ in range(10):
            nxt = step_agent(state, params, c, params.prices)
            # capital is ratio * income, so the exact decay shows on the
            # ratio: kept at (1 - delta), then rescaled by the growth factor
            decayed = state.ratio[0] * (1.0 - params.deprecation)
            assert nxt.ratio[0] == decayed / (1.0 + nxt.growth)  # exact
            state = nxt

    def test_dimension_mismatch(self):
        c = ProductionCoefficients(np.array([0.5, 0.5]))
        params = EconomyParams(0.1, 0.05, np.array([1.0, 1.0]))
        state = uniform_state(Strategy(np.array([0.5, 0.5])), c, params)
        with pytest.raises(ConfigurationError):
            step_agent(state, params, c, np.array([1.0, 1.0, 1.0]))

    def test_nonfinite_prices_rejected(self):
        c = ProductionCoefficients(np.array([0.5, 0.5]))
        params = EconomyParams(0.1, 0.05, np.array([1.0, 1.0]))
        state = uniform_state(Strategy(np.array([0.5, 0.5])), c, params)
        with pytest.raises(DomainError):
            step_agent(state, params, c, np.array([1.0, np.nan]))

    def test_zero_income_state_is_absorbing(self):
        # full deprecation with all investment in a zero-coefficient sector:
        # income hits exactly zero after one step, then stays there flagged
        c = ProductionCoefficients(np.array([1.0, 0.0]))
        params = EconomyParams(0.5, 1.0, np.array([1.0, 1.0]))
        sigma = Strategy(np.array([0.0, 1.0]))
        state = uniform_state(sigma, c, params)
        first = step_agent(state, params, c, params.prices)
        assert first.income == 0.0
        assert first.growth == -1.0  # == -deprecation on the way down
        assert first.absorbed
        second = step_agent(first, params, c, params.prices)
        assert second.income == 0.0
        assert second.growth == 0.0
        assert second.absorbed
        assert np.isfinite(second.capital).all()


class TestRunHold:
    def test_converges_to_closed_form(self):
        rng = np.random.default_rng(101)
        inst = random_instance(rng)
        g_star = equilibrium_growth(inst.strategy, inst.coefficients, inst.params)
        state = uniform_state(inst.strategy, inst.coefficients, inst.params)
        records = run_hold(state, inst.params, inst.coefficients, inst.schedule, 2000)
        assert abs(records[-1].growth - g_star) < 1e-8

    def test_zero_investment_in_productive_sectors(self):
        c = ProductionCoefficients(np.array([0.6, 0.4, 0.0]))
        params = EconomyParams(0.2, 0.04, np.array([1.0, 1.0, 1.0]))
        sigma = Strategy(np.array([0.0, 0.0, 1.0]))
        state = uniform_state(sigma, c, params)
        records = run_hold(state, params, c, PriceSchedule.constant(params.prices), 200)
        for rec in records:
            assert rec.growth == pytest.approx(-0.04, abs=1e-14)
            assert rec.equilibrium_growth == -0.04

    def test_equilibrium_start_realizes_equilibrium_growth_immediately(self):
        rng = np.random.default_rng(103)
        inst = random_instance(rng)
        g_star = equilibrium_growth(inst.strategy, inst.coefficients, inst.params)
        state = equilibrium_state(inst.strategy, inst.coefficients, inst.params)
        records = run_hold(state, inst.params, inst.coefficients, inst.schedule, 50)
        for rec in records:
            assert rec.growth == pytest.approx(g_star, abs=1e-10)

    def test_inconsistent_state_rejected(self):
        params, c, sched = default_economy()
        sigma = Strategy(np.array([0.5, 0.5]))
        bad = AgentState(np.array([1.0, 1.0]), 5.0, 0.0, sigma)
        with pytest.raises(Exception):
            run_hold(bad, params, c, sched, 10)

    def test_excess_growth_consistency(self):
        rng = np.random.default_rng(107)
        inst = random_instance(rng)
        state = uniform_state(inst.strategy, inst.coefficients, inst.params)
        for rec in run_hold(state, inst.params, inst.coefficients, inst.schedule, 100):
            assert rec.excess_growth == pytest.approx(
                rec.growth - rec.equilibrium_growth, abs=1e-12
            )


class TestRunSwitchExperiment:
    def test_no_switches_equals_run_hold(self):
        params, c, sched = default_economy()
        sigma = Strategy(np.array([0.45, 0.55]))
        state = equilibrium_state(sigma, c, params)
        hold = run_hold(state, params, c, sched, 120)
        switched = run_switch_experiment(sigma, [], params, c, sched, 120)
        assert hold == switched

    def test_equal_growth_pair_approached_from_above(self):
        # two mirror strategies share one equilibrium growth rate
        params, c, sched = default_economy()
        a = Strategy(np.array([0.45, 0.55]))
        b = Strategy(np.array([0.55, 0.45]))
        level = equilibrium_growth(a, c, params)
        assert equilibrium_growth(b, c, params) == pytest.approx(level, abs=1e-15)
        records = run_switch_experiment(a, [(40, b)], params, c, sched, 200)
        post = records[39:]
        for rec in post:
            assert rec.growth >= level - 1e-12
        assert post[0].growth > level

    def test_inferior_to_superior_overshoots(self):
        params, c, sched = default_economy()
        inferior = Strategy(np.array([0.2, 0.8]))
        superior = Strategy(np.array([0.48, 0.52]))
        g_sup = equilibrium_growth(superior, c, params)
        records = run_switch_experiment(inferior, [(30, superior)], params, c, sched, 60)
        assert records[29].growth > g_sup

    def test_first_post_switch_growth_matches_blend_formula(self):
        # independent oracle: stepping from a's equilibrium with strategy b
        # realizes the equilibrium growth of the capital blend
        # m = lam*b + (1-lam)*a, lam = (g_a + delta)/(1 + g_a), rescaled by
        # (1 + g_a)/(g_a + delta)
        rng = np.random.default_rng(109)
        for _ in range(20):
            inst = random_instance(rng)
            n = inst.params.sectors
            delta = inst.params.deprecation
            a = inst.strategy
            b = project_to_simplex(rng.dirichlet(np.ones(n)))
            g_a = equilibrium_growth(a, inst.coefficients, inst.params)
            lam = (g_a + delta) / (1.0 + g_a)
            blend = Strategy(lam * b.weights + (1.0 - lam) * a.weights)
            g_m = equilibrium_growth(blend, inst.coefficients, inst.params)
            predicted = (1.0 + g_a) * (g_m + delta) / (g_a + delta) - 1.0
            records = run_switch_experiment(
                a, [(5, b)], inst.params, inst.coefficients, inst.schedule, 5
            )
            assert records[4].growth == pytest.approx(predicted, abs=1e-12)

    def test_non_monotone_switch_steps_rejected(self):
        params, c, sched = default_economy()
        a = Strategy(np.array([0.5, 0.5]))
        with pytest.raises(ConfigurationError):
            run_switch_experiment(a, [(30, a), (30, a)], params, c, sched, 100)
        with pytest.raises(ConfigurationError):
            run_switch_experiment(a, [(50, a), (20, a)], params, c, sched, 100)
        with pytest.raises(ConfigurationError):
            run_switch_experiment(a, [(0, a)], params, c, sched, 100)
        with pytest.raises(ConfigurationError):
            run_switch_experiment(a, [(101, a)], params, c, sched, 100)

    def test_repeat_runs_identical(self):
        params, c, sched = default_economy()
        rng = np.random.default_rng(31)
        a = near_optimal(c, 0.02, rng)
        b = near_optimal(c, 0.02, rng)
        one = run_switch_experiment(a, [(25, b)], params, c, sched, 80)
        two = run_switch_experiment(a, [(25, b)], params, c, sched, 80)
        assert one == two


def step_agent_records(state, switches, params, coefficients, prices, steps):
    """Reference trace: a plain ``step_agent`` loop, one record per step."""
    pending = dict(switches)
    records = []
    for t in range(1, steps + 1):
        if t in pending:
            state = replace(state, strategy=pending[t])
        p = prices.at(t)
        state = step_agent(state, params, coefficients, p)
        g_star = equilibrium_growth(state.strategy, coefficients, params, p)
        records.append(
            TraceRecord(
                t, 0, state.income, state.growth, g_star,
                state.growth - g_star, state.strategy.as_tuple(), state.log_income,
            )
        )
    return records


class TestStepAgentParity:
    """run_hold and run_switch_experiment step on plain arrays; their records
    must be bit-identical to stepping AgentStates one at a time."""

    def assert_parity(self, state, switches, params, c, prices, steps):
        expected = step_agent_records(state, switches, params, c, prices, steps)
        if not switches:
            assert run_hold(state, params, c, prices, steps) == expected
        got = run_switch_experiment(
            state.strategy, switches, params, c, prices, steps, initial_state=state
        )
        assert got == expected

    def test_random_economies(self):
        rng = np.random.default_rng(211)
        for n in range(2, 7):
            for _ in range(3):
                inst = random_instance(rng, n=n)
                c, params = inst.coefficients, inst.params
                state = uniform_state(inst.strategy, c, params)
                self.assert_parity(state, [], params, c, inst.schedule, 300)
                b = project_to_simplex(rng.dirichlet(np.ones(n)))
                self.assert_parity(
                    state, [(40, b), (41, inst.strategy)], params, c,
                    inst.schedule, 120,
                )

    def test_zero_coefficient_sector(self):
        c = ProductionCoefficients(np.array([0.6, 0.0, 0.4]))
        params = EconomyParams(0.2, 0.05, np.array([1.0, 1.3, 0.7]))
        state = uniform_state(Strategy(np.array([0.3, 0.3, 0.4])), c, params)
        self.assert_parity(
            state, [], params, c, PriceSchedule.constant(params.prices), 400
        )

    def test_absorbing_zero_income(self):
        c = ProductionCoefficients(np.array([1.0, 0.0]))
        params = EconomyParams(0.5, 1.0, np.array([1.0, 1.0]))
        state = uniform_state(Strategy(np.array([0.0, 1.0])), c, params)
        prices = PriceSchedule.constant(params.prices)
        self.assert_parity(state, [], params, c, prices, 20)
        records = run_hold(state, params, c, prices, 20)
        assert [r.income for r in records] == [0.0] * 20
        assert records[0].growth == -1.0
        assert [r.growth for r in records[1:]] == [0.0] * 19

    def test_prices_changing_mid_run(self):
        # the hoisted sigma / p must follow each new price row, and must
        # survive a row that repeats the previous one
        rng = np.random.default_rng(223)
        inst = random_instance(rng, n=3)
        rows = rng.uniform(0.5, 2.0, (12, 3))
        rows[5] = rows[4]
        prices = PriceSchedule.series(rows)
        c, params = inst.coefficients, inst.params
        state = uniform_state(inst.strategy, c, params)
        self.assert_parity(state, [], params, c, prices, 60)
        b = project_to_simplex(rng.dirichlet(np.ones(3)))
        self.assert_parity(state, [(3, b), (9, inst.strategy)], params, c, prices, 60)


class TestEntryChecks:
    def test_price_schedule_sector_count(self):
        params, c, _ = default_economy()
        sigma = Strategy(np.array([0.5, 0.5]))
        state = equilibrium_state(sigma, c, params)
        wrong = PriceSchedule.constant([1.0, 1.0, 1.0])
        with pytest.raises(ConfigurationError):
            run_hold(state, params, c, wrong, 10)
        with pytest.raises(ConfigurationError):
            run_switch_experiment(sigma, [], params, c, wrong, 10)
        with pytest.raises(ConfigurationError):
            run_switch_experiment(sigma, [], params, c, wrong, 10, initial_state=state)

    def test_fast_growth_finishes_with_finite_log_income(self):
        # 20% growth per step takes income past float range near step 3.9k;
        # the run keeps stepping on the ratio, and only income reads inf
        params, c, sched = default_economy(0.2)
        state = equilibrium_state(optimal_strategy(c), c, params)
        records = run_hold(state, params, c, sched, 5000)
        assert len(records) == 5000
        assert records[-1].income == np.inf
        assert np.isfinite([r.log_income for r in records]).all()
        assert np.isfinite([r.growth for r in records]).all()


class TestLongRuns:
    """Runs long enough that income leaves float range: log income stays
    finite and growth still settles on g*."""

    @pytest.mark.parametrize("target, steps", [(0.0185, 45_000), (0.2, 5_000)])
    def test_hold_finishes_at_equilibrium(self, target, steps):
        params, c, sched = default_economy(target)
        sigma = Strategy(np.array([0.4, 0.6]))
        g_star = equilibrium_growth(sigma, c, params)
        state = uniform_state(sigma, c, params)
        records = run_hold(state, params, c, sched, steps)
        assert len(records) == steps
        assert np.isfinite(records[-1].log_income)
        assert abs(records[-1].growth - g_star) < 1e-12


class TestTrajectoryProperties:
    def test_growth_never_below_minus_deprecation(self):
        rng = np.random.default_rng(113)
        for _ in range(20):
            inst = random_instance(rng)
            state = uniform_state(inst.strategy, inst.coefficients, inst.params)
            records = run_hold(
                state, inst.params, inst.coefficients, inst.schedule, 300
            )
            for rec in records:
                assert rec.growth >= -inst.params.deprecation - 1e-12

    def test_contraction_condition_along_trajectory(self):
        # 0 <= (1 - delta)/(g + 1) < 1 whenever growth stays above -delta
        rng = np.random.default_rng(127)
        inst = random_instance(rng)
        state = uniform_state(inst.strategy, inst.coefficients, inst.params)
        records = run_hold(state, inst.params, inst.coefficients, inst.schedule, 500)
        delta = inst.params.deprecation
        for rec in records:
            if rec.growth > -delta:
                b = (1.0 - delta) / (rec.growth + 1.0)
                assert 0.0 <= b < 1.0

    def test_ratio_converges_to_limit(self):
        rng = np.random.default_rng(131)
        for n in range(2, 7):
            inst = random_instance(rng, n=n)
            limit = equilibrium_ratio(inst.strategy, inst.coefficients, inst.params)
            state = uniform_state(inst.strategy, inst.coefficients, inst.params)
            for t in range(2000):
                state = step_agent(
                    state, inst.params, inst.coefficients, inst.params.prices
                )
            ratio = state.capital / state.income
            assert np.max(np.abs(ratio - limit)) < 1e-8

    def test_ratio_monotone_from_the_fixed_point_neighborhood(self):
        # the affine ratio recursion contracts monotonically once growth has
        # settled; from the equilibrium start the distance to the limit never
        # grows beyond float noise.  (Generic far-from-equilibrium starts can
        # undershoot the limit once during the early transient.)
        rng = np.random.default_rng(137)
        for _ in range(10):
            inst = random_instance(rng)
            limit = equilibrium_ratio(inst.strategy, inst.coefficients, inst.params)
            state = equilibrium_state(inst.strategy, inst.coefficients, inst.params)
            prev = None
            for t in range(500):
                state = step_agent(
                    state, inst.params, inst.coefficients, inst.params.prices
                )
                dist = np.abs(state.capital / state.income - limit)
                if prev is not None:
                    assert float(np.max(dist - prev)) <= 1e-12
                prev = dist

    def test_scale_invariance(self):
        rng = np.random.default_rng(139)
        inst = random_instance(rng)
        base = uniform_state(inst.strategy, inst.coefficients, inst.params)
        for c_mult in (0.25, 3.0, 1e4):
            scaled = uniform_state(
                inst.strategy, inst.coefficients, inst.params, capital_level=c_mult
            )
            r1 = run_hold(base, inst.params, inst.coefficients, inst.schedule, 200)
            r2 = run_hold(scaled, inst.params, inst.coefficients, inst.schedule, 200)
            for rec1, rec2 in zip(r1, r2):
                assert rec2.income == pytest.approx(rec1.income * c_mult, rel=1e-12)
                assert rec2.growth == pytest.approx(rec1.growth, abs=1e-12)

    def test_state_consistency_checker(self):
        params, c, _ = default_economy()
        good = uniform_state(Strategy(np.array([0.5, 0.5])), c, params)
        verify_state_consistency(good, params, c)
        bad = AgentState(good.capital, good.income * 1.001, 0.0, good.strategy)
        with pytest.raises(Exception):
            verify_state_consistency(bad, params, c)
