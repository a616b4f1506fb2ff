import math
import sys
from dataclasses import fields, replace

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
    _advance,
    equilibrium_state,
    run_hold,
    run_switch_experiment,
    step_agent,
    uniform_state,
    verify_state_consistency,
)
from growthlab.evolution import EvolutionConfig, init_population
from growthlab.equilibrium import (
    equilibrium_growth,
    equilibrium_ratio,
    optimal_strategy,
)

from conftest import default_economy, near_optimal, random_instance, step_agent_records


class TestPriceSchedule:
    def test_constant_lookup(self):
        s = PriceSchedule.constant([1.0, 2.0])
        assert np.array_equal(s.at(1), [1.0, 2.0])
        assert np.array_equal(s.at(999), [1.0, 2.0])

    def test_series_holds_last_value(self):
        s = PriceSchedule([[1.0, 1.0], [2.0, 2.0]])
        assert np.array_equal(s.at(1), [1.0, 1.0])
        assert np.array_equal(s.at(2), [2.0, 2.0])
        assert np.array_equal(s.at(50), [2.0, 2.0])

    def test_positive_prices_required(self):
        with pytest.raises(DomainError):
            PriceSchedule.constant([1.0, 0.0])
        with pytest.raises(DomainError):
            PriceSchedule([[1.0], [-2.0]])

    def test_ragged_series_is_a_dimension_error(self):
        with pytest.raises(DimensionError, match="rectangular"):
            PriceSchedule([[1.0, 1.0], [1.0]])

    def test_step_must_be_positive(self):
        s = PriceSchedule.constant([1.0])
        with pytest.raises(ConfigurationError):
            s.at(0)

    def test_constant_is_one_row(self):
        s = PriceSchedule.constant([1.0, 2.0])
        assert s == PriceSchedule([[1.0, 2.0]])
        assert s.values.shape == (1, 2)

    def test_at_returns_one_object_while_prices_hold(self):
        # change_steps, which run_switch_experiment and the evolve driver
        # read, is where this value changes
        s = PriceSchedule([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0], [2.0, 2.0], [1.0, 1.0]])
        assert np.array_equal(s.at(1), s.at(2))
        assert not np.array_equal(s.at(3), s.at(2))
        assert np.array_equal(s.at(3), s.at(4))
        assert not np.array_equal(s.at(5), s.at(4))
        assert np.array_equal(s.at(5), s.at(6)) and np.array_equal(s.at(6), s.at(10**6))
        c = PriceSchedule.constant([1.0, 2.0])
        assert np.array_equal(c.at(1), c.at(2)) and np.array_equal(c.at(2), c.at(999))

    def test_change_steps(self):
        # the steps t in [2, steps] whose row value differs from step t - 1's
        s = PriceSchedule([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0], [2.0, 2.0], [1.0, 1.0]])
        assert s.change_steps(10) == [3, 5]
        assert s.change_steps(10) == [
            t for t in range(2, 11) if not np.array_equal(s.at(t), s.at(t - 1))]
        assert (s.change_steps(4), s.change_steps(2), s.change_steps(1)) == ([3], [], [])
        assert PriceSchedule.constant([1.0, 2.0]).change_steps(999) == []


class TestStepAgent:
    def test_symmetric_substitution(self):
        # direct substitution check of k' = (sigma/p)*y + (1-delta)*k and
        # y' = s*gm(k'); deprecation 0 lies outside the (0, 1] domain, so the
        # vanishing-deprecation limit is used with a matching tolerance
        c = ProductionCoefficients(np.array([0.5, 0.5]))
        delta = 1e-9
        params = EconomyParams(1.0, delta, np.array([1.0, 1.0]))
        sigma = Strategy(np.array([0.5, 0.5]))
        state = AgentState.from_capital(np.array([1.0, 1.0]), 1.0, 0.0, sigma)
        out = step_agent(state, params, c)
        assert out.capital == pytest.approx([1.5, 1.5], abs=1e-8)
        assert out.income == pytest.approx(1.5, abs=1e-8)
        assert out.growth == pytest.approx(0.5, abs=1e-8)

    def test_full_deprecation_single_sector(self):
        c = ProductionCoefficients(np.array([1.0]))
        params = EconomyParams(0.9, 1.0, np.array([1.0]))
        sigma = Strategy(np.array([1.0]))
        state = AgentState.from_capital(np.array([2.0]), 1.8, 0.0, sigma)
        out = step_agent(state, params, c)
        assert out.capital == pytest.approx([1.8])
        assert out.income == pytest.approx(1.62)
        assert out.growth == pytest.approx(-0.1)

    def test_uninvested_sector_decays_at_deprecation_rate(self):
        c = ProductionCoefficients(np.array([0.5, 0.5]))
        params = EconomyParams(0.1, 0.05, np.array([1.0, 1.0]))
        sigma = Strategy(np.array([0.0, 1.0]))
        state = uniform_state(sigma, c, params, capital_level=3.0)
        for _ in range(10):
            nxt = step_agent(state, params, c)
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
            step_agent(state, replace(params, prices=np.array([1.0, 1.0, 1.0])), c)

    def test_nonfinite_prices_rejected(self):
        c = ProductionCoefficients(np.array([0.5, 0.5]))
        params = EconomyParams(0.1, 0.05, np.array([1.0, 1.0]))
        state = uniform_state(Strategy(np.array([0.5, 0.5])), c, params)
        with pytest.raises(DomainError):
            step_agent(state, replace(params, prices=np.array([1.0, np.nan])), c)

    def test_params_prices_skip_only_the_price_check(self):
        # params.prices itself is not re-checked, but the sector counts are;
        # other prices enter as params, so any array, also a copy, gets the full check
        c = ProductionCoefficients(np.array([0.5, 0.5]))
        params = EconomyParams(0.1, 0.05, np.array([1.0, 1.0]))
        three = uniform_state(
            Strategy(np.array([0.2, 0.3, 0.5])),
            ProductionCoefficients(np.array([0.2, 0.3, 0.5])),
            EconomyParams(0.1, 0.05, np.ones(3)),
        )
        with pytest.raises(DimensionError, match="sector counts differ"):
            step_agent(three, params, c)
        state = uniform_state(Strategy(np.array([0.5, 0.5])), c, params)
        nan_copy = params.prices.copy()
        nan_copy[1] = np.nan
        with pytest.raises(DomainError, match="positive finite"):
            step_agent(state, replace(params, prices=nan_copy), c)
        same, copied = (step_agent(state, row, c)
                        for row in (params, replace(params, prices=params.prices.copy())))
        assert (same.ratio.tolist(), same.log_income, same.growth) == (
            copied.ratio.tolist(), copied.log_income, copied.growth)

    def test_zero_income_state_is_absorbing(self):
        # full deprecation with all investment in a zero-coefficient sector:
        # income hits exactly zero after one step, then stays there flagged
        c = ProductionCoefficients(np.array([1.0, 0.0]))
        params = EconomyParams(0.5, 1.0, np.array([1.0, 1.0]))
        sigma = Strategy(np.array([0.0, 1.0]))
        state = uniform_state(sigma, c, params)
        first = step_agent(state, params, c)
        assert first.income == 0.0
        assert first.growth == -1.0  # == -deprecation on the way down
        assert first.absorbed
        second = step_agent(first, params, c)
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
        bad = AgentState.from_capital(np.array([1.0, 1.0]), 5.0, 0.0, sigma)
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


def first_repeat(state, params, c, prices, steps):
    """The first step t <= ``steps`` whose ratio, stepped by ``_advance`` at
    fixed prices, equals byte for byte the ratio of step t - 1 or t - 2, and
    that period (1 or 2); None if there is none."""
    x, log_y, invest = state.ratio, state.log_income, state.strategy.weights / prices
    seen = []
    with np.errstate(divide="ignore", over="ignore"):
        for t in range(1, steps + 1):
            x, log_y = _advance(x, log_y, invest, params, c)[:2]
            seen.append(x.tobytes())
            for period in (1, 2):
                if len(seen) > period and seen[-1] == seen[-1 - period]:
                    return t, period
    return None


class TestStepAgentParity:
    """run_hold and run_switch_experiment step on plain arrays, and replay a
    ratio that repeats; their records must be bit-identical to stepping
    AgentStates one at a time.  ``repr`` also tells -0.0 from 0.0 and a
    numpy scalar from a float, which ``==`` does not."""

    def assert_parity(self, state, switches, params, c, prices, steps):
        expected = step_agent_records(state, switches, params, c, prices, steps)
        if not switches:
            held = run_hold(state, params, c, prices, steps)
            assert held == expected
            assert [repr(r) for r in held] == [repr(r) for r in expected]
        got = run_switch_experiment(
            state.strategy, switches, params, c, prices, steps, initial_state=state
        )
        assert got == expected
        assert [repr(r) for r in got] == [repr(r) for r in expected]

    @staticmethod
    def repeating_case(period):
        """The first of ``random_instance(default_rng(5))``'s economies whose
        uniform start repeats with ``period`` within 300 steps, that start,
        and the step at which the repeat shows."""
        rng = np.random.default_rng(5)
        for _ in range(300):
            inst = random_instance(rng)
            state = uniform_state(inst.strategy, inst.coefficients, inst.params)
            found = first_repeat(state, inst.params, inst.coefficients,
                                 inst.params.prices, 300)
            if found is not None and found[1] == period:
                return inst, state, found[0]
        raise AssertionError(f"no draw repeats with period {period}")

    # a fixed point, and a 2-cycle whose price change lands on either phase;
    # at offset 1 the repeat is the last step of its segment, so its span is empty
    @pytest.mark.parametrize("period, offset", [(1, 5), (2, 2), (2, 3), (1, 1), (2, 1)])
    def test_repeat_then_a_price_change_then_a_switch(self, period, offset):
        inst, state, repeat = self.repeating_case(period)
        c, params = inst.coefficients, inst.params
        change = repeat + offset
        prices = PriceSchedule([params.prices] * (change - 1) + [params.prices * 1.25])
        b = project_to_simplex(np.random.default_rng(7).dirichlet(np.ones(params.sectors)))
        self.assert_parity(state, [], params, c, prices, change + 60)
        self.assert_parity(state, [(change + 60, b)], params, c, prices, change + 120)
        self.assert_parity(state, [(change, b)], params, c, prices, change + 60)

    @pytest.mark.parametrize("period", [1, 2])
    def test_run_that_ends_on_its_repeat_step(self, period):
        # a run's last step is the repeat, or the first or second step after it
        inst, state, repeat = self.repeating_case(period)
        for steps in (repeat, repeat + 1, repeat + 2):
            self.assert_parity(state, [], inst.params, inst.coefficients, inst.schedule, steps)

    # from log income 705 at g* near 0.1 the log income passes log(DBL_MAX),
    # about 709.78, some 50 steps after the ratio repeats; income must read
    # inf from exactly the step whose log income math.exp rejects
    @pytest.mark.parametrize("sigma, period", [((0.5, 0.5), 1), ((0.3, 0.7), 2)])
    def test_income_overflows_inside_a_replayed_span(self, sigma, period):
        params, c, sched = default_economy(target_growth=0.1)
        start = equilibrium_state(Strategy(np.array(sigma)), c, params)
        state = replace(start, log_income=705.0)
        self.assert_parity(state, [], params, c, sched, 200)
        records = run_hold(state, params, c, sched, 200)

        def overflows(log_income):
            try:
                math.exp(log_income)
            except OverflowError:
                return True
            return False

        over = [overflows(r.log_income) for r in records]
        step = over.index(True) + 1
        repeat, found = first_repeat(state, params, c, params.prices, 200)
        assert found == period and repeat + 1 < step < 200
        assert over == [False] * (step - 1) + [True] * (201 - step)
        assert [r.income == math.inf for r in records] == over
        assert all(math.isfinite(r.log_income) for r in records)

    def test_full_deprecation_row_that_returns(self):
        # at deprecation 1 a step's ratio depends on its prices alone, so rows
        # p, p, q, p give step 4 the ratio of step 2: a cycle must not join
        # steps from both sides of a change
        inst = random_instance(np.random.default_rng(239), n=3, delta=1.0)
        c, params, p = inst.coefficients, inst.params, inst.params.prices
        prices = PriceSchedule([p, p, p * 1.25, p])
        x, seen = np.ones(3), []
        for t in range(1, 5):
            x = _advance(x, 0.0, inst.strategy.weights / prices.at(t), params, c)[0]
            seen.append(x.tobytes())
        assert seen[3] == seen[1] != seen[2]
        state = uniform_state(inst.strategy, c, params)
        self.assert_parity(state, [], params, c, prices, 10)

    def test_log_income_at_float_max(self):
        # log y + log(1 + g') rounds back to the largest float on every step
        params, c, sched = default_economy()
        start = equilibrium_state(Strategy(np.array([0.5, 0.5])), c, params)
        state = replace(start, log_income=sys.float_info.max)
        b = Strategy(np.array([0.9, 0.1]))
        self.assert_parity(state, [], params, c, sched, 40)
        self.assert_parity(state, [(20, b)], params, c, sched, 40)
        records = run_hold(state, params, c, sched, 40)
        assert {r.log_income for r in records} == {sys.float_info.max}
        assert {r.income for r in records} == {math.inf}

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
        # an absorbed start: no consistency check applies, and it stays absorbed
        absorbed = step_agent(state, params, c)
        self.assert_parity(absorbed, [], params, c, prices, 5)
        self.assert_parity(absorbed, [(2, Strategy(np.array([1.0, 0.0])))],
                           params, c, prices, 5)
        held = run_hold(absorbed, params, c, prices, 5)
        assert [r[2:] for r in held] == [r[2:] for r in records[1:6]]  # all but step

    def test_prices_changing_mid_run(self):
        # the hoisted sigma / p must follow each new price row, and must
        # survive a row that repeats the previous one
        rng = np.random.default_rng(223)
        inst = random_instance(rng, n=3)
        rows = rng.uniform(0.5, 2.0, (12, 3))
        rows[5] = rows[4]
        prices = PriceSchedule(rows)
        c, params = inst.coefficients, inst.params
        state = uniform_state(inst.strategy, c, params)
        self.assert_parity(state, [], params, c, prices, 60)
        b = project_to_simplex(rng.dirichlet(np.ones(3)))
        self.assert_parity(state, [(3, b), (9, inst.strategy)], params, c, prices, 60)

    def parity_case(self, seed):
        """A random 3-sector economy, a uniform start, two price rows and a
        second strategy."""
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n=3)
        state = uniform_state(inst.strategy, inst.coefficients, inst.params)
        rows = rng.uniform(0.5, 2.0, (2, 3))
        b = project_to_simplex(rng.dirichlet(np.ones(3)))
        return inst, state, rows, b

    def test_switch_on_the_step_prices_change(self):
        inst, state, (p, q), b = self.parity_case(227)
        prices = PriceSchedule([p, p, p, q, q])
        c, params = inst.coefficients, inst.params
        self.assert_parity(state, [(4, b)], params, c, prices, 30)
        self.assert_parity(state, [(4, b), (5, inst.strategy)], params, c, prices, 30)

    def test_more_price_rows_than_steps(self):
        inst, state, _, b = self.parity_case(229)
        rows = np.random.default_rng(1).uniform(0.5, 2.0, (40, 3))
        c, params = inst.coefficients, inst.params
        self.assert_parity(state, [], params, c, PriceSchedule(rows), 7)
        self.assert_parity(state, [(7, b)], params, c, PriceSchedule(rows), 7)

    def test_rows_that_return_to_an_earlier_value(self):
        # A, B, A: the first and last rows equal, and each a change step
        inst, state, (p, q), b = self.parity_case(233)
        prices = PriceSchedule([p, q, p])
        assert np.array_equal(prices.at(3), prices.at(1)) and prices.change_steps(10) == [2, 3]
        c, params = inst.coefficients, inst.params
        self.assert_parity(state, [], params, c, prices, 10)
        self.assert_parity(state, [(3, b)], params, c, prices, 10)


class TestAgentStateContract:
    """AgentState stores the ratio, log income, growth and strategy only;
    capital, income and ``absorbed`` are derived, and no route hands out a
    writeable ratio."""

    def states(self):
        params, c, _ = default_economy()
        sigma = Strategy(np.array([0.4, 0.6]))
        checked = AgentState.from_capital(np.array([1.0, 2.0]), 0.5, 0.01, sigma)
        population = init_population(
            params, c, EvolutionConfig(population_size=3, observation_sample=1)
        )
        return {
            "from_capital": checked,
            "from_capital absorbed": AgentState.from_capital(
                np.array([1.0, 2.0]), 0.0, 0.0, sigma),
            "equilibrium_state": equilibrium_state(sigma, c, params),
            "step_agent": step_agent(checked, params, c),
            "Population.agents": population.agents[1],
            "past float range": AgentState(
                ratio=np.array([2.0, 0.0]), log_income=800.0, growth=0.1, strategy=sigma),
        }

    def test_stored_fields(self):
        assert [f.name for f in fields(AgentState)] == [
            "ratio", "log_income", "growth", "strategy"]

    def test_positional_call_is_a_type_error(self):
        # the capital-first call must not read capital as a ratio
        sigma = Strategy(np.array([0.5, 0.5]))
        with pytest.raises(TypeError):
            AgentState(np.array([1.0, 1.0]), 1.0, 0.0, sigma)
        with pytest.raises(TypeError):
            AgentState(ratio=np.ones(2), log_income=0.0, growth=0.0, strategy=sigma,
                       absorbed=False)

    def test_ratio_is_read_only_on_every_route(self):
        for route, state in self.states().items():
            if route != "past float range":
                assert not state.ratio.flags.writeable, route
        population = init_population(*default_economy()[:2],
                                     EvolutionConfig(population_size=2, observation_sample=1))
        before = population.ratio.copy()
        with pytest.raises(ValueError, match="read-only"):
            population.agents[0].ratio[0] = 5.0
        assert np.array_equal(population.ratio, before)
        assert population.ratio.flags.writeable  # the population's own array

    def test_derived_fields_agree_with_stored_ones(self):
        for route, state in self.states().items():
            absorbed = state.log_income == -np.inf
            assert state.absorbed == absorbed, route
            with np.errstate(over="ignore"):  # inf past float range
                income = float(np.exp(state.log_income))
            assert state.income == income, route
            want = [x * income if x > 0.0 else 0.0 for x in state.ratio.tolist()]
            assert state.capital.tolist() == want, route
            assert state.sectors == state.ratio.size == 2, route

    def test_from_capital_derives_ratio_and_log_income(self):
        sigma = Strategy(np.array([0.4, 0.6]))
        state = AgentState.from_capital([1.0, 2.0], 0.5, 0.01, sigma)
        assert state.ratio.tolist() == [2.0, 4.0]
        assert (state.log_income, state.growth) == (math.log(0.5), 0.01)
        assert state.strategy is sigma
        assert state.capital.tolist() == [1.0, 2.0]
        dead = AgentState.from_capital([1.0, 2.0], 0.0, 0.0, sigma)
        assert dead.ratio.tolist() == [0.0, 0.0] and dead.log_income == -np.inf
        assert dead.absorbed and dead.income == 0.0


class TestAdvance:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_broken_log_income_raises(self, bad):
        # NaN or +inf is a fault, not an absorbed agent (-inf)
        params, c, _ = default_economy()
        with pytest.raises(DomainError, match="growth must be finite"):
            _advance(np.ones(2), bad, np.full(2, 0.5), params, c)
        with pytest.raises(DomainError, match="growth must be finite"):
            _advance(np.ones((3, 2)), np.array([0.0, bad, 0.0]), np.full((3, 2), 0.5),
                     params, c)

    def test_growth_past_float_range_raises(self):
        # ratio 1e300 at scaling 1e10: log income 713.8 is finite, growth is not
        params = EconomyParams(1e10, 0.03, np.ones(2))
        c = ProductionCoefficients(np.array([0.5, 0.5]))
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="growth must be finite"):
            _advance(np.full(2, 1e300), 0.0, np.full(2, 0.5), params, c)

    def test_growth_past_float_range_raises_for_one_row_of_many(self):
        params = EconomyParams(1e10, 0.03, np.ones(2))
        c = ProductionCoefficients(np.array([0.5, 0.5]))
        x = np.array([[1.0, 1.0], [1e300, 1e300], [1.0, 1.0]])
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="growth must be finite"):
            _advance(x, np.zeros(3), np.full((3, 2), 0.5), params, c)

    def test_step_agent_rejects_growth_past_float_range_without_warning(self):
        params = EconomyParams(1e10, 0.03, np.ones(2))
        c = ProductionCoefficients(np.array([0.5, 0.5]))
        state = AgentState(ratio=np.full(2, 1e300), log_income=0.0, growth=0.0,
                           strategy=Strategy(np.array([0.5, 0.5])))
        with pytest.raises(DomainError, match="growth must be finite"):
            step_agent(state, params, c)

    # alpha_0 tiny, no investment in sector 0 at deprecation 7/8: its ratio
    # decays by 1/8 a step and underflows, but capital stays positive
    UNDERFLOW = (EconomyParams(0.875, 0.875, np.ones(2)),
                 ProductionCoefficients(np.array([2.4916783929421428e-185, 1.0])))

    def test_underflowed_ratio_does_not_absorb(self):
        params, c = self.UNDERFLOW
        invest = np.array([0.0, 1.0])
        with np.errstate(divide="ignore"):
            # 0.125 * 5e-324 underflows to 0; 0.125 * 4e-323 is 5e-324 exactly
            x, log_y, g, _ = _advance(np.array([5e-324, 1.0]), -1.0, invest, params, c)
            want = _advance(np.array([4e-323, 1.0]), -1.0, invest, params, c)
        assert np.isfinite(log_y) and g > -params.deprecation
        assert (x.tolist(), log_y, g) == (want[0].tolist(), want[1], want[2])

    def test_underflowed_ratio_does_not_absorb_one_row_of_many(self):
        params, c = self.UNDERFLOW
        x = np.array([[5e-324, 1.0], [0.5, 1.0], [0.0, 1.0]])
        log_y = np.array([-1.0, 2.0, -np.inf])
        invest = np.array([[0.0, 1.0], [0.5, 0.5], [0.0, 1.0]])
        with np.errstate(divide="ignore"):
            xs, log_ys, gs, _ = _advance(x, log_y, invest, params, c)
            rows = [_advance(x[i], log_y[i], invest[i], params, c) for i in range(2)]
            want = _advance(np.array([4e-323, 1.0]), -1.0, invest[0], params, c)
        for i, (xi, log_yi, gi, _) in enumerate(rows):
            assert (xs[i].tolist(), log_ys[i], gs[i]) == (xi.tolist(), log_yi, gi)
        assert (xs[0].tolist(), log_ys[0], gs[0]) == (want[0].tolist(), want[1], want[2])
        assert (log_ys[2], gs[2]) == (-np.inf, 0.0)  # absorbed before stays so

    def test_full_deprecation_still_absorbs(self):
        # at deprecation 1 an uninvested sector's capital is exactly 0
        c = self.UNDERFLOW[1]
        params = EconomyParams(0.875, 1.0, np.ones(2))
        with np.errstate(divide="ignore"):
            x, log_y, g, _ = _advance(np.array([0.5, 1.0]), -1.0, np.array([0.0, 1.0]),
                                      params, c)
        assert (log_y, g, x.tolist()) == (-np.inf, -1.0, [0.0, 0.0])


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

    def test_non_positive_capital_level_and_steps_rejected(self):
        params, c, sched = default_economy()
        sigma = Strategy(np.array([0.5, 0.5]))
        with pytest.raises(DomainError, match="capital_level must be positive"):
            uniform_state(sigma, c, params, capital_level=0.0)
        with pytest.raises(ConfigurationError, match="steps must be >= 1, got 0"):
            run_switch_experiment(sigma, [], params, c, sched, 0)

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


    def test_start_past_float_range(self):
        # 90% growth per step: income passes float range before step 1,200
        params = EconomyParams(3.0, 0.6, np.ones(2))
        c = ProductionCoefficients(np.array([0.5, 0.5]))
        state = equilibrium_state(Strategy(np.array([0.5, 0.5])), c, params)
        for _ in range(1200):
            state = step_agent(state, params, c)
        assert state.income == np.inf and not state.absorbed
        verify_state_consistency(state, params, c)
        records = run_hold(state, params, c, PriceSchedule.constant(params.prices), 10)
        assert [r.step for r in records] == list(range(1, 11))
        assert records[0].log_income > state.log_income
        assert np.isfinite([r.log_income for r in records]).all()
        assert all(r.growth == pytest.approx(0.9, abs=1e-12) for r in records)


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
                state = step_agent(state, inst.params, inst.coefficients)
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
                state = step_agent(state, inst.params, inst.coefficients)
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
        bad = AgentState.from_capital(good.capital, good.income * 1.001, 0.0, good.strategy)
        with pytest.raises(Exception):
            verify_state_consistency(bad, params, c)
