import warnings
from dataclasses import replace

import numpy as np
import pytest

from growthlab import (
    ConfigurationError,
    DomainError,
    EconomyParams,
    InvariantViolation,
    ProductionCoefficients,
    Strategy,
    calibrate_scaling,
    contour_contains,
    equilibrium_growth,
    equilibrium_ratio,
    hill_climb,
    optimal_strategy,
    project_to_simplex,
    response,
)
from growthlab.dynamics import equilibrium_state, run_hold, uniform_state

from conftest import random_instance


HALF = ProductionCoefficients(np.array([0.5, 0.5]))
ONES2 = np.array([1.0, 1.0])


class TestResponse:
    def test_symmetric(self):
        assert response(Strategy(np.array([0.5, 0.5])), HALF) == pytest.approx(0.5)

    def test_zero_partial_strategy(self):
        assert response(Strategy(np.array([1.0, 0.0])), HALF) == 0.0

    def test_four_sectors(self):
        c = ProductionCoefficients(np.full(4, 0.25))
        assert response(Strategy(np.full(4, 0.25)), c) == pytest.approx(0.25)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            response(Strategy(np.array([1.0])), HALF)


class TestEquilibriumGrowth:
    def test_worked_example(self):
        params = EconomyParams(0.1, 0.03, ONES2)
        g = equilibrium_growth(Strategy(np.array([0.5, 0.5])), HALF, params)
        assert g == pytest.approx(0.02, abs=1e-15)

    def test_special_case_exactly_minus_deprecation(self):
        params = EconomyParams(0.1, 0.03, ONES2)
        g = equilibrium_growth(Strategy(np.array([0.0, 1.0])), HALF, params)
        assert g == -0.03  # exact, not approximate

    def test_matches_simulation_asymptote(self):
        # independent route: forward-simulate 5000 steps from a generic start
        rng = np.random.default_rng(42)
        inst = random_instance(rng, n=3)
        g_closed = equilibrium_growth(inst.strategy, inst.coefficients, inst.params)
        state = uniform_state(inst.strategy, inst.coefficients, inst.params)
        records = run_hold(
            state, inst.params, inst.coefficients, inst.schedule, 5000
        )
        assert records[-1].growth == pytest.approx(g_closed, abs=1e-8)

    def test_nonpositive_price_rejected(self):
        params = EconomyParams(0.1, 0.03, ONES2)
        with pytest.raises(DomainError):
            equilibrium_growth(Strategy(np.array([0.5, 0.5])), HALF,
                               replace(params, prices=np.array([1.0, 0.0])))


class TestEquilibriumRatio:
    def test_symmetric(self):
        params = EconomyParams(0.1, 0.03, ONES2)
        r = equilibrium_ratio(Strategy(np.array([0.5, 0.5])), HALF, params)
        assert r == pytest.approx([10.0, 10.0])

    def test_corner_strategy_with_matching_coefficients(self):
        # g* = 0.1 * 1 - 0.03 = 0.07; ratio = [0, 1 / 0.1]
        c = ProductionCoefficients(np.array([0.0, 1.0]))
        params = EconomyParams(0.1, 0.03, ONES2)
        r = equilibrium_ratio(Strategy(np.array([0.0, 1.0])), c, params)
        assert r == pytest.approx([0.0, 10.0])

    def test_seeding_at_ratio_realizes_equilibrium_growth(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            inst = random_instance(rng)
            g_star = equilibrium_growth(inst.strategy, inst.coefficients, inst.params)
            state = equilibrium_state(inst.strategy, inst.coefficients, inst.params)
            records = run_hold(state, inst.params, inst.coefficients, inst.schedule, 3)
            for rec in records:
                assert rec.growth == pytest.approx(g_star, abs=1e-10)

    def test_tiny_response_keeps_its_ratio(self):
        # g* + deprecation is 1.18e-38 and g* rounds to -deprecation: the
        # fixed point divides by scaling * response, never by g* + deprecation
        sigma = Strategy(np.array([1.0, 1.18e-38]))
        c = ProductionCoefficients(np.array([0.0, 1.0]))
        params = EconomyParams(1.0, 1.0, ONES2)
        want = pytest.approx([1.0 / 1.18e-38, 1.0], rel=1e-13)  # exp(log r) rounds
        state = equilibrium_state(sigma, c, params)
        assert state.ratio.tolist() == want
        assert (state.log_income, state.growth) == (0.0, -1.0)
        assert equilibrium_ratio(sigma, c, params).tolist() == want

    def test_diverging_ratio_is_flagged(self):
        # response is zero but sector 1 still receives investment
        params = EconomyParams(0.1, 0.03, ONES2)
        with pytest.raises(InvariantViolation):
            equilibrium_ratio(Strategy(np.array([0.0, 1.0])), HALF, params)


class TestContourContains:
    def test_boundary_inclusive(self):
        params = EconomyParams(0.097, 0.03, ONES2)
        alpha = optimal_strategy(HALF)
        level = equilibrium_growth(alpha, HALF, params)
        assert contour_contains(alpha, level, HALF, params) is True

    def test_level_above_maximum(self):
        params = EconomyParams(0.097, 0.03, ONES2)
        alpha = optimal_strategy(HALF)
        level = equilibrium_growth(alpha, HALF, params) + 0.001
        assert contour_contains(alpha, level, HALF, params) is False

    def test_floor_level_contains_everything(self):
        params = EconomyParams(0.097, 0.03, ONES2)
        corner = Strategy(np.array([1.0, 0.0]))
        assert contour_contains(corner, -0.03, HALF, params) is True

    def test_convex_combinations_stay_inside(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            inst = random_instance(rng)
            n = inst.params.sectors
            a = project_to_simplex(rng.dirichlet(np.ones(n)))
            b = project_to_simplex(rng.dirichlet(np.ones(n)))
            level = min(
                equilibrium_growth(a, inst.coefficients, inst.params),
                equilibrium_growth(b, inst.coefficients, inst.params),
            )
            q = (level, inst.coefficients, inst.params)
            assert contour_contains(a, *q) and contour_contains(b, *q)
            for lam in rng.uniform(0.0, 1.0, 20):
                combo = Strategy(lam * a.weights + (1 - lam) * b.weights)
                assert contour_contains(combo, *q)

    def test_sector_mismatch_rejected_at_floor(self):
        # the floor level holds for every strategy, but not for a 3-sector
        # strategy asked against 2-sector coefficients
        params = EconomyParams(0.097, 0.03, ONES2)
        three = Strategy(np.full(3, 1 / 3))
        with pytest.raises(ConfigurationError):
            contour_contains(three, -0.03, HALF, params)

    def test_level_below_floor_rejected(self):
        params = EconomyParams(0.097, 0.03, ONES2)
        with pytest.raises(DomainError):
            contour_contains(optimal_strategy(HALF), -0.031, HALF, params)

    def test_nan_level_rejected(self):
        params = EconomyParams(0.097, 0.03, ONES2)
        with pytest.raises(DomainError, match="contour level must be finite"):
            contour_contains(optimal_strategy(HALF), float("nan"), HALF, params)


class TestCalibrateScaling:
    def test_reference_calibration(self):
        s = calibrate_scaling(0.0185, HALF, 0.03, ONES2)
        assert s == pytest.approx(0.097, abs=1e-15)

    def test_floor_target_rejected(self):
        with pytest.raises(DomainError):
            calibrate_scaling(-0.03, HALF, 0.03, ONES2)

    def test_round_trip(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            c = ProductionCoefficients(rng.dirichlet(np.ones(n)))
            delta = float(rng.uniform(0.001, 1.0))
            prices = rng.uniform(0.5, 2.0, n)
            s = calibrate_scaling(0.0185, c, delta, prices)
            params = EconomyParams(s, delta, prices)
            g = equilibrium_growth(optimal_strategy(c), c, params)
            assert g == pytest.approx(0.0185, abs=1e-12)

    def test_zero_coefficient_sector(self):
        # 0**0 == 1 in the inversion; no error
        c = ProductionCoefficients(np.array([0.0, 1.0]))
        s = calibrate_scaling(0.0185, c, 0.03, ONES2)
        params = EconomyParams(s, 0.03, ONES2)
        assert equilibrium_growth(optimal_strategy(c), c, params) == pytest.approx(
            0.0185, abs=1e-12
        )


class TestOptimalStrategy:
    def test_identity(self):
        c = ProductionCoefficients(np.array([0.3, 0.7]))
        assert optimal_strategy(c).as_tuple() == (0.3, 0.7)

    def test_single_sector(self):
        c = ProductionCoefficients(np.array([1.0]))
        assert optimal_strategy(c).as_tuple() == (1.0,)

    def test_dominates_random_sampling(self):
        rng = np.random.default_rng(55)
        c = ProductionCoefficients(rng.dirichlet(np.ones(4)))
        best = response(optimal_strategy(c), c)
        sigmas = rng.dirichlet(np.ones(4), size=100_000)
        # vectorized response over the sample (all coefficients positive here)
        with np.errstate(divide="ignore"):
            resp = np.exp((np.log(sigmas) * c.alphas).sum(axis=1))
        assert (resp <= best + 1e-15).all()


class TestHillClimb:
    def test_start_at_optimum_returns_it(self):
        c = ProductionCoefficients(np.array([0.3, 0.7]))
        result = hill_climb(optimal_strategy(c), c, rng=0)
        assert result.converged
        assert result.strategy.weights == pytest.approx([0.3, 0.7], abs=1e-12)

    def test_reaches_known_optimum(self):
        c = ProductionCoefficients(np.array([0.3, 0.7]))
        rng = np.random.default_rng(91)
        for k in range(5):
            start = project_to_simplex(rng.dirichlet(np.ones(2)))
            result = hill_climb(start, c, max_iters=10_000, rng=k)
            gap = np.max(np.abs(result.strategy.weights - c.alphas))
            assert gap < 1e-2

    def test_climbs_off_a_face(self):
        c = ProductionCoefficients(np.array([0.5, 0.5]))
        start = Strategy(np.array([0.0, 1.0]))  # response 0
        result = hill_climb(start, c, rng=3)
        assert result.response_value > 0.4

    def test_deterministic_given_rng(self):
        c = ProductionCoefficients(np.array([0.25, 0.25, 0.5]))
        start = Strategy(np.array([0.6, 0.2, 0.2]))
        r1 = hill_climb(start, c, rng=np.random.default_rng(77))
        r2 = hill_climb(start, c, rng=np.random.default_rng(77))
        assert r1.strategy == r2.strategy
        assert r1.iterations == r2.iterations

    def test_overflowing_steps_stall_without_warning(self):
        # step 1e308: candidates past float range count as stalls
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = hill_climb(optimal_strategy(HALF), HALF, step_size=1e308,
                                max_iters=200, rng=1)
        assert caught == []
        assert result.strategy == optimal_strategy(HALF)

    def test_bad_step_size(self):
        for step_size in (0.0, float("inf"), float("nan")):
            with pytest.raises(DomainError):
                hill_climb(optimal_strategy(HALF), HALF, step_size=step_size)


class TestOrderInvariance:
    def test_growth_order_matches_response_order(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            c = ProductionCoefficients(rng.dirichlet(np.ones(n)))
            s1 = project_to_simplex(rng.dirichlet(np.ones(n)))
            s2 = project_to_simplex(rng.dirichlet(np.ones(n)))
            r1, r2 = response(s1, c), response(s2, c)
            for _ in range(5):
                params = EconomyParams(
                    float(rng.uniform(0.01, 5.0)),
                    float(rng.uniform(0.001, 1.0)),
                    rng.uniform(0.1, 10.0, n),
                )
                g1 = equilibrium_growth(s1, c, params)
                g2 = equilibrium_growth(s2, c, params)
                assert np.sign(g1 - g2) == np.sign(r1 - r2)

    def test_argmax_invariant_under_parameter_changes(self):
        rng = np.random.default_rng(63)
        n = 4
        c = ProductionCoefficients(rng.dirichlet(np.ones(n)))
        strategies = [project_to_simplex(rng.dirichlet(np.ones(n))) for _ in range(8)]
        winners = set()
        for _ in range(20):
            params = EconomyParams(
                float(rng.uniform(0.01, 5.0)),
                float(rng.uniform(0.001, 1.0)),
                rng.uniform(0.1, 10.0, n),
            )
            growths = [equilibrium_growth(s, c, params) for s in strategies]
            winners.add(int(np.argmax(growths)))
        assert len(winners) == 1


class TestGrowthBounds:
    def test_growth_within_closed_bounds(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            inst = random_instance(rng)
            n = inst.params.sectors
            alpha = optimal_strategy(inst.coefficients)
            upper = equilibrium_growth(alpha, inst.coefficients, inst.params)
            for _ in range(20):
                sigma = project_to_simplex(rng.dirichlet(np.ones(n)))
                g = equilibrium_growth(sigma, inst.coefficients, inst.params)
                assert -inst.params.deprecation - 1e-15 <= g <= upper + 1e-12
            # the upper bound is attained only at sigma == alpha
            assert equilibrium_growth(
                alpha, inst.coefficients, inst.params
            ) == pytest.approx(upper)
