import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from growthlab import (
    AgentState,
    DegenerateInputError,
    DimensionError,
    DomainError,
    EconomyParams,
    PriceSchedule,
    ProductionCoefficients,
    Strategy,
    production,
    project_to_simplex,
    validate_simplex,
    weighted_geometric_mean,
)
from growthlab.core import _log_response, _simplex_point


class TestValidateSimplex:
    def test_symmetric_point(self):
        assert validate_simplex([0.5, 0.5], 1e-12) is True

    def test_sum_above_one(self):
        assert validate_simplex([1.0, 0.1], 1e-12) is False

    def test_negative_component(self):
        assert validate_simplex([-0.01, 1.01], 1e-12) is False

    def test_empty_vector(self):
        with pytest.raises(DimensionError):
            validate_simplex([], 1e-12)

    def test_tolerated_tiny_negative(self):
        # a -tol dip is clamped to zero before the sum check
        assert validate_simplex([-1e-13, 1.0], 1e-12) is True

    def test_nan_rejected(self):
        assert validate_simplex([np.nan, 1.0], 1e-12) is False


class TestProjectToSimplex:
    def test_rescale(self):
        assert project_to_simplex([0.2, 0.2]).as_tuple() == (0.5, 0.5)

    def test_clip_then_rescale(self):
        assert project_to_simplex([-0.1, 0.6]).as_tuple() == (0.0, 1.0)

    def test_three_components(self):
        result = project_to_simplex([0.3, 0.1, 0.1])
        assert result.weights == pytest.approx([0.6, 0.2, 0.2], abs=1e-15)

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInputError):
            project_to_simplex([-0.5, 0.0, -1.0])

    def test_sum_past_float_range_repaired_without_warning(self):
        # finite entries whose total overflows: divided by the largest first
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert project_to_simplex([1e308, 1e308]).as_tuple() == (0.5, 0.5)
        assert caught == []

    def test_large_finite_total_keeps_its_bits(self):
        for v in ([8e307, 8e307], [1.5e308, -1.0], [1e308, 3e307, 2e307]):
            clipped = np.maximum(np.array(v), 0.0)
            assert project_to_simplex(v).as_tuple() == tuple(clipped / clipped.sum())

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            v = rng.normal(0.3, 1.0, n)
            if (v <= 0).all():
                continue
            once = project_to_simplex(v)
            twice = project_to_simplex(once.weights)
            assert np.all(np.abs(once.weights - twice.weights) <= 1e-15)


class TestWeightedGeometricMean:
    def setup_method(self):
        self.half = ProductionCoefficients(np.array([0.5, 0.5]))

    def test_symmetric(self):
        assert weighted_geometric_mean([0.5, 0.5], self.half) == pytest.approx(
            0.5, rel=1e-14
        )

    def test_zero_factor_with_positive_exponent(self):
        assert weighted_geometric_mean([1.0, 0.0], self.half) == 0.0

    def test_sqrt_product(self):
        assert weighted_geometric_mean([4.0, 1.0], self.half) == pytest.approx(
            2.0, rel=1e-14
        )

    def test_zero_exponent_ignores_zero_base(self):
        # 0**0 == 1: a sector with zero coefficient contributes factor 1
        coeffs = ProductionCoefficients(np.array([0.0, 1.0]))
        assert weighted_geometric_mean([0.0, 2.0], coeffs) == pytest.approx(2.0)

    def test_negative_base(self):
        with pytest.raises(DomainError):
            weighted_geometric_mean([-1.0, 2.0], self.half)

    def test_production_needs_positive_scaling(self):
        with pytest.raises(DomainError, match="scaling must be positive"):
            production([1.0, 1.0], self.half, 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            weighted_geometric_mean([1.0, 2.0, 3.0], self.half)

    def test_homogeneous_degree_one(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            coeffs = ProductionCoefficients(rng.dirichlet(np.ones(n)))
            x = rng.uniform(0.01, 50.0, n)
            c = float(rng.uniform(0.01, 100.0))
            f_cx = weighted_geometric_mean(c * x, coeffs)
            f_x = weighted_geometric_mean(x, coeffs)
            assert f_cx == pytest.approx(c * f_x, rel=1e-12)

    def test_bounded_by_arithmetic_mean(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            coeffs = ProductionCoefficients(rng.dirichlet(np.ones(n)))
            x = rng.uniform(0.0, 10.0, n)
            gm = weighted_geometric_mean(x, coeffs)
            am = float(np.dot(coeffs.alphas, x))
            assert gm <= am + 1e-12 * max(am, 1.0)

    def test_quasi_concave(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            coeffs = ProductionCoefficients(rng.dirichlet(np.ones(n)))
            a = rng.uniform(0.01, 10.0, n)
            b = rng.uniform(0.01, 10.0, n)
            lam = float(rng.uniform(0.0, 1.0))
            blend = weighted_geometric_mean(lam * a + (1 - lam) * b, coeffs)
            floor = min(
                weighted_geometric_mean(a, coeffs),
                weighted_geometric_mean(b, coeffs),
            )
            assert blend >= floor - 1e-12


@st.composite
def log_response_rows(draw):
    """(rows, coefficients, prices or None): 1-8 sectors, zero alphas allowed,
    entries that include 0 and subnormals."""
    n = draw(st.integers(1, 8))
    weights = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.7]), min_size=n,
                            max_size=n).filter(any))
    alphas = np.array(weights) / sum(weights)
    entry = st.one_of(st.sampled_from([0.0, 5e-324, 2.2e-308]),
                      st.floats(1e-300, 1e300, allow_subnormal=False),
                      st.floats(0.0, 1e-307, allow_subnormal=True))
    rows = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                  min_size=1, max_size=6)))
    prices = draw(st.none() | st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    return rows, ProductionCoefficients(alphas), None if prices is None else np.array(prices)


@settings(max_examples=200, deadline=None)
@given(case=log_response_rows())
def test_one_row_log_response_matches_its_row_of_many(case):
    # one row is an ndarray.dot and rows are np.vecdot: the same bits per row
    rows, coefficients, prices = case
    with np.errstate(divide="ignore"):
        many = _log_response(np.ascontiguousarray(rows), coefficients, prices)
        for i, row in enumerate(rows):
            one = _log_response(row.copy(), coefficients, prices)
            assert np.asarray(one).shape == ()
            assert np.asarray(one).tobytes() == many[i].tobytes()


FINITE, RANGE = "x must be finite", "x must lie in [0, 1]"


@pytest.mark.parametrize("v, message", [
    ([np.nan, 1.0], FINITE),
    ([np.inf, 0.0], FINITE),
    ([-np.inf, 1.0], FINITE),
    ([-0.5, np.nan], FINITE),  # also out of range: finiteness is reported first
    ([-0.1, 1.1], RANGE),
    ([0.5, 1.5], RANGE),  # also off the sum: the range is reported first
    ([0.25, 0.5], "x must sum to 1 within 1e-12 (got 0.75)"),
    ([[0.5, 0.5], [0.5, np.nan]], FINITE),
    ([[0.25, 0.5], [np.inf, 0.0]], FINITE),  # row 0 is off the sum, row 1 not finite
    ([[-0.1, 1.1], [-np.inf, 1.0]], FINITE),
    ([[0.5, 0.5], [1.25, -0.25]], RANGE),
    ([[0.25, 0.5], [0.5, 1.5]], RANGE),
    ([[0.5, 0.5], [0.25, 0.5], [0.5, 0.625]], "x must sum to 1 within 1e-12 (got 0.75)"),
])
def test_simplex_point_messages(v, message):
    # one message per failure, whatever order the checks run in
    with pytest.raises(DomainError) as raised:
        _simplex_point(np.array(v), "x")
    assert str(raised.value) == message


def test_simplex_point_returns_a_frozen_copy():
    for v in (np.array([0.25, 0.75]), np.array([[0.5, 0.5], [0.0, 1.0]])):
        out = _simplex_point(v, "x")
        assert out is not v and np.array_equal(out, v) and not out.flags.writeable


class TestDomainTypes:
    def test_strategy_requires_unit_sum(self):
        with pytest.raises(DomainError):
            Strategy(np.array([0.5, 0.6]))

    def test_strategy_rejects_negative(self):
        with pytest.raises(DomainError):
            Strategy(np.array([-0.1, 1.1]))

    def test_strategy_is_immutable(self):
        s = Strategy(np.array([0.25, 0.75]))
        with pytest.raises(ValueError):
            s.weights[0] = 1.0

    def test_strategy_equality(self):
        assert Strategy(np.array([0.25, 0.75])) == Strategy(np.array([0.25, 0.75]))
        assert Strategy(np.array([0.25, 0.75])) != Strategy(np.array([0.75, 0.25]))

    def test_coefficients_unit_sum(self):
        with pytest.raises(DomainError):
            ProductionCoefficients(np.array([0.4, 0.4]))

    def test_coefficients_support(self):
        c = ProductionCoefficients(np.array([0.0, 0.3, 0.7]))
        assert list(c.support) == [1, 2]

    def test_params_validation(self):
        with pytest.raises(DomainError):
            EconomyParams(-1.0, 0.03, np.array([1.0]))
        with pytest.raises(DomainError):
            EconomyParams(1.0, 0.0, np.array([1.0]))
        with pytest.raises(DomainError):
            EconomyParams(1.0, 1.5, np.array([1.0]))
        with pytest.raises(DomainError):
            EconomyParams(1.0, 0.5, np.array([0.0]))

    def test_params_delta_one_allowed(self):
        p = EconomyParams(1.0, 1.0, np.array([1.0, 1.0]))
        assert p.deprecation == 1.0
        assert p.sectors == 2
        assert not p.retention.flags.writeable
        assert p.retention.tolist() == [0.0, 0.0]
        assert p.log_scaling == math.log(p.scaling)

    def test_params_derived_fields(self):
        p = EconomyParams(0.097, 0.03, np.array([1.0, 2.0, 0.5]))
        assert not p.retention.flags.writeable
        assert p.retention.tolist() == [1.0 - 0.03] * 3
        assert p.log_scaling == math.log(0.097)

    def test_agent_state_validation(self):
        sigma = Strategy(np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            AgentState.from_capital(np.array([-1.0, 1.0]), 1.0, 0.0, sigma)
        with pytest.raises(DimensionError):
            AgentState.from_capital(np.array([1.0, 1.0, 1.0]), 1.0, 0.0, sigma)
        with pytest.raises(DomainError):
            AgentState.from_capital(np.array([1.0, 1.0]), -0.5, 0.0, sigma)
        with pytest.raises(DomainError):
            AgentState.from_capital(np.array([1.0, 1.0]), 1.0, np.nan, sigma)


# per frozen value type: a builder from fresh inputs, and builders of values
# that differ from it in one constructor field
VALUE_TYPES = {
    "Strategy": (
        lambda: Strategy(np.array([0.2, 0.3, 0.5])),
        [lambda: Strategy(np.array([0.2, 0.5, 0.3]))],
    ),
    "ProductionCoefficients": (
        lambda: ProductionCoefficients(np.array([0.25, 0.0, 0.75])),
        [lambda: ProductionCoefficients(np.array([0.25, 0.75, 0.0]))],
    ),
    "EconomyParams": (
        lambda: EconomyParams(0.1, 0.05, np.array([1.0, 2.0])),
        [
            lambda: EconomyParams(0.2, 0.05, np.array([1.0, 2.0])),  # scaling
            lambda: EconomyParams(0.1, 0.06, np.array([1.0, 2.0])),  # deprecation
            lambda: EconomyParams(0.1, 0.05, np.array([1.0, 3.0])),  # one price
        ],
    ),
    "PriceSchedule": (
        lambda: PriceSchedule([[1.0, 2.0], [1.5, 2.0]]),
        [
            lambda: PriceSchedule([[1.0, 2.0], [1.5, 2.5]]),  # one entry of one row
            lambda: PriceSchedule([[1.0, 2.0], [1.5, 2.0], [1.5, 2.0]]),  # row count
        ],
    ),
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_values_built_from_equal_inputs_are_equal(name):
    build, _ = VALUE_TYPES[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and b == a
    assert not a != b


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_one_changed_field_makes_values_unequal(name):
    build, variants = VALUE_TYPES[name]
    a = build()
    for variant in variants:
        v = variant()
        assert a != v and v != a
        assert not a == v


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_against_other_objects(name):
    x = VALUE_TYPES[name][0]()
    assert (x == 3) is False
    assert (x != 3) is True
    with pytest.raises(TypeError):
        hash(x)


def test_equal_weights_of_two_types_are_unequal():
    w = np.array([0.25, 0.75])
    assert Strategy(w) != ProductionCoefficients(w)
    assert not Strategy(w) == ProductionCoefficients(w)
