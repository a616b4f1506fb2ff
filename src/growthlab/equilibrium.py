"""Closed-form equilibrium analysis of a held strategy under stable prices.

When an agent holds one strategy and prices are constant, each sector's
capital/income ratio follows an affine recursion x(t) = a + b*x(t-1) with
0 <= b < 1, so it converges monotonically to a unique fixed point.  Solving
the fixed point against the production function gives the equilibrium
income growth rate

    g* = scaling * prod(p_i ** -alpha_i) * prod(sigma_i ** alpha_i) - deprecation

and the equilibrium capital/income ratio sigma_i / (p_i * (g* + deprecation)).
The strategy-dependent factor prod(sigma_i ** alpha_i) -- the "response" of
the economy to the strategy -- is the only term that affects the ordering of
strategies: scaling, prices and deprecation are monotone transformations.
Superlevel sets of the response are convex, there is a single global maximum
at sigma = alpha and no local maxima, so even a trivial hill climber finds it.

The special case: growth - deprecation is only attainable when every sector
with a positive production coefficient receives zero investment, in which
case the response is zero and the growth formula still applies exactly.

Both closed forms come from ``_gain_rows``: g* + deprecation computed as
scaling * exp(``core._log_response``), with no subtraction, one C-ordered row
per strategy.  The fixed point divides by it, so a tiny positive response
keeps its ratio.  The public functions are their one-row case.  Each function
here that can pass a zero (log 0 = -inf) silences numpy's divide warning once.
Prices come from the params, p_i being ``params.prices``; for another price
row, build its params with ``dataclasses.replace(params, prices=row)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DomainError,
    EconomyParams,
    InvariantViolation,
    ProductionCoefficients,
    Strategy,
    _as_vector,
    _check_deprecation,
    _check_prices,
    _check_sectors,
    _clip_renormalize,
    _log_response,
)

#: Relative slack (in log-domain) for boundary-inclusive contour membership.
CONTOUR_REL_TOL = 1e-12


def _check_counts(n: int, coefficients, params) -> None:
    """The one entry check: ``n`` strategy sectors against the params and the
    coefficients.  The prices are the params', checked as they were built."""
    _check_sectors(strategy=n, params=params.sectors, coefficients=coefficients.sectors)


@np.errstate(divide="ignore", over="ignore")  # log 0 = -inf: response 0, g* = -deprecation
def _gain_rows(sigma: np.ndarray, coefficients, params) -> np.ndarray:
    """g* + deprecation per row of ``sigma`` at params.prices; DomainError if not finite."""
    gain = params.scaling * np.exp(_log_response(sigma, coefficients, params.prices))
    if not np.isfinite(gain).all():
        raise DomainError("g* + deprecation is past float range")
    return gain


def _fixed_point_rows(sigma: np.ndarray, coefficients, params):
    """(equilibrium ratio, g*) per row of ``sigma`` at the params' prices;
    InvariantViolation if the response is 0, as every simplex row invests,
    and DomainError if a ratio is past float range."""
    gain = _gain_rows(sigma, coefficients, params)
    if not (gain > 0.0).all():
        raise InvariantViolation(
            "equilibrium growth is -deprecation while some sector still "
            "receives investment; its capital/income ratio diverges"
        )
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        ratio = sigma / (params.prices * gain[:, np.newaxis])
    if not np.isfinite(ratio).all():
        raise DomainError("the equilibrium capital/income ratio is past float range: "
                          f"g* + deprecation is {float(gain.min())!r}")
    return ratio, gain - params.deprecation


def response(strategy: Strategy, coefficients: ProductionCoefficients) -> float:
    """prod(sigma_i ** alpha_i): the strategy-dependent factor of equilibrium growth.

    Lies in [0, 1]; attains its unique maximum exactly at sigma = alpha.
    """
    _check_sectors(strategy=strategy.sectors, coefficients=coefficients.sectors)
    with np.errstate(divide="ignore"):  # log 0 = -inf: response 0
        return float(np.exp(_log_response(strategy.weights, coefficients)))


def equilibrium_growth(
    strategy: Strategy,
    coefficients: ProductionCoefficients,
    params: EconomyParams,
) -> float:
    """Income growth rate an agent converges to while holding ``strategy``.

    Evaluates scaling * prod(p_i ** -alpha_i) * prod(sigma_i ** alpha_i)
    - deprecation at p = params.prices, with both products combined in one
    log-domain sum to avoid cancellation for extreme prices.  Returns exactly
    -deprecation when the response term is zero.
    """
    _check_counts(strategy.sectors, coefficients, params)
    gain = _gain_rows(strategy.weights[np.newaxis], coefficients, params)
    return float(gain[0] - params.deprecation)


def equilibrium_ratio(
    strategy: Strategy,
    coefficients: ProductionCoefficients,
    params: EconomyParams,
) -> np.ndarray:
    """Per-sector limit of capital/income: sigma_i / (p_i * (g* + deprecation)).

    Zero-investment sectors have ratio 0.  A strategy whose response is zero
    still invests somewhere, so it has no finite ratio there, and asking for
    it raises InvariantViolation.
    """
    _check_counts(strategy.sectors, coefficients, params)
    return _fixed_point_rows(strategy.weights[np.newaxis], coefficients, params)[0][0]


def contour_contains(
    strategy: Strategy,
    level: float,
    coefficients: ProductionCoefficients,
    params: EconomyParams,
) -> bool:
    """True iff ``strategy`` reaches equilibrium growth >= ``level``.

    The level must be finite and at least -deprecation.  Boundary-inclusive:
    membership is prod((sigma_i / p_i) ** alpha_i) >= (level + deprecation)
    / scaling, compared in log-domain with a 1e-12 slack so points exactly on
    the contour test true.
    """
    if not np.isfinite(level):
        raise DomainError("contour level must be finite")
    if level < -params.deprecation:
        raise DomainError(
            "contour level cannot lie below -deprecation "
            f"({level} < {-params.deprecation})"
        )
    _check_counts(strategy.sectors, coefficients, params)
    threshold_scale = (level + params.deprecation) / params.scaling
    if threshold_scale <= 0.0:
        return True  # every strategy grows at least at -deprecation
    with np.errstate(divide="ignore"):  # log 0 = -inf: below every level
        log_gain = _log_response(strategy.weights, coefficients, params.prices)
    return bool(log_gain >= np.log(threshold_scale) - CONTOUR_REL_TOL)


def calibrate_scaling(
    target_growth: float,
    coefficients: ProductionCoefficients,
    deprecation: float,
    prices,
) -> float:
    """Scaling factor that puts the optimal strategy's equilibrium growth at target.

    Inverts the growth formula at sigma = alpha:
    scaling = (target + deprecation) / (prod(p_i ** -alpha_i) * prod(alpha_i ** alpha_i)).
    Zero coefficients contribute factor 1 (0**0 == 1).  The target must exceed
    -deprecation, otherwise the required scaling would not be positive.
    """
    _check_deprecation(deprecation)
    p = _check_prices(_as_vector(prices, "prices"), coefficients.sectors)
    if not np.isfinite(target_growth) or target_growth <= -deprecation:
        raise DomainError(
            f"target growth must exceed -deprecation ({-deprecation}); "
            f"got {target_growth}"
        )
    # log of prod(p**-alpha) * prod(alpha**alpha), negated for the inversion
    log_gain = _log_response(coefficients.alphas, coefficients, p)
    return (target_growth + deprecation) * float(np.exp(-log_gain))


def optimal_strategy(coefficients: ProductionCoefficients) -> Strategy:
    """The unique global maximizer of the response term: sigma = alpha."""
    return Strategy(coefficients.alphas)


@dataclass(frozen=True)
class HillClimbResult:
    strategy: Strategy
    response_value: float
    iterations: int
    converged: bool


def hill_climb(
    start: Strategy,
    coefficients: ProductionCoefficients,
    step_size: float = 0.05,
    max_iters: int = 10_000,
    rng=None,
) -> HillClimbResult:
    """Random-perturbation ascent of the response term on the simplex.

    Perturb the incumbent with spherical Gaussian noise of the current step
    size, repair onto the simplex, keep the candidate iff its response is
    strictly higher.  After 20 consecutive rejections the step size halves;
    the search stops once it falls below 1e-7 (converged) or ``max_iters`` is
    exhausted (best-so-far, not converged).

    ``rng`` may be a numpy Generator or a seed; pass one explicitly for
    reproducible searches.
    """
    if not 0.0 < step_size < np.inf:
        raise DomainError("step_size must be positive and finite")
    _check_sectors(strategy=start.sectors, coefficients=coefficients.sectors)
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    n = start.sectors

    best = start
    best_val = response(start, coefficients)
    step = float(step_size)
    stall = 0
    iterations = 0
    converged = False
    while iterations < max_iters:
        iterations += 1
        repaired = _clip_renormalize(best.weights + gen.normal(0.0, step, size=n))
        if repaired is None:
            stall += 1
        else:
            candidate = Strategy(repaired)
            val = response(candidate, coefficients)
            if val > best_val:
                best, best_val = candidate, val
                stall = 0
            else:
                stall += 1
        if stall >= 20:
            step *= 0.5
            stall = 0
            if step < 1e-7:
                converged = True
                break
    return HillClimbResult(best, best_val, iterations, converged)
