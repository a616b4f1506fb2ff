"""Domain types and the shared numeric primitives of the growth economy.

The model lives on two unit simplices: investment strategies (the fraction
of income an agent puts into each capital sector) and production
coefficients (per-sector Cobb-Douglas elasticities, summing to one for
constant returns to scale).  This module owns the simplex validation and
repair rules (along the last axis, so one call checks many points), the
price, deprecation and sector-count rules, ``_log_response`` (the one
weighted log-sum: the log-domain product of the step kernel, of production
and of both equilibrium closed forms), and the immutable value types every
other module passes around.

All functions here are pure; all types are frozen.  Products of powers are
evaluated in log-domain so they do not underflow for many sectors; an
exact-zero factor gives log 0 = -inf, so the product is exactly 0 (each
caller silences numpy's divide warning, once, outside any per-step loop).
Rows stay C-ordered: F-ordered rows round some sums differently.  Factors
with a zero exponent contribute 1 (the 0**0 == 1 convention), which makes
sectors with a zero production coefficient economically inert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Default absolute tolerance for simplex membership checks.
SIMPLEX_TOL = 1e-12


class GrowthLabError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(GrowthLabError, ValueError):
    """Invalid parameters, mismatched dimensions, bad run configuration."""


class DimensionError(ConfigurationError):
    """Empty vector or dimension mismatch."""


class DomainError(GrowthLabError, ValueError):
    """Value outside the mathematical domain of an operation."""


class DegenerateInputError(DomainError):
    """Input that cannot be repaired into a valid simplex point."""


class SelectionError(GrowthLabError, ValueError):
    """Imitation selection is impossible (e.g. population of one)."""


class InvariantViolation(GrowthLabError, RuntimeError):
    """An internal consistency condition failed; indicates a bug or misuse."""


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError(f"{name} must be a non-empty 1-d vector")
    return arr


def _check_prices(values, sectors: int) -> np.ndarray:
    """``values`` as a float array of prices, one per sector on its last axis.

    Raises DimensionError unless the last axis has ``sectors`` entries and
    DomainError unless every price is positive and finite.
    """
    p = np.asarray(values, dtype=float)
    found = p.shape[-1] if p.ndim else 0
    if found != sectors:
        raise DimensionError(f"prices dimension {found} != sectors {sectors}")
    # min/max catch NaN (comparisons fail) and infinities in one pass each
    if not float(p.min()) > 0.0 or float(p.max()) == np.inf:
        raise DomainError("every price must be a positive finite real")
    return p


def _check_deprecation(deprecation: float) -> float:
    """``deprecation`` as a float; DomainError unless it lies in (0, 1]."""
    if not (0.0 < deprecation <= 1.0):
        raise DomainError("deprecation must lie in (0, 1]")
    return float(deprecation)


def _check_sectors(**counts: int) -> None:
    """Raise DimensionError unless the named sector counts are all equal."""
    if len(set(counts.values())) > 1:
        found = ", ".join(f"{name} {count}" for name, count in counts.items())
        raise DimensionError(f"sector counts differ: {found}")


def _log_response(values: np.ndarray, coefficients, prices=None) -> np.ndarray:
    """Per row of ``values``, (sectors,) or (rows, sectors): the sum of
    alpha_i * (log v_i - log p_i) over the support (p = 1 without prices);
    -inf, under the caller's errstate, if a supported entry is 0.

    np.vecdot gives each row the bits of its own np.dot, the same as a
    (sectors,) vector, but only on C-ordered rows: F-ordered rows of 4 or
    more sectors round some sums differently, and the pins hold the bits.
    """
    sup, alph = coefficients.support, coefficients.alphas
    if sup.size < alph.size:  # zero-alpha sectors are inert; take keeps C order
        values, alph = values.take(sup, axis=-1), alph[sup]
    logs = np.log(values)
    if prices is not None:
        logs -= np.log(prices[sup])
    return np.vecdot(logs, alph)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out.flags.writeable = False
    return out


def _simplex_point(v: np.ndarray, name: str) -> np.ndarray:
    """``v`` frozen; raises unless every point on its last axis is on the simplex."""
    if not np.isfinite(v).all():
        raise DomainError(f"{name} must be finite")
    if (v < 0.0).any() or (v > 1.0).any():
        raise DomainError(f"{name} must lie in [0, 1]")
    sums = v.sum(axis=-1)
    off = np.abs(sums - 1.0) > SIMPLEX_TOL
    if np.count_nonzero(off):
        raise DomainError(
            f"{name} must sum to 1 within {SIMPLEX_TOL} (got {sums[off][0]!r})"
        )
    return _freeze(v)


@dataclass(frozen=True, eq=False)
class Strategy:
    """Investment strategy: per-sector income shares on the unit simplex."""

    weights: np.ndarray

    def __post_init__(self):
        w = _as_vector(self.weights, "strategy weights")
        object.__setattr__(self, "weights", _simplex_point(w, "strategy weights"))

    @property
    def sectors(self) -> int:
        return int(self.weights.size)

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(float(x) for x in self.weights)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Strategy):
            return NotImplemented
        return np.array_equal(self.weights, other.weights)

    def __repr__(self) -> str:
        return f"Strategy({self.as_tuple()})"


@dataclass(frozen=True, eq=False)
class ProductionCoefficients:
    """Cobb-Douglas elasticities per sector; sum to one (constant returns)."""

    alphas: np.ndarray
    #: Indices of sectors with a strictly positive coefficient.  Cached so the
    #: product kernel can skip zero-exponent factors without re-scanning.
    support: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a = _as_vector(self.alphas, "production coefficients")
        a = _simplex_point(a, "production coefficients")
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "support", _freeze(np.flatnonzero(a > 0.0)))

    @property
    def sectors(self) -> int:
        return int(self.alphas.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProductionCoefficients):
            return NotImplemented
        return np.array_equal(self.alphas, other.alphas)

    def __repr__(self) -> str:
        return f"ProductionCoefficients({tuple(float(x) for x in self.alphas)})"


@dataclass(frozen=True, eq=False)
class EconomyParams:
    """Economy parameters: scaling, deprecation, and one price per sector.

    ``scaling`` bounds the maximum possible income growth rate; ``deprecation``
    is the per-step proportional capital decay, uniform across sectors; the
    ``prices`` vector is the default (constant) capital price per sector.
    """

    scaling: float
    deprecation: float
    prices: np.ndarray

    def __post_init__(self):
        p = _as_vector(self.prices, "prices")
        if not (np.isfinite(self.scaling) and self.scaling > 0.0):
            raise DomainError("scaling must be a positive real")
        _check_prices(p, p.size)
        object.__setattr__(self, "scaling", float(self.scaling))
        object.__setattr__(self, "deprecation", _check_deprecation(self.deprecation))
        object.__setattr__(self, "prices", _freeze(p))

    @property
    def sectors(self) -> int:
        return self.prices.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, EconomyParams):
            return NotImplemented
        return (
            self.scaling == other.scaling
            and self.deprecation == other.deprecation
            and np.array_equal(self.prices, other.prices)
        )


@dataclass(frozen=True, eq=False)
class AgentState:
    """One agent's economic state: per-sector capital, income, last growth.

    Steps carry the capital/income ``ratio`` and the ``log_income``; given
    only capital and income, both are derived from them.  A stepped state's
    income is exp(log_income), inf past float range.  ``growth`` is the last
    realized per-step income growth rate, never below ``-deprecation`` while
    income is positive.  ``absorbed`` flags the absorbing zero-income state:
    ratio 0, log income -inf, and growth 0.0 rather than NaN.
    """

    capital: np.ndarray
    income: float
    growth: float
    strategy: Strategy
    absorbed: bool = False
    ratio: np.ndarray | None = None
    log_income: float | None = None

    def __post_init__(self):
        if self.ratio is not None:  # carried over from a stepped state
            return
        k = _as_vector(self.capital, "capital")
        # min/max catch NaN (comparisons fail) and infinities in one pass each
        if not (float(k.min()) >= 0.0 and float(k.max()) < np.inf):
            raise DomainError("capital must be a vector of non-negative reals")
        if k.size != self.strategy.sectors:
            raise DimensionError(
                f"capital dimension {k.size} != strategy sectors {self.strategy.sectors}"
            )
        income = float(self.income)
        growth = float(self.growth)
        if not income >= 0.0 or income == np.inf:
            raise DomainError("income must be a non-negative real")
        if not np.isfinite(growth):
            raise DomainError("growth must be finite")
        absorbed = income == 0.0
        self.__dict__.update(
            capital=_freeze(k), income=income, growth=growth, absorbed=absorbed,
            ratio=_freeze(np.zeros_like(k) if absorbed else k / income),
            log_income=-math.inf if absorbed else math.log(income),
        )

    @classmethod
    def _stepped(cls, ratio, log_income, growth, strategy, absorbed) -> "AgentState":
        """The state the step kernel returned; nothing is checked or copied."""
        income = _income(log_income)
        # a ratio that underflowed to 0 keeps capital 0, also at inf income
        capital = np.multiply(ratio, income, out=np.zeros_like(ratio), where=ratio > 0.0)
        capital.flags.writeable = ratio.flags.writeable = False
        return cls(capital, income, float(growth), strategy, bool(absorbed), ratio,
                   float(log_income))

    @property
    def sectors(self) -> int:
        return int(self.capital.size)


def _income(log_income: float) -> float:
    """exp(log_income), reading inf past float range."""
    try:
        return math.exp(log_income)
    except OverflowError:
        return math.inf


def validate_simplex(v, tol: float = SIMPLEX_TOL) -> bool:
    """True iff ``v`` is a simplex point up to ``tol``.

    Components may dip to ``-tol``; after clamping negatives to zero the sum
    must be 1 within ``tol``.  Non-finite input is never valid.
    """
    arr = _as_vector(v, "simplex candidate")
    if not np.isfinite(arr).all():
        return False
    if (arr < -tol).any():
        return False
    clamped = np.maximum(arr, 0.0)
    return abs(float(clamped.sum()) - 1.0) <= tol


def project_to_simplex(v) -> Strategy:
    """Repair an arbitrary vector into a Strategy: clip negatives, renormalize.

    Deliberately the simplest repair rule, not the Euclidean projection.
    """
    return Strategy(_project_rows(_as_vector(v, "projection input")))


def _project_rows(arr: np.ndarray) -> np.ndarray:
    """The repair of project_to_simplex along the last axis; no simplex check."""
    if not np.isfinite(arr).all():
        raise DomainError("projection input must be finite")
    repaired = _clip_renormalize(arr)
    if repaired is None:
        raise DegenerateInputError(
            "cannot project: no component is positive after clipping"
        )
    return repaired


def _clip_renormalize(arr: np.ndarray) -> np.ndarray | None:
    """Clip negatives, divide each point on the last axis of a finite array by
    its total; None when some point has no positive component left."""
    clipped = np.maximum(arr, 0.0)
    total = clipped.sum(axis=-1)
    return (clipped.T / total).T if np.count_nonzero(total) == total.size else None


@np.errstate(divide="ignore")  # log 0 = -inf: a zero base gives 0.0
def weighted_geometric_mean(base, exponents: ProductionCoefficients) -> float:
    """exp(sum over positive-exponent sectors of alpha_i * ln(base_i)).

    The one-row case of ``_log_response``: 0.0 if any base component under a
    positive exponent is exactly zero, and zero-exponent sectors skipped.
    """
    arr = _as_vector(base, "base")
    _check_sectors(base=arr.size, coefficients=exponents.sectors)
    if not float(arr.min()) >= 0.0 or float(arr.max()) == np.inf:
        raise DomainError("base components must be non-negative finite reals")
    return float(np.exp(_log_response(arr, exponents)))


def production(capital, coefficients: ProductionCoefficients, scaling: float) -> float:
    """Cobb-Douglas income from per-sector capital: scaling * prod(k_i ** alpha_i)."""
    if scaling <= 0.0:
        raise DomainError("scaling must be positive")
    return scaling * weighted_geometric_mean(capital, coefficients)
