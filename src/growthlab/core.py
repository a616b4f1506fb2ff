"""Domain types and the shared numeric primitives of the growth economy.

The model lives on two unit simplices: investment strategies (the fraction
of income an agent puts into each capital sector) and production
coefficients (per-sector Cobb-Douglas elasticities, summing to one for
constant returns to scale).  This module owns the simplex validation and
repair rules (along the last axis, so one call checks many points), the
price, scaling, deprecation, sector-count and integer rules,
``_log_response`` (the one weighted log-sum: the log-domain product of the
step kernel, of production and of both equilibrium closed forms), and the
immutable value types every other module passes around.  ``AgentState`` stores the step kernel's state,
and ``AgentState.from_capital`` is its checked capital/income constructor.

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
from dataclasses import dataclass, field, fields

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


def _check_scaling(scaling: float) -> float:
    """``scaling`` as a float; DomainError unless it is positive and finite."""
    if not 0.0 < scaling < np.inf:  # NaN fails both
        raise DomainError("scaling must be positive and finite")
    return float(scaling)


def _check_int(value, name: str) -> int:
    """``value``; ConfigurationError naming ``name`` unless it is an int, not a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name}: expected an integer, got {value!r}")
    return value


def _check_sectors(**counts: int) -> None:
    """Raise DimensionError unless the named sector counts are all equal."""
    if len(set(counts.values())) > 1:
        found = ", ".join(f"{name} {count}" for name, count in counts.items())
        raise DimensionError(f"sector counts differ: {found}")


def _log_response(values: np.ndarray, coefficients, prices=None) -> np.ndarray:
    """Per row of ``values``, (sectors,) or (rows, sectors): the sum of
    alpha_i * (log v_i - log p_i) over the support (p = 1 without prices);
    -inf, under the caller's errstate, if a supported entry is 0.

    A (sectors,) vector is one ``ndarray.dot``, the cheapest call for one
    agent's step.  Rows take np.vecdot, which gives each row the bits of its
    own dot, but only on C-ordered rows: F-ordered rows of 4 or more sectors
    round some sums differently, and a 2-d ``.dot`` (a gemv) rounds some rows
    differently too; the pins hold the bits.
    """
    sup, alph = coefficients.support, coefficients.alphas
    if sup.size < alph.size:  # zero-alpha sectors are inert; take keeps C order
        values, alph = values.take(sup, axis=-1), alph[sup]
    logs = np.log(values)
    if prices is not None:
        logs -= np.log(prices[sup])
    return logs.dot(alph) if logs.ndim == 1 else np.vecdot(logs, alph)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out.flags.writeable = False
    return out


def _equal_fields(self, other):
    """``__eq__`` of the frozen value types: every constructor field equal by
    value (derived ``init=False`` fields are not compared), or NotImplemented."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
               for f in fields(self) if f.init)


def _simplex_point(v: np.ndarray, name: str) -> np.ndarray:
    """``v`` frozen; raises unless every point on its last axis is on the simplex."""
    if not (v.min() >= 0.0 and v.max() <= 1.0):  # NaN fails both
        raise DomainError(f"{name} must be finite" if not np.isfinite(v).all()
                          else f"{name} must lie in [0, 1]")
    sums = v.sum(axis=-1)
    off = np.abs(sums - 1.0) > SIMPLEX_TOL
    if np.count_nonzero(off):
        raise DomainError(
            f"{name} must sum to 1 within {SIMPLEX_TOL} (got {float(sums[off][0])})"
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

    __eq__ = _equal_fields

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

    __eq__ = _equal_fields

    def __repr__(self) -> str:
        return f"ProductionCoefficients({tuple(float(x) for x in self.alphas)})"


@dataclass(frozen=True, eq=False)
class EconomyParams:
    """Economy parameters: scaling, deprecation, and one price per sector.

    ``scaling`` bounds the maximum possible income growth rate; ``deprecation``
    is the per-step proportional capital decay, uniform across sectors; the
    ``prices`` vector is the default (constant) capital price per sector.
    The step kernel's ``retention`` (a frozen (sectors,) vector of
    1 - deprecation) and ``log_scaling`` (log scaling) are derived once.
    """

    scaling: float
    deprecation: float
    prices: np.ndarray
    retention: np.ndarray = field(init=False, repr=False)
    log_scaling: float = field(init=False, repr=False)

    def __post_init__(self):
        p = _as_vector(self.prices, "prices")
        scaling = _check_scaling(self.scaling)
        _check_prices(p, p.size)
        object.__setattr__(self, "scaling", scaling)
        object.__setattr__(self, "deprecation", _check_deprecation(self.deprecation))
        object.__setattr__(self, "prices", _freeze(p))
        retention = np.full(p.size, 1.0 - self.deprecation)
        object.__setattr__(self, "retention", _freeze(retention))
        object.__setattr__(self, "log_scaling", math.log(self.scaling))

    @property
    def sectors(self) -> int:
        return self.prices.size

    __eq__ = _equal_fields


@dataclass(frozen=True, eq=False, kw_only=True)
class AgentState:
    """One agent's state as the step kernel carries it: per-sector
    capital/income ``ratio``, ``log_income``, last realized per-step income
    ``growth`` (never below ``-deprecation`` while income is positive) and
    ``strategy``.  ``income`` (exp(log_income), inf past float range),
    ``capital`` (ratio * income) and ``absorbed`` are derived.  Zero income
    is absorbing: ratio 0, log income -inf, and growth 0.0 rather than NaN.
    The plain constructor checks nothing; ``from_capital`` is the checked path.
    """

    ratio: np.ndarray
    log_income: float
    growth: float
    strategy: Strategy

    @classmethod
    def from_capital(cls, capital, income, growth, strategy: Strategy) -> "AgentState":
        """The state of non-negative finite ``capital`` and ``income``, checked."""
        k = _as_vector(capital, "capital")
        # min/max catch NaN (comparisons fail) and infinities in one pass each
        if not (float(k.min()) >= 0.0 and float(k.max()) < np.inf):
            raise DomainError("capital must be a vector of non-negative reals")
        if k.size != strategy.sectors:
            raise DimensionError(
                f"capital dimension {k.size} != strategy sectors {strategy.sectors}"
            )
        income, growth = float(income), float(growth)
        if not income >= 0.0 or income == np.inf:
            raise DomainError("income must be a non-negative real")
        if not np.isfinite(growth):
            raise DomainError("growth must be finite")
        absorbed = income == 0.0
        return cls(ratio=_freeze(np.zeros_like(k) if absorbed else k / income),
                   log_income=-math.inf if absorbed else math.log(income),
                   growth=growth, strategy=strategy)

    @property
    def income(self) -> float:
        return _income(self.log_income)

    @property
    def capital(self) -> np.ndarray:
        """ratio * income: 0 where the ratio underflowed to 0, also at inf income."""
        ratio = self.ratio
        return np.multiply(ratio, self.income, out=np.zeros(ratio.shape), where=ratio > 0.0)

    @property
    def absorbed(self) -> bool:
        return self.log_income == -math.inf

    @property
    def sectors(self) -> int:
        return int(self.ratio.size)


def _income(log_income: float) -> float:
    """exp(log_income), reading inf past float range."""
    try:
        return math.exp(log_income)
    except OverflowError:
        return math.inf


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
            "cannot project: no component is positive after clipping")
    return repaired


def _clip_renormalize(arr: np.ndarray) -> np.ndarray | None:
    """Clip negatives, divide each point on the last axis by its total; None
    unless every total is positive and finite (some point has no positive
    component left, or an entry that is not finite).  Only a point of finite
    entries whose total is past float range is first divided by its largest
    entry; every other point keeps the bits of the plain division."""
    clipped = np.maximum(arr, 0.0)
    with np.errstate(over="ignore"):
        total = clipped.sum(axis=-1)
    if not ((total > 0.0) & (total < np.inf)).all():
        over = (total == np.inf) & np.isfinite(clipped).all(axis=-1)
        peak = clipped.max(axis=-1, keepdims=True)
        np.divide(clipped, peak, out=clipped, where=over[..., np.newaxis])
        total = clipped.sum(axis=-1)
        if not ((total > 0.0) & (total < np.inf)).all():
            return None
    return (clipped.T / total).T


@np.errstate(divide="ignore")  # log 0 = -inf: a zero capital gives 0.0
def production(capital, coefficients: ProductionCoefficients, scaling: float) -> float:
    """Cobb-Douglas income from per-sector capital: scaling * prod(k_i ** alpha_i).

    The one-row case of ``_log_response``: 0.0 if any capital under a
    positive coefficient is exactly zero, and zero-coefficient sectors skipped.
    """
    scaling = _check_scaling(scaling)
    k = _as_vector(capital, "capital")
    _check_sectors(capital=k.size, coefficients=coefficients.sectors)
    if not float(k.min()) >= 0.0 or float(k.max()) == np.inf:
        raise DomainError("capital components must be non-negative finite reals")
    return scaling * float(np.exp(_log_response(k, coefficients)))
