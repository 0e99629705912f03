"""Stationary moments, welfare, and tail-risk bounds for linear strategies.

Closed-form evaluation of the two-type market under a linear rule
u(x, d2) = -a*x + b*d2 + g: first and second moments of the aggregate
backlog x(t) and demand U(t), the welfare measure W = -E[U^2]/2, a
Gaussian upper bound on Pr(x > M) built from the geometric mixture
representation of the stationary backlog, and q2 times that bound, the
leading term of the demand tail, which is not a bound on Pr(U > M).
The mixture's normal tails come from ``math.erf`` and ``math.erfc`` on
the branches of scipy's ``ndtr``, within 1e-15*(1 + z^2) relative of it
(see ``_normal_sf``); the normal draws of the simulators use Wichura's
AS241 in ``rngstreams``.  Nothing here imports scipy.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import InvalidMarginError, InvalidParamsError, NonStationaryError
from .strategies import LinearStrategyL2, MarketParamsL2

_MASS_TOL = 1e-12  # geometric mixture mass left to the limiting component
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class StationaryMoments:
    """Stationary E[x], E[x^2], E[U], E[U^2] of backlog and demand."""

    mean_x: float
    second_x: float
    mean_u: float
    second_u: float

    @property
    def var_x(self) -> float:
        return self.second_x - self.mean_x ** 2

    @property
    def var_u(self) -> float:
        return self.second_u - self.mean_u ** 2


@dataclass(frozen=True)
class RiskBound:
    """Upper bound on the stationary backlog tail and the leading demand term.

    m1 is the standardized margin of M against the limiting mixture
    component; x_tail_bound bounds Pr(x > M); demand_risk_bound is
    q2 * x_tail_bound, the leading term of the demand tail, reported only
    when the coefficient condition holds (None otherwise); it is no bound
    on Pr(U > M) and can fall well below it.
    """

    m1: float
    x_tail_bound: float
    condition_holds: bool
    demand_risk_bound: float | None


def _require_stationary(s: LinearStrategyL2, p: MarketParamsL2) -> None:
    if p.q2 * s.a * s.a >= 1.0 or p.q2 * s.a >= 1.0:
        raise NonStationaryError(
            f"backlog recursion is not stationary: q2*a^2={p.q2 * s.a * s.a!r}, "
            f"q2*a={p.q2 * s.a!r}"
        )


def stationary_moments(s: LinearStrategyL2, p: MarketParamsL2) -> StationaryMoments:
    """Closed-form stationary moments of backlog and aggregate demand."""
    _require_stationary(s, p)
    a, b, g = s.a, s.b, s.g
    q1, q2 = p.q1, p.q2
    c = (1.0 - b) * p.mu2 - g
    mean_x = (q1 * p.mu1 + q2 * c) / (1.0 - q2 * a)
    second_x = (
        q1 * (p.mu1 ** 2 + p.sigma1 ** 2)
        + q2 * (c * c + (1.0 - b) ** 2 * p.sigma2 ** 2)
        + 2.0 * q1 * q2 * p.mu1 * c
        + 2.0 * a / (1.0 - q2 * a) * (q2 * c + q1 * q2 * p.mu1) * (q2 * c + q1 * p.mu1)
    ) / (1.0 - q2 * a * a)
    mean_u = q1 * p.mu1 + q2 * p.mu2
    t = b * p.mu2 + g
    second_u = (
        (1.0 - q2 + q2 * (1.0 - a) ** 2) * second_x
        + 2.0 * q2 * (1.0 - a) * t * mean_x
        + q2 * (t * t + b * b * p.sigma2 ** 2)
    )
    return StationaryMoments(mean_x, second_x, mean_u, second_u)


def efficiency(s: LinearStrategyL2, p: MarketParamsL2) -> float:
    """Welfare W = -E[U(t)^2]/2 of the stationary market under strategy s."""
    m = stationary_moments(s, p)
    return -0.5 * m.second_u


def mixture_component_moments(
    s: LinearStrategyL2, p: MarketParamsL2, k: int
) -> tuple[float, float]:
    """Mean and variance of the k-th geometric mixture component of x.

    Component k is the backlog conditioned on exactly k consecutive
    preceding flexible arrivals.  Requires 0 < a < 1 and q1 = 1 (a fresh
    inflexible draw feeds the backlog every period in this construction).
    """
    if p.q1 != 1.0:
        raise InvalidParamsError("mixture components require q1 = 1")
    a, b, g = s.a, s.b, s.g
    if not 0.0 < a < 1.0:
        raise InvalidParamsError(f"a={a!r} must lie in (0, 1)")
    if k < 0:
        raise InvalidParamsError(f"k={k!r} must be nonnegative")
    mean = ((1.0 - a ** (k + 1)) * p.mu1 + (1.0 - a ** k) * ((1.0 - b) * p.mu2 - g)) / (
        1.0 - a
    )
    var = (
        (1.0 - a ** (2 * (k + 1))) * p.sigma1 ** 2
        + (1.0 - a ** (2 * k)) * (1.0 - b) ** 2 * p.sigma2 ** 2
    ) / (1.0 - a * a)
    return mean, var


def _normal_sf(M: float, mean: float, var: float) -> float:
    """Pr(N(mean, var) > M) as scipy.stats.norm.sf computes it, NaN for var <= 0.

    Phi(z) on scipy's ``ndtr`` branches with ``math.erf`` and ``math.erfc``:
    with x = z*sqrt(1/2), 0.5 + 0.5*erf(x) for |x| < sqrt(1/2), else
    0.5*erfc(|x|), reflected for x > 0.  scipy's own erf and erfc agree bit
    for bit below |x| = 1, so its results fit a branch anywhere in
    [sqrt(1/2), 1]; with libm's, sqrt(1/2) is the more accurate (at most 2
    ulp from the exact Phi on z in [1, sqrt 2] against 3 for a branch at 1).
    Within 1e-15*(1 + z^2) relative of ``scipy.special.ndtr`` on z in
    [-40, 40] wherever ndtr is a normal float; below z = -37.68 scipy's erfc
    flushes to 0 where libm's returns subnormals.
    """
    if not var > 0.0:
        return math.nan
    x = (mean - M) / math.sqrt(var) * _SQRT_HALF
    if abs(x) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(abs(x))
    return 1.0 - y if x > 0.0 else y


def _limiting_component(s: LinearStrategyL2, p: MarketParamsL2) -> tuple[float, float]:
    """Mean and variance of the mixture component as k -> infinity."""
    a, b = s.a, s.b
    mean = (p.mu1 + (1.0 - b) * p.mu2 - s.g) / (1.0 - a)
    var = (p.sigma1 ** 2 + (1.0 - b) ** 2 * p.sigma2 ** 2) / (1.0 - a * a)
    return mean, var


def mixture_tail_probability(s: LinearStrategyL2, p: MarketParamsL2, M: float) -> float:
    """Pr(x > M) by direct summation of the geometric mixture.

    Components k = 0, 1, ... are summed until the remaining mass q2^(k+1)
    is at most _MASS_TOL or a^k is below the float epsilon (component k is
    the limiting one to rounding); the remainder is charged at the limiting
    component's tail, a slight over-estimate.  At q2 = 1 every component has
    weight 0, which keeps the NaN of a zero-variance component.
    """
    q = p.q2
    total = 0.0
    k = 0
    while True:
        mean, var = mixture_component_moments(s, p, k)
        total += (q ** k) * (1.0 - q) * _normal_sf(M, mean, var)
        if q ** (k + 1) <= _MASS_TOL or s.a ** k < sys.float_info.epsilon:
            break
        k += 1
    # remaining mass, charged at the limiting component
    total += (q ** (k + 1)) * _normal_sf(M, *_limiting_component(s, p))
    return float(total)


def risk_upper_bound(s: LinearStrategyL2, p: MarketParamsL2, M: float) -> RiskBound:
    """Gaussian upper bound on Pr(x > M) and the leading demand-tail term.

    The backlog tail is bounded by exp(-m1^2/2) / (sqrt(2*pi)*m1) where m1
    standardizes M against the limiting mixture component (variance > 0);
    requires m1 > 0.
    When the coefficient condition

        (1 - (1-a)^2)/(1 - a^2) > b^2*sigma2^2 / (sigma1^2 + (1-b)^2*sigma2^2)

    holds, demand spikes are dominated by backlog spikes and the leading
    term q2 * x_tail_bound of Pr(U > M) is reported; without the remainder
    it is no bound on Pr(U > M).
    """
    if p.q1 != 1.0:
        raise InvalidParamsError("the demand-tail bound requires q1 = 1")
    if not math.isfinite(M):
        raise InvalidParamsError(f"threshold M={M!r} must be finite")
    a, b = s.a, s.b
    if not 0.0 < a < 1.0:
        raise InvalidParamsError(f"a={a!r} must lie in (0, 1)")
    mean_inf, var_inf = _limiting_component(s, p)
    if not var_inf > 0.0:
        raise InvalidParamsError(f"limiting component variance {var_inf!r} is not positive")
    m1 = (M - mean_inf) / math.sqrt(var_inf)
    if m1 <= 0.0:
        raise InvalidMarginError(
            f"threshold M={M!r} is not above the limiting mean {mean_inf!r}"
        )
    x_tail = math.exp(-0.5 * m1 * m1) / (math.sqrt(2.0 * math.pi) * m1)
    lhs = (1.0 - (1.0 - a) ** 2) / (1.0 - a * a)
    rhs = b * b * p.sigma2 ** 2 / (p.sigma1 ** 2 + (1.0 - b) ** 2 * p.sigma2 ** 2)
    holds = lhs > rhs
    return RiskBound(m1, x_tail, holds, p.q2 * x_tail if holds else None)
