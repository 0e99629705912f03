"""Stationary moments, welfare, and tail-risk bounds for linear strategies.

Closed-form evaluation of the two-type market under a linear rule
u(x, d2) = -a*x + b*d2 + g: first and second moments of the aggregate
backlog x(t) and demand U(t), the welfare measure W = -E[U^2]/2, and a
Gaussian upper bound on Pr(U > M) built from the geometric mixture
representation of the stationary backlog.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidMarginError, InvalidParamsError, NonStationaryError
from .strategies import LinearStrategyL2, MarketParamsL2


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
    """Upper bound on the stationary tail of backlog and demand.

    m1 is the standardized margin of M against the limiting mixture
    component; x_tail_bound bounds Pr(x > M); demand_risk_bound is the
    leading term q2 * x_tail_bound of the demand-tail bound and is only
    reported when the coefficient condition holds (None otherwise).
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
    second_u = -2.0 * _efficiency_from_x(s, p, mean_x, second_x)
    return StationaryMoments(mean_x, second_x, mean_u, second_u)


def _efficiency_from_x(s, p, mean_x, second_x):
    a, b, g = s.a, s.b, s.g
    q2 = p.q2
    t = b * p.mu2 + g
    return -0.5 * (
        (1.0 - q2 + q2 * (1.0 - a) ** 2) * second_x
        + 2.0 * q2 * (1.0 - a) * t * mean_x
        + q2 * (t * t + b * b * p.sigma2 ** 2)
    )


def efficiency(s: LinearStrategyL2, p: MarketParamsL2) -> float:
    """Welfare W = -E[U(t)^2]/2 of the stationary market under strategy s."""
    _require_stationary(s, p)
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
    """Pr(N(mean, var) > M) as scipy.stats.norm.sf computes it, NaN for var <= 0."""
    from scipy.special import ndtr  # 0.3 s to load; most commands never call this

    if not var > 0.0:
        return math.nan
    return float(ndtr((mean - M) / math.sqrt(var)))


def mixture_tail_probability(
    s: LinearStrategyL2,
    p: MarketParamsL2,
    M: float,
    k_max: int = 200,
    mass_tol: float = 1e-12,
) -> float:
    """Pr(x > M) by direct summation of the geometric mixture.

    Components are summed until the remaining geometric mass q2^k drops
    below ``mass_tol`` (extending past ``k_max`` if needed); the remainder
    is charged at the limiting component's tail, so the result is a slight
    over-estimate of the exact mixture tail.
    """
    q = p.q2
    if q == 0.0:
        mean, var = mixture_component_moments(s, p, 0)
        return _normal_sf(M, mean, var)
    limit = max(k_max, 1)
    if q < 1.0:
        limit = max(limit, int(math.ceil(math.log(mass_tol) / math.log(q))) + 1)
    total = 0.0
    k = 0
    while k < limit:
        mean, var = mixture_component_moments(s, p, k)
        total += (q ** k) * (1.0 - q) * _normal_sf(M, mean, var)
        if q ** (k + 1) <= mass_tol:
            break
        k += 1
    # remaining mass, charged at the limiting component
    a, b, g = s.a, s.b, s.g
    mean_inf = (p.mu1 + (1.0 - b) * p.mu2 - g) / (1.0 - a)
    var_inf = (p.sigma1 ** 2 + (1.0 - b) ** 2 * p.sigma2 ** 2) / (1.0 - a * a)
    total += (q ** (k + 1)) * _normal_sf(M, mean_inf, var_inf)
    return float(total)


def risk_upper_bound(s: LinearStrategyL2, p: MarketParamsL2, M: float) -> RiskBound:
    """Gaussian upper bound on Pr(x > M) and the induced demand-tail bound.

    The backlog tail is bounded by exp(-m1^2/2) / (sqrt(2*pi)*m1) where m1
    standardizes M against the limiting mixture component; requires m1 > 0.
    When the coefficient condition

        (1 - (1-a)^2)/(1 - a^2) > b^2*sigma2^2 / (sigma1^2 + (1-b)^2*sigma2^2)

    holds, demand spikes are dominated by backlog spikes and the demand-tail
    bound q2 * x_tail_bound is reported (leading term only; the
    exponentially small remainder is not computable).
    """
    if p.q1 != 1.0:
        raise InvalidParamsError("the demand-tail bound requires q1 = 1")
    a, b = s.a, s.b
    if not 0.0 < a < 1.0:
        raise InvalidParamsError(f"a={a!r} must lie in (0, 1)")
    mean_inf = (p.mu1 + (1.0 - b) * p.mu2 - s.g) / (1.0 - a)
    sd_inf = math.sqrt(
        (p.sigma1 ** 2 + (1.0 - b) ** 2 * p.sigma2 ** 2) / (1.0 - a * a)
    )
    m1 = (M - mean_inf) / sd_inf
    if m1 <= 0.0:
        raise InvalidMarginError(
            f"threshold M={M!r} is not above the limiting mean {mean_inf!r}"
        )
    x_tail = math.exp(-0.5 * m1 * m1) / (math.sqrt(2.0 * math.pi) * m1)
    lhs = (1.0 - (1.0 - a) ** 2) / (1.0 - a * a)
    rhs = b * b * p.sigma2 ** 2 / (p.sigma1 ** 2 + (1.0 - b) ** 2 * p.sigma2 ** 2)
    holds = lhs > rhs
    return RiskBound(m1, x_tail, holds, p.q2 * x_tail if holds else None)
