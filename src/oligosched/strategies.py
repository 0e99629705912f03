"""Closed-form linear scheduling strategies for the two-type market.

Every constructor returns the coefficients ``(a, b, g)`` of the rule

    u(x, d2) = -a*x + b*d2 + g

applied by the flexible (two-period) agent arriving in the current period;
agents at their deadline always consume their full backlog.  Covered market
setups: the non-cooperative equilibrium, the cooperative optimum, a market
with K coexisting flexible agents, risk-sensitive cooperative scheduling,
a congestion-fee market, and two fixed reference rules.

The non-cooperative, cooperative and K-agent rules are ``_ratio_rule`` at
r = 1/2, 1 and K/(K+1); the risk-sensitive rule tends to the cooperative
one as theta -> 0 and beta -> 1.

The risk-sensitive and congestion-fee coefficients are polynomial roots.
The risk-sensitive rule takes every root of its two quadratics (a
cancellation-free quadratic formula on an exact discriminant), then the
smallest root that meets the admissibility conditions.  The congestion
cubic is strictly increasing on [0, 1], so its companion-matrix
eigenvalues hold exactly one root in (0, 1), and that root is taken.
The risk-sensitive result carries the residual of its implicit system as a
certificate; its degenerate cases are decided by exact zeros, not rounding.

All functions are pure and thread-safe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, NoSolutionError, NoStableRootError


@dataclass(frozen=True)
class MarketParamsL2:
    """Arrival rates and workload moments for the two agent types.

    q1, q2      Bernoulli arrival rates in [0, 1]
    mu1, mu2    mean workload per arrival (resource units), finite
    sigma1, sigma2  workload standard deviation, finite and nonnegative
    """

    q1: float
    q2: float
    mu1: float = 0.0
    mu2: float = 0.0
    sigma1: float = 1.0
    sigma2: float = 1.0

    def __post_init__(self):
        for name in ("q1", "q2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidParamsError(f"{name}={v!r} must lie in [0, 1]")
        if not (math.isfinite(self.mu1) and math.isfinite(self.mu2)):
            raise InvalidParamsError(f"mu1={self.mu1!r}, mu2={self.mu2!r} must be finite")
        for name in ("sigma1", "sigma2"):
            v = getattr(self, name)
            if not 0.0 <= v < math.inf:
                raise InvalidParamsError(f"{name}={v!r} must be finite and nonnegative")


@dataclass(frozen=True)
class LinearStrategyL2:
    """Coefficients of u(x, d2) = -a*x + b*d2 + g."""

    a: float
    b: float
    g: float

    def __call__(self, x: float, d2: float) -> float:
        return -self.a * x + self.b * d2 + self.g


@dataclass(frozen=True)
class RiskSensitivity:
    """Risk parameter theta (negative = averse) and discount factor beta."""

    theta: float
    beta: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise InvalidParamsError(f"theta={self.theta!r} must be finite")
        if not 0.0 < self.beta < 1.0:
            raise InvalidParamsError(f"beta={self.beta!r} must lie in (0, 1)")


@dataclass(frozen=True)
class RiskSensitiveCoeffs:
    """Coefficients of the recursive quadratic cost and induced strategy.

    ``system_residual`` is the max residual of the implicit coefficient
    system at (r1, r2), the r1 equation's relative to the size of its
    terms once that exceeds 1: the certificate of the root selection.
    """

    r1: float
    r2: float
    r3: float
    system_residual: float


@dataclass(frozen=True)
class CoopValue:
    """Quadratic value-function coefficients and optimal per-period cost."""

    A_c: float
    B_c: float
    lambda_c: float


def _ratio_rule(p: MarketParamsL2, r: float) -> LinearStrategyL2:
    """a = r/(1+s), b = 1/(1+1/s), g = r*(q1*mu1 + q2*mu2/(1+s))/(1+s) with
    s = sqrt(1 - r*q2), and b = 0 at s = 0."""
    s = math.sqrt(1.0 - r * p.q2)
    a = r / (1.0 + s)
    b = 0.0 if s == 0.0 else 1.0 / (1.0 + 1.0 / s)
    g = r * (p.q1 * p.mu1 + p.q2 * p.mu2 / (1.0 + s)) / (1.0 + s)
    return LinearStrategyL2(a, b, g)


def mpe_strategy(p: MarketParamsL2) -> LinearStrategyL2:
    """Non-cooperative equilibrium strategy: the ratio rule at r = 1/2."""
    return _ratio_rule(p, 0.5)


def coop_strategy(p: MarketParamsL2) -> LinearStrategyL2:
    """Cooperative optimal strategy: the ratio rule at r = 1 (a = 1, b = 0 at q2 = 1)."""
    return _ratio_rule(p, 1.0)


def coop_value(p: MarketParamsL2) -> CoopValue:
    """Value-function coefficients A_c, B_c and per-period cost lambda_c."""
    q = p.q2
    A = math.sqrt(1.0 - q)
    B = 2.0 * (1.0 - A) * (p.mu2 + p.mu1)
    lam = (
        A * p.sigma1 ** 2
        + A / (1.0 + A) * q * p.sigma2 ** 2
        + p.mu1 ** 2
        + (1.0 + A - A * A) / (1.0 + A) * q * p.mu1 ** 2
        + 2.0 * q * p.mu1 * p.mu2
    )
    return CoopValue(A, B, lam)


def k_agent_strategy(p: MarketParamsL2, K: int) -> LinearStrategyL2:
    """Equilibrium strategy when K flexible agents share each arrival.

    The ratio rule at r = K/(K+1): K = 1 is the non-cooperative strategy
    and K -> infinity approaches the cooperative one.
    """
    if K < 1:
        raise InvalidParamsError(f"K={K!r} must be a positive integer")
    return _ratio_rule(p, K / (K + 1.0))


def _rs_system_residual(r1, r2, q, beta, T, mu1, mu2):
    """Max residual of the implicit coefficient system.

    The r2 equation's residual is absolute (its terms lie in (0, 1)); the
    r1 equation's is relative to the size of its terms once that
    exceeds 1, since r1 grows with the means and one ulp of it would
    otherwise fail an absolute test.
    """
    den = 1.0 + T * r2
    if den <= 0.0 or r2 == 0.0:
        return math.inf
    w = 1.0 + beta * r2 / den
    k = (q / w) * beta * r2
    res2 = r2 - (1.0 - q / w)
    res1 = r1 - k * (2.0 * mu1 + 2.0 * mu2 + r1 / r2) / den
    size1 = abs(r1) + abs(k) * (2.0 * abs(mu1) + 2.0 * abs(mu2) + abs(r1 / r2)) / den
    return max(abs(res1) / max(1.0, size1), abs(res2))


def _exact_quadratic_roots(a, b, c) -> list[float]:
    """Real roots of a*x^2 + b*x + c, with exact Fraction coefficients.

    The discriminant is exact, so the roots t/a and c/t, with
    t = -(b + sign(b)*sqrt(disc))/2, are each within a few ulps even at a
    near-double root.  With a = 0 the one root is the linear one.
    """
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    t = -(float(b) + math.copysign(math.sqrt(disc), b)) / 2.0
    if t == 0.0:  # b = c = 0: a double root at 0
        return [0.0, 0.0]
    return [float(c) / t] + ([t / float(a)] if a else [])


def risk_sensitive_coeffs(p: MarketParamsL2, rs: RiskSensitivity) -> RiskSensitiveCoeffs:
    """Coefficients (r1, r2, r3) of the risk-sensitive cooperative problem.

    With T = theta*sigma1^2 the implicit system reduces to the quadratic

        d*r^2 + c*r - (1-q2) = 0,   d = beta + T,  c = 1 - beta - (1-q2)*T,

    and, substituting r = (s-1)/T, s = 1 + T*r solves

        d*s^2 + (c*T - 2*d)*s + beta*(1+T) = 0.

    Both are solved with coefficients exact in the float inputs, so r and
    s are each within a few ulps, also where a near-double root or the
    cancellation in 1 + T*r would leave one of them to rounding (at T = -1
    and q2 near beta the roots are r = 1, s = 0 and r = (1-q2)/(1-beta),
    s = (q2-beta)/(1-beta)).  The roots pair up in order, as s is monotone
    in r.  r2 is the smallest root with r2 > 0 and s2 > 0,
    r3 = beta*r2/s2, and r1 solves the linear equation for the constant
    term, which vanishes at q2 = 1: there r1 = 0 if mu1 + mu2 = 0 and there
    is no solution otherwise.  The result is certified against the
    implicit system to 1e-10, the r1 equation relative to the size of its
    terms; NoSolutionError is raised when no root qualifies, when
    s2 <= 16 eps (1 + |T*r2|), where a one-ulp change of an input moves s2
    by a large fraction of itself, when theta*sigma1^2 or a root overflows
    a float, or when the certificate fails.  Requires q1 = 1, the regime
    in which the recursion is derived.
    """
    # fractions loads decimal (about 4 ms and 0.35 MB), needed by this rule only
    from fractions import Fraction

    if p.q1 != 1.0:
        raise InvalidParamsError("risk-sensitive coefficients require q1 = 1")
    q = p.q2
    beta = rs.beta
    try:  # T, the quadratics' discriminants or roots can leave the float range
        T = rs.theta * p.sigma1 ** 2
        qx, bx, Tx = Fraction(q), Fraction(beta), Fraction(T)
        c = 1 - bx - (1 - qx) * Tx
        d = bx + Tx
        r_roots = sorted(_exact_quadratic_roots(d, c, qx - 1))
        s_roots = sorted(_exact_quadratic_roots(d, c * Tx - 2 * d, bx * (1 + Tx)),
                         reverse=T < 0.0)
    except OverflowError as exc:
        raise NoSolutionError(
            f"the coefficient quadratics overflow a float ({exc}) for "
            f"theta={rs.theta!r}, sigma1={p.sigma1!r}, beta={beta!r}, q={q!r}"
        ) from exc
    admissible = [(r, s) for r, s in zip(r_roots, s_roots) if r > 0.0 and s > 0.0]
    if not admissible:
        raise NoSolutionError(
            f"no positive coefficient r2 exists for theta*sigma1^2={T!r}, "
            f"beta={beta!r}, q={q!r}"
        )
    r2, s2 = min(admissible)
    if s2 <= 16.0 * np.finfo(float).eps * (1.0 + abs(T * r2)):
        raise NoSolutionError(
            f"1 + theta*sigma1^2*r2 = {s2:.3e} is within rounding of 0, so r3 is "
            f"not determined (theta*sigma1^2={T!r}, beta={beta!r}, q={q!r})"
        )
    r3 = beta * r2 / s2
    if q == 1.0:
        if p.mu1 + p.mu2 != 0.0:
            raise NoSolutionError("at q2 = 1 the constant term requires mu1 + mu2 = 0")
        r1 = 0.0
    else:
        den = 1.0 + r3 - q * r3 / r2
        if den == 0.0:
            raise NoSolutionError("degenerate linear equation for r1")
        r1 = 2.0 * q * r3 * (p.mu1 + p.mu2) / den
    residual = _rs_system_residual(r1, r2, q, beta, T, p.mu1, p.mu2)
    if not residual <= 1e-10:
        raise NoSolutionError(
            f"implicit coefficient system not solvable to 1e-10 "
            f"(residual {residual:.3e})"
        )
    return RiskSensitiveCoeffs(r1, r2, r3, residual)


def risk_sensitive_strategy(p: MarketParamsL2, rs: RiskSensitivity) -> LinearStrategyL2:
    """Risk-sensitive cooperative strategy a = 1/(1+r3), b = r3/(1+r3),
    g = r3*(mu1 + r1/(2*r2))/(1+r3).

    At theta = 0 and beta -> 1 this tends to the cooperative rule, as a
    risk-sensitive rule must tend to the risk-neutral one (Whittle, Adv.
    Appl. Prob. 13, 1981)."""
    c = risk_sensitive_coeffs(p, rs)
    a = 1.0 / (1.0 + c.r3)
    b = c.r3 / (1.0 + c.r3)
    g = c.r3 * (p.mu1 + c.r1 / (2.0 * c.r2)) / (1.0 + c.r3)
    return LinearStrategyL2(a, b, g)


def congestion_strategy(p: MarketParamsL2, gamma: float) -> LinearStrategyL2:
    """Equilibrium strategy when agents pay a fee share gamma of others' cost.

    The backlog coefficient is the root in (0, 1) of

        P(a) = gamma*q*a^3 - (1+gamma)*q*a^2 + 2*a - (1+gamma)/2,   q = q2,

    found among the companion-matrix eigenvalues (np.roots drops the
    vanishing leading terms at gamma*q = 0 or q = 0), the real ones each
    polished by one Newton step.  That root is unique: P(0) < 0 <=
    P(1) = (3-gamma)/2 - q, and P' > 0 on [0, 1), since P'(0) = 2,
    P'(1) = 2 - (2-gamma)*q >= gamma, and P' >= 1/2 at its vertex when
    gamma > 1/2.  Only at gamma = q2 = 1 does it reach a = 1, where
    NoStableRootError is raised.  Any a in (0, 1) gives a stationary
    backlog recursion, as q*a^2 <= q*a < 1.  Then b = 1 - 2a/(1+gamma) and
    the constant term follows from the companion linear equation.
    """
    if not 0.0 <= gamma <= 1.0:
        raise InvalidParamsError(f"gamma={gamma!r} must lie in [0, 1]")
    q = p.q2
    c3, c2, c1, c0 = gamma * q, -(1.0 + gamma) * q, 2.0, -(1.0 + gamma) / 2.0
    inside = []
    for z in np.roots([c3, c2, c1, c0]):
        if abs(z.imag) > 1e-7 * max(1.0, abs(z)):
            continue
        a = float(z.real)
        d = (3.0 * c3 * a + 2.0 * c2) * a + c1
        if d != 0.0:
            a = a - (((c3 * a + c2) * a + c1) * a + c0) / d
        if 0.0 < a < 1.0:
            inside.append(a)
    if not inside:
        raise NoStableRootError(f"no stable root in (0,1) for gamma={gamma!r}, q={q!r}")
    a = inside[0]
    b = 1.0 - 2.0 * a / (1.0 + gamma)
    t = 2.0 * gamma * a - 1.0 - gamma
    num = ((1.0 - q) * (1.0 + gamma) - q * t * (1.0 - a)) * p.q1 * p.mu1 \
        - q * t * b * p.mu2
    den = q * t + (1.0 + gamma) / a
    g = num / den
    return LinearStrategyL2(a, b, g)


def baseline_strategies() -> tuple[LinearStrategyL2, LinearStrategyL2]:
    """Reference rules: even split u = d2/2 and immediate completion u = d2."""
    naive = LinearStrategyL2(0.0, 0.5, 0.0)
    none = LinearStrategyL2(0.0, 1.0, 0.0)
    return naive, none
