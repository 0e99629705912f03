"""System operator's pricing design: choose (q1, q2) to damp volatility.

The operator minimizes alpha1 * e'F Q F'e + alpha2 * e'Q e where F is the
equilibrium gain induced by the pricing rule and Q its closed-loop
Gramian.  Only the program itself is given analytically, so the search is
a derivative-free multi-start Nelder-Mead over the 2*D_c pricing
coefficients, always seeded with marginal-cost pricing so the result never
falls behind that baseline.  Failed inner equilibrium solves receive a
large finite penalty instead of aborting the simplex.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rngstreams
from .errors import (
    InvalidParamsError,
    NotConvergedError,
    SingularRowError,
    UnstableError,
)
from .fixed_point import FixedPointConfig, MpeSolution, PricingRule, solve_mpe
from .statespace import FeedbackGain, StateSpace, solve_lyapunov

_PENALTY = 1e12
_BOX = 5.0  # every pricing coefficient is held in [-_BOX, _BOX]
# inner equilibrium solve of every search evaluation
_SEARCH_FP_CFG = FixedPointConfig(tol=1e-9, max_iter=600)


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize``, imported on first use.

    Loading scipy.optimize costs about 0.3 s, which every CLI command
    would otherwise pay at import time.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


@dataclass(frozen=True)
class OperatorWeights:
    """Weights on demand volatility (alpha1) and backlog volatility (alpha2)."""

    alpha1: float
    alpha2: float

    def __post_init__(self):
        if not (0.0 <= self.alpha1 < np.inf and 0.0 <= self.alpha2 < np.inf):
            raise InvalidParamsError("operator weights must be finite and nonnegative")
        if self.alpha1 == 0.0 and self.alpha2 == 0.0:
            raise InvalidParamsError("operator weights must not both be zero")


@dataclass(frozen=True)
class OperatorResult:
    pricing: PricingRule
    gain: FeedbackGain
    objective: float
    baseline_objective: float
    evaluations: int
    # over the search's ``evaluations`` inner solves: failures by kind
    # ("singular-row", "not-converged", "unstable"), and the sweeps of the
    # solves that ran to a verdict (a singular row stops a solve mid-sweep)
    failures: dict
    inner_sweeps: int


def evaluate_pricing(
    pricing: PricingRule,
    weights: OperatorWeights,
    ss: StateSpace,
    fp_cfg: FixedPointConfig | None = None,
) -> tuple[float, dict]:
    """Objective value and diagnostics for one pricing rule.

    Returns (inf, diagnostics) when the inner equilibrium solve fails or
    the Gramian solve cannot certify the equilibrium's spectral radius
    below 1 - 1e-9; the diagnostics record the failure kind
    ("singular-row", "not-converged" or "unstable"), and every solve that
    ran to a verdict records its ``iterations`` (sweeps).
    """
    sol = None
    try:
        sol = solve_mpe(pricing, ss, fp_cfg)
        F = sol.gain.F
        Q = solve_lyapunov(F, ss)
    except SingularRowError as exc:
        return float("inf"), {
            "status": "singular-row",
            "agent_type": exc.agent_type,
            "periods_left": exc.periods_left,
        }
    except NotConvergedError as exc:
        return float("inf"), {
            "status": "not-converged",
            "residuals": exc.residuals[-5:],
            "iterations": len(exc.residuals),
        }
    except UnstableError as exc:  # from solve_mpe or solve_lyapunov
        return float("inf"), {
            "status": "unstable",
            "detail": str(exc),
            "iterations": (exc.solution if sol is None else sol).iterations,
        }
    val = float(
        weights.alpha1 * (ss.e @ F @ Q @ F.T @ ss.e)
        + weights.alpha2 * (ss.e @ Q @ ss.e)
    )
    return val, {"status": "ok", "iterations": sol.iterations, "solution": sol}


def optimize_pricing(
    weights: OperatorWeights,
    ss: StateSpace,
    budget: int,
    seed: int = 0,
) -> OperatorResult:
    """Multi-start Nelder-Mead over the 2*D_c pricing coefficients.

    Starts from marginal-cost pricing and seeded perturbations of it,
    capping total objective evaluations at ``budget``; coefficients are
    constrained to [-_BOX, _BOX].  Returns the best finite evaluation of the
    search; the baseline is evaluated first, so the returned objective
    never exceeds it.  Ties are broken toward the lexicographically
    smallest coefficient vector.  A failed inner solve costs the simplex
    _PENALTY; the result reports it as an objective of inf (gain None).
    """
    if budget < 1:
        raise InvalidParamsError("budget must be >= 1")
    D = ss.D_c
    count = 0
    failures = dict.fromkeys(("singular-row", "not-converged", "unstable"), 0)
    sweeps = 0

    def theta_to_pricing(theta):
        return PricingRule(theta[:D], theta[D:])

    # The best finite evaluation, the baseline until one succeeds: a search
    # cut short by maxfev reports its last simplex, which can miss a point
    # it has already evaluated.
    baseline_theta = np.concatenate([np.zeros(D), np.ones(D)])
    best_val, best_theta, best_gain = np.inf, baseline_theta, None

    def objective(theta):
        nonlocal count, sweeps, best_val, best_theta, best_gain
        # bounded Nelder-Mead evaluates only points inside the box
        count += 1
        val, diag = evaluate_pricing(
            theta_to_pricing(theta), weights, ss, _SEARCH_FP_CFG
        )
        sweeps += diag.get("iterations", 0)
        if diag["status"] != "ok":
            failures[diag["status"]] += 1
        if not np.isfinite(val):
            return _PENALTY
        if val < best_val or (val == best_val and tuple(theta) < tuple(best_theta)):
            best_val, best_theta, best_gain = val, theta.copy(), diag["solution"].gain
        return val

    objective(baseline_theta)
    baseline_val = best_val  # inf when the baseline's equilibrium fails

    gen = rngstreams.stream(seed, 0)
    start_idx = 0
    while count < budget:
        remaining = budget - count
        if start_idx == 0:
            x0 = baseline_theta.copy()
        else:
            x0 = np.clip(
                baseline_theta + 0.25 * gen.standard_normal(2 * D), -_BOX, _BOX
            )
        minimize(
            objective,
            x0,
            method="Nelder-Mead",
            bounds=[(-_BOX, _BOX)] * (2 * D),
            options={
                "maxfev": max(1, remaining),
                "xatol": 1e-6,
                "fatol": 1e-10,
                "adaptive": True,
            },
        )
        start_idx += 1
        if start_idx > 16:
            break

    return OperatorResult(
        pricing=theta_to_pricing(best_theta),
        gain=best_gain,
        objective=float(best_val),
        baseline_objective=float(baseline_val),
        evaluations=count,
        failures=failures,
        inner_sweeps=sweeps,
    )
