"""System operator's pricing design: choose (q1, q2) to damp volatility.

The operator minimizes alpha1 * e'F Q F'e + alpha2 * e'Q e where F is the
equilibrium gain induced by the pricing rule and Q its closed-loop
Gramian.  Only the program itself is given analytically, so the search is
a derivative-free multi-start Nelder-Mead over the 2*D_c pricing
coefficients, always seeded with marginal-cost pricing so the result never
falls behind that baseline.  Failed inner equilibrium solves receive a
large finite penalty instead of aborting the simplex.  The Nelder-Mead is
this module's own ``minimize``: importing scipy's for it cost 0.65-0.70 s
and 42 MB per process, more than the search's own work.

No pricing beats the scalar average-cost LQ bound L p, p the positive root
of p^2 - alpha2 p - alpha1 alpha2 = 0: the aggregate backlog X obeys
X' = X - U + W with var W = L under unit deadline rows (``pareto``'s bound
at r = alpha1).  It is attained exactly when every column of the gain sums
to K = p/(alpha1 + p); the result reports its gap to that bound.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    FixedPointUnstableError,
    InvalidParamsError,
    NotAnEquilibriumError,
    NotConvergedError,
    SingularRowError,
)
from .fixed_point import FixedPointConfig, PricingRule, solve_mpe
from .pareto import _scalar_riccati
# unused here; perfbench/child.py TARGETS and TestPerfbenchLookups look solve_lyapunov up here
from .statespace import FeedbackGain, StateSpace, _h2_readout, solve_lyapunov

_PENALTY = 1e12
_BOX = 5.0  # every pricing coefficient is held in [-_BOX, _BOX]
# the search stops once the simplex spans at most _XATOL in every
# coordinate and its values at most _FATOL
_XATOL = 1e-6
_FATOL = 1e-10
# inner equilibrium solve of every search evaluation
_SEARCH_FP_CFG = FixedPointConfig(tol=1e-9, max_iter=600)


class _BudgetSpent(Exception):
    """The search asked for an evaluation beyond ``maxfev``."""


def minimize(fun, x0, maxfev: int) -> int:
    """Bounded adaptive Nelder-Mead on fun from x0; returns the evaluations.

    Coefficients adapt to the dimension n (Gao & Han, Comput. Optim. Appl.
    51, 2012); points are clipped into [-_BOX, _BOX], and initial vertices
    above it are first reflected in.  Stops within _XATOL and _FATOL or at
    ``maxfev`` evaluations, wherever that falls.  The steps are those of
    scipy 1.17's ``minimize(method="Nelder-Mead", bounds=..., options=
    {"adaptive": True})`` (a test checks so); the caller tracks the best point.
    """
    n = len(x0)
    chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    count = 0

    def f(x):
        nonlocal count
        if count >= maxfev:
            raise _BudgetSpent
        count += 1
        return fun(x.copy())

    def clip(x):
        return np.clip(x, -_BOX, _BOX)

    x0 = clip(np.asarray(x0, dtype=float))
    sim = np.tile(x0, (n + 1, 1))
    sim[np.arange(1, n + 1), np.arange(n)] = np.where(x0 != 0, 1.05 * x0, 0.00025)
    sim = clip(np.where(sim > _BOX, 2 * _BOX - sim, sim))
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
        for _ in range(2):  # as scipy: an unstable sort may reorder ties again
            order = np.argsort(fsim)
            sim, fsim = sim[order], fsim[order]
        while count < maxfev:
            if (np.abs(sim[1:] - sim[0]).max() <= _XATOL
                    and np.abs(fsim[0] - fsim[1:]).max() <= _FATOL):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = clip(2 * xbar - sim[-1])
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = clip((1 + chi) * xbar - chi * sim[-1])
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = clip((1 + psi) * xbar - psi * sim[-1])
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = clip((1 - psi) * xbar + psi * sim[-1])
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink toward the best vertex
                    for j in range(1, n + 1):
                        sim[j] = clip(sim[0] + sigma * (sim[j] - sim[0]))
                        fsim[j] = f(sim[j])
            order = np.argsort(fsim)
            sim, fsim = sim[order], fsim[order]
    except _BudgetSpent:
        pass
    return count


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
    # ("singular-row", "not-converged", "unstable", "not-an-equilibrium"),
    # and the sweeps of the solves that ran to a verdict (a singular row
    # stops a solve mid-sweep)
    failures: dict
    inner_sweeps: int
    # the scalar LQ bound L p, objective - lower_bound, and the largest
    # |e'F - K| over the gain's columns (NaN without a gain)
    lower_bound: float
    gap: float
    colsum_dev: float


def evaluate_pricing(
    pricing: PricingRule,
    weights: OperatorWeights,
    ss: StateSpace,
    fp_cfg: FixedPointConfig | None = None,
) -> tuple[float, dict]:
    """Objective value and diagnostics for one pricing rule.

    The objective alpha1 z1sq + alpha2 z2sq is read off the equilibrium
    gain and the Gramian that certified it by ``h2_norms``' read-out.
    Returns (inf, diagnostics) when the inner equilibrium solve fails, its
    stability and second-order certificates included; the diagnostics
    record the failure kind ("singular-row", "not-converged", "unstable" or
    "not-an-equilibrium"), and every solve that ran to a verdict records
    its ``iterations`` (sweeps).
    """
    try:
        sol = solve_mpe(pricing, ss, fp_cfg)
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
    except FixedPointUnstableError as exc:
        return float("inf"), {
            "status": "unstable",
            "detail": str(exc),
            "iterations": exc.solution.iterations,
        }
    except NotAnEquilibriumError as exc:
        return float("inf"), {
            "status": "not-an-equilibrium",
            "min_denominator": exc.solution.min_denominator,
            "iterations": exc.solution.iterations,
        }
    rep = _h2_readout(sol.gain.F, sol.gramian, ss)
    val = weights.alpha1 * rep.z1sq + weights.alpha2 * rep.z2sq
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
    if not isinstance(budget, (int, np.integer)) or budget < 1:
        raise InvalidParamsError("budget must be an integer >= 1")
    if not isinstance(seed, (int, np.integer)):
        raise InvalidParamsError("seed must be an integer")
    D = ss.D_c
    failures = dict.fromkeys(
        ("singular-row", "not-converged", "unstable", "not-an-equilibrium"), 0)
    sweeps = 0

    def theta_to_pricing(theta):
        return PricingRule(theta[:D], theta[D:])

    # The best finite evaluation, the baseline until one succeeds; minimize
    # reports only how many points it evaluated.
    baseline_theta = np.concatenate([np.zeros(D), np.ones(D)])
    best_val, best_theta, best_gain = np.inf, baseline_theta, None

    def objective(theta):
        nonlocal sweeps, best_val, best_theta, best_gain
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
    count = 1
    baseline_val = best_val  # inf when the baseline's equilibrium fails

    start_idx = 0
    while count < budget:
        if start_idx == 0:
            x0 = baseline_theta.copy()
        else:
            if start_idx == 1:  # numpy.random loads only once a restart runs
                from . import rngstreams
                gen = rngstreams.stream(seed, 0)
            x0 = np.clip(
                baseline_theta + 0.25 * gen.standard_normal(2 * D), -_BOX, _BOX
            )
        count += minimize(objective, x0, budget - count)
        start_idx += 1
        if start_idx > 16:
            break

    p = _scalar_riccati(weights.alpha1, weights.alpha2)
    lower_bound = ss.L * p
    colsum_dev = (float("nan") if best_gain is None else
                  float(np.max(np.abs(best_gain.F.sum(axis=0) - p / (weights.alpha1 + p)))))
    return OperatorResult(
        pricing=theta_to_pricing(best_theta),
        gain=best_gain,
        objective=float(best_val),
        baseline_objective=float(baseline_val),
        evaluations=count,
        failures=failures,
        inner_sweeps=sweeps,
        lower_bound=lower_bound,
        gap=float(best_val) - lower_bound,
        colsum_dev=colsum_dev,
    )
