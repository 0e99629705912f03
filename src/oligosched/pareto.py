"""Pareto-front synthesis for the (demand, backlog, mismatch) tradeoff.

For a weight triple alpha the scalarized objective is the squared H2 norm
of the weighted output of the plant

    A = R1,  B1 = R2,  B2 = -R1,
    C1  = [0; a2*e'; a3*e_L'],   D12 = [a1*e'; 0; -a3*e_L'],

under static feedback u = F x; equivalently J(F) = a1^2 z1sq + a2^2 z2sq +
a3^2 z3sq.  Its optimum is in closed form.  Write a_k = alpha_k^2 and
r = a1 a3/(a1 + a3).  The aggregate backlog X = e'x obeys X' = X - U - Z3 + W,
with U = e'F x the demand, Z3 = e_L'(I - F)x the mismatch and var W = L,
and a1 U^2 + a3 Z3^2 >= r (U + Z3)^2 by Cauchy-Schwarz.  So J is at least
L p, where p, the positive root of p^2 - a2 p - r a2 = 0, is the cost per
unit noise variance of the scalar average-cost LQ problem in X (Bertsekas,
Dynamic Programming and Optimal Control I, 2017, sec. 4.1).  A gain that is
constant on the deadline/flexible blocks attains it: its column sums give
U = k_u X and Z3 = k_z X, the LQ-optimal V = U + Z3 = K X with K = p/(r + p)
split as k_u = K a3/(a1 + a3) and k_z = K - k_u.  L = 1 has no flexible
slot and is the scalar case F = a3/(a1 + a3), J = a2 + r.

The gain is certified, not trusted, by two certificates: the doubling
solve of its Gramian Q_F certifies the closed loop stable, and the gap
between J and the bound certifies it globally optimal, and so stationary.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, NotConvergedError, OligoschedError, UnstableError
from .statespace import (
    FeedbackGain,
    H2Report,
    OutputWeights,
    StateSpace,
    _as_matrix,
    _solve_dlyap,
    h2_norms,
    solve_lyapunov,
)

# Relative gap |J - bound| that certifies a gain globally optimal, over an
# absolute floor of 1e-14 for the weights whose bound is 0.
_TOL_GAP = 1e-8


@dataclass(frozen=True)
class ParetoPoint:
    """A synthesized gain with its H2 report and optimality certificate.

    ``objective`` is J, the alpha^2-weighted sum of the report read off the
    certified Gramian of the gain, ``lower_bound`` the bound no gain goes
    below and ``gap`` is ``objective - lower_bound``.
    """

    weights: OutputWeights
    gain: FeedbackGain
    report: H2Report
    objective: float
    lower_bound: float
    gap: float


def _plant_outputs(weights: OutputWeights, ss: StateSpace):
    C1 = np.vstack(
        [np.zeros(ss.D_c), weights.alpha2 * ss.e, weights.alpha3 * ss.e_L]
    )
    D12 = np.vstack(
        [weights.alpha1 * ss.e, np.zeros(ss.D_c), -weights.alpha3 * ss.e_L]
    )
    return C1, D12


def _scalar_riccati(r: float, q: float) -> float:
    """Positive root p of p^2 - q p - r q = 0: the average cost per unit noise
    variance of X' = X - V + W under the stage cost q X^2 + r V^2."""
    return 0.5 * (q + math.sqrt(q * q + 4.0 * r * q))


def objective_and_gradient(F, weights: OutputWeights, ss: StateSpace):
    """Scalarized H2 objective and its exact gradient in F.

    J = trace((C1 + D12 F) Q (C1 + D12 F)') with Q the closed-loop
    controllability Gramian; the gradient uses the adjoint Gramian P of the
    observability equation M'P M - P + C'C = 0 and reads
    2 (D12'(C1 + D12 F) + B2' P M) Q with M = R1(I - F) and B2 = -R1.
    Raises UnstableError unless the Gramian solve certifies stability at
    ``statespace._STABILITY_MARGIN``, or when either Gramian fails its
    residual certificate.
    """
    Fm = _as_matrix(F, ss)
    Q = solve_lyapunov(Fm, ss)
    C1, D12 = _plant_outputs(weights, ss)
    M = ss.R1 @ (np.eye(ss.D_c) - Fm)
    C = C1 + D12 @ Fm
    P = _solve_dlyap(M.T, C.T @ C)[0]
    B2 = -ss.R1
    return float(np.trace(C @ Q @ C.T)), 2.0 * (D12.T @ C + B2.T @ P @ M) @ Q


def synthesize(weights: OutputWeights, ss: StateSpace) -> ParetoPoint:
    """The gain minimizing the scalarized H2 objective, in closed form.

    Forms the bound and its block-constant gain (module docstring) and reads
    the report off its one Gramian Q_F through ``h2_norms``.  Raises
    UnstableError before any solve when alpha2 = 0 < r, whose loop gain
    K = 0 leaves the aggregate backlog undamped, and unless Q_F certifies
    stability at ``statespace._STABILITY_MARGIN``; raises NotConvergedError
    unless J, the alpha^2-weighted sum of the report, meets the bound to
    |J - bound| <= ``_TOL_GAP`` bound + 1e-14.
    """
    a1, a2, a3 = weights.alpha1 ** 2, weights.alpha2 ** 2, weights.alpha3 ** 2
    s = a1 + a3
    r = a1 * a3 / s if s > 0.0 else 0.0
    p = _scalar_riccati(r, a2)
    K = p / (r + p) if ss.L > 1 and r + p > 0.0 else 1.0
    if K == 0.0:
        raise UnstableError(f"alpha2 = 0 and r = {r!r} > 0 give loop gain K = 0")
    k_u = K * a3 / s if s > 0.0 else K
    k_z = K - k_u
    C = np.array([[1.0 - k_z, -k_z], [K - 1.0, K]])
    block = (np.arange(ss.D_c) >= ss.L).astype(int)  # 0 deadline, 1 flexible
    size = np.array([ss.L, ss.D_c - ss.L])
    F = C[block[:, None], block] / size[block][:, None]
    bound = a2 + r if ss.L == 1 else ss.L * p
    rep = h2_norms(F, ss)
    J = a1 * rep.z1sq + a2 * rep.z2sq + a3 * rep.z3sq
    gap = J - bound
    if abs(gap) > _TOL_GAP * bound + 1e-14:
        raise NotConvergedError(
            f"closed-form gain has J = {J!r}, a gap of {gap:.3e} to its bound {bound!r}"
        )
    return ParetoPoint(weights, FeedbackGain(F, ss), rep, J, bound, gap)


def trace_front(weights_list, ss: StateSpace) -> list[ParetoPoint]:
    """Synthesize each weight and sort the points by (z3sq, z2sq).

    Every point minimizes a nonnegative weighted sum of the three
    measures, so no other point is better in all three and none is
    dropped.  A weight whose synthesis fails with a library error
    (OligoschedError) is reported as a warning and skipped, so a partial
    front can still be returned; any other exception propagates.
    """
    if not weights_list:
        raise InvalidParamsError("weight grid must be nonempty")
    points = []
    for w in weights_list:
        try:
            points.append(synthesize(w, ss))
        except OligoschedError as exc:
            warnings.warn(f"synthesis failed for weights {w}: {exc}", stacklevel=2)
    points.sort(key=lambda p: (p.report.z3sq, p.report.z2sq))
    return points


def default_weight_grid() -> list[OutputWeights]:
    """Grid of 25 normalized weights: mismatch ratio x demand/backlog mix."""
    return [
        OutputWeights.normalized(m, 1.0 - m, r)
        for r in (0.3, 1.0, 3.0, 10.0, 100.0)
        for m in (0.1, 0.3, 0.5, 0.7, 0.9)
    ]
