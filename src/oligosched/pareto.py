"""Pareto-front synthesis for the (demand, backlog, mismatch) tradeoff.

For a weight triple alpha the scalarized objective is the squared H2 norm
of the weighted output of the plant

    A = R1,  B1 = R2,  B2 = -R1,
    C1  = [0; a2*e'; a3*e_L'],   D12 = [a1*e'; 0; -a3*e_L'],

under static feedback u = F x; equivalently J(F) = a1^2 z1sq + a2^2 z2sq +
a3^2 z3sq.  With the full state measured this is an LQR problem with the
cross term C1'D12, solved here by Hewer's policy iteration (G. A. Hewer,
IEEE TAC 16(4), 1971): each gain F is evaluated by the adjoint Gramian P
of its closed loop, one Lyapunov solve, and improved to the minimizer of
the one-step cost F = -(R + B2'P B2)^+ (B2'P A + S') with R = D12'D12 and
S = C1'D12 (Anderson & Moore, Optimal Control, 1990, ch. 2-3).  R is
singular, since only the sum of the deadline-slot controls enters cost or
dynamics, so the step takes the least-squares solution; no regularization
is needed.  The gain is accepted only when the exact gradient of J from
the paired Lyapunov equations certifies it stationary.  The equivalent
LMIs are kept as a feasibility audit.
"""
from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, NotConvergedError, OligoschedError
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

log = logging.getLogger(__name__)

# Policy-improvement steps allowed per weight; the default grid at L = 2-14
# stops within 12 and the edge weight normalized(1, 0.001, 1) within 15.
_POLICY_CAP = 100
# Largest |G|inf of the exact gradient that certifies a gain stationary;
# the default grid at L = 2-14 certifies below 5.5e-9.
_TOL_GRAD = 1e-6
# eps inflating the Gramian driving term and the performance block in the
# LMI audit.
_LMI_EPS = 1e-9


@dataclass(frozen=True)
class ParetoPoint:
    """A synthesized gain with its H2 report and optimality certificate.

    ``objective`` is the J that policy iteration evaluated for the gain,
    ``grad_inf`` is |G|inf of the exact gradient at the gain and
    ``iterations`` the policy-improvement steps taken, the last of which,
    not lowering J, was discarded.
    """

    weights: OutputWeights
    gain: FeedbackGain
    report: H2Report
    objective: float
    grad_inf: float
    iterations: int


def _plant_outputs(weights: OutputWeights, ss: StateSpace):
    C1 = np.vstack(
        [np.zeros(ss.D_c), weights.alpha2 * ss.e, weights.alpha3 * ss.e_L]
    )
    D12 = np.vstack(
        [weights.alpha1 * ss.e, np.zeros(ss.D_c), -weights.alpha3 * ss.e_L]
    )
    return C1, D12


def _adjoint_gramian(F, C1, D12, ss: StateSpace):
    """Closed loop M = R1(I - F), output map C = C1 + D12 F and the adjoint
    Gramian P solving M'P M - P + C'C = 0, so that J = trace(R2'P R2)."""
    M = ss.R1 @ (np.eye(ss.D_c) - F)
    C = C1 + D12 @ F
    return M, C, _solve_dlyap(M.T, C.T @ C)[0]


def objective_and_gradient(F, weights: OutputWeights, ss: StateSpace):
    """Scalarized H2 objective and its exact gradient in F.

    J = trace((C1 + D12 F) Q (C1 + D12 F)') with Q the closed-loop
    controllability Gramian; the gradient uses the adjoint Gramian P of the
    observability equation and reads 2 (D12'(C1 + D12 F) + B2' P M) Q with
    M = R1(I - F) and B2 = -R1.  Raises UnstableError unless the Gramian
    solve certifies stability at ``statespace._STABILITY_MARGIN``, or
    when either Gramian fails its residual certificate.
    """
    Fm = _as_matrix(F, ss)
    Q = solve_lyapunov(Fm, ss)
    C1, D12 = _plant_outputs(weights, ss)
    M, C, P = _adjoint_gramian(Fm, C1, D12, ss)
    J = float(np.trace(C @ Q @ C.T))
    B2 = -ss.R1
    G = 2.0 * (D12.T @ C + B2.T @ P @ M) @ Q
    return J, G


def synthesize(weights: OutputWeights, ss: StateSpace) -> ParetoPoint:
    """Minimize the scalarized H2 objective over static gains by policy iteration.

    Starts from F = I, whose closed loop R1(I - F) = 0 is stable for every
    L and weight, and alternates evaluation, J = trace(R2'P R2) with P the
    adjoint Gramian, and improvement until a step no longer lowers J; the
    gain before that step is kept.  Raises NotConvergedError, carrying the
    J of every evaluated gain, unless the exact gradient certifies
    |G|inf <= ``_TOL_GRAD`` at the margin ``statespace._STABILITY_MARGIN``.
    """
    C1, D12 = _plant_outputs(weights, ss)
    A, B = ss.R1, -ss.R1
    R, S = D12.T @ D12, C1.T @ D12

    def evaluate(F):
        P = _adjoint_gramian(F, C1, D12, ss)[2]
        return P, float(np.trace(ss.R2.T @ P @ ss.R2))

    F = np.eye(ss.D_c)
    P, J = evaluate(F)
    trace = [J]
    for iterations in range(1, _POLICY_CAP + 1):
        F_next = -np.linalg.lstsq(R + B.T @ P @ B, B.T @ P @ A + S.T)[0]
        P_next, J_next = evaluate(F_next)
        trace.append(J_next)
        log.debug("policy iteration %d: J = %.17g", iterations, J_next)
        if not J_next < J:
            break
        F, P, J = F_next, P_next, J_next
    _, G = objective_and_gradient(F, weights, ss)
    grad_inf = float(np.max(np.abs(G)))
    if grad_inf > _TOL_GRAD:
        raise NotConvergedError(
            f"policy iteration stopped at |G|inf = {grad_inf:.3e} > {_TOL_GRAD:g}",
            trace,
        )
    return ParetoPoint(
        weights, FeedbackGain(F, ss), h2_norms(F, ss), J, grad_inf, iterations
    )


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


def lmi_feasibility_audit(F, weights: OutputWeights, ss: StateSpace) -> dict:
    """Check the two strict LMIs near a synthesized gain.

    Uses the eps-inflated Gramian (driving term R2 R2' + eps I, eps =
    ``_LMI_EPS``) with the gain-product variable P = F @ Q, so feasibility
    simultaneously verifies the gain-recovery orientation F = P Q^{-1}.  Returns the minimum
    eigenvalues of both block matrices and the audited trace bound.
    """
    Fm = _as_matrix(F, ss)
    D = ss.D_c
    M = ss.R1 @ (np.eye(D) - Fm)
    W = ss.R2 @ ss.R2.T + _LMI_EPS * np.eye(D)
    Q = _solve_dlyap(M, W)[0]
    P = Fm @ Q
    C1, D12 = _plant_outputs(weights, ss)
    AQ_B2P = ss.R1 @ Q - ss.R1 @ P
    blk1 = np.block([[Q, AQ_B2P.T], [AQ_B2P, Q - ss.R2 @ ss.R2.T]])
    CQ_DP = C1 @ Q + D12 @ P
    Mblk = CQ_DP @ np.linalg.solve(Q, CQ_DP.T) + _LMI_EPS * np.eye(3)
    blk2 = np.block([[Q, CQ_DP.T], [CQ_DP, Mblk]])
    min1 = float(np.min(np.linalg.eigvalsh(0.5 * (blk1 + blk1.T))))
    min2 = float(np.min(np.linalg.eigvalsh(0.5 * (blk2 + blk2.T))))
    return {
        "min_eig_stability_lmi": min1,
        "min_eig_performance_lmi": min2,
        "trace_bound": float(np.trace(Mblk)),
        "feasible": min1 >= 0.0 and min2 >= 0.0,
    }
