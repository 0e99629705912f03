"""Symmetric linear equilibrium under static linear pricing, by fixed point.

With price p(t) = q1'x(t) + q2'u(t) and every agent conjecturing the
symmetric feedback u(t) = F x(t), the one-shot deviation of agent
(l, tau) yields a best-response row; collecting rows defines a map whose
fixed points are the equilibrium gains.  Deadline rows are pinned to unit
rows.

Every term of a deviation's cost is rank one, so a row needs vectors
only.  With M = R1(I - F) and w = q1 + F'q2, shared by all rows, take row
i = (l, tau) and p = pos(l, tau-1), so that R1 e_i = e_p.  For
k = 1..tau-1 let j = pos(l, tau-k), a_k = w'M^(k-1), b_k = F[j] M^(k-1),
alpha_k = a_k[p] and beta_k = b_k[p].  Then, with
c = 2 sum_k alpha_k beta_k,

    row_i = ((sum_k alpha_k b_k + beta_k a_k) M + (c + q2[i]) F[i] - w)
            / (c + 2 q2[i]),

the sum running over both products.

One kernel evaluates a batch of rows this way, and the two sweeps differ
only in order: a Jacobi sweep hands it every tau > 1 row against the
input gain, a Gauss-Seidel sweep one row at a time against the gain as
updated in place.

The map is not a contraction, so ``solve_mpe`` drives it to its fixed
point by type-II Anderson acceleration on the tau > 1 rows (Walker & Ni,
SIAM J. Numer. Anal. 49, 2011).  With x_k those rows flattened,
g_k = f_map(F_k) - F_k on them, and dX, dG the last m = 5 differences of
the x and g iterates as columns,

    x_{k+1} = x_k + beta g_k - (dX + beta dG) gamma,
    gamma = argmin ||g_k - dG gamma||_2,

where the mixing parameter beta is ``FixedPointConfig.damping``; with no
history the step is the damped step x_k + beta g_k.  Deadline rows are
copied from the map, and convergence is always declared on the residual
of the undamped map.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    FixedPointUnstableError,
    InvalidParamsError,
    NotConvergedError,
    SingularRowError,
)
from .statespace import (
    FeedbackGain,
    StateSpace,
    _as_matrix,
    _spectral_radius,
    build_state_space,
)

_ANDERSON_DEPTH = 5  # m: differences kept in the Anderson history


@dataclass(frozen=True)
class PricingRule:
    """Linear pricing p(t) = q1'x(t) + q2'u(t)."""

    q1: np.ndarray
    q2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q1", np.asarray(self.q1, float))
        object.__setattr__(self, "q2", np.asarray(self.q2, float))
        if not (np.all(np.isfinite(self.q1)) and np.all(np.isfinite(self.q2))):
            raise InvalidParamsError("pricing coefficients must be finite")

    def validated(self, ss: StateSpace) -> "PricingRule":
        if self.q1.shape != (ss.D_c,) or self.q2.shape != (ss.D_c,):
            raise InvalidParamsError(
                f"pricing vectors must have length D_c={ss.D_c}"
            )
        return self


def marginal_cost_pricing(ss: StateSpace) -> PricingRule:
    """p(t) = sum of demands: q1 = 0, q2 = ones."""
    return PricingRule(np.zeros(ss.D_c), np.ones(ss.D_c))


@dataclass(frozen=True)
class FixedPointConfig:
    tol: float = 1e-10
    max_iter: int = 2000
    damping: float = 0.5  # the Anderson mixing parameter beta
    sweep: str = "jacobi"  # or "gauss-seidel"
    init: object = "even-split"  # or "br", or an explicit gain matrix

    def __post_init__(self):
        if self.tol <= 0.0:
            raise InvalidParamsError("tol must be positive")
        if self.max_iter < 1:
            raise InvalidParamsError("max_iter must be >= 1")
        if not 0.0 < self.damping <= 1.0:
            raise InvalidParamsError("damping must lie in (0, 1]")
        if self.sweep not in ("jacobi", "gauss-seidel"):
            raise InvalidParamsError(f"unknown sweep {self.sweep!r}")


@dataclass
class MpeSolution:
    gain: FeedbackGain
    iterations: int
    residuals: list = field(repr=False)
    stability_margin: float = 0.0

    @property
    def residual(self) -> float:
        return self.residuals[-1] if self.residuals else float("nan")


def even_split_gain(ss: StateSpace) -> np.ndarray:
    """Diagonal 1/tau on own backlog, unit deadline rows; stable by
    construction (the closed loop is strictly block upper-triangular)."""
    F = np.zeros((ss.D_c, ss.D_c))
    for i, (_, tau) in enumerate(ss.pairs):
        F[i, i] = 1.0 / tau
    return F


@dataclass(frozen=True)
class _RowPlan:
    """Index arrays gathering one batch of best-response rows.

    Each row (l, tau) has terms k = 1..tau-1, and each term reads two
    vectors of V[k-1] = [w; S] M^(k-1): a_k (V row 0) and b_k (V row
    1 + j).  Gathers list all a-terms, then all b-terms, so ``swap``
    pairs each vector with its partner.
    """

    rows: np.ndarray  # slots computed, in slot order
    depth: int  # V[0 .. depth-1] are needed
    power: np.ndarray  # per vector: k - 1
    vec: np.ndarray  # per vector: 0 for a_k, 1 + j for b_k
    shifted: np.ndarray  # per vector: p = pos(l, tau - 1), so R1 e_i = e_p
    swap: np.ndarray  # index of the partner vector
    row_p: tuple  # (row index, p) per row
    owner: np.ndarray  # (rows, vectors), 0/1: the row a vector sums into


def _plan(ss: StateSpace, rows) -> _RowPlan:
    owner_of, power, slot, shifted, row_p = [], [], [], [], []
    for r, i in enumerate(rows):
        l, tau = ss.pairs[i]
        row_p.append(ss.position(l, tau - 1))
        for k in range(1, tau):
            owner_of.append(r)
            power.append(k - 1)
            slot.append(1 + ss.position(l, tau - k))
            shifted.append(row_p[-1])
    T = len(power)
    owner = np.zeros((len(rows), 2 * T))
    owner[owner_of * 2, np.arange(2 * T)] = 1.0
    return _RowPlan(
        np.array(rows, dtype=np.intp),
        max(power, default=0) + 1,
        np.array(power * 2, dtype=np.intp),
        np.array([0] * T + slot, dtype=np.intp),
        np.array(shifted * 2, dtype=np.intp),
        np.roll(np.arange(2 * T), T),
        (np.arange(len(rows)), np.array(row_p, dtype=np.intp)),
        owner,
    )


@functools.lru_cache(maxsize=None)
def _row_plans(L: int) -> tuple[_RowPlan, tuple[_RowPlan, ...]]:
    """The plan of all tau > 1 rows (Jacobi) and one plan per such row
    (Gauss-Seidel), built once per L; StateSpace itself is unhashable."""
    ss = build_state_space(L)
    flexible = range(L, ss.D_c)  # tau-block order puts the deadline block first
    return _plan(ss, flexible), tuple(_plan(ss, [i]) for i in flexible)


def _best_response_rows(S: np.ndarray, q1, q2, ss: StateSpace, plan: _RowPlan):
    """Best-response rows ``plan.rows`` against the conjectured gain S.

    Raises SingularRowError for the first row, in slot order, whose
    denominator vanishes.
    """
    D = ss.D_c
    M = ss.R1 - ss.R1 @ S
    w = q1 + S.T @ q2
    V = np.empty((plan.depth, D + 1, D))
    V[0, 0] = w
    V[0, 1:] = S
    for m in range(1, plan.depth):
        np.matmul(V[m - 1], M, out=V[m])
    ab = V[plan.power, plan.vec]  # a_k and b_k
    ab_p = V[plan.power, plan.vec, plan.shifted]  # alpha_k and beta_k
    partner = ab_p[plan.swap]
    left = plan.owner @ (partner[:, None] * ab)
    c = left[plan.row_p]  # left[r, p] sums alpha_k beta_k + beta_k alpha_k
    q2i = q2[plan.rows]
    den = c + 2.0 * q2i
    singular = (np.abs(den) < 1e-12).nonzero()[0]
    if len(singular):
        l, tau = ss.pairs[plan.rows[singular[0]]]
        raise SingularRowError(l, tau, float(den[singular[0]]))
    num = left @ M + (c + q2i)[:, None] * S[plan.rows] - w
    return num / den[:, None]


def f_map(F, pricing: PricingRule, ss: StateSpace, sweep: str = "jacobi") -> np.ndarray:
    """One sweep of the best-response map.

    Deadline rows are unit rows; each tau > 1 row is the exact one-shot
    best response against the conjectured gain, by the rank-one formula
    of the module docstring.  "jacobi" evaluates every row against the
    input gain in one batch; "gauss-seidel" evaluates the rows one at a
    time in slot order, each against the gain as updated so far.
    """
    pricing = pricing.validated(ss)
    Fm = _as_matrix(F)
    if Fm.shape != (ss.D_c, ss.D_c):
        raise InvalidParamsError(f"gain must be {ss.D_c} x {ss.D_c}")
    q1, q2 = pricing.q1, pricing.q2
    batch, singles = _row_plans(ss.L)
    out = Fm.copy()
    out[: ss.L] = np.eye(ss.D_c)[: ss.L]
    if sweep == "gauss-seidel":
        for plan in singles:
            out[plan.rows] = _best_response_rows(out, q1, q2, ss, plan)
    else:
        out[batch.rows] = _best_response_rows(Fm, q1, q2, ss, batch)
    return out


def solve_mpe(
    pricing: PricingRule, ss: StateSpace, cfg: FixedPointConfig | None = None
) -> MpeSolution:
    """Anderson-accelerate the best-response map to a symmetric equilibrium gain.

    Returns the gain with undamped residual at most ``cfg.tol`` in sup
    norm; raises NotConvergedError (with the residual trace) when the
    budget is exhausted or the iterates stop being finite, and
    FixedPointUnstableError when a fixed point is reached whose closed
    loop is not stable.
    """
    cfg = cfg or FixedPointConfig()
    pricing = pricing.validated(ss)
    if isinstance(cfg.init, str):
        if cfg.init == "even-split":
            F = even_split_gain(ss)
        elif cfg.init == "br":
            from .statespace import make_f_br

            F = make_f_br(0.1, ss).F
        else:
            raise InvalidParamsError(f"unknown init {cfg.init!r}")
    else:
        F = _as_matrix(cfg.init).copy()

    flex = F[ss.L :]  # view: the rows Anderson updates
    dX, dG = [], []  # columns of the history, oldest first
    x_prev = g_prev = None
    residuals = []
    converged = False
    it = 0
    # a diverging iterate overflows; it is caught below by the finite check
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, cfg.max_iter + 1):
            Fn = f_map(F, pricing, ss, cfg.sweep)
            res = float(np.max(np.abs(Fn - F)))
            residuals.append(res)
            if not np.isfinite(res):
                raise NotConvergedError(
                    f"iteration diverged after {it} sweeps", residuals
                )
            if res <= cfg.tol:
                converged = True
                break
            x = flex.flatten()
            g = Fn[ss.L :].ravel() - x
            step = cfg.damping * g
            if x_prev is not None:
                dX.append(x - x_prev)
                dG.append(g - g_prev)
                if len(dX) > _ANDERSON_DEPTH:
                    del dX[0], dG[0]
                DG = np.column_stack(dG)
                gamma = np.linalg.lstsq(DG, g, rcond=None)[0]
                step -= (np.column_stack(dX) + cfg.damping * DG) @ gamma
            x_prev, g_prev = x, g
            flex += step.reshape(flex.shape)
            F[: ss.L] = Fn[: ss.L]
    if not converged:
        raise NotConvergedError(
            f"no fixed point within {cfg.max_iter} sweeps (tol {cfg.tol:g})",
            residuals,
        )
    sr = _spectral_radius(ss.R1 @ (np.eye(ss.D_c) - F))
    sol = MpeSolution(FeedbackGain(F, ss), it, residuals, 1.0 - sr)
    if sr >= 1.0:
        raise FixedPointUnstableError(
            f"fixed point reached but closed-loop spectral radius {sr:.6f} >= 1",
            sol,
        )
    return sol
