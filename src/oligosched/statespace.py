"""General-L state space, the discrete Lyapunov solver, and H2 performance.

The market with L agent types is tracked by a backlog vector of dimension
D_c = L(L+1)/2, one slot per (type l, periods-left tau) pair, ordered by
tau-blocks:

    (1,1), (2,1), ..., (L,1), (2,2), ..., (L,2), ..., (L,L)

The shift matrix R1 moves slot (l, tau+1) to (l, tau) each period and drops
the deadline block; the injection matrix R2 places the type-l arrival into
slot (l, l).  Under a static feedback u(t) = F x(t) and unit-variance loads
the stationary covariance Q_F solves

    R1 (I-F) Q_F (I-F)' R1' - Q_F + R2 R2' = 0

and the three performance measures are quadratic forms in Q_F: aggregate
demand e'F Q F'e, aggregate backlog e'Q e, and deadline mismatch
(e_L'(I-F)) Q (e_L'(I-F))', whose alpha^2-weighted sum is the objective the
Pareto synthesis minimizes.  Every Lyapunov equation, at any dimension, is
solved by Smith's doubling iteration and certified by its residual and a
spectral bound below 1 - ``_STABILITY_MARGIN``, the one margin of every gain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParamsError, UnstableError

# Doubling steps allowed before a Lyapunov solve is declared divergent; 64
# steps sum 2**64 terms of the series, far past any stable closed loop.
_DOUBLING_CAP = 64
_UNDERFLOW_FLOOR = 1e-150  # an uncertified M^(2^k) this small may square to a false 0
_STABILITY_MARGIN = 1e-9  # a gain is certified when its spectral bound is below 1 - this


@dataclass(frozen=True)
class StateSpace:
    """Index map and constant matrices of the L-type backlog system."""

    L: int
    D_c: int
    R1: np.ndarray
    R2: np.ndarray
    e: np.ndarray
    e_L: np.ndarray
    pairs: tuple = field(repr=False)

    def position(self, l: int, tau: int) -> int:
        """0-based slot of agent (type l, tau periods left).

        The 1-based position is sum_{j<tau}(L-j+1) + (l-tau+1).
        """
        if not (1 <= tau <= l <= self.L):
            raise InvalidParamsError(f"no slot for (l={l}, tau={tau}) with L={self.L}")
        off = (tau - 1) * (2 * self.L - tau + 2) // 2
        return off + (l - tau)


def _allocate(what: str, shape, dtype=float, zero: bool = False) -> np.ndarray:
    """np.zeros (``zero``) or np.empty of ``shape``; a size numpy refuses
    raises InvalidParamsError naming it, not MemoryError or ValueError."""
    try:
        return (np.zeros if zero else np.empty)(shape, dtype)
    except (MemoryError, ValueError) as exc:
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        raise InvalidParamsError(
            f"{what} of shape {tuple(shape)} needs {nbytes:.3g} bytes: {exc}") from exc


def build_state_space(L: int) -> StateSpace:
    """Construct the slot ordering and the shift/injection matrices."""
    if not isinstance(L, (int, np.integer)) or L < 1:
        raise InvalidParamsError(f"L={L!r} must be a positive integer")
    D = L * (L + 1) // 2
    # the matrices come first, so a size beyond memory fails before the loops
    R1 = _allocate("R1", (D, D), zero=True)
    R2 = _allocate("R2", (D, L), zero=True)
    pairs = tuple((l, tau) for tau in range(1, L + 1) for l in range(tau, L + 1))
    pos = {p: i for i, p in enumerate(pairs)}
    for (l, tau), i in pos.items():
        if tau >= 2:
            R1[pos[(l, tau - 1)], i] = 1.0
    for l in range(1, L + 1):
        R2[pos[(l, l)], l - 1] = 1.0
    e = np.ones(D)
    e_L = np.zeros(D)
    e_L[:L] = 1.0
    return StateSpace(L, D, R1, R2, e, e_L, pairs)


def _as_matrix(F, ss: StateSpace) -> np.ndarray:
    """The gain F, array-like or FeedbackGain, as a finite D_c x D_c float array."""
    try:
        Fm = np.asarray(F.F if isinstance(F, FeedbackGain) else F, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidParamsError(f"gain is not a numeric matrix: {exc}") from exc
    if Fm.shape != (ss.D_c, ss.D_c):
        raise InvalidParamsError(f"gain shape {Fm.shape} is not {ss.D_c} x {ss.D_c}")
    if not np.isfinite(Fm).all():
        raise InvalidParamsError("gain entries must be finite")
    return Fm


@dataclass
class FeedbackGain:
    """Static feedback u(t) = F x(t); ``solve_lyapunov`` certifies its stability."""

    F: np.ndarray
    ss: StateSpace


def _unit_deadline_rows(F: np.ndarray, L: int) -> np.ndarray:
    """Copy of F with unit deadline rows; unchecked, as f_map passes diverging iterates."""
    out = np.array(F, dtype=float)
    out[:L] = 0.0
    out.flat[: L * (out.shape[0] + 1) : out.shape[0] + 1] = 1.0
    return out


@dataclass(frozen=True)
class OutputWeights:
    """Nonnegative weights on (demand, backlog, mismatch), unit norm."""

    alpha1: float
    alpha2: float
    alpha3: float

    def __post_init__(self):
        a = (self.alpha1, self.alpha2, self.alpha3)
        if not all(0.0 <= x < math.inf for x in a):
            raise InvalidParamsError(f"weights {a!r} must be finite and nonnegative")
        n = a[0] ** 2 + a[1] ** 2 + a[2] ** 2
        if abs(n - 1.0) > 1e-12:
            raise InvalidParamsError(f"weights {a!r} must have unit norm")

    @classmethod
    def normalized(cls, a1: float, a2: float, a3: float) -> "OutputWeights":
        n = float(np.sqrt(a1 * a1 + a2 * a2 + a3 * a3))
        if n == 0.0:
            raise InvalidParamsError("weights must not all be zero")
        return cls(a1 / n, a2 / n, a3 / n)


@dataclass(frozen=True)
class H2Report:
    """Squared H2 norms of demand (z1), backlog (z2), mismatch (z3)."""

    z1sq: float
    z2sq: float
    z3sq: float


def _solve_dlyap(M: np.ndarray, W: np.ndarray, margin: float = 0.0):
    """Solve M X M' - X + W = 0 by Smith's doubling iteration: (X, bound).

    X sums the series W + M W M' + M^2 W M^2' + ...; each step doubles the
    number of terms (X <- X + P X P', then P <- P^2 with P = M^(2^k)) and
    the loop stops once the increment is below 1e-16 of X elementwise.
    X is accepted only when Gelfand's bound rho(M) <= ||P||inf^(1/2^k)
    (Horn & Johnson, Cor. 5.6.14) is below 1 - ``margin``; until then P
    keeps squaring with X left alone, so modes W does not excite count too.
    UnstableError is raised if X goes non-finite, if the series or the bound
    has not passed by _DOUBLING_CAP steps or ||P|| leaves [_UNDERFLOW_FLOOR,
    inf) first, or if the relative Frobenius residual exceeds 1e-10.
    """
    X = W.copy()
    P = M.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(_DOUBLING_CAP):
            inc = P @ X @ P.T
            X += inc
            size = np.abs(X).max()
            if not math.isfinite(size):
                raise UnstableError("Lyapunov doubling series diverged")
            if np.abs(inc).max() <= 1e-16 * size:
                break
            P = P @ P
        else:
            raise UnstableError(
                f"Lyapunov doubling series not converged in {_DOUBLING_CAP} steps"
            )
        while True:
            norm = float(np.abs(P).sum(axis=1).max())
            bound = norm ** 0.5 ** k
            if bound < 1.0 - margin:
                break
            k += 1
            if k == _DOUBLING_CAP or not _UNDERFLOW_FLOOR <= norm < math.inf:
                raise UnstableError(f"spectral bound {bound:.9g} is not below 1 - {margin:g}")
            P = P @ P
    X = 0.5 * (X + X.T)
    res = np.linalg.norm(M @ X @ M.T - X + W) / (1.0 + np.linalg.norm(X))
    if res > 1e-10:
        raise UnstableError(f"Lyapunov residual {res:.3e} exceeds 1e-10")
    return X, bound


def _gramian(Fm: np.ndarray, ss: StateSpace):
    """(Q_F, spectral bound) of the gain Fm, the bound below 1 - ``_STABILITY_MARGIN``."""
    M = ss.R1 @ (np.eye(ss.D_c) - Fm)
    return _solve_dlyap(M, ss.R2 @ ss.R2.T, _STABILITY_MARGIN)


def solve_lyapunov(F, ss: StateSpace) -> np.ndarray:
    """Stationary covariance Q_F of the closed loop driven by unit loads.

    Raises UnstableError unless the doubling iterates certify a closed-loop
    spectral radius below 1 - ``_STABILITY_MARGIN``.  The returned matrix
    satisfies the equation to a relative Frobenius residual of 1e-10.
    """
    return _gramian(_as_matrix(F, ss), ss)[0]


def _h2_readout(Fm: np.ndarray, Q: np.ndarray, ss: StateSpace) -> H2Report:
    """The three squared H2 norms read off the Gramian Q of the gain Fm."""
    v3 = (np.eye(ss.D_c) - Fm).T @ ss.e_L
    z1 = float(ss.e @ Fm @ Q @ Fm.T @ ss.e)
    z2 = float(ss.e @ Q @ ss.e)
    z3 = float(v3 @ Q @ v3)
    return H2Report(max(z1, 0.0), max(z2, 0.0), max(z3, 0.0))


def h2_norms(F, ss: StateSpace) -> H2Report:
    """Squared H2 norms of the three outputs under feedback F; the mismatch
    row e_L'(I - F) is the backlog that agents leave at their deadline.
    Raises InvalidParamsError when a norm overflows a float."""
    Fm = _as_matrix(F, ss)
    Q = solve_lyapunov(Fm, ss)
    with np.errstate(over="ignore", invalid="ignore"):  # the read-out alone
        rep = _h2_readout(Fm, Q, ss)
    if not all(map(math.isfinite, vars(rep).values())):
        raise InvalidParamsError(f"H2 report of the gain is not finite: {rep}")
    return rep


def make_f_dl_projection(F, ss: StateSpace) -> FeedbackGain:
    """Copy of F with every deadline row replaced by its own unit row."""
    return FeedbackGain(_unit_deadline_rows(_as_matrix(F, ss), ss.L), ss)


def make_f_alpha(alpha: float, ss: StateSpace) -> FeedbackGain:
    """Member of the cross-response class: unit diagonal, uniform off-diagonal
    entries -alpha/(D_c-1) whose magnitudes sum to ``alpha`` per row."""
    if not 0.0 <= alpha <= 1.0:
        raise InvalidParamsError(f"alpha={alpha!r} must lie in [0, 1]")
    D = ss.D_c
    F = np.full((D, D), -alpha / (D - 1) if D > 1 else 0.0)
    np.fill_diagonal(F, 1.0)
    return FeedbackGain(F, ss)


def make_f_br(delta: float, ss: StateSpace) -> FeedbackGain:
    """Boundedly-rational gain: unit deadline rows; other rows have
    diagonal 1-delta and uniform off-diagonal entries -delta/(D_c-1).

    delta in [0, 0.5]; the upper bound keeps the closed loop stable for
    every L.
    """
    if not 0.0 <= delta <= 0.5:
        raise InvalidParamsError(f"delta={delta!r} must lie in [0, 0.5]")
    D = ss.D_c
    F = np.full((D, D), -delta / (D - 1) if D > 1 else 0.0)
    np.fill_diagonal(F, 1.0 - delta)
    return FeedbackGain(_unit_deadline_rows(F, ss.L), ss)


def br_demand_volatility_approx(delta: float, L: int) -> float:
    """Large-L expansion of the demand volatility of the BR class:
    4L((delta-1/2)^2 + (delta-2/3)^2 delta^2)."""
    return 4.0 * L * ((delta - 0.5) ** 2 + (delta - 2.0 / 3.0) ** 2 * delta ** 2)
