"""Monte Carlo simulation of the arrival-driven market.

Simulates the original nonlinear dynamics (Bernoulli arrivals, Gaussian
workloads) for the two-type market under a linear rule, and for general L
under a static feedback gain, producing stationary statistics with
batch-means standard errors, quantiles, tail probabilities, and spike
diagnostics.

Reproducibility contract: replication ``i`` draws from the Philox stream
keyed by ``mix64(seed, i)`` (see rngstreams).  The stream is laid out in
columns of ``horizon`` draws, column j read from ``stream_at(seed, i, j *
horizon)``: for L = 2 the columns are h1, h2, d1 and d2, for general L the
L arrival columns and then the L load columns.  So results are bit-identical
for a given (seed, config), whatever the chunk sizes.  Both simulators are
numpy code that draws and runs the horizon in chunks.  Each holds only its
pooled outputs and one chunk's working set, through the statistics too:
they take their per-batch values a group of batches at a time and select
quantiles and the median in place (a copy per selection with keep_series),
one single-kth partition per level.  Where every slot of a general-L chunk
is filled and demand is not clamped, the market is the linear surrogate
system, and the chunk runs as block products instead of period by period.

For general L, a gain computed for the everyone-arrives world is applied to
the sparse-arrival world by masking: rows and columns of absent agents are
zeroed and existing deadline agents are forced to consume their backlog.
That masking rule is a modeling choice of this library; reports based on it
should say so.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rngstreams
from .errors import InsufficientSamplesError, InvalidParamsError, NonStationaryError
from .statespace import StateSpace, _allocate, _as_matrix, _unit_deadline_rows
from .strategies import LinearStrategyL2, MarketParamsL2

_DIVERGENCE_GUARD = 1e9
# periods simulate_general draws, sums and checks at a time
_CHUNK_PERIODS = 1024
# periods of one block product of simulate_general's full-mask chunks, a
# power of two that divides _CHUNK_PERIODS: so every chunk but the last
# ends on a block boundary
_BLOCK_PERIODS = 64
# periods simulate_l2 draws and runs at a time
_L2_CHUNK = 65_536
# _l2_kernel replays runs in numpy waves while at least this many are active;
# below it a wave's fixed cost exceeds that of the scalar recurrence
_WAVE_MIN_RUNS = 32


@dataclass(frozen=True)
class SimConfig:
    """Simulation run shape and output selection.

    ``horizon`` periods per replication, of which the first ``burn_in`` are
    dropped; ``replications`` independent streams of ``seed`` are pooled.
    ``nonneg_demand`` clamps flexible demand at zero.  The statistics cover
    ``quantile_levels`` and Pr(U > M) for each M in ``tail_thresholds``;
    ``keep_series`` keeps the pooled per-period series.
    """

    horizon: int
    burn_in: int = 0
    replications: int = 1
    seed: int = 0
    nonneg_demand: bool = False
    tail_thresholds: tuple = ()
    quantile_levels: tuple = (0.5, 0.95, 0.999)
    keep_series: bool = False

    def __post_init__(self):
        if not isinstance(self.horizon, (int, np.integer)) or self.horizon <= 0:
            raise InvalidParamsError("horizon must be a positive integer")
        if not isinstance(self.burn_in, (int, np.integer)) or not 0 <= self.burn_in < self.horizon:
            raise InvalidParamsError("burn_in must be an integer with 0 <= burn_in < horizon")
        if not isinstance(self.replications, (int, np.integer)) or self.replications < 1:
            raise InvalidParamsError("replications must be an integer >= 1")
        if not isinstance(self.seed, (int, np.integer)):
            raise InvalidParamsError("seed must be an integer")
        if any(not 0.0 < q < 1.0 for q in self.quantile_levels):
            raise InvalidParamsError("quantile levels must lie strictly in (0, 1)")
        if not np.all(np.isfinite(self.tail_thresholds)):
            raise InvalidParamsError("tail thresholds must be finite")
        # mc_stderr, and the CLI's quantiles and tail_probs, key each value
        # by its %g form; a second value with the same key would overwrite it
        for prefix, values in (("tail", self.tail_thresholds),
                               ("quantile", self.quantile_levels)):
            seen = {}
            for v in values:
                key = f"{prefix}_{v:g}"
                if key in seen:
                    raise InvalidParamsError(
                        f"{prefix} values {seen[key]!r} and {v!r} share the record key {key}")
                seen[key] = v


@dataclass(frozen=True)
class ConditionalTailReport:
    """Tail of U conditioned on flexible-arrival presence and backlog level."""

    threshold: float
    p_spike_absent: float
    p_spike_present: float
    p_spike_high_backlog: float
    p_spike_low_backlog: float
    n_absent: int
    n_present: int
    stderr_absent: float
    stderr_present: float
    stderr_high_backlog: float
    stderr_low_backlog: float


@dataclass(frozen=True)
class PathStats:
    """Pooled stationary statistics of a simulation run.

    ``mc_stderr`` maps statistic names (mean_u, second_u, var_u, mean_x,
    second_x, quantile_<level>, tail_<M>) to batch-means standard errors;
    extreme-quantile entries are NaN when batches are too short to resolve
    them.
    """

    mean_u: float
    var_u: float
    second_u: float
    mean_x: float
    second_x: float
    quantiles: dict
    tail_probs: dict
    mc_stderr: dict
    n_samples: int
    conditional: ConditionalTailReport | None
    series: dict | None = field(repr=False)


def _l2_kernel(h1, h2, d1, d2, a, b, g, clamp, guard, carry_in, out):
    """The two-type recurrence over one chunk: (U, X, first bad period, carry out).

    Period t takes x = carry (+ d1 if h1); a present flexible agent demands
    u = -a x + b d2 + g (zero if ``clamp`` and negative) and carries d2 - u,
    otherwise u = 0 and the carry resets to 0.  So the path splits into
    runs: the first starts at t = 0 with ``carry_in``, each other after
    h2 = 0 with no carry in, and each ends at its first h2 = 0.  Wave 0
    holds every run's first period, wave k + 1 the next period of each run
    still going after wave k.  A wave is one set of elementwise numpy
    operations in the order above, so every value is bit-identical to a
    period-by-period loop.  Once fewer than ``_WAVE_MIN_RUNS`` (K) runs are
    active, each finishes by the scalar recurrence from its carry; a wave
    thus covers at least K periods, and there are at most n / K numpy passes.

    ``bad`` is the first period in time order with |x| > guard, or -1;
    periods after it may be left unset.  The carry out is the carry after
    the last period, 0 when that period has h2 = 0.  ``out``, two rows of
    n, receives U and X.
    """
    n = h1.shape[0]
    U, X = out
    h1 = h1.astype(bool)
    h2 = h2.astype(bool)
    # A diverging run overflows in later waves; the guard reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        idx = np.flatnonzero(np.concatenate(([True], ~h2[:-1])))
        carry = np.zeros(idx.size)
        carry[0] = carry_in
        carry_out = 0.0
        # np.where and np.compress select the same values as masked ufuncs
        # and boolean indexing, at a third of their cost
        while idx.size >= _WAVE_MIN_RUNS:
            x = np.where(h1[idx], carry + d1[idx], carry)
            d2i = d2[idx]
            u = -a * x
            u += b * d2i
            u += g
            if clamp:
                u = np.where(u < 0.0, 0.0, u)
            going = h2[idx]
            u = np.where(going, u, 0.0)
            U[idx] = x + u
            X[idx] = x
            carry = np.compress(going, d2i - u)
            idx = np.compress(going, idx) + 1
            if idx.size and idx[-1] == n:
                carry_out = carry[-1]
                idx, carry = idx[:-1], carry[:-1]
        # the scalar tail: each run left goes on to its first h2 = 0, or to n
        ends = np.flatnonzero(~h2)
        stops = np.append(ends, n - 1)[np.searchsorted(ends, idx)] + 1
        for t, stop, carry in zip(idx.tolist(), stops.tolist(), carry.tolist()):
            for f1, f2, e1, e2 in zip(h1[t:stop].tolist(), h2[t:stop].tolist(),
                                      d1[t:stop].tolist(), d2[t:stop].tolist()):
                x = carry
                if f1:
                    x += e1
                if f2:
                    u = -a * x + b * e2 + g
                    if clamp and u < 0.0:
                        u = 0.0
                    carry = e2 - u
                else:
                    u = 0.0
                    carry = 0.0
                U[t] = x + u
                X[t] = x
                if x > guard or x < -guard:
                    break
                t += 1
            if t == n:  # the run holding the last period finished
                carry_out = carry
        over = np.flatnonzero(np.abs(X) > guard)
    return U, X, int(over[0]) if over.size else -1, carry_out


def _stderr(vals: np.ndarray) -> float:
    if vals.size < 2:
        return float("nan")
    return float(np.std(vals, ddof=1) / np.sqrt(vals.size))


def _select(a: np.ndarray, levels=None) -> np.ndarray:
    """Quantiles of ``a`` along its last axis by selection, reordering ``a``.

    With ``levels`` the result, one row per level, is ``np.quantile(a,
    levels, axis=-1)`` (method "linear") bit for bit; without, it is
    ``np.median(a, axis=-1)``.  numpy partitions once at all the indices
    it needs, plus 0 and -1 for its NaN check, by a multi-kth introselect
    that costs several single-kth passes.  Here the levels go in ascending
    order, each with one single-kth partition, at the lower index of its
    pair, of the part right of the last partition; the upper index is the
    minimum of what lies right of the lower.  That minimum is not moved to
    its index, so a lower index that an earlier pair read as its upper one
    is still partitioned: only a partition places a value.  Equal values
    may land at a rank in another order than numpy's, so where -0.0 and
    +0.0 tie the sign of a zero can differ.  The values must be finite, as
    the divergence guard makes the simulated paths: NaN has no place here.
    """
    n = a.shape[-1]
    if levels is None:
        lower, upper = [(n - 1) // 2], [n // 2]
    else:
        virtual = (n - 1) * np.asarray(levels, float)
        lower = np.floor(virtual)
        top = virtual >= n - 1  # numpy's rule: both bounds index -1
        lower[top] = -1.0
        gamma = virtual - lower
        lower[top] = n - 1
        lower = lower.astype(np.intp).tolist()
        upper = [min(k + 1, n - 1) for k in lower]
    order = {}  # order statistic by index
    lo = 0  # a[..., lo:] holds the ranks from lo up, in no order
    for k, k_up in sorted(set(zip(lower, upper))):
        a[..., lo:].partition(k - lo, axis=-1)
        order[k] = a[..., k].copy()
        if k_up not in order:  # k_up = k + 1
            order[k_up] = a[..., k_up:].min(axis=-1)
        lo = k + 1
    below = np.array([order[k] for k in lower])
    above = np.array([order[k] for k in upper])
    if levels is None:  # numpy's mean of the middle one or two: a sum from +0.0
        return ((0.0 + below[0] + above[0]) / 2) if n % 2 == 0 else 0.0 + below[0]
    # numpy's _lerp
    gamma = gamma.reshape((-1,) + (1,) * (a.ndim - 1))
    diff = above - below
    out = below + diff * gamma
    np.subtract(above, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def _assemble_stats(U, X, flags, cfg: SimConfig) -> PathStats:
    """Pooled statistics of the kept periods U and X (the backlog sum).

    ``flags`` are simulate_l2's arrival bits h1 | h2 << 1, or None.  Besides
    U, X and flags the scratch space is one group of samples, not the
    horizon: per-batch values (means, second moments, variances, quantiles
    and tail indicators) are taken a group of about ``_L2_CHUNK`` samples of
    whole batches at a time, each batch reduced on its own.  The conditional
    cells come from ``_tail_cells``.  Selection (``_select``) comes last:
    the quantiles of U and the median of X are taken in place, so this may
    reorder U and X, unless ``cfg.keep_series`` hands them to the caller;
    then each selection works on its own copy, one at a time.  The batch
    quantiles select on a copy of each group in the squares' scratch buffer.
    """
    n = U.size
    mean_u, mean_x = float(np.mean(U)), float(np.mean(X))
    batch_len = max(200, n // (64 * cfg.replications))
    nb = n // batch_len  # batch means; fewer than two give a nan stderr
    levels, thresholds = list(cfg.quantile_levels), list(cfg.tail_thresholds)
    # batch quantiles resolve a level only with >= 20 samples above it
    resolved = [lv for lv in levels if (1.0 - lv) * batch_len >= 20] if nb >= 2 else []
    # one row per batch statistic: mean_u, second_u, var_u, mean_x,
    # second_x, then the resolved quantiles, then the tails
    per = np.empty((5 + len(resolved) + len(thresholds), nb))
    step = max(1, _L2_CHUNK // batch_len) * batch_len  # samples in a group
    sq = np.empty(min(step, n))
    sum_uu = sum_xx = 0.0
    above = [0] * len(thresholds)

    def batches(a):  # the whole batches of a group, one per row
        return a[:a.size // batch_len * batch_len].reshape(-1, batch_len)

    for lo in range(0, n, step):
        u, x = U[lo:lo + step], X[lo:lo + step]
        ub = batches(u)
        group = per[:, lo // batch_len:lo // batch_len + ub.shape[0]]
        uu = np.multiply(u, u, out=sq[:u.size])
        sum_uu += float(uu.sum())
        group[0], group[1], group[2] = ub.mean(axis=1), batches(uu).mean(axis=1), ub.var(axis=1)
        xx = np.multiply(x, x, out=sq[:x.size])
        sum_xx += float(xx.sum())
        group[3], group[4] = batches(x).mean(axis=1), batches(xx).mean(axis=1)
        if resolved and ub.size:  # selection on a copy: U stays in time order here
            rows = sq[:ub.size].reshape(ub.shape)
            np.copyto(rows, ub)
            group[5:5 + len(resolved)] = _select(rows, resolved)
        for i, M in enumerate(thresholds):
            hit = u > M
            above[i] += np.count_nonzero(hit)
            group[5 + len(resolved) + i] = batches(hit).mean(axis=1)
    second_u, second_x = sum_uu / n, sum_xx / n
    var_u = second_u - mean_u ** 2

    stderr = {k: _stderr(v) for k, v in
              zip(("mean_u", "second_u", "var_u", "mean_x", "second_x"), per)}
    batch_q = dict(zip(resolved, per[5:]))
    for lv in levels:
        stderr[f"quantile_{lv:g}"] = _stderr(batch_q.get(lv, np.array([])))
    tails = {}
    for M, count, vals in zip(thresholds, above, per[5 + len(resolved):]):
        tails[M] = float(count / n)
        stderr[f"tail_{M:g}"] = _stderr(vals)

    own = not cfg.keep_series  # U and X may be reordered
    conditional = None
    if flags is not None:
        thr = max(thresholds) if thresholds else mean_u + 4.0 * np.sqrt(max(var_u, 0.0))
        try:
            conditional = _tail_cells(U, X if own else X.copy(), flags, thr)
        except InsufficientSamplesError:
            pass
    quantiles = dict(zip(levels, _select(U if own else U.copy(), levels).tolist()))

    series = None
    if cfg.keep_series:
        series = {"t": np.arange(n), "U": U, "x_sum": X}
        if flags is not None:
            series["o_flags"] = flags
    return PathStats(
        mean_u=mean_u,
        var_u=var_u,
        second_u=second_u,
        mean_x=mean_x,
        second_x=second_x,
        quantiles=quantiles,
        tail_probs=tails,
        mc_stderr=stderr,
        n_samples=n,
        conditional=conditional,
        series=series,
    )


def simulate_l2(s: LinearStrategyL2, p: MarketParamsL2, c: SimConfig) -> PathStats:
    """Simulate the two-type market under linear rule ``s``.

    Per period: arrivals realize, the backlog x(t) is the fresh inflexible
    load plus the previous flexible agent's leftover, deadline agents
    consume their full backlog, and a present flexible agent demands
    u(x, d2) (clamped at zero when ``nonneg_demand``, with the shortfall
    carried; the deadline consumption is never clamped).  Aggregate demand
    is U(t) = x(t) + u.

    Replication ``rep`` reads h1, h2, d1 and d2 from ``stream_at(seed, rep,
    j * horizon)`` for j = 0, 1, 2, 3.  Draws and kernel go ``_L2_CHUNK``
    periods at a time, the flexible carry passing from chunk to chunk, and
    each chunk's kept periods go straight into the pooled U, X and flags:
    memory is those 17 bytes per kept period plus one chunk's working set,
    the statistics included; the kernel writes every chunk into one buffer.
    Without ``keep_series`` the statistics select in place and leave U and
    X reordered; they are not returned then.
    """
    n, pooled = c.horizon, c.replications * (c.horizon - c.burn_in)
    U, X = _allocate("pooled U", (pooled,)), _allocate("pooled X", (pooled,))
    flags = _allocate("pooled flags", (pooled,), np.uint8)
    chunk = min(_L2_CHUNK, n)
    paths = np.empty((2, chunk))  # the kernel's U and X, for every chunk
    w = 0  # pooled periods written
    for rep in range(c.replications):
        gens = [rngstreams.stream_at(c.seed, rep, j * n) for j in range(4)]
        carry = 0.0
        for t0 in range(0, n, chunk):
            m = min(chunk, n - t0)
            h1 = rngstreams.bernoulli(gens[0], p.q1, m)
            h2 = rngstreams.bernoulli(gens[1], p.q2, m)
            d1, d2 = rngstreams.standard_normals(gens[2:], m)
            d1 *= p.sigma1
            d1 += p.mu1
            d2 *= p.sigma2
            d2 += p.mu2
            u, x, bad, carry = _l2_kernel(
                h1, h2, d1, d2, s.a, s.b, s.g, c.nonneg_demand, _DIVERGENCE_GUARD, carry,
                paths[:, :m],
            )
            if bad >= 0:
                raise NonStationaryError(
                    f"|x| exceeded {_DIVERGENCE_GUARD:g} at period {t0 + bad} "
                    f"(replication {rep}); the strategy does not stabilize the market"
                )
            lo = max(c.burn_in - t0, 0)  # the chunk's first kept period
            end = w + max(m - lo, 0)
            U[w:end], X[w:end] = u[lo:], x[lo:]
            np.left_shift(h2[lo:], 1, out=flags[w:end])
            flags[w:end] |= h1[lo:]
            w = end
    return _assemble_stats(U, X, flags, c)


@dataclass(frozen=True)
class ArrivalSpec:
    """Per-type arrival rates and load moments for the general simulator,
    each one value or L values; mu defaults to 0 and sigma to 1."""

    q: tuple
    mu: tuple | None = None
    sigma: tuple | None = None

    def resolved(self, L: int):
        given = (self.q, 0.0 if self.mu is None else self.mu,
                 1.0 if self.sigma is None else self.sigma)
        try:
            q, mu, sg = (np.broadcast_to(np.asarray(v, float), (L,)).copy() for v in given)
        except ValueError as exc:
            raise InvalidParamsError(f"arrival values must be one or L={L} numbers") from exc
        if not (np.all((q >= 0) & (q <= 1)) and np.all(np.isfinite(mu))
                and np.all((sg >= 0) & (sg < np.inf))):
            raise InvalidParamsError(
                "arrival rates must be in [0,1], means finite, sigmas finite and >= 0")
        return q, mu, sg


def simulate_general(F, ss: StateSpace, arrival: ArrivalSpec, c: SimConfig) -> PathStats:
    """Simulate the L-type market under static feedback ``F``.

    The gain is masked by the existence state each period (absent agents
    demand and receive nothing) and present deadline agents consume their
    backlog regardless of F.  mean_x/second_x refer to the aggregate
    backlog sum.

    All replications advance together as D x R arrays.  Slot (l, tau) is
    occupied at t iff type l arrived at t - (l - tau); with unit deadline
    rows in F, u = (F x) * mask makes deadline agents consume their backlog.
    Draws, sums and the guard go 1,024 periods at a time, each chunk's kept
    sums straight into the pooled, replication-major U and sum x.  A chunk
    runs period by period, unless every slot is filled throughout and
    ``nonneg_demand`` is off (at q = 1, every chunk after the first, whose
    first periods have empty slots): then u = Fp x exactly, and the chunk
    runs as 64-period block products (``_full_mask_chunk``), which agree
    with the period loop to rounding.  Besides the pooled outputs a run
    holds one chunk: 1,024 (3 D + 2 L + 2) R doubles and 0.8 MB of
    per-period views; once a chunk has run as blocks, also the block maps,
    64 (2 D + 128 L + L D) + D^2 doubles (0.2 MB at L = 3, 0.7 MB at L =
    8), and about 1,024 (L + 4) R doubles of block products.  That chunk is
    gone before the statistics take their own scratch space.
    """
    U, Z2 = _general_paths(F, ss, arrival, c)
    return _assemble_stats(U.ravel(), Z2.ravel(), None, c)


def _general_paths(F, ss: StateSpace, arrival: ArrivalSpec, c: SimConfig):
    """simulate_general's pooled U and sum x, each (replications, horizon - burn_in)."""
    L, D, R, n = ss.L, ss.D_c, c.replications, c.horizon
    q, mu, sg = arrival.resolved(L)
    kept = (R, n - c.burn_in)
    U, Z2, bad = _allocate("pooled U", kept), _allocate("pooled sum x", kept), np.full(R, -1)
    # Row i of Z holds z = [x; u of period t0 + i - 1; loads of period t0 +
    # i].  One product per period maps z to [x; Fp x] of period t0 + i,
    # x = R1 (x - u) + R2 loads, into row i + 1, where the mask turns Fp x
    # into u; Fp is F with unit deadline rows.
    Fp = _unit_deadline_rows(_as_matrix(F, ss), L)
    shift = np.hstack([ss.R1, -ss.R1, ss.R2])
    # column-major, which np.dot takes about a fifth faster
    S = np.asfortranarray(np.vstack([shift, Fp @ shift]))
    ones = np.ones(D)
    chunk = min(n, _CHUNK_PERIODS)
    # arrivals: period t0 + i at row i + L - 1
    h = _allocate("arrivals", (chunk + L - 1, L, R), np.uint8, zero=True)
    Z = _allocate("chunk Z", (chunk + 1, 2 * D + L, R), zero=True)
    mask = _allocate("chunk mask", (chunk, D, R))
    # A replication's stream holds n arrivals of each type, then n loads of
    # each type; one generator per column, started at its offset, reads it.
    gens = [[rngstreams.stream_at(c.seed, r, j * n) for r in range(R)] for j in range(2 * L)]
    load_gens = [g for col in gens[L:] for g in col]  # one row each, type-major
    views = [(z, nxt[:2 * D], nxt[D:2 * D], nxt[D + L:2 * D]) for z, nxt in zip(Z, Z[1:])]
    # slot (l, tau) is occupied at t iff type l arrived at t - (l - tau)
    slots = [(L - 1 - l + tau, l - 1) for l, tau in ss.pairs]
    blocks = None  # the block maps, made at the first full-mask chunk
    # The guard reports a diverging replication; overflow warnings from the
    # rest of its chunk would only repeat that.
    with np.errstate(over="ignore", invalid="ignore"):
        for t0 in range(0, n, chunk):
            m = min(chunk, n - t0)
            h[:L - 1] = h[chunk:]  # the last L - 1 periods of the chunk before
            for l in range(L):
                for rep in range(R):
                    h[L - 1:L - 1 + m, l, rep] = rngstreams.bernoulli(gens[l][rep], q[l], m)
            loads = rngstreams.standard_normals(load_gens, m).reshape(L, R, m)
            loads *= sg[:, None, None]
            loads += mu[:, None, None]
            for i, (row, l) in enumerate(slots):
                mask[:m, i] = h[row:row + m, l]
            if not c.nonneg_demand and mask[:m].all():
                # every slot filled, so every load arrived, and no clamp
                if blocks is None:
                    blocks = _block_maps(Fp, ss)
                carry = (Z[0, :D] - Z[0, D:2 * D]).T
                (u_sum, x_sum), Z[0, :D] = _full_mask_chunk(blocks, carry, loads)
                Z[0, D:2 * D] = 0.0
            else:
                Z[:m, 2 * D:] = loads.transpose(2, 0, 1)
                Z[:m, 2 * D:] *= h[L - 1:L - 1 + m]
                for (z, y, u, tail), mk in zip(views[:m], mask):
                    np.dot(S, z, out=y)
                    np.multiply(u, mk, out=u)
                    if c.nonneg_demand:
                        np.maximum(tail, 0.0, out=tail)
                # a product with ones sums the slots of each replication
                xu = Z[1:m + 1, :2 * D]
                u_sum, x_sum = np.matmul(ones, xu[:, D:]).T, np.matmul(ones, xu[:, :D]).T
                Z[0, :2 * D] = Z[m, :2 * D]
            # the chunk's last end - w periods are kept, as pooled columns w:end
            w, end = max(t0 - c.burn_in, 0), max(t0 + m - c.burn_in, 0)
            U[:, w:end], Z2[:, w:end] = u_sum[:, m - end + w:], x_sum[:, m - end + w:]
            over = np.abs(x_sum) > _DIVERGENCE_GUARD
            hit = over.any(axis=1) & (bad < 0)
            bad[hit] = t0 + over[hit].argmax(axis=1)
            if bad[0] >= 0:  # serial order reports the lowest replication
                break
    if np.any(bad >= 0):
        rep = int(np.argmax(bad >= 0))
        raise NonStationaryError(
            f"|sum x| exceeded {_DIVERGENCE_GUARD:g} at period {bad[rep]} "
            f"(replication {rep}); the gain does not stabilize the market"
        )
    return U, Z2


def _block_maps(Fp, ss: StateSpace):
    """The maps of K-period blocks of the full-mask recurrence.

    With every slot filled and no clamp, u = Fp x, so the carry s = x - u
    obeys s' = P s + Q w with P = (I - Fp) R1 and Q = (I - Fp) R2, w being
    the period's loads, and the outputs (U, sum x) are C_s s + C_w w with
    C = [1' Fp; 1'], C_s = C R1 and C_w = C R2.  Over a block of K periods
    from carry s, with loads w_j at its period j, the outputs at period k
    are C_s P^k s plus sum_{j <= k} T_{k-j} w_j, where T_0 = C_w and T_i =
    C_s P^(i-1) Q, and the carry after it is P^K s + sum_j P^(K-1-j) Q w_j.
    Returns (obs, toep, gain, P^K transposed): obs (D, 2K) maps a carry to
    the block's outputs, toep (L K, 2K) and gain (L K, D) map its loads,
    ordered (type, period), to the outputs and the carry; outputs are
    ordered (U or sum x, period).  The K products C_s P^k and P^k Q are
    vector iterations, O(K D^2 L); P^K comes by squaring.
    """
    K, L, D = _BLOCK_PERIODS, ss.L, ss.D_c
    A = np.eye(D) - Fp
    P, Q = A @ ss.R1, A @ ss.R2
    C = np.vstack([Fp.sum(axis=0), np.ones(D)])
    Cs = np.empty((K, 2, D))  # C_s P^k
    PkQ = np.empty((K, D, L))  # P^k Q
    Cs[0], PkQ[0] = C @ ss.R1, Q
    for k in range(1, K):
        Cs[k] = Cs[k - 1] @ P
        PkQ[k] = P @ PkQ[k - 1]
    T = np.concatenate([(C @ ss.R2)[None], Cs[:-1] @ Q])  # T_i, (K, 2, L)
    toep = np.zeros((L, K, 2, K))
    for j in range(K):
        toep[:, j, :, j:] = T[:K - j].transpose(2, 1, 0)
    PK = P
    for _ in range(K.bit_length() - 1):  # K is a power of two
        PK = PK @ PK
    return (Cs.transpose(2, 1, 0).reshape(D, 2 * K), toep.reshape(L * K, 2 * K),
            PkQ[::-1].transpose(2, 0, 1).reshape(L * K, D), PK.T)


def _full_mask_chunk(blocks, carry, loads):
    """A chunk of the full-mask recurrence by block products.

    ``loads`` is (L, R, m), ``carry`` (R, D) the carry before the chunk.
    Returns ((U, sum x), each (R, m)) and the carry after the chunk, (D, R).
    All blocks' outputs come from one product of their loads and one of
    their start carries; only the m / K carry steps between blocks are
    sequential.  A last partial block runs on zero loads past the chunk:
    its extra outputs are dropped, and its carry is wrong, which no one
    reads, since every chunk but the last holds whole blocks.
    """
    obs, toep, gain, PKt = blocks
    L, R, m = loads.shape
    K = toep.shape[1] // 2
    nb = -(-m // K)
    if m < nb * K:
        loads = np.concatenate([loads, np.zeros((L, R, nb * K - m))], axis=2)
    W = loads.reshape(L, R, nb, K).transpose(2, 1, 0, 3).reshape(nb * R, L * K)
    steps = (W @ gain).reshape(nb, R, -1)
    starts = np.empty_like(steps)
    for b in range(nb):
        starts[b] = carry
        carry = carry @ PKt + steps[b]
    out = W @ toep
    out += starts.reshape(nb * R, -1) @ obs
    out = out.reshape(nb, R, 2, K).transpose(2, 1, 0, 3).reshape(2, R, nb * K)
    return out[:, :, :m], carry.T


def conditional_tail_report(
    u: np.ndarray, flex_present: np.ndarray, x: np.ndarray, threshold: float
) -> ConditionalTailReport:
    """Tail Pr(U > threshold) split by flexible presence and backlog level.

    Backlog conditioning splits at the empirical median of x.  Raises
    InvalidParamsError unless the three arrays are 1-D of one length, and
    InsufficientSamplesError when any conditioning cell holds fewer than
    100 samples.  Cell standard errors are binomial (spike events at high
    thresholds are nearly independent).  The arguments are not modified.
    """
    u, flex, x = np.asarray(u, float), np.asarray(flex_present, bool), np.asarray(x, float)
    if u.ndim != 1 or flex.shape != u.shape or x.shape != u.shape:
        raise InvalidParamsError(f"u, flex_present and x must be 1-D of one length; "
                                 f"got shapes {u.shape}, {flex.shape} and {x.shape}")
    return _tail_cells(u, x.copy(), np.left_shift(flex, 1, dtype=np.uint8), threshold)


def _tail_cells(U, X, flags, threshold) -> ConditionalTailReport:
    """The spike cells of U > threshold: flexible arrival absent or present
    (``flags`` >= 2 in simulate_l2's encoding) and backlog X above its median
    or not.  Counts are taken ``_L2_CHUNK`` samples at a time while X is in
    time order; then the median is selected in place, reordering X."""
    n, step = U.size, _L2_CHUNK
    present = spikes = spikes_present = 0
    x_at_spikes = []
    for lo in range(0, n, step):
        spike, flex = U[lo:lo + step] > threshold, flags[lo:lo + step] >= 2
        present += np.count_nonzero(flex)
        spikes += np.count_nonzero(spike)
        spikes_present += np.count_nonzero(spike & flex)
        x_at_spikes.append(X[lo:lo + step][spike])
    med = _select(X)
    high = sum(np.count_nonzero(X[lo:lo + step] > med) for lo in range(0, n, step))
    spikes_high = sum(np.count_nonzero(xs > med) for xs in x_at_spikes)
    fields = {"threshold": float(threshold), "n_absent": n - present, "n_present": present}
    for name, size, hits in (("absent", n - present, spikes - spikes_present),
                             ("present", present, spikes_present),
                             ("high_backlog", high, spikes_high),
                             ("low_backlog", n - high, spikes - spikes_high)):
        if size < 100:
            cell = name.removesuffix("_backlog")
            raise InsufficientSamplesError(
                f"conditioning cell {cell!r} has only {size} samples (< 100)")
        p = fields[f"p_spike_{name}"] = float(hits / size)
        fields[f"stderr_{name}"] = float(np.sqrt(p * (1.0 - p) / size))
    return ConditionalTailReport(**fields)
