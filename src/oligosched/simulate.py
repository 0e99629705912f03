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
quantiles and the median in place (a copy per selection with keep_series).

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
        if self.horizon <= 0:
            raise InvalidParamsError("horizon must be positive")
        if not 0 <= self.burn_in < self.horizon:
            raise InvalidParamsError("burn_in must satisfy 0 <= burn_in < horizon")
        if self.replications < 1:
            raise InvalidParamsError("replications must be >= 1")
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


def _l2_kernel(h1, h2, d1, d2, a, b, g, clamp, guard, carry_in):
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
    the last period, 0 when that period has h2 = 0.
    """
    n = h1.shape[0]
    U = np.empty(n)
    X = np.empty(n)
    h1 = h1.astype(bool)
    h2 = h2.astype(bool)
    # A diverging run overflows in later waves; the guard reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        idx = np.flatnonzero(np.concatenate(([True], ~h2[:-1])))
        carry = np.zeros(idx.size)
        carry[0] = carry_in
        carry_out = 0.0
        while idx.size >= _WAVE_MIN_RUNS:
            x = carry
            np.add(x, d1[idx], out=x, where=h1[idx])
            d2i = d2[idx]
            u = -a * x
            u += b * d2i
            u += g
            if clamp:
                u[u < 0.0] = 0.0
            going = h2[idx]
            u[~going] = 0.0
            U[idx] = x + u
            X[idx] = x
            carry = (d2i - u)[going]
            idx = idx[going] + 1
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


def _assemble_stats(U, X, flags, cfg: SimConfig) -> PathStats:
    """Pooled statistics of the kept periods U and X (the backlog sum).

    ``flags`` are simulate_l2's arrival bits h1 | h2 << 1, or None.  Besides
    U, X and flags the scratch space is one group of samples, not the
    horizon: per-batch values (means, second moments, variances, quantiles
    and tail indicators) are taken a group of about ``_L2_CHUNK`` samples of
    whole batches at a time, each batch reduced on its own.  The conditional
    cells come from counts plus the backlog at spike periods.  Selection
    comes last: the quantiles of U and the median of X are taken in place,
    so this may reorder U and X, unless ``cfg.keep_series`` hands them to
    the caller; then each selection works on its own copy, one at a time.
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
        if resolved and ub.size:
            group[5:5 + len(resolved)] = np.quantile(ub, resolved, axis=1)
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
        present = spikes = spikes_present = 0
        x_at_spikes = []  # the backlog at spike periods, taken while X is in order
        for lo in range(0, n, step):
            spike, flex = U[lo:lo + step] > thr, flags[lo:lo + step] >= 2
            present += np.count_nonzero(flex)
            spikes += np.count_nonzero(spike)
            spikes_present += np.count_nonzero(spike & flex)
            x_at_spikes.append(X[lo:lo + step][spike])
        med = np.median(X, overwrite_input=own)
        high = sum(np.count_nonzero(X[lo:lo + step] > med) for lo in range(0, n, step))
        spikes_high = sum(np.count_nonzero(xs > med) for xs in x_at_spikes)
        try:
            conditional = _tail_report(thr, n, present, high, spikes, spikes_present,
                                       spikes_high)
        except InsufficientSamplesError:
            conditional = None
    quantiles = dict(zip(levels, np.quantile(U, levels, overwrite_input=own).tolist()))

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
    the statistics included.  Without ``keep_series`` the statistics select
    in place and leave U and X reordered; they are not returned then.
    """
    n, pooled = c.horizon, c.replications * (c.horizon - c.burn_in)
    U, X = _allocate("pooled U", (pooled,)), _allocate("pooled X", (pooled,))
    flags = _allocate("pooled flags", (pooled,), np.uint8)
    w = 0  # pooled periods written
    for rep in range(c.replications):
        gens = [rngstreams.stream_at(c.seed, rep, j * n) for j in range(4)]
        carry = 0.0
        for t0 in range(0, n, _L2_CHUNK):
            m = min(_L2_CHUNK, n - t0)
            h1 = rngstreams.bernoulli(gens[0], p.q1, m)
            h2 = rngstreams.bernoulli(gens[1], p.q2, m)
            d1 = p.mu1 + p.sigma1 * rngstreams.standard_normals(gens[2], m)
            d2 = p.mu2 + p.sigma2 * rngstreams.standard_normals(gens[3], m)
            u, x, bad, carry = _l2_kernel(
                h1, h2, d1, d2, s.a, s.b, s.g, c.nonneg_demand, _DIVERGENCE_GUARD, carry
            )
            if bad >= 0:
                raise NonStationaryError(
                    f"|x| exceeded {_DIVERGENCE_GUARD:g} at period {t0 + bad} "
                    f"(replication {rep}); the strategy does not stabilize the market"
                )
            lo = max(c.burn_in - t0, 0)  # the chunk's first kept period
            end = w + max(m - lo, 0)
            U[w:end], X[w:end] = u[lo:], x[lo:]
            flags[w:end] = h1[lo:] | (h2[lo:] << 1)
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
    Draws, sums and the guard go 1,024 periods at a time, each chunk's kept sums
    straight into the pooled, replication-major U and sum x; besides those a
    run holds one chunk: 1,024 (4 D + L + 2) R doubles and 1.2 MB of views.
    That chunk is gone before the statistics take their own scratch space.
    """
    U, Z2 = _general_paths(F, ss, arrival, c)
    return _assemble_stats(U.ravel(), Z2.ravel(), None, c)


def _general_paths(F, ss: StateSpace, arrival: ArrivalSpec, c: SimConfig):
    """simulate_general's pooled U and sum x, each (replications, horizon - burn_in)."""
    L, D, R, n = ss.L, ss.D_c, c.replications, c.horizon
    q, mu, sg = arrival.resolved(L)
    kept = (R, n - c.burn_in)
    U, Z2, bad = _allocate("pooled U", kept), _allocate("pooled sum x", kept), np.full(R, -1)
    # One product per period maps z = [x - u of the last period; fresh
    # loads] to y = [x; Fp x], Fp being F with unit deadline rows.
    Fp = _unit_deadline_rows(_as_matrix(F, ss), L)
    shift = np.hstack([ss.R1, ss.R2])
    S = np.vstack([shift, Fp @ shift])
    chunk = min(n, _CHUNK_PERIODS)
    # arrivals: period t0 + i at row i + L - 1
    h = _allocate("arrivals", (chunk + L - 1, L, R), np.uint8, zero=True)
    Y, mask = _allocate("chunk Y", (chunk, 2 * D, R)), _allocate("chunk mask", (chunk, D, R))
    Z = _allocate("chunk Z", (chunk + 1, D + L, R), zero=True)
    # A replication's stream holds n arrivals of each type, then n loads of
    # each type; one generator per column, started at its offset, reads it.
    gens = [[rngstreams.stream_at(c.seed, r, j * n) for r in range(R)] for j in range(2 * L)]
    views = [(z, y, y[:D], y[D:], y[D + L:], nxt[:D]) for z, y, nxt in zip(Z, Y, Z[1:])]
    rows = np.arange(chunk)[:, None] + [L - 1 - l + tau for l, tau in ss.pairs]
    cols = [l - 1 for l, _ in ss.pairs]
    # The guard reports a diverging replication; overflow warnings from the
    # rest of its chunk would only repeat that.
    with np.errstate(over="ignore", invalid="ignore"):
        for t0 in range(0, n, chunk):
            m = min(chunk, n - t0)
            h[:L - 1] = h[chunk:]  # the last L - 1 periods of the chunk before
            for l in range(L):
                for rep in range(R):
                    h[L - 1:L - 1 + m, l, rep] = rngstreams.bernoulli(gens[l][rep], q[l], m)
                    Z[:m, D + l, rep] = mu[l] + sg[l] * rngstreams.standard_normals(
                        gens[L + l][rep], m)
            Z[:m, D:] *= h[L - 1:L - 1 + m]
            mask[:m] = h[rows[:m], cols]
            for (z, y, top, bot, tail, nxt), mk in zip(views[:m], mask):
                np.dot(S, z, out=y)
                np.multiply(bot, mk, out=bot)
                if c.nonneg_demand:
                    np.maximum(tail, 0.0, out=tail)
                np.subtract(top, bot, out=nxt)
            Z[0, :D] = Z[m, :D]
            u_sum, x_sum = Y[:m, D:].sum(axis=1), Y[:m, :D].sum(axis=1)
            # the chunk's last end - w periods are kept, as pooled columns w:end
            w, end = max(t0 - c.burn_in, 0), max(t0 + m - c.burn_in, 0)
            U[:, w:end], Z2[:, w:end] = u_sum[m - end + w:].T, x_sum[m - end + w:].T
            over = np.abs(x_sum) > _DIVERGENCE_GUARD
            hit = over.any(axis=0) & (bad < 0)
            bad[hit] = t0 + over[:, hit].argmax(axis=0)
            if bad[0] >= 0:  # serial order reports the lowest replication
                break
    if np.any(bad >= 0):
        rep = int(np.argmax(bad >= 0))
        raise NonStationaryError(
            f"|sum x| exceeded {_DIVERGENCE_GUARD:g} at period {bad[rep]} "
            f"(replication {rep}); the gain does not stabilize the market"
        )
    return U, Z2


def conditional_tail_report(
    u: np.ndarray, flex_present: np.ndarray, x: np.ndarray, threshold: float
) -> ConditionalTailReport:
    """Tail Pr(U > threshold) split by flexible presence and backlog level.

    Backlog conditioning splits at the empirical median of x.  Raises
    InsufficientSamplesError when any conditioning cell holds fewer than
    100 samples.  Cell standard errors are binomial (spike events at high
    thresholds are nearly independent).  The arguments are not modified.
    """
    u = np.asarray(u, float)
    flex = np.asarray(flex_present, bool)
    x = np.asarray(x, float)
    spike = u > threshold
    high = x > np.median(x)
    return _tail_report(
        threshold, flex.size, np.count_nonzero(flex), np.count_nonzero(high),
        np.count_nonzero(spike), np.count_nonzero(spike & flex),
        np.count_nonzero(spike & high),
    )


def _tail_report(threshold, n, present, high, spikes, spikes_present, spikes_high):
    """The conditional cells from counts over n samples: flexible arrivals
    present, backlog above its median, spikes, and spikes in each of those."""
    n, present, high, spikes, spikes_present, spikes_high = map(
        int, (n, present, high, spikes, spikes_present, spikes_high))
    cells = {
        "absent": (n - present, spikes - spikes_present),
        "present": (present, spikes_present),
        "high": (high, spikes_high),
        "low": (n - high, spikes - spikes_high),
    }
    probs = {}
    errs = {}
    for name, (size, hits) in cells.items():
        if size < 100:
            raise InsufficientSamplesError(
                f"conditioning cell {name!r} has only {size} samples (< 100)"
            )
        ph = float(hits / size)
        probs[name] = ph
        errs[name] = float(np.sqrt(ph * (1.0 - ph) / size))
    return ConditionalTailReport(
        threshold=float(threshold),
        p_spike_absent=probs["absent"],
        p_spike_present=probs["present"],
        p_spike_high_backlog=probs["high"],
        p_spike_low_backlog=probs["low"],
        n_absent=cells["absent"][0],
        n_present=present,
        stderr_absent=errs["absent"],
        stderr_present=errs["present"],
        stderr_high_backlog=errs["high"],
        stderr_low_backlog=errs["low"],
    )
