"""Monte Carlo simulator: kernel fidelity, determinism, statistical checks."""
import math
import warnings

import numpy as np
import pytest

import oligosched as og
from oligosched import rngstreams, simulate
from conftest import random_stable_gain, spectral_radius, traced_peak

K = simulate._WAVE_MIN_RUNS


def params(q1=1.0, q2=0.6, mu1=0.0, mu2=0.0, s1=1.0, s2=1.0):
    return og.MarketParamsL2(q1, q2, mu1, mu2, s1, s2)


def reference_l2_path(s, p, h1, h2, d1, d2, clamp=False):
    """Plain-python mirror of the market rules, used as a kernel oracle.

    Also returns a per-agent consumption ledger to audit the deadline
    constraint.
    """
    U, X = [], []
    carry = 0.0
    ledger = []  # (workload, total consumed) per flexible agent
    for t in range(len(h1)):
        x = carry + (d1[t] if h1[t] else 0.0)
        if h2[t]:
            u = s(x, d2[t])
            if clamp and u < 0.0:
                u = 0.0
            ledger.append((d2[t], u + (d2[t] - u)))
            carry = d2[t] - u
        else:
            u = 0.0
            carry = 0.0
        U.append(x + u)
        X.append(x)
    return np.array(U), np.array(X), ledger


def l2_loop_oracle(h1, h2, d1, d2, a, b, g, clamp, guard):
    """The former period-by-period loop of ``_l2_kernel``, stopping at the
    first period with |x| > guard: (U, X, that period or -1)."""
    n = h1.shape[0]
    U = np.empty(n)
    X = np.empty(n)
    carry = 0.0
    bad = -1
    for t in range(n):
        x = carry
        if h1[t]:
            x += d1[t]
        if h2[t]:
            u = -a * x + b * d2[t] + g
            if clamp and u < 0.0:
                u = 0.0
            carry = d2[t] - u
        else:
            u = 0.0
            carry = 0.0
        U[t] = x + u
        X[t] = x
        if x > guard or x < -guard:
            bad = t
            break
    return U, X, bad


def l2_draws(p, seed, horizon, rep=0):
    """Replication ``rep``'s (h1, h2, d1, d2) in simulate_l2's draw order."""
    gen = rngstreams.stream(seed, rep)
    h1 = rngstreams.bernoulli(gen, p.q1, horizon)
    h2 = rngstreams.bernoulli(gen, p.q2, horizon)
    d1 = p.mu1 + p.sigma1 * rngstreams.standard_normals([gen], horizon)[0]
    d2 = p.mu2 + p.sigma2 * rngstreams.standard_normals([gen], horizon)[0]
    return h1, h2, d1, d2


def bits(a):
    return np.asarray(a, float).view(np.int64)


def general_kernel_oracle(R1, R2, F, h, d, L, clamp, guard):
    """The former per-replication loop kernel of ``simulate_general``.

    Advances one replication period by period, tracking the existence
    state o with its own recurrence and masking the gain slot by slot.
    Returns (U, sum x, first diverging period or -1).
    """
    n = h.shape[0]
    D = R1.shape[0]
    U = np.empty(n)
    Z2 = np.empty(n)
    x = np.zeros(D)
    o = np.zeros(D)
    u = np.zeros(D)
    bad = -1
    for t in range(n):
        x = R1 @ (x - u) + R2 @ (h[t] * d[t])
        o = R1 @ o + R2 @ h[t]
        u = F @ x
        for i in range(D):
            if o[i] == 0.0:
                u[i] = 0.0
        for i in range(L):
            u[i] = x[i] if o[i] != 0.0 else 0.0
        if clamp:
            for i in range(L, D):
                if u[i] < 0.0:
                    u[i] = 0.0
        s_u = 0.0
        s_x = 0.0
        for i in range(D):
            s_u += u[i]
            s_x += x[i]
        U[t] = s_u
        Z2[t] = s_x
        if s_x > guard or s_x < -guard:
            bad = t
            break
    return U, Z2, bad


def replication_draws(seed, rep, arrival, L, horizon):
    """Replication ``rep``'s (h, d) in simulate_general's draw order."""
    q, mu, sg = arrival.resolved(L)
    gen = rngstreams.stream(seed, rep)
    h = np.empty((horizon, L))
    d = np.empty((horizon, L))
    for l in range(L):
        h[:, l] = rngstreams.bernoulli(gen, q[l], horizon)
    for l in range(L):
        d[:, l] = mu[l] + sg[l] * rngstreams.standard_normals([gen], horizon)[0]
    return h, d


def ulps(got, ref):
    """|got - ref| in units of the last place of ref."""
    return np.abs(got - ref) / np.spacing(np.abs(ref))


class TestNormalQuantile:
    """rngstreams' AS241 inverse normal CDF against scipy.special.ndtri."""

    ULPS = 8  # largest seen: 7 on these 10^7 draws, 6 on log-spaced tails

    def test_draws_within_8_ulp_of_ndtri(self):
        from scipy.special import ndtri

        ours, uniforms = np.random.default_rng(1), np.random.default_rng(1)
        worst = 0.0
        for _ in range(10):  # 10^7 draws, a million at a time
            z = rngstreams.standard_normals([ours], 1_000_000)[0]
            u = np.clip(uniforms.random(1_000_000), rngstreams._U_LO, rngstreams._U_HI)
            worst = max(worst, float(np.max(ulps(z, ndtri(u)))))
        assert worst <= self.ULPS

    def test_clip_bounds_and_region_edges(self):
        from scipy.special import ndtri

        lo, hi = rngstreams._U_LO, rngstreams._U_HI
        central = 0.5 - rngstreams._SPLIT1  # |u - 1/2| = 0.425
        far = math.exp(-rngstreams._SPLIT2 ** 2)  # sqrt(-log u) = 5
        edges = [lo, hi]
        for x in (central, 1.0 - central, far, 1.0 - far):
            edges += [x, np.nextafter(x, 0.0), np.nextafter(x, 1.0)]
        u = np.array(edges)
        z = rngstreams._ndtri(u.copy())
        assert np.all(np.isfinite(z)) and z[0] == -z[1] < -8.0
        assert np.max(ulps(z, ndtri(u))) <= self.ULPS
        # each edge has points of both regions beside it
        q = np.abs(u - 0.5)
        assert {True, False} <= set(q[2:8] > rngstreams._SPLIT1)
        r = np.sqrt(-np.log(np.minimum(u, 1.0 - u)))
        assert {True, False} <= set(r[8:] > rngstreams._SPLIT2)

    def test_reflection_is_exact_where_one_minus_u_is(self):
        # every u is a multiple of 2^-53, so 1 - u is exact; the second set
        # reaches the far tail, sqrt(-log u) > 5
        rng = np.random.default_rng(2)
        u = np.concatenate([
            np.clip(rng.random(1_000_000), rngstreams._U_LO, rngstreams._U_HI),
            np.ldexp(np.floor(np.exp2(rng.uniform(0.0, 50.0, 100_000))), -53),
        ])
        assert np.all(1.0 - (1.0 - u) == u)
        assert np.any(u < math.exp(-rngstreams._SPLIT2 ** 2))
        assert np.array_equal(rngstreams._ndtri(1.0 - u), -rngstreams._ndtri(u.copy()))


    @pytest.mark.parametrize("n", [1, 1023, 1024, 65_537])
    def test_batched_rows_are_one_call_per_generator(self, n):
        # one inverse-CDF pass over all rows gives each row the bits of its
        # own call, wherever the row's values fall in the array
        gens = [rngstreams.stream_at(5, rep, 7) for rep in range(3)]
        rows = rngstreams.standard_normals(gens, n)
        assert rows.shape == (3, n)
        for rep in range(3):
            u = rngstreams.stream_at(5, rep, 7).random(n)
            one = rngstreams._ndtri(np.clip(u, rngstreams._U_LO, rngstreams._U_HI, out=u))
            assert np.array_equal(bits(rows[rep]), bits(one)), rep


class TestKernelFidelity:
    def test_matches_reference_path(self):
        p = params(q1=0.8, q2=0.7, mu1=1.0, mu2=2.0, s1=1.0, s2=1.5)
        s = og.coop_strategy(p)
        cfg = og.SimConfig(horizon=4000, seed=99, keep_series=True)
        stats = og.simulate_l2(s, p, cfg)
        # reconstruct the exact draw sequence of replication 0
        import oligosched.rngstreams as rngs

        gen = rngs.stream(99, 0)
        h1 = rngs.bernoulli(gen, p.q1, 4000)
        h2 = rngs.bernoulli(gen, p.q2, 4000)
        d1 = p.mu1 + p.sigma1 * rngs.standard_normals([gen], 4000)[0]
        d2 = p.mu2 + p.sigma2 * rngs.standard_normals([gen], 4000)[0]
        U, X, ledger = reference_l2_path(s, p, h1, h2, d1, d2)
        assert np.array_equal(stats.series["U"], U)
        assert np.array_equal(stats.series["x_sum"], X)
        # deadline conservation: every flexible agent consumes its workload
        for workload, consumed in ledger:
            assert abs(workload - consumed) <= 1e-9

    def test_clamped_variant_matches_reference(self):
        p = params(q1=1.0, q2=0.8, mu1=0.5, mu2=0.5, s1=2.0, s2=2.0)
        s = og.mpe_strategy(p)
        cfg = og.SimConfig(horizon=4000, seed=5, nonneg_demand=True, keep_series=True)
        stats = og.simulate_l2(s, p, cfg)
        import oligosched.rngstreams as rngs

        gen = rngs.stream(5, 0)
        h1 = rngs.bernoulli(gen, p.q1, 4000)
        h2 = rngs.bernoulli(gen, p.q2, 4000)
        d1 = p.mu1 + p.sigma1 * rngs.standard_normals([gen], 4000)[0]
        d2 = p.mu2 + p.sigma2 * rngs.standard_normals([gen], 4000)[0]
        U, X, ledger = reference_l2_path(s, p, h1, h2, d1, d2, clamp=True)
        assert np.array_equal(stats.series["U"], U)
        for workload, consumed in ledger:
            assert abs(workload - consumed) <= 1e-9


    @pytest.mark.parametrize("clamp", [False, True], ids=["free", "clamped"])
    @pytest.mark.parametrize("q2", [0.0, 0.6, 0.99, 1.0])
    @pytest.mark.parametrize("horizon", [1, K - 1, K, K + 1, 4000])
    def test_waves_match_reference_bitwise(self, horizon, q2, clamp):
        # horizons around K, the fewest runs a numpy wave takes; q2 = 0
        # makes every period a run of its own, q2 = 1 one run of the
        # whole horizon
        p = params(q1=0.8, q2=q2, mu1=1.0, mu2=0.5, s1=1.0, s2=1.5)
        s = og.LinearStrategyL2(0.6, 0.5, -0.3)  # negative u is common
        cfg = og.SimConfig(horizon=horizon, seed=11, nonneg_demand=clamp,
                           keep_series=True)
        stats = og.simulate_l2(s, p, cfg)
        h1, h2, d1, d2 = l2_draws(p, cfg.seed, horizon)
        U, X, _ = reference_l2_path(s, p, h1, h2, d1, d2, clamp=clamp)
        assert np.array_equal(bits(stats.series["U"]), bits(U))
        assert np.array_equal(bits(stats.series["x_sum"]), bits(X))

    @pytest.mark.parametrize("clamp", [False, True], ids=["free", "clamped"])
    def test_long_runs_hand_off_to_the_scalar_tail(self, clamp):
        p = params(q1=0.8, q2=0.99, mu1=1.0, mu2=0.5, s1=1.0, s2=1.5)
        s = og.LinearStrategyL2(0.6, 0.5, -0.3)
        horizon = 20_000
        h1, h2, d1, d2 = l2_draws(p, 12, horizon)
        # runs start at t = 0 and after each h2 = 0; waves stop once fewer
        # than K runs go on, which here leaves some of the longest unfinished
        starts = np.flatnonzero(np.concatenate(([True], h2[:-1] == 0)))
        lengths = np.sort(np.diff(np.append(starts, horizon)))[::-1]
        assert lengths.size >= K and lengths[0] > lengths[K - 1]
        assert np.sum(np.maximum(lengths[:K - 1] - lengths[K - 1], 0)) > 1000
        U, X, bad, _ = simulate._l2_kernel(
            h1, h2, d1, d2, s.a, s.b, s.g, clamp, 1e9, 0.0, np.empty((2, horizon))
        )
        rU, rX, _ = reference_l2_path(s, p, h1, h2, d1, d2, clamp=clamp)
        assert bad == -1
        assert np.array_equal(bits(U), bits(rU))
        assert np.array_equal(bits(X), bits(rX))


class TestChunks:
    """simulate_l2 draws and runs ``_L2_CHUNK`` periods at a time; no chunk
    size changes a value."""

    @pytest.mark.parametrize("clamp", [False, True], ids=["free", "clamped"])
    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_series_match_reference_across_chunks(self, monkeypatch, chunk, clamp):
        # q2 = 1 is one run through every chunk.  At q2 = 0.6 chunks end
        # on h2 = 0, where the carry out must be 0.  The burn-in is longer
        # than a 4,096 chunk and not a multiple of 7 or 4,096.
        monkeypatch.setattr(simulate, "_L2_CHUNK", chunk)
        horizon, burn_in, reps = 10_000, 4100, 2
        keep = horizon - burn_in
        s = og.LinearStrategyL2(0.6, 0.5, -0.3)  # negative u is common
        for q2 in (0.6, 1.0):
            p = params(q1=0.8, q2=q2, mu1=1.0, mu2=0.5, s1=1.0, s2=1.5)
            cfg = og.SimConfig(horizon=horizon, burn_in=burn_in, replications=reps,
                               seed=0, nonneg_demand=clamp, keep_series=True)
            got = og.simulate_l2(s, p, cfg).series
            chunk_ends = []
            for rep in range(reps):
                h1, h2, d1, d2 = l2_draws(p, cfg.seed, horizon, rep)
                U, X, _ = reference_l2_path(s, p, h1, h2, d1, d2, clamp=clamp)
                part = slice(rep * keep, (rep + 1) * keep)
                assert np.array_equal(bits(got["U"][part]), bits(U[burn_in:])), (q2, rep)
                assert np.array_equal(bits(got["x_sum"][part]), bits(X[burn_in:])), (q2, rep)
                assert np.array_equal(got["o_flags"][part], (h1 | h2 << 1)[burn_in:])
                chunk_ends += h2[chunk - 1:horizon - 1:chunk].tolist()
            assert (0 in chunk_ends) == (q2 < 1.0)

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_divergence_in_a_later_chunk(self, monkeypatch, chunk):
        monkeypatch.setattr(simulate, "_L2_CHUNK", chunk)
        p = params(q2=0.6)
        runaway = og.LinearStrategyL2(-3.0, 1.0, 1.0)  # amplifies backlog
        cfg = og.SimConfig(horizon=40_000, seed=2)
        *_, bad = l2_loop_oracle(*l2_draws(p, cfg.seed, cfg.horizon),
                                 runaway.a, runaway.b, runaway.g, False, 1e9)
        assert bad >= 4096  # past the first chunk at every size tested
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(og.NonStationaryError) as info:
                og.simulate_l2(runaway, p, cfg)
        assert f"at period {bad} (replication 0)" in str(info.value)

    def test_peak_memory_is_pooled_outputs_plus_one_chunk(self, monkeypatch):
        # The statistics that follow are left out: they work on the pooled
        # outputs whatever the chunk size.
        pooled = {}
        monkeypatch.setattr(simulate, "_assemble_stats",
                            lambda U, X, flags, c: pooled.update(U=U, X=X, flags=flags))
        p = params(q1=0.6, q2=0.6, mu1=15.0, mu2=15.0, s1=6.0, s2=6.0)
        s, cfg = og.coop_strategy(p), og.SimConfig(horizon=400_000, replications=2, seed=5)
        peak = traced_peak(lambda: og.simulate_l2(s, p, cfg),
                           lambda: og.simulate_l2(s, p, og.SimConfig(horizon=10)))
        outputs = sum(a.nbytes for a in pooled.values())
        assert outputs == 17 * cfg.replications * cfg.horizon
        # about 71 bytes per chunk period are live at once
        assert peak < outputs + 128 * simulate._L2_CHUNK

    def test_peak_memory_with_statistics_is_pooled_outputs_plus_one_chunk(self):
        # the same run with the statistics and two tail thresholds: their
        # scratch space is one group of batches, below the chunk's
        p = params(q1=0.6, q2=0.6, mu1=15.0, mu2=15.0, s1=6.0, s2=6.0)
        s = og.coop_strategy(p)
        cfg = og.SimConfig(horizon=400_000, replications=2, seed=5, tail_thresholds=(45, 50))
        got = []
        peak = traced_peak(lambda: got.append(og.simulate_l2(s, p, cfg)),
                           lambda: og.simulate_l2(s, p, og.SimConfig(horizon=10)))
        assert got[0].conditional is not None and got[0].tail_probs[50] > 0.0
        outputs = 17 * cfg.replications * cfg.horizon
        assert peak < outputs + 128 * simulate._L2_CHUNK


def same_stats(a, b):
    """Bitwise equality of PathStats, treating NaN as equal to itself."""
    def eq(x, y):
        if isinstance(x, float) and isinstance(y, float):
            return (x == y) or (math.isnan(x) and math.isnan(y))
        if isinstance(x, dict):
            return x.keys() == y.keys() and all(eq(x[k], y[k]) for k in x)
        return x == y

    return all(
        eq(getattr(a, f), getattr(b, f))
        for f in ("mean_u", "var_u", "second_u", "mean_x", "second_x",
                  "quantiles", "tail_probs", "mc_stderr", "n_samples")
    )


class TestDeterminism:
    def test_same_seed_bitwise_repeatable(self):
        p = params(q2=0.5)
        s = og.mpe_strategy(p)
        cfg = og.SimConfig(horizon=10_000, replications=2, seed=7)
        a = og.simulate_l2(s, p, cfg)
        b = og.simulate_l2(s, p, cfg)
        assert same_stats(a, b)


class TestStatistics:
    @pytest.mark.parametrize("n", [399, 5_000, 123_457])
    def test_batch_stderr_matches_per_batch_loop(self, n):
        rng = np.random.default_rng(n)
        U = rng.gamma(2.0, 10.0, n)
        X = rng.gamma(2.0, 5.0, n)
        cfg = og.SimConfig(horizon=n, tail_thresholds=(20.0, 50.0))
        st = simulate._assemble_stats(U.copy(), X.copy(), None, cfg)  # may reorder them
        batch_len = max(200, n // 64)
        nb = n // batch_len

        def stderr(fn, series):
            if nb < 2:
                return float("nan")
            vals = np.array([fn(series[i * batch_len:(i + 1) * batch_len])
                             for i in range(nb)])
            return float(np.std(vals, ddof=1) / np.sqrt(nb))

        expected = {
            "mean_u": stderr(np.mean, U),
            "second_u": stderr(np.mean, U * U),
            "var_u": stderr(np.var, U),
            "mean_x": stderr(np.mean, X),
            "second_x": stderr(np.mean, X * X),
            "tail_20": stderr(np.mean, (U > 20.0).astype(float)),
            "tail_50": stderr(np.mean, (U > 50.0).astype(float)),
        }
        for key, want in expected.items():
            got = st.mc_stderr[key]
            assert got == want or (math.isnan(got) and math.isnan(want)), key

    @pytest.mark.parametrize("n", [399, 123_457, 800_001])
    def test_second_moments_match_whole_sample_mean(self, n):
        # summed a group at a time, not in one pairwise pass over the whole
        # sample: the order differs, so agreement is to rounding only
        rng = np.random.default_rng(n)
        U, X = rng.gamma(2.0, 10.0, n), rng.standard_normal(n)
        st = simulate._assemble_stats(U.copy(), X.copy(), None, og.SimConfig(horizon=n))
        assert st.second_u == pytest.approx(np.mean(U * U), rel=1e-13, abs=0.0)
        assert st.second_x == pytest.approx(np.mean(X * X), rel=1e-13, abs=0.0)
        assert (st.mean_u, st.mean_x) == (np.mean(U), np.mean(X))

    def test_independent_sum_variance(self):
        # u = d2 with all agents present: U = d1 + d2, Var = 2
        p = params(q1=1.0, q2=1.0)
        _, none = og.baseline_strategies()
        cfg = og.SimConfig(horizon=200_000, burn_in=100, seed=17)
        stats = og.simulate_l2(none, p, cfg)
        assert abs(stats.var_u - 2.0) <= 3.0 * stats.mc_stderr["var_u"]
        assert stats.var_u == pytest.approx(
            stats.second_u - stats.mean_u ** 2, abs=1e-10
        )

    def test_moments_match_closed_forms(self):
        p = params(q1=0.6, q2=0.6, mu1=15.0, mu2=15.0, s1=6.0, s2=6.0)
        cfg = og.SimConfig(horizon=400_000, burn_in=1000, seed=31)
        for s in (og.coop_strategy(p), og.mpe_strategy(p)):
            stats = og.simulate_l2(s, p, cfg)
            m = og.stationary_moments(s, p)
            assert abs(stats.mean_x - m.mean_x) <= 3 * stats.mc_stderr["mean_x"]
            assert abs(stats.second_x - m.second_x) <= 3 * stats.mc_stderr["second_x"]
            assert abs(stats.second_u - m.second_u) <= 3 * stats.mc_stderr["second_u"]

    def test_independent_draws_reproduce_quantile_crossover(self):
        # Criterion 4's market at q = 0.9, simulated twice: by simulate_l2
        # (criterion 4's own runs for nc and coop) and by the plain-python
        # market mirror fed from numpy's default generator instead of the
        # library's streams.  Both must give the same 0.95 / 0.995
        # quantiles, and so the same crossover: coop below nc in the body,
        # above it in the tail.
        p = og.MarketParamsL2(0.9, 0.9, 15.0, 15.0, 4.0, 4.0)
        horizon, burn_in, n_batches = 400_000, 1000, 64
        levels = (0.95, 0.995)

        def reference_quantiles(s, rng):
            h1 = rng.random(horizon) < p.q1
            h2 = rng.random(horizon) < p.q2
            d1 = p.mu1 + p.sigma1 * rng.standard_normal(horizon)
            d2 = p.mu2 + p.sigma2 * rng.standard_normal(horizon)
            U, _, _ = reference_l2_path(
                s, p, h1.tolist(), h2.tolist(), d1.tolist(), d2.tolist()
            )
            U = U[burn_in:]
            batches = U[: U.size // n_batches * n_batches].reshape(n_batches, -1)
            out = {}
            for lv in levels:
                vals = np.quantile(batches, lv, axis=1)
                se = float(np.std(vals, ddof=1) / math.sqrt(n_batches))
                out[lv] = (float(np.quantile(U, lv)), se)
            return out

        ref, lib = {}, {}
        for i, (name, s) in enumerate(
            (("nc", og.mpe_strategy(p)), ("coop", og.coop_strategy(p)))
        ):
            ref[name] = reference_quantiles(s, np.random.default_rng(40 + i))
            st = og.simulate_l2(
                s,
                p,
                og.SimConfig(
                    horizon=horizon,
                    burn_in=burn_in,
                    seed=1002 + i,
                    quantile_levels=levels,
                ),
            )
            lib[name] = {
                lv: (st.quantiles[lv], st.mc_stderr[f"quantile_{lv:g}"])
                for lv in levels
            }
            for lv in levels:
                (qr, sr), (ql, sl) = ref[name][lv], lib[name][lv]
                assert abs(qr - ql) <= 4.0 * math.hypot(sr, sl), (
                    f"{name} {lv}-quantile: reference {qr:.3f} ± {sr:.3f}, "
                    f"simulate_l2 {ql:.3f} ± {sl:.3f}"
                )
        for run in (ref, lib):
            for lv, sign in ((0.95, -1.0), (0.995, 1.0)):
                (qc, sc), (qn, sn) = run["coop"][lv], run["nc"][lv]
                assert sign * (qc - qn) > 3.0 * math.hypot(sc, sn), (
                    f"{lv}-quantile: coop {qc:.3f} ± {sc:.3f}, "
                    f"nc {qn:.3f} ± {sn:.3f}"
                )

    def test_divergence_guard(self):
        # At q2 = 1 the whole path is one run; at q2 = 0.95 the backlog
        # blows up inside one of the longer runs while others go on; at
        # q2 = 0.999 dozens of runs go on diverging until they overflow.
        cfg = og.SimConfig(horizon=100_000, seed=1)
        for q2, a in ((1.0, -1.5), (0.95, -1.5), (0.999, -3.0)):
            p = params(q2=q2)
            runaway = og.LinearStrategyL2(a, 1.0, 1.0)  # amplifies backlog
            *_, bad = l2_loop_oracle(*l2_draws(p, cfg.seed, cfg.horizon),
                                     runaway.a, runaway.b, runaway.g, False, 1e9)
            assert bad > 0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(og.NonStationaryError) as info:
                    og.simulate_l2(runaway, p, cfg)
            assert f"at period {bad} (replication 0)" in str(info.value), q2


    @pytest.mark.parametrize("horizon, reps", [(100_000, 2), (300, 1)],
                             ids=["batched", "one-batch"])
    def test_quantiles_match_per_level_oracle(self, horizon, reps):
        # 0.995 and 0.999 have too few samples above them per batch to be
        # resolved; at 300 periods there is only one batch
        levels = (0.05, 0.5, 0.95, 0.99, 0.995, 0.999)
        p = params(q2=0.7)
        cfg = og.SimConfig(horizon=horizon, replications=reps, seed=4,
                           quantile_levels=levels, keep_series=True)
        stats = og.simulate_l2(og.coop_strategy(p), p, cfg)
        U = stats.series["U"]
        batch_len = max(200, U.size // (64 * reps))
        nb = U.size // batch_len
        for lv in levels:
            assert bits(stats.quantiles[lv]) == bits(float(np.quantile(U, lv)))
            se = float("nan")
            if (1.0 - lv) * batch_len >= 20 and nb >= 2:
                rows = U[: nb * batch_len].reshape(nb, batch_len)
                vals = np.array([np.quantile(r, lv) for r in rows])
                se = float(np.std(vals, ddof=1) / np.sqrt(nb))
            assert bits(stats.mc_stderr[f"quantile_{lv:g}"]) == bits(se), lv
        assert list(stats.quantiles) == list(levels)


class TestGeneralSimulator:
    def test_l2_encoding_agrees_with_dedicated_path(self, ss2):
        p = params(q1=0.7, q2=0.7)
        s = og.coop_strategy(p)
        F = np.eye(3)
        F[2] = [-s.a, -s.a, s.b]
        cfg_g = og.SimConfig(horizon=400_000, burn_in=500, seed=41)
        cfg_l = og.SimConfig(horizon=400_000, burn_in=500, seed=42)
        sg = og.simulate_general(F, ss2, og.ArrivalSpec(q=(0.7, 0.7)), cfg_g)
        sl = og.simulate_l2(s, p, cfg_l)
        for field in ("mean_u", "second_u"):
            err = 3.0 * math.hypot(
                sg.mc_stderr[field], sl.mc_stderr[field]
            )
            assert abs(getattr(sg, field) - getattr(sl, field)) <= err

    def test_everyone_arrives_matches_gramian(self, ss5):
        br = og.make_f_br(0.3, ss5)
        rep = og.h2_norms(br, ss5)
        cfg = og.SimConfig(horizon=150_000, burn_in=500, replications=2, seed=13)
        stats = og.simulate_general(br, ss5, og.ArrivalSpec(q=(1.0,) * 5), cfg)
        assert abs(stats.var_u - rep.z1sq) <= 3 * stats.mc_stderr["var_u"]
        var_z2 = stats.second_x - stats.mean_x ** 2
        err = 3 * math.hypot(stats.mc_stderr["second_x"], 2 * abs(stats.mean_x) * stats.mc_stderr["mean_x"])
        assert abs(var_z2 - rep.z2sq) <= max(err, 3 * stats.mc_stderr["second_x"])

    def test_identity_gain_keeps_only_fresh_arrivals(self, ss3):
        cfg = og.SimConfig(horizon=120_000, burn_in=100, seed=19)
        stats = og.simulate_general(
            np.eye(6), ss3, og.ArrivalSpec(q=(1.0,) * 3), cfg
        )
        var_z2 = stats.second_x - stats.mean_x ** 2
        assert abs(var_z2 - 3.0) <= 3 * stats.mc_stderr["second_x"]

    @pytest.mark.parametrize("burn_in", [1023, 1024, 1025, 2500])
    def test_burn_in_across_chunks_keeps_the_tail(self, burn_in, ss3):
        # the kept periods are the tail of the run with no burn-in, bit for
        # bit, wherever the burn-in ends against the 1,024-period chunks
        F, arrival = og.make_f_br(0.3, ss3), og.ArrivalSpec(q=(0.7,))
        runs = [og.simulate_general(F, ss3, arrival, og.SimConfig(
            horizon=4000, burn_in=b, replications=2, seed=9, keep_series=True)).series
            for b in (0, burn_in)]
        for key in ("U", "x_sum"):
            full, kept = runs[0][key].reshape(2, -1), runs[1][key].reshape(2, -1)
            assert np.array_equal(bits(kept), bits(full[:, burn_in:])), key

    def test_peak_memory_is_pooled_outputs_plus_one_chunk(self, monkeypatch, ss3):
        # The statistics that follow are left out: they work on the pooled
        # outputs whatever the chunk size.
        pooled = {}
        monkeypatch.setattr(simulate, "_assemble_stats",
                            lambda U, X, flags, c: pooled.update(U=U, X=X))
        F, arrival = og.make_f_br(0.3, ss3), og.ArrivalSpec(q=(0.7,))
        cfg = og.SimConfig(horizon=400_000, burn_in=1000, replications=2, seed=5)
        peak = traced_peak(lambda: og.simulate_general(F, ss3, arrival, cfg),
                           lambda: og.simulate_general(F, ss3, arrival, og.SimConfig(horizon=10)))
        outputs = sum(a.nbytes for a in pooled.values())
        assert outputs == 16 * cfg.replications * (cfg.horizon - cfg.burn_in)
        # about 1,550 bytes per chunk period are live at once, most of them
        # the per-period views
        assert peak < outputs + 2048 * simulate._CHUNK_PERIODS

    def test_peak_memory_with_statistics_is_pooled_outputs_plus_one_chunk(self, ss3):
        # the chunk is gone before the statistics take their scratch space
        F, arrival = og.make_f_br(0.3, ss3), og.ArrivalSpec(q=(0.7,))
        cfg = og.SimConfig(horizon=400_000, burn_in=1000, replications=2, seed=5,
                           tail_thresholds=(3.0,))
        peak = traced_peak(lambda: og.simulate_general(F, ss3, arrival, cfg),
                           lambda: og.simulate_general(F, ss3, arrival, og.SimConfig(horizon=10)))
        outputs = 16 * cfg.replications * (cfg.horizon - cfg.burn_in)
        assert peak < outputs + 2048 * simulate._CHUNK_PERIODS


class TestGeneralVectorized:
    """simulate_general against the loop oracle, replication by replication."""

    @pytest.mark.parametrize("L", [2, 3, 5, 8], ids=lambda L: f"L={L}")
    def test_vectorized_matches_loop_oracle(self, L):
        ss = og.build_state_space(L)
        F = random_stable_gain(ss, np.random.default_rng(L))
        # 5000 periods span several chunks; q = 1 keeps every slot filled
        for q, nonneg, reps in ((0.7, False, 3), (1.0, True, 1),
                                (0.7, True, 3), (1.0, False, 1)):
            arrival = og.ArrivalSpec(q=(q,), mu=(0.5,))
            cfg = og.SimConfig(horizon=5000, burn_in=100, replications=reps,
                               seed=60 + L, nonneg_demand=nonneg, keep_series=True)
            stats = og.simulate_general(F, ss, arrival, cfg)
            n = cfg.horizon - cfg.burn_in
            assert stats.n_samples == reps * n
            for rep in range(reps):
                h, d = replication_draws(cfg.seed, rep, arrival, L, cfg.horizon)
                U, Z2, bad = general_kernel_oracle(
                    ss.R1, ss.R2, F, h, d, L, nonneg, 1e9
                )
                assert bad == -1
                got_u = stats.series["U"][rep * n:(rep + 1) * n]
                got_x = stats.series["x_sum"][rep * n:(rep + 1) * n]
                tol = 1e-12 * max(1.0, np.max(np.abs(U)))
                assert np.max(np.abs(got_u - U[cfg.burn_in:])) <= tol, (q, nonneg, rep)
                assert np.max(np.abs(got_x - Z2[cfg.burn_in:])) <= tol, (q, nonneg, rep)

    @pytest.mark.parametrize("q2, seed", [(0.65, 4), (0.65, 10), (1.0, 0)],
                             ids=["rep1-reported", "rep0-diverges-late", "overflow"])
    def test_general_divergence_guard(self, q2, seed, ss2):
        # u of the flexible slot feeds -3x of its own backlog back:
        # R1 (I - F) has spectral radius 3, and a run of about 19
        # consecutive flexible arrivals pushes |sum x| past the guard.  At
        # q2 = 1 every replication diverges at once and would overflow
        # within the first chunk.
        F = np.eye(3)
        F[2] = [0.0, -3.0, 0.5]
        assert spectral_radius(F, ss2) > 1.0
        arrival = og.ArrivalSpec(q=(0.9, q2))
        cfg = og.SimConfig(horizon=20_000, replications=4, seed=seed)
        first = [
            general_kernel_oracle(
                ss2.R1, ss2.R2, F,
                *replication_draws(seed, rep, arrival, 2, cfg.horizon), 2, False, 1e9,
            )[2]
            for rep in range(cfg.replications)
        ]
        rep = next(r for r, t in enumerate(first) if t >= 0)
        if q2 < 1.0:
            # the serial loop reports the lowest diverging replication,
            # which here is not the one that diverges first
            assert min(t for t in first if t >= 0) < first[rep]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(og.NonStationaryError) as info:
                og.simulate_general(F, ss2, arrival, cfg)
        assert f"at period {first[rep]} (replication {rep})" in str(info.value)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("L, horizon", [(8, 3), (5, 1024), (3, 1025), (2, 2049)])
    def test_short_and_chunk_edge_horizons_match_oracle(self, L, horizon):
        # shorter than the deepest slot's history, exactly one chunk, and
        # one period into a further chunk
        ss = og.build_state_space(L)
        F = random_stable_gain(ss, np.random.default_rng(L))
        arrival = og.ArrivalSpec(q=(0.6,), mu=(0.5,))
        cfg = og.SimConfig(horizon=horizon, replications=2, seed=3, keep_series=True)
        stats = og.simulate_general(F, ss, arrival, cfg)
        for rep in range(2):
            h, d = replication_draws(cfg.seed, rep, arrival, L, horizon)
            U, Z2, _ = general_kernel_oracle(ss.R1, ss.R2, F, h, d, L, False, 1e9)
            tol = 1e-12 * max(1.0, np.max(np.abs(U)))
            got = slice(rep * horizon, (rep + 1) * horizon)
            assert np.max(np.abs(stats.series["U"][got] - U)) <= tol
            assert np.max(np.abs(stats.series["x_sum"][got] - Z2)) <= tol

    def test_stream_at_continues_the_stream(self):
        full = rngstreams.stream(5, 3).random(20_000)
        for offset in (0, 1, 2, 3, 4, 5, 7, 1023, 10_001):
            gen = rngstreams.stream_at(5, 3, offset)
            got = np.concatenate([gen.random(3), gen.random(1024)])
            assert np.array_equal(got, full[offset:offset + 1027]), offset

    def test_same_seed_bitwise_repeatable(self, ss3):
        F = og.make_f_br(0.3, ss3)
        cfg = og.SimConfig(horizon=6000, burn_in=50, replications=2, seed=8,
                           tail_thresholds=(3.0,))
        arrival = og.ArrivalSpec(q=(0.7,))
        a = og.simulate_general(F, ss3, arrival, cfg)
        b = og.simulate_general(F, ss3, arrival, cfg)
        assert same_stats(a, b)


class TestFullMaskBlocks:
    """Full-mask chunks run as block products; the loop oracle still holds."""

    @staticmethod
    def spy(monkeypatch):
        """Periods of each chunk that simulate_general runs as block products."""
        periods = []
        run = simulate._full_mask_chunk

        def counted(blocks, carry, loads):
            periods.append(loads.shape[2])
            return run(blocks, carry, loads)

        monkeypatch.setattr(simulate, "_full_mask_chunk", counted)
        return periods

    @staticmethod
    def near_unit_gain(ss, radius):
        # I - s (I - F0) keeps the unit deadline rows and scales the closed
        # loop R1 (I - F) by s
        F0 = og.make_f_br(0.3, ss).F
        s = radius / spectral_radius(F0, ss)
        F = np.eye(ss.D_c) - s * (np.eye(ss.D_c) - F0)
        assert abs(spectral_radius(F, ss) - radius) < 1e-12
        return F

    @pytest.mark.parametrize("L, horizon, burn_in", [
        (3, 2125, 0),     # a chunk of whole blocks, then 77 periods
        (3, 3072, 1162),  # burn-in ends 10 periods into a block
        (5, 1100, 1030),  # one partial block after the first chunk
    ])
    def test_near_unit_radius_matches_oracle(self, monkeypatch, L, horizon, burn_in):
        periods = self.spy(monkeypatch)
        ss = og.build_state_space(L)
        F = self.near_unit_gain(ss, 1.0 - 5e-4)
        arrival = og.ArrivalSpec(q=(1.0,), mu=(0.5,))
        cfg = og.SimConfig(horizon=horizon, burn_in=burn_in, replications=2, seed=70 + L,
                           keep_series=True)
        stats = og.simulate_general(F, ss, arrival, cfg)
        # every chunk after the first: its first periods have empty slots
        assert sum(periods) == horizon - simulate._CHUNK_PERIODS
        n = horizon - burn_in
        for rep in range(2):
            h, d = replication_draws(cfg.seed, rep, arrival, L, horizon)
            U, Z2, bad = general_kernel_oracle(ss.R1, ss.R2, F, h, d, L, False, 1e9)
            assert bad == -1
            # 1e-12 of each series' own size: near radius 1 with mean load
            # 0.5 the backlog sum is some 600 times U, and even the loop
            # path is 6e-12 from the oracle on it
            got = slice(rep * n, (rep + 1) * n)
            for key, want in (("U", U), ("x_sum", Z2)):
                tol = 1e-12 * max(1.0, np.max(np.abs(want)))
                assert np.max(np.abs(stats.series[key][got] - want[burn_in:])) <= tol, (key, rep)

    def test_divergence_on_the_block_path(self, monkeypatch, ss3):
        # a closed-loop radius of 1.01 crosses the guard after the first
        # chunk, inside the block products
        periods = self.spy(monkeypatch)
        F = self.near_unit_gain(ss3, 1.01)
        arrival = og.ArrivalSpec(q=(1.0,))
        cfg = og.SimConfig(horizon=6000, replications=3, seed=2)
        first = [
            general_kernel_oracle(ss3.R1, ss3.R2, F,
                                  *replication_draws(cfg.seed, rep, arrival, 3, cfg.horizon),
                                  3, False, 1e9)[2]
            for rep in range(cfg.replications)
        ]
        rep = next(r for r, t in enumerate(first) if t >= 0)
        assert first[rep] >= simulate._CHUNK_PERIODS
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(og.NonStationaryError) as info:
                og.simulate_general(F, ss3, arrival, cfg)
        assert f"at period {first[rep]} (replication {rep})" in str(info.value)
        assert periods


class TestSelection:
    """_select against np.quantile (method "linear") and np.median, bit for bit."""

    LEVELS = (1e-9, 0.5, 0.95, 0.999, 1.0 - 1e-9)

    @staticmethod
    def check(a):
        got = simulate._select(a.copy(), TestSelection.LEVELS)
        want = np.quantile(a, TestSelection.LEVELS, axis=-1, method="linear")
        assert got.shape == want.shape
        assert np.array_equal(bits(got), bits(want))
        if a.ndim == 1:
            assert bits(simulate._select(a.copy())) == bits(np.median(a))

    @pytest.mark.parametrize("n", [1, 2, 3, 199, 200, 1_996_000])
    def test_matches_numpy(self, n):
        self.check(np.random.default_rng(n).gamma(2.0, 10.0, n))

    @pytest.mark.parametrize("n", [199, 200, 1_996_000])
    def test_heavy_ties(self, n):
        # values on a 0.5 grid; + 0.0 turns the -0.0 of rounding into +0.0,
        # as numpy and _select may place either zero at a tied rank
        a = np.round(2.0 * np.random.default_rng(n).standard_normal(n)) / 2.0 + 0.0
        assert np.unique(a).size < 30
        self.check(a)

    def test_batch_rows(self):
        rng = np.random.default_rng(4)
        self.check(rng.gamma(2.0, 10.0, (4, 15_593)))
        self.check(np.round(2.0 * rng.standard_normal((3, 200))) / 2.0 + 0.0)

    DEFAULT = og.SimConfig(horizon=1).quantile_levels  # (0.5, 0.95, 0.999)

    @pytest.mark.parametrize("n", [4, 5] + list(range(22, 42)))
    def test_adjacent_lower_indices_upper_part_reversed(self, n):
        # the pooled sizes where one default level's upper index is the next
        # one's lower index; the part above the median comes in descending
        # order (at n = 4: 1, 2, 4, 3), so a partition that leaves it in
        # place leaves its minimum last
        a = np.arange(1.0, n + 1.0)
        a[n // 2:] = a[n // 2:][::-1].copy()
        for rows in (a, np.stack([a, a[::-1].copy()])):
            got = simulate._select(rows.copy(), self.DEFAULT)
            want = np.quantile(rows, self.DEFAULT, axis=-1, method="linear")
            assert np.array_equal(bits(got), bits(want))

    class Unsorted(np.ndarray):
        """An array whose partition leaves each side in reversed order.

        numpy's partition promises only that the values left of kth are no
        larger and those right of it no smaller; some builds sort the small
        parts near kth, which hides a reader that relies on more.
        """

        def partition(self, kth, axis=-1):
            np.ndarray.partition(self, kth, axis=axis)
            left, right = self[..., :kth], self[..., kth + 1:]
            left[...] = left[..., ::-1].copy()
            right[...] = right[..., ::-1].copy()

    @pytest.mark.parametrize("n", [4, 5, 22, 41, 1_000])
    def test_any_partition_order(self, n):
        # the default levels, whose lower indices are adjacent at n = 4, 5
        # and 22-41, and levels with lower indices k, k + 1 and k + 2
        k = (n - 3) // 3
        custom = [(k + j + 0.25) / (n - 1) for j in range(3)]
        rng = np.random.default_rng(n)
        for a in (rng.gamma(2.0, 10.0, n), rng.gamma(2.0, 10.0, (3, n))):
            for levels in (self.DEFAULT, custom):
                got = simulate._select(a.copy().view(self.Unsorted), levels)
                want = np.quantile(a, levels, axis=-1, method="linear")
                assert np.array_equal(bits(got), bits(want)), levels
            got = simulate._select(a.copy().view(self.Unsorted))
            assert np.array_equal(bits(got), bits(np.median(a, axis=-1)))


class TestConditionalTails:
    def test_spikes_live_where_flexibility_is_absent(self):
        p = params(q1=0.9, q2=0.9)
        s = og.coop_strategy(p)
        cfg = og.SimConfig(horizon=600_000, burn_in=1000, seed=23, keep_series=True)
        stats = og.simulate_l2(s, p, cfg)
        sd = math.sqrt(stats.var_u)
        rep = og.conditional_tail_report(
            stats.series["U"],
            (stats.series["o_flags"] & 2) > 0,
            stats.series["x_sum"],
            stats.mean_u + 4.0 * sd,
        )
        gap_err = 3.0 * math.hypot(rep.stderr_absent, rep.stderr_present)
        assert rep.p_spike_absent > rep.p_spike_present + gap_err
        assert rep.p_spike_high_backlog > rep.p_spike_low_backlog

    def test_no_carryover_reverses_the_absence_effect(self):
        # without scheduling the flexible arrival only adds load, so spikes
        # are more likely when it is present
        p = params(q1=0.9, q2=0.9)
        _, none = og.baseline_strategies()
        cfg = og.SimConfig(horizon=400_000, burn_in=1000, seed=29, keep_series=True)
        stats = og.simulate_l2(none, p, cfg)
        sd = math.sqrt(stats.var_u)
        rep = og.conditional_tail_report(
            stats.series["U"],
            (stats.series["o_flags"] & 2) > 0,
            stats.series["x_sum"],
            stats.mean_u + 2.5 * sd,
        )
        assert rep.p_spike_present > rep.p_spike_absent

    @pytest.mark.parametrize("n, present", [(200, 100), (5_000, 1_500), (100_001, 70_000)])
    def test_cells_match_the_mean_of_the_selected_spikes(self, n, present):
        # each cell divides an exact count once, as spike[mask].mean() did;
        # at n = 200 every cell holds exactly 100 samples
        rng = np.random.default_rng(n)
        u, x = rng.standard_normal(n), rng.standard_normal(n)
        flex = rng.permutation(np.arange(n) < present)
        spike, med = u > 0.8, np.median(x)
        rep = og.conditional_tail_report(u, flex, x, 0.8)
        for got, err, mask in ((rep.p_spike_absent, rep.stderr_absent, ~flex),
                               (rep.p_spike_present, rep.stderr_present, flex),
                               (rep.p_spike_high_backlog, rep.stderr_high_backlog, x > med),
                               (rep.p_spike_low_backlog, rep.stderr_low_backlog, x <= med)):
            p = float(spike[mask].mean())
            assert bits(got) == bits(p)
            assert bits(err) == bits(float(np.sqrt(p * (1 - p) / np.count_nonzero(mask))))
        assert (rep.n_absent, rep.n_present) == (n - present, present)

    # the low cell holds at least half the samples, and n >= 200 whenever the
    # absent and present cells pass, so it is never the one refused
    @pytest.mark.parametrize("cell", ["absent", "present", "high"])
    def test_insufficient_samples(self, cell):
        u = np.random.default_rng(0).standard_normal(500)
        flex = np.arange(500) < {"absent": 490, "present": 10, "high": 250}[cell]
        # ten samples above the median of x leave the high cell 10 samples
        x = (np.arange(500) >= 490).astype(float) if cell == "high" else u
        with pytest.raises(og.InsufficientSamplesError,
                           match=f"^conditioning cell '{cell}' has only 10 samples \\(< 100\\)$"):
            og.conditional_tail_report(u, flex, x, 1.0)

    @pytest.mark.parametrize("shapes", [((500,), (499,), (500,)), ((500,), (500,), (2, 500))],
                             ids=["lengths", "2-D-x"])
    def test_refuses_arrays_not_one_dimensional_of_one_length(self, shapes):
        rng = np.random.default_rng(0)
        u, flex, x = (rng.standard_normal(shape) for shape in shapes)
        with pytest.raises(og.InvalidParamsError, match="1-D of one length"):
            og.conditional_tail_report(u, flex > 0, x, 1.0)


class TestInPlaceStatistics:
    """Without keep_series the statistics select quantiles and the median in
    place on the pooled outputs; no caller ever sees them reordered."""

    def test_scratch_is_one_group_of_batches(self):
        # 800,000 pooled samples (6.4 MB a column) in batches of 6,250
        rng = np.random.default_rng(3)
        n = 800_000
        U, X = rng.gamma(2.0, 10.0, n), rng.gamma(2.0, 5.0, n)
        flags = rng.integers(0, 4, n, dtype=np.uint8)
        cfg = og.SimConfig(horizon=n // 2, replications=2, tail_thresholds=(45.0, 50.0))
        small = og.SimConfig(horizon=1000)
        peak = traced_peak(
            lambda: simulate._assemble_stats(U, X, flags, cfg),
            lambda: simulate._assemble_stats(U[:1000].copy(), X[:1000].copy(), flags[:1000], small),
        )
        assert peak < 32 * simulate._L2_CHUNK

    @staticmethod
    def run(general, ss3, keep_series, tail_thresholds=(40.0,)):
        cfg = og.SimConfig(horizon=60_000, burn_in=100, replications=2, seed=11,
                           tail_thresholds=tail_thresholds, keep_series=keep_series)
        if general:
            return og.simulate_general(og.make_f_br(0.3, ss3), ss3,
                                       og.ArrivalSpec(q=(0.7,)), cfg)
        p = params(q1=0.6, q2=0.6, mu1=15.0, mu2=15.0, s1=6.0, s2=6.0)
        return og.simulate_l2(og.coop_strategy(p), p, cfg)

    @pytest.mark.parametrize("general", [False, True], ids=["l2", "general"])
    def test_keep_series_changes_no_statistic(self, general, ss3):
        kept, dropped = (self.run(general, ss3, keep) for keep in (True, False))
        assert same_stats(kept, dropped)
        assert kept.conditional == dropped.conditional
        assert (kept.conditional is None) == general
        assert dropped.series is None

    @pytest.mark.parametrize("general", [False, True], ids=["l2", "general"])
    def test_kept_series_stays_in_time_order(self, monkeypatch, general, ss3):
        pooled = {}
        assemble = simulate._assemble_stats

        def copy_then_assemble(U, X, flags, c):
            pooled.update(U=U.copy(), X=X.copy())
            return assemble(U, X, flags, c)

        monkeypatch.setattr(simulate, "_assemble_stats", copy_then_assemble)
        series = self.run(general, ss3, True).series
        assert np.array_equal(bits(series["U"]), bits(pooled["U"]))
        assert np.array_equal(bits(series["x_sum"]), bits(pooled["X"]))

    @pytest.mark.parametrize("tail_thresholds", [(), (35.0, 40.0)], ids=["4sd", "max-M"])
    def test_conditional_tail_report_leaves_its_arguments(self, tail_thresholds, ss3):
        stats = self.run(False, ss3, True, tail_thresholds)
        u, x = stats.series["U"], stats.series["x_sum"]
        flex = stats.series["o_flags"] >= 2
        before = [a.copy() for a in (u, flex, x)]
        rep = og.conditional_tail_report(u, flex, x, stats.conditional.threshold)
        for arg, was in zip((u, flex, x), before):
            assert np.array_equal(arg, was) and np.array_equal(bits(arg), bits(was))
        assert rep.p_spike_absent > 0.0 and rep.p_spike_high_backlog > 0.0
        for name, got in vars(rep).items():
            want = getattr(stats.conditional, name)
            assert type(got) is type(want) and bits(got) == bits(want), name


class TestConfigValidation:
    def test_bad_configs(self):
        with pytest.raises(og.InvalidParamsError):
            og.SimConfig(horizon=0)
        with pytest.raises(og.InvalidParamsError):
            og.SimConfig(horizon=100, burn_in=100)
        with pytest.raises(og.InvalidParamsError):
            og.SimConfig(horizon=100, replications=0)
        with pytest.raises(og.InvalidParamsError):
            og.SimConfig(horizon=100, quantile_levels=(0.0,))
        for arrival in (og.ArrivalSpec(q=(1.5,)), og.ArrivalSpec(q=(0.5,), sigma=(-1.0,))):
            with pytest.raises(og.InvalidParamsError, match="arrival rates"):
                arrival.resolved(2)

    @pytest.mark.parametrize("field, values, key", [
        ("tail_thresholds", (30.0000001, 30.0000004), "tail_30"),
        ("tail_thresholds", (45.0, 50.0, 45.0), "tail_45"),
        ("quantile_levels", (0.5, 0.95, 0.9500001), "quantile_0.95"),
    ])
    def test_values_with_one_record_key_are_refused(self, field, values, key):
        # each value names an mc_stderr entry, and a second would overwrite it
        with pytest.raises(og.InvalidParamsError, match=f"share the record key {key}$"):
            og.SimConfig(horizon=100, **{field: values})
        og.SimConfig(horizon=100, **{field: values[:-1]})

    def test_series_rows(self):
        p = params(q2=0.5)
        s = og.coop_strategy(p)
        stats = og.simulate_l2(s, p, og.SimConfig(horizon=50, seed=2, keep_series=True))
        assert list(stats.series) == ["t", "U", "x_sum", "o_flags"]
        t, u, x, flags = stats.series.values()
        assert len(t) == len(u) == len(x) == len(flags) == 50
        assert t[0] == 0 and u.dtype == float and x.dtype == float
        assert set(np.unique(flags)) <= set(range(4))
