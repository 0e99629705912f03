"""Closed-form moments, welfare, and tail bounds."""
import math
import time

import numpy as np
import pytest
from scipy.stats import norm

import oligosched as og


def params(q1=1.0, q2=0.6, mu1=0.0, mu2=0.0, s1=1.0, s2=1.0):
    return og.MarketParamsL2(q1, q2, mu1, mu2, s1, s2)


class TestStationaryMoments:
    def test_no_scheduling_collapses_coupling(self):
        p = params(q1=0.7, q2=0.5, mu1=2.0, mu2=3.0, s1=1.0, s2=2.0)
        _, none = og.baseline_strategies()
        m = og.stationary_moments(none, p)
        assert m.mean_x == pytest.approx(0.7 * 2.0, abs=1e-14)
        assert m.second_x == pytest.approx(0.7 * (4.0 + 1.0), abs=1e-14)
        expect_u2 = 0.7 * 5.0 + 0.5 * (9.0 + 4.0) + 2 * 0.7 * 0.5 * 2.0 * 3.0
        assert m.second_u == pytest.approx(expect_u2, abs=1e-12)

    def test_flow_conservation(self):
        p = params(q1=0.8, q2=0.4, mu1=1.5, mu2=-0.5)
        for s in (og.mpe_strategy(p), og.coop_strategy(p)):
            assert og.stationary_moments(s, p).mean_u == pytest.approx(
                0.8 * 1.5 + 0.4 * (-0.5), abs=1e-14
            )

    def test_pole_location(self):
        q2 = 0.9
        a = math.sqrt((1.0 - 1e-9) / q2)
        s = og.LinearStrategyL2(a, 0.5, 0.0)
        m = og.stationary_moments(s, params(q2=q2))
        assert math.isfinite(m.second_x) and m.second_x > 1e6
        s_pole = og.LinearStrategyL2(math.sqrt(1.0 / q2), 0.5, 0.0)
        with pytest.raises(og.NonStationaryError):
            og.stationary_moments(s_pole, params(q2=q2))

    def test_second_ge_mean_squared(self):
        p = params(q1=0.9, q2=0.7, mu1=3.0, mu2=1.0, s1=2.0, s2=0.5)
        for s in (og.mpe_strategy(p), og.coop_strategy(p), *og.baseline_strategies()):
            m = og.stationary_moments(s, p)
            assert m.second_x >= m.mean_x ** 2 - 1e-12
            assert m.second_u >= m.mean_u ** 2 - 1e-12

    def test_monotone_in_coefficients(self):
        # mean and second moment of x rise with a, fall with b and g
        rng = np.random.default_rng(3)
        for _ in range(40):
            p = params(
                q1=rng.uniform(0.2, 1.0),
                q2=rng.uniform(0.1, 0.95),
                mu1=rng.uniform(0.5, 3.0),
                mu2=rng.uniform(0.5, 3.0),
                s1=rng.uniform(0.3, 2.0),
                s2=rng.uniform(0.3, 2.0),
            )
            a = rng.uniform(0.05, 0.9)
            b = rng.uniform(0.0, 0.6)
            g = rng.uniform(0.0, 0.3)
            eps = 1e-5
            m0 = og.stationary_moments(og.LinearStrategyL2(a, b, g), p)
            ma = og.stationary_moments(og.LinearStrategyL2(a + eps, b, g), p)
            mb = og.stationary_moments(og.LinearStrategyL2(a, b + eps, g), p)
            mg = og.stationary_moments(og.LinearStrategyL2(a, b, g + eps), p)
            assert ma.mean_x >= m0.mean_x and ma.second_x >= m0.second_x
            assert mb.mean_x <= m0.mean_x and mb.second_x <= m0.second_x
            assert mg.mean_x <= m0.mean_x and mg.second_x <= m0.second_x


class TestEfficiency:
    def test_definitional_identity(self):
        p = params(q1=0.9, q2=0.6, mu1=2.0, mu2=1.0, s1=1.0, s2=2.0)
        for s in (og.mpe_strategy(p), og.coop_strategy(p), *og.baseline_strategies()):
            m = og.stationary_moments(s, p)
            assert og.efficiency(s, p) == pytest.approx(-0.5 * m.second_u, abs=1e-12)

    def test_architecture_ordering(self):
        p = params(q1=1.0, q2=0.6, mu1=10.0, mu2=10.0, s1=11.0, s2=11.0)
        naive, none = og.baseline_strategies()
        w = {
            "coop": og.efficiency(og.coop_strategy(p), p),
            "nc": og.efficiency(og.mpe_strategy(p), p),
            "naive": og.efficiency(naive, p),
            "none": og.efficiency(none, p),
        }
        assert w["coop"] >= w["nc"] >= w["naive"] >= w["none"]

    def test_anarchy_gap_grows_with_flexibility(self):
        gaps = []
        for q2 in (0.2, 0.5, 0.8):
            p = params(q1=1.0, q2=q2, mu1=10.0, mu2=10.0, s1=11.0, s2=11.0)
            gaps.append(
                og.efficiency(og.coop_strategy(p), p)
                - og.efficiency(og.mpe_strategy(p), p)
            )
        assert gaps[0] > 0
        assert gaps[0] < gaps[1] < gaps[2]


class TestRiskBound:
    def test_condition_exact_arithmetic(self):
        s = og.LinearStrategyL2(0.5, 0.5, 0.0)
        rb = og.risk_upper_bound(s, params(q2=0.5), M=10.0)
        assert rb.condition_holds  # LHS 1 vs RHS 0.2
        assert rb.demand_risk_bound == pytest.approx(0.5 * rb.x_tail_bound, abs=1e-15)

    def test_demand_term_is_q2_times_x_tail_bound(self):
        # the reported demand term is the leading term q2 * x_tail_bound,
        # not a bound on Pr(U > M), and is withheld when the condition fails
        p = params(q1=1.0, q2=0.9, mu1=15.0, mu2=15.0, s1=4.0, s2=4.0)
        cases = [
            (og.mpe_strategy(p), p, 40.0),
            (og.coop_strategy(p), p, 45.0),
            (og.LinearStrategyL2(0.1, 0.9, 0.0), params(q2=0.5), 3.0),
        ]
        holds = []
        for s, q, M in cases:
            rb = og.risk_upper_bound(s, q, M)
            holds.append(rb.condition_holds)
            if rb.condition_holds:
                assert rb.demand_risk_bound == q.q2 * rb.x_tail_bound
            else:
                assert rb.demand_risk_bound is None
        assert holds == [True, True, False]

    def test_bound_formula(self):
        s = og.LinearStrategyL2(0.4, 0.3, 0.1)
        p = params(q2=0.6, mu1=1.0, mu2=2.0, s1=1.0, s2=1.5)
        rb = og.risk_upper_bound(s, p, M=20.0)
        assert rb.x_tail_bound == pytest.approx(
            math.exp(-rb.m1 ** 2 / 2) / (math.sqrt(2 * math.pi) * rb.m1), rel=1e-14
        )

    def test_cooperative_bound_dominates(self):
        p = params(q1=1.0, q2=0.6, mu1=15.0, mu2=15.0, s1=4.0, s2=4.0)
        M = 120.0
        bc = og.risk_upper_bound(og.coop_strategy(p), p, M)
        bn = og.risk_upper_bound(og.mpe_strategy(p), p, M)
        assert bc.x_tail_bound >= bn.x_tail_bound

    def test_margin_and_param_guards(self):
        p = params(q2=0.6, mu1=15.0, mu2=15.0, s1=4.0, s2=4.0)
        s = og.coop_strategy(p)
        with pytest.raises(og.InvalidMarginError):
            og.risk_upper_bound(s, p, M=0.0)
        with pytest.raises(og.InvalidParamsError):
            og.risk_upper_bound(s, params(q1=0.5, q2=0.6), M=50.0)
        with pytest.raises(og.InvalidParamsError, match="must lie in"):
            og.risk_upper_bound(og.LinearStrategyL2(1.0, 0.0, 0.0), p, M=50.0)

    def test_zero_variance_market_is_a_param_error(self):
        # the limiting component has no spread to standardize M against
        p = params(q1=1.0, q2=0.5, s1=0.0, s2=0.0)
        with pytest.raises(og.InvalidParamsError, match="variance"):
            og.risk_upper_bound(og.coop_strategy(p), p, M=1.0)

    def test_bound_covers_simulation(self):
        p = params(q1=1.0, q2=0.6, mu1=15.0, mu2=15.0, s1=4.0, s2=4.0)
        s = og.coop_strategy(p)
        mom = og.stationary_moments(s, p)
        M = mom.mean_x + 6.0 * math.sqrt(mom.var_x)
        rb = og.risk_upper_bound(s, p, M)
        cfg = og.SimConfig(horizon=2_000_000, burn_in=1000, seed=55)
        stats = og.simulate_l2(s, p, cfg)
        series = og.simulate_l2(
            s, p, og.SimConfig(horizon=2_000_000, burn_in=1000, seed=55, keep_series=True)
        ).series
        emp = float(np.mean(series["x_sum"] > M))
        assert rb.x_tail_bound >= emp
        assert stats.n_samples == 2_000_000 - 1000


class TestNormalTail:
    def test_matches_scipy_ndtr(self):
        # on a grid over [-40, 40] and beside both candidate branch points,
        # |x| = sqrt(1/2) and |x| = 1 (z = +-1, +-sqrt 2)
        from scipy.special import ndtr

        z = np.linspace(-40.0, 40.0, 80_001)
        for b in (1.0, math.sqrt(2.0)):
            for edge in (b, -b):
                z = np.append(z, [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 50.0)])
        got = np.array([og.analysis._normal_sf(0.0, v, 1.0) for v in z])
        ref = ndtr(z)
        tiny = np.finfo(float).tiny
        normal = ref >= tiny
        assert np.all(np.abs(got - ref)[normal] <= 1e-15 * (1.0 + z[normal] ** 2) * ref[normal])
        # below z = -37.68 scipy flushes to 0 where libm keeps subnormals
        assert np.all(got[~normal] < tiny) and np.all(z[~normal] < -37.0)


class TestMixture:
    def test_component_endpoints(self):
        p = params(q2=0.6, mu1=2.0, mu2=1.0, s1=1.5, s2=0.5)
        s = og.LinearStrategyL2(0.5, 0.5, 0.0)
        mean0, var0 = og.mixture_component_moments(s, p, 0)
        assert mean0 == pytest.approx(2.0, abs=1e-12)
        assert var0 == pytest.approx(1.5 ** 2, abs=1e-12)
        mean_inf, var_inf = og.mixture_component_moments(s, p, 10_000)
        assert mean_inf == pytest.approx(
            (2.0 + 0.5 * 1.0 - 0.0) / 0.5, abs=1e-10
        )
        assert var_inf == pytest.approx(
            (1.5 ** 2 + 0.25 * 0.25) / (1 - 0.25), abs=1e-10
        )

    def test_components_monotone_in_k(self):
        p = params(q2=0.7, mu1=1.0, mu2=1.0, s1=1.0, s2=1.0)
        s = og.LinearStrategyL2(0.5, 0.5, 0.0)  # (1-b)*mu2 - g = 0.5 >= 0
        prev = og.mixture_component_moments(s, p, 0)
        for k in range(1, 60):
            cur = og.mixture_component_moments(s, p, k)
            assert cur[0] >= prev[0] - 1e-12
            assert cur[1] >= prev[1] - 1e-12
            prev = cur

    def test_mixture_sum_below_bound(self):
        p = params(q2=0.6, mu1=1.0, mu2=1.0, s1=1.0, s2=1.0)
        s = og.LinearStrategyL2(0.5, 0.4, 0.0)
        mean_inf, var_inf = og.mixture_component_moments(s, p, 10 ** 4)
        for M in (mean_inf + 2.0 * math.sqrt(var_inf), mean_inf + 4.0 * math.sqrt(var_inf)):
            mixture = og.mixture_tail_probability(s, p, M)
            rb = og.risk_upper_bound(s, p, M)
            assert mixture <= rb.x_tail_bound
            # the mixture itself dominates its own k=0 slice
            m0, v0 = og.mixture_component_moments(s, p, 0)
            assert mixture >= (1 - p.q2) * norm.sf(M, loc=m0, scale=math.sqrt(v0))

    def test_requires_q1_one_and_valid_a(self):
        p = params(q2=0.6)
        s = og.LinearStrategyL2(0.5, 0.5, 0.0)
        with pytest.raises(og.InvalidParamsError):
            og.mixture_component_moments(s, params(q1=0.9, q2=0.6), 1)
        with pytest.raises(og.InvalidParamsError):
            og.mixture_component_moments(og.LinearStrategyL2(0.0, 0.5, 0.0), p, 1)
        with pytest.raises(og.InvalidParamsError, match="nonnegative"):
            og.mixture_component_moments(s, p, -1)

    def test_q2_zero_is_the_first_component(self):
        # no flexible agent ever arrives, so the backlog is component 0
        p = params(q2=0.0, mu1=1.0, mu2=1.0, s1=1.5, s2=1.0)
        s = og.LinearStrategyL2(0.5, 0.4, 0.0)
        m0, v0 = og.mixture_component_moments(s, p, 0)
        M = m0 + 2.0
        assert og.mixture_tail_probability(s, p, M) == pytest.approx(
            norm.sf(M, loc=m0, scale=math.sqrt(v0)), rel=1e-14)
        # with no load variance component 0 is a point mass: no tail is defined
        p = params(q2=0.0, mu1=1.0, mu2=1.0, s1=0.0, s2=0.0)
        assert math.isnan(og.mixture_tail_probability(s, p, M))

    def test_q2_near_one_stops_in_bounded_time(self):
        # q2 = 1 - 1e-9 would leave mass above _MASS_TOL for 2.8e10 terms;
        # the sum ends once component k equals the limiting one to rounding
        d = 1e-9
        s = og.LinearStrategyL2(0.5, 0.4, 0.0)
        p1 = params(q2=1.0, mu1=1.0, mu2=1.0)
        mean_inf, var_inf = og.mixture_component_moments(s, p1, 10 ** 4)
        M = mean_inf + 2.0 * math.sqrt(var_inf)
        limit = og.mixture_tail_probability(s, p1, M)
        assert limit == pytest.approx(norm.sf(M, mean_inf, math.sqrt(var_inf)), rel=1e-14)
        t0 = time.perf_counter()
        near = og.mixture_tail_probability(s, params(q2=1.0 - d, mu1=1.0, mu2=1.0), M)
        assert time.perf_counter() - t0 < 1.0
        # q2 -> 1 to first order in d: each component k adds d * (sf_k - sf_inf)
        slope = sum(norm.sf(M, m, math.sqrt(v)) - limit
                    for m, v in (og.mixture_component_moments(s, p1, k) for k in range(200)))
        assert near == pytest.approx(limit + d * slope, rel=1e-12)
