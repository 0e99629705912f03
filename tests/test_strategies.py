"""Closed-form strategy constructors: frozen values, oracles, invariants."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import oligosched as og
from conftest import best_response_oracle

Q2_GRID = np.linspace(0.0, 1.0, 101)


def params(q1=1.0, q2=0.6, mu1=0.0, mu2=0.0, s1=1.0, s2=1.0):
    return og.MarketParamsL2(q1, q2, mu1, mu2, s1, s2)


def nc_oracle(p):
    """The former non-cooperative formula, as (a, b, g)."""
    s = math.sqrt(1.0 - p.q2 / 2.0)
    return (1.0 / (2.0 * (1.0 + s)), 1.0 / (1.0 + 1.0 / s),
            (p.q1 * p.mu1 + p.q2 * p.mu2 / (1.0 + s)) / (2.0 * (1.0 + s)))


def coop_oracle(p):
    """The former cooperative formula, as (a, b, g)."""
    s = math.sqrt(1.0 - p.q2)
    return (1.0 / (1.0 + s), 0.0 if p.q2 == 1.0 else 1.0 / (1.0 + 1.0 / s),
            (p.q1 * p.mu1 + p.q2 * p.mu2 / (1.0 + s)) / (1.0 + s))


def k_agent_oracle(p, K):
    """The former K-agent formula, as (a, b, g)."""
    r = K / (K + 1.0)
    s = math.sqrt(1.0 - r * p.q2)
    return (r / (1.0 + s), 1.0 / (1.0 + 1.0 / s) if s > 0.0 else 0.0,
            r / (1.0 + s) * (p.q1 * p.mu1 + p.q2 * p.mu2 / (1.0 + s)))


def rs_branch_oracle(p, rs):
    """The former two-path risk-sensitive solve, as (r1, r2, r3).

    A fixed-sign quadratic formula and a second r1 formula first; when that
    fails its residual test, both roots of the r2 quadratic are formed and
    the smallest admissible one is kept.
    """
    q, beta = p.q2, rs.beta
    T = rs.theta * p.sigma1 ** 2
    c = 1.0 - beta - (1.0 - q) * T
    d = beta + T
    residual = og.strategies._rs_system_residual
    r1 = r2 = None
    if d != 0.0 and c != 0.0:
        arg = 1.0 + 4.0 * (1.0 - q) * d / (c * c)
        if arg >= 0.0:
            r2 = c * (math.sqrt(arg) - 1.0) / (2.0 * d)
            den = 1.0 + T * r2 - beta * (1.0 - r2)
            if den != 0.0:
                r1 = 2.0 * beta * r2 * (1.0 - r2) * (p.mu1 + p.mu2) / den
    if not (
        r1 is not None
        and math.isfinite(r2)
        and math.isfinite(r1)
        and r2 > 0.0
        and 1.0 + T * r2 > 0.0
        and residual(r1, r2, q, beta, T, p.mu1, p.mu2) <= 1e-10
    ):
        if abs(d) < 1e-300:
            roots = [] if c == 0.0 else [(1.0 - q) / c]
        else:
            disc = c * c + 4.0 * d * (1.0 - q)
            sq = math.sqrt(max(disc, 0.0))
            roots = [] if disc < 0.0 else [(-c - sq) / (2.0 * d), (-c + sq) / (2.0 * d)]
        admissible = sorted(r for r in roots if r > 0.0 and 1.0 + T * r > 0.0)
        if not admissible:
            raise og.NoSolutionError("no admissible r2")
        r2 = admissible[0]
        r3 = beta * r2 / (1.0 + T * r2)
        den = 1.0 + r3 - q * r3 / r2
        if den == 0.0:
            raise og.NoSolutionError("degenerate linear equation for r1")
        r1 = 2.0 * q * r3 * (p.mu1 + p.mu2) / den
        if residual(r1, r2, q, beta, T, p.mu1, p.mu2) > 1e-10:
            raise og.NoSolutionError("residual above 1e-10")
    return r1, r2, beta * r2 / (1.0 + T * r2)


def _cardano_roots(c3, c2, c1, c0):
    """Real roots of c3 x^3 + c2 x^2 + c1 x + c0 by Cardano/trig formulas."""
    def cbrt(x):
        return math.copysign(abs(x) ** (1.0 / 3.0), x)

    if abs(c3) < 1e-14:
        if abs(c2) < 1e-14:
            return [] if abs(c1) < 1e-14 else [-c0 / c1]
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc < 0.0:
            return []
        sq = math.sqrt(disc)
        return [(-c1 - sq) / (2.0 * c2), (-c1 + sq) / (2.0 * c2)]
    A, B, C = c2 / c3, c1 / c3, c0 / c3
    pp = B - A * A / 3.0
    qq = 2.0 * A ** 3 / 27.0 - A * B / 3.0 + C
    shift = -A / 3.0
    disc = (qq / 2.0) ** 2 + (pp / 3.0) ** 3
    if disc > 0.0:
        sq = math.sqrt(disc)
        return [shift + cbrt(-qq / 2.0 + sq) + cbrt(-qq / 2.0 - sq)]
    if disc == 0.0:
        if pp == 0.0:
            return [shift]
        return [shift + 3.0 * qq / pp, shift - 3.0 * qq / (2.0 * pp)]
    r = math.sqrt(-(pp ** 3) / 27.0)
    phi = math.acos(min(1.0, max(-1.0, -qq / (2.0 * r))))
    m = 2.0 * math.sqrt(-pp / 3.0)
    return [shift + m * math.cos((phi + 2.0 * math.pi * k) / 3.0) for k in range(3)]


def cardano_oracle(p, gamma):
    """The former Cardano congestion solve, as ((a, b, g), stable root count)."""
    q = p.q2
    c3, c2, c1, c0 = gamma * q, -(1.0 + gamma) * q, 2.0, -(1.0 + gamma) / 2.0
    polished = []
    for a in _cardano_roots(c3, c2, c1, c0):
        d = (3.0 * c3 * a + 2.0 * c2) * a + c1
        if d != 0.0:
            a = a - (((c3 * a + c2) * a + c1) * a + c0) / d
        polished.append(a)
    uniq = []
    for a in sorted(a for a in polished if 0.0 < a < 1.0 and q * a * a < 1.0 and q * a < 1.0):
        if not uniq or a - uniq[-1] > 1e-9:
            uniq.append(a)
    if not uniq:
        raise og.NoStableRootError("no stable root")
    a = uniq[0]
    b = 1.0 - 2.0 * a / (1.0 + gamma)
    t = 2.0 * gamma * a - 1.0 - gamma
    num = ((1.0 - q) * (1.0 + gamma) - q * t * (1.0 - a)) * p.q1 * p.mu1 \
        - q * t * b * p.mu2
    return (a, b, num / (q * t + (1.0 + gamma) / a)), len(uniq)


def _outcome(fn, *args):
    """fn(*args), or the typed no-solution error it raised."""
    try:
        return fn(*args)
    except (og.NoSolutionError, og.NoStableRootError) as exc:
        return exc


def _close(new, old, rel):
    return all(abs(x - y) <= rel * max(abs(y), 1.0) for x, y in zip(new, old))


class TestRatioRule:
    def test_matches_former_formulas(self):
        # 4,515 markets: nc and coop bit for bit, signs of zero included
        for q1, q2, (mu1, mu2) in itertools.product(
            (0.0, 0.3, 1.0), np.linspace(0.0, 1.0, 301),
            ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (2.0, 3.0), (-1.5, 2.5)),
        ):
            p = params(q1=q1, q2=float(q2), mu1=mu1, mu2=mu2)
            for new, old in ((og.mpe_strategy(p), nc_oracle(p)),
                             (og.coop_strategy(p), coop_oracle(p))):
                assert [(v, math.copysign(1.0, v)) for v in (new.a, new.b, new.g)] \
                    == [(v, math.copysign(1.0, v)) for v in old], p
            for K in (1, 2, 3, 7, 100, 10 ** 6):
                k = og.k_agent_strategy(p, K)
                assert _close((k.a, k.b, k.g), k_agent_oracle(p, K), 1e-15), (p, K)


class TestMpeStrategy:
    def test_q2_zero_direct_substitution(self):
        s = og.mpe_strategy(params(q1=1.0, q2=0.0, mu1=4.0))
        assert s.a == 0.25
        assert s.b == 0.5
        assert s.g == 1.0

    def test_q2_one_upper_endpoint(self):
        s = og.mpe_strategy(params(q2=1.0))
        assert s.a == pytest.approx(0.29289321881345254, abs=1e-12)

    def test_best_response_oracle(self):
        p = params(q2=0.75)
        s = og.mpe_strategy(p)
        for x, d2 in ((1.3, -0.4), (0.0, 2.0), (-2.1, 0.7)):
            assert best_response_oracle(x, d2, s, p) == pytest.approx(
                s(x, d2), abs=1e-4
            )

    def test_best_response_oracle_with_means(self):
        p = params(q1=0.8, q2=0.6, mu1=2.0, mu2=3.0, s1=1.0, s2=1.5)
        s = og.mpe_strategy(p)
        for x, d2 in ((1.3, -0.4), (4.0, 2.0)):
            assert best_response_oracle(x, d2, s, p) == pytest.approx(
                s(x, d2), abs=1e-9
            )


class TestCoopStrategy:
    def test_exact_arithmetic(self):
        s0 = og.coop_strategy(params(q2=0.0))
        assert (s0.a, s0.b) == (0.5, 0.5)
        s = og.coop_strategy(params(q2=0.75))
        assert s.a == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert s.b == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_q2_one_analytic_limit(self):
        s = og.coop_strategy(params(q2=1.0, mu1=2.0, mu2=3.0))
        assert (s.a, s.b) == (1.0, 0.0)
        assert s.g == pytest.approx(2.0 + 3.0, abs=1e-14)

    def test_simulated_cost_beats_perturbations(self):
        # common random numbers make the paired cost differences sharp
        p = params(q2=0.6, mu1=1.0, mu2=1.0)
        s = og.coop_strategy(p)
        cfg = og.SimConfig(horizon=120_000, burn_in=500, replications=4, seed=1234)
        base = og.simulate_l2(s, p, cfg)
        for da, db, dg in (
            (1.1, 1, 1), (0.9, 1, 1), (1, 1.1, 1), (1, 0.9, 1), (1, 1, 1.1), (1, 1, 0.9),
        ):
            pert = og.LinearStrategyL2(s.a * da, s.b * db, s.g * dg)
            other = og.simulate_l2(pert, p, cfg)
            err = 3.0 * math.hypot(
                base.mc_stderr["second_u"], other.mc_stderr["second_u"]
            )
            assert base.second_u <= other.second_u + err


class TestCoopValue:
    def test_trivial_endpoints(self):
        v = og.coop_value(params(q2=0.0))
        assert (v.A_c, v.B_c) == (1.0, 0.0)
        v = og.coop_value(params(q2=0.75, mu1=1.0, mu2=1.0))
        assert v.A_c == pytest.approx(0.5, abs=1e-15)
        assert v.B_c == pytest.approx(2.0, abs=1e-15)

    def test_strategy_matches_value_function_form(self):
        # the value-function derivation fixes q1 = 1; a and b are free of q1
        rng = np.random.default_rng(7)
        for _ in range(25):
            q2 = rng.uniform(0.0, 0.999)
            mu1, mu2 = rng.uniform(-3, 3, size=2)
            p = params(q1=1.0, q2=q2, mu1=mu1, mu2=mu2)
            s = og.coop_strategy(p)
            v = og.coop_value(p)
            a_alt = 1.0 / (1.0 + v.A_c)
            b_alt = v.A_c / (1.0 + v.A_c)
            g_alt = v.A_c * mu1 / (1.0 + v.A_c) + v.B_c / (2.0 * (1.0 + v.A_c))
            assert abs(s.a - a_alt) <= 1e-12
            assert abs(s.b - b_alt) <= 1e-12
            assert abs(s.g - g_alt) <= 1e-12


class TestKAgent:
    P = params(q2=0.75, mu1=2.0, mu2=3.0)

    def test_k1_is_noncooperative(self):
        s1 = og.k_agent_strategy(self.P, 1)
        s = og.mpe_strategy(self.P)
        assert max(abs(s1.a - s.a), abs(s1.b - s.b), abs(s1.g - s.g)) <= 1e-12

    def test_large_k_approaches_cooperative(self):
        sk = og.k_agent_strategy(self.P, 10 ** 8)
        sc = og.coop_strategy(self.P)
        assert max(abs(sk.a - sc.a), abs(sk.b - sc.b), abs(sk.g - sc.g)) <= 1e-6

    def test_k2_exact_substitution(self):
        s = og.k_agent_strategy(params(q2=0.75), 2)
        assert s.a == pytest.approx((2.0 / 3.0) / (1.0 + math.sqrt(0.5)), abs=1e-14)

    def test_monotone_toward_cooperative(self):
        a_prev = -1.0
        a_coop = og.coop_strategy(self.P).a
        for K in (1, 2, 3, 5, 10, 100, 10 ** 4):
            a = og.k_agent_strategy(self.P, K).a
            assert a >= a_prev
            assert a <= a_coop + 1e-12
            a_prev = a

    def test_rejects_nonpositive_k(self):
        with pytest.raises(og.InvalidParamsError):
            og.k_agent_strategy(self.P, 0)


class TestRiskSensitive:
    def test_theta_zero_quadratic_oracle(self):
        # independent: solve beta*r^2 + (1-beta)*r - (1-q) = 0 directly
        for beta, q in ((0.5, 0.5), (0.9, 0.3), (0.2, 0.8)):
            p = params(q1=1.0, q2=q)
            c = og.risk_sensitive_coeffs(p, og.RiskSensitivity(0.0, beta))
            roots = np.roots([beta, 1.0 - beta, -(1.0 - q)])
            r2_oracle = max(r.real for r in roots if abs(r.imag) < 1e-12)
            assert abs(c.r2 - r2_oracle) <= 1e-12

    def test_neutral_undiscounted_limit_is_cooperative(self):
        p = params(q1=1.0, q2=0.5)
        rs = og.RiskSensitivity(0.0, 1.0 - 1e-8)
        c = og.risk_sensitive_coeffs(p, rs)
        assert c.r3 == pytest.approx(math.sqrt(0.5), abs=1e-3)
        s = og.risk_sensitive_strategy(p, rs)
        sc = og.coop_strategy(p)
        assert abs(s.a - sc.a) <= 1e-3
        assert abs(s.b - sc.b) <= 1e-3

    def test_implicit_system_residual(self):
        p = params(q1=1.0, q2=0.5, mu1=1.0, mu2=2.0)
        c = og.risk_sensitive_coeffs(p, og.RiskSensitivity(-0.1, 0.5))
        assert c.system_residual <= 1e-10
        assert c.r2 > 0
        assert c.r3 == pytest.approx(0.5 * c.r2 / (1.0 - 0.1 * c.r2), abs=1e-14)
        # r2 = 0 or 1 + T*r2 <= 0 is outside the system's domain; a root
        # that passed the selection never gets here: r2 > 0, and s2 > 16 eps
        # (1 + |T*r2|) keeps the computed 1 + T*r2 positive
        residual = og.strategies._rs_system_residual
        assert residual(0.0, 0.0, 0.5, 0.5, -0.1, 1.0, 2.0) == math.inf
        assert residual(0.0, 0.5, 0.5, 0.5, -2.0, 1.0, 2.0) == math.inf

    def test_certificate_scales_r1_with_the_means(self):
        # r1 = 6.25e6 here, and one ulp of it (9.3e-10) failed the former
        # absolute 1e-10 test
        p = params(q1=1.0, q2=0.5, mu1=1e7, mu2=1e7)
        c = og.risk_sensitive_coeffs(p, og.RiskSensitivity(-0.1, 0.5))
        assert c.system_residual <= 1e-10
        # r1 = k (2 mu1 + 2 mu2 + r1/r2), k = (q2/w) beta r2/(1 + T r2),
        # solved exactly at the returned r2
        q, beta, T, r2 = (Fraction(v) for v in (0.5, 0.5, -0.1, c.r2))
        den = 1 + T * r2
        k = q / (1 + beta * r2 / den) * beta * r2 / den
        assert c.r1 == pytest.approx(float(4 * Fraction(1e7) * k / (1 - k / r2)), rel=1e-14)
        # an r1 off by 1e-8 relative is still refused
        residual = og.strategies._rs_system_residual
        assert residual(c.r1 * (1 + 1e-8), c.r2, 0.5, 0.5, -0.1, 1e7, 1e7) > 1e-10

    def test_late_no_solution_errors(self, monkeypatch):
        # at a root of the system the r1 equation's coefficient is
        # (1 - q2)(1 + r3)/r2 > 0, so no input makes it 0: patched roots
        # force it; a patched residual forces the certificate's failure
        p = params(q1=1.0, q2=0.5, mu1=1.0, mu2=2.0)
        rs = og.RiskSensitivity(-0.1, 0.5)
        roots = iter([[0.25], [0.125]])  # r2, s2 with 1 + r3 = q2*r3/r2, r3 = 1
        with monkeypatch.context() as m:
            m.setattr(og.strategies, "_exact_quadratic_roots", lambda *args: next(roots))
            with pytest.raises(og.NoSolutionError, match="degenerate linear equation"):
                og.risk_sensitive_coeffs(p, rs)
        monkeypatch.setattr(og.strategies, "_rs_system_residual", lambda *args: 2e-10)
        with pytest.raises(og.NoSolutionError, match="residual 2.000e-10"):
            og.risk_sensitive_coeffs(p, rs)

    def test_large_theta_selects_admissible_root(self):
        # at large positive theta the root a fixed-sign quadratic formula
        # picks is negative; the selection keeps the positive one
        p = params(q1=1.0, q2=0.5, mu1=1.0, mu2=1.0)
        c = og.risk_sensitive_coeffs(p, og.RiskSensitivity(2.0, 0.5))
        assert c.r2 == pytest.approx(0.558257569495584, abs=1e-14)
        assert c.system_residual <= 1e-10

    def test_q2_zero_root_is_exact(self):
        # -0.45 r^2 + 1.45 r - 1 = 0 has the root 1 exactly, and r1 carries
        # the factor q2
        p = params(q1=1.0, q2=0.0, mu1=1.0, mu2=2.0, s1=0.5)
        c = og.risk_sensitive_coeffs(p, og.RiskSensitivity(-2.0, 0.05))
        assert c.r1 == 0.0
        assert c.r2 == 1.0

    def test_near_double_root_raises(self):
        # at T = -1 the admissible root has s = 1 + T*r2 = (q2 - beta)/(1 - beta),
        # about 2.2e-15 here, so r3 = beta*r2/s (true value about 4.28e14)
        # would come from a cancelled s, and the residual certificate reads 0
        p = params(q1=1.0, q2=np.linspace(0.0, 1.0, 21)[19])
        with pytest.raises(og.NoSolutionError, match="within rounding of 0"):
            og.risk_sensitive_coeffs(p, og.RiskSensitivity(-1.0, 0.95))
        # at q2 = beta itself both roots are r = 1, s = 0: none is admissible
        with pytest.raises(og.NoSolutionError, match="no positive coefficient"):
            og.risk_sensitive_coeffs(params(q1=1.0, q2=0.95), og.RiskSensitivity(-1.0, 0.95))
        # away from the double root the same branch stays accurate
        p = params(q1=1.0, q2=0.96)
        c = og.risk_sensitive_coeffs(p, og.RiskSensitivity(-1.0, 0.95))
        assert c.r2 == pytest.approx(0.8, rel=1e-14)
        assert c.r3 == pytest.approx(0.95 * 0.8 / 0.2, rel=1e-14)

    @pytest.mark.parametrize("delta", [1e-14, 1e-12, 1e-10, 1e-9, 1e-8, 1e-6])
    def test_r3_exact_next_to_double_root(self, delta):
        # at T = -1 the roots are r = 1 (s = 0) and r2 = (1 - q2)/(1 - beta)
        # with s = (q2 - beta)/(1 - beta); in rationals of the float inputs
        q2, beta = 0.95 + delta, 0.95
        r2 = (1 - Fraction(q2)) / (1 - Fraction(beta))
        s = (Fraction(q2) - Fraction(beta)) / (1 - Fraction(beta))
        r3 = Fraction(beta) * r2 / s
        c = og.risk_sensitive_coeffs(params(q1=1.0, q2=q2), og.RiskSensitivity(-1.0, beta))
        assert c.r2 == pytest.approx(float(r2), rel=1e-15)
        assert c.r3 == pytest.approx(float(r3), rel=1e-14)

    def test_branch_oracle_grid(self):
        # T = theta*sigma1^2 = -1 makes r2 = 1 a root with 1 + T*r2 = 0, and
        # at q2 = 1 the linear equation for r1 vanishes; the oracle decides
        # both by rounding, so they are asserted exactly instead
        accepted = 0
        for q2, beta, theta, s1, mu1, mu2 in itertools.product(
            np.linspace(0.0, 1.0, 21),
            (0.05, 0.2, 0.5, 0.8, 0.95, 1.0 - 1e-8),
            (-5, -2, -1, -0.5, -0.2, -0.1, -1e-3, 0, 1e-3, 0.1, 0.5, 1, 2, 5, 20),
            (0.5, 1.0, 3.0), (0.0, 1.0, -2.0), (0.0, 2.0),
        ):
            T = theta * s1 ** 2
            p = params(q1=1.0, q2=q2, mu1=mu1, mu2=mu2, s1=s1)
            rs = og.RiskSensitivity(theta, beta)
            new = _outcome(og.risk_sensitive_coeffs, p, rs)
            accepted += not isinstance(new, Exception)
            if T == -1.0:
                # the roots are 1 (s = 0) and (1 - q2)/(1 - beta), whose
                # s = (q2 - beta)/(1 - beta) is within rounding of 0 at
                # q2 = 0.9500000000000001, beta = 0.95
                if q2 <= beta or q2 == 1.0 or (q2 - beta) / (1.0 - beta) < 1e-14:
                    assert isinstance(new, og.NoSolutionError), (p, rs)
                else:
                    assert new.r2 == pytest.approx((1.0 - q2) / (1.0 - beta), rel=1e-14)
                continue
            if q2 == 1.0:
                # the one nonzero root, (1 - beta)/-(beta + T), has r2 > 0 and
                # s = beta*(1 + T)/(beta + T) > 0 only for T < -1
                if T < -1.0 and mu1 + mu2 == 0.0:
                    assert new.r1 == 0.0, (p, rs)
                    assert new.r2 == pytest.approx((1.0 - beta) / -(beta + T), rel=1e-14)
                else:
                    assert isinstance(new, og.NoSolutionError), (p, rs)
                continue
            old = _outcome(rs_branch_oracle, p, rs)
            assert isinstance(new, Exception) == isinstance(old, Exception), (p, rs)
            c = 1.0 - beta - (1.0 - q2) * T
            if isinstance(new, Exception) or abs(c * c + 4.0 * (beta + T) * (1.0 - q2)) < 1e-9:
                continue
            assert _close((new.r1, new.r2, new.r3), old, 1e-12), (p, rs)
        # the oracle shares the certificate; this count is the one an
        # absolute r1 residual gave, so scaling it moved no grid point
        assert accepted == 26604

    def test_no_solution_band(self):
        p = params(q1=1.0, q2=0.5)
        with pytest.raises(og.NoSolutionError):
            og.risk_sensitive_coeffs(p, og.RiskSensitivity(-2.0, 0.5))

    def test_requires_q1_one(self):
        with pytest.raises(og.InvalidParamsError):
            og.risk_sensitive_coeffs(params(q1=0.5), og.RiskSensitivity(0.0, 0.5))

    def test_risk_neutral_limit_is_cooperative(self):
        p0 = params(q1=1.0, q2=0.5)
        s = og.risk_sensitive_strategy(p0, og.RiskSensitivity(-0.1, 0.6))
        assert s.g == 0.0  # zero-mean market has no constant term
        rs = og.RiskSensitivity(0.0, 1.0 - 1e-6)
        for q2, mu1, mu2 in ((0.5, 1.0, 0.0), (0.5, 1.0, 1.0), (0.8, 2.0, -1.0)):
            p = params(q1=1.0, q2=q2, mu1=mu1, mu2=mu2)
            w_coop = og.efficiency(og.coop_strategy(p), p)
            w_rs = og.efficiency(og.risk_sensitive_strategy(p, rs), p)
            assert w_rs == pytest.approx(w_coop, rel=1e-9, abs=0.0), (q2, mu1, mu2)

    def test_averse_agent_trims_the_tail(self):
        p = params(q1=1.0, q2=0.5)
        neutral = og.risk_sensitive_strategy(p, og.RiskSensitivity(0.0, 0.9))
        averse = og.risk_sensitive_strategy(p, og.RiskSensitivity(-0.2, 0.9))
        assert averse.a != neutral.a
        cfg = og.SimConfig(
            horizon=400_000, burn_in=500, seed=77, quantile_levels=(0.999,)
        )
        q_neutral = og.simulate_l2(neutral, p, cfg).quantiles[0.999]
        q_averse = og.simulate_l2(averse, p, cfg).quantiles[0.999]
        assert q_averse <= q_neutral


class TestCongestion:
    def test_gamma_zero_is_noncooperative(self):
        for q1, q2 in ((1.0, 0.6), (0.7, 0.6), (1.0, 0.95), (0.3, 0.2)):
            p = params(q1=q1, q2=q2, mu1=2.0, mu2=3.0)
            sg = og.congestion_strategy(p, 0.0)
            s = og.mpe_strategy(p)
            assert max(abs(sg.a - s.a), abs(sg.b - s.b), abs(sg.g - s.g)) <= 1e-12

    def test_gamma_one_near_but_not_cooperative(self):
        p = params(q1=1.0, q2=0.5)
        sg = og.congestion_strategy(p, 1.0)
        sc = og.coop_strategy(p)
        assert abs(sg.a - sc.a) > 1e-3

    def test_bisection_oracle(self):
        gamma, q = 0.5, 0.8
        p = params(q1=1.0, q2=q)
        s = og.congestion_strategy(p, gamma)

        def poly(a):
            return gamma * q * a ** 3 - (1 + gamma) * q * a ** 2 + 2 * a - (1 + gamma) / 2

        assert abs(poly(s.a)) <= 1e-12
        lo, hi = 1e-9, 1.0 - 1e-9
        assert poly(lo) * poly(hi) < 0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if poly(lo) * poly(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert s.a == pytest.approx(0.5 * (lo + hi), abs=1e-10)

    def test_best_response_oracle(self):
        p = params(q1=1.0, q2=0.8, mu1=2.0, mu2=3.0, s1=1.0, s2=1.5)
        s = og.congestion_strategy(p, 0.5)
        for x, d2 in ((1.3, -0.4), (4.0, 2.0)):
            assert best_response_oracle(x, d2, s, p, gamma=0.5) == pytest.approx(
                s(x, d2), abs=1e-9
            )

    def test_gamma_grid_monotone_with_tiny_residuals(self):
        q = 0.8
        p = params(q1=1.0, q2=q)
        prev = -1.0
        for gamma in np.linspace(0.0, 1.0, 101):
            s = og.congestion_strategy(p, gamma)
            res = abs(
                gamma * q * s.a ** 3
                - (1 + gamma) * q * s.a ** 2
                + 2 * s.a
                - (1 + gamma) / 2
            )
            assert res <= 1e-12
            assert s.a >= prev - 1e-12
            prev = s.a

    def test_no_stable_root(self):
        # at gamma=1, q=1 the only real root sits exactly at a=1
        with pytest.raises(og.NoStableRootError):
            og.congestion_strategy(params(q1=1.0, q2=1.0), 1.0)

    def test_one_root_in_unit_interval(self):
        # Exact count of the roots in (0, 1): with a = 1/(1+y) they are the
        # positive roots of (1+y)^3 P(1/(1+y)), whose coefficient signs vary
        # once (Descartes: exactly one root) or, at gamma = q2 = 1 where
        # P(1) = 0, not at all.
        grid = np.linspace(0.0, 1.0, 101)
        for gamma, q2 in itertools.product(grid, grid):
            g, q = Fraction(gamma), Fraction(q2)
            c3, c2, c1, c0 = g * q, -(1 + g) * q, Fraction(2), -(1 + g) / 2

            def P(a):
                a = Fraction(a)
                return ((c3 * a + c2) * a + c1) * a + c0

            coeffs = [c0, 3 * c0 + c1, 3 * c0 + 2 * c1 + c2, c0 + c1 + c2 + c3]
            signs = [x > 0 for x in coeffs if x != 0]
            variations = sum(s != t for s, t in zip(signs, signs[1:]))
            p = params(q1=1.0, q2=q2)
            if gamma == q2 == 1.0:
                assert variations == 0
                with pytest.raises(og.NoStableRootError):
                    og.congestion_strategy(p, gamma)
                continue
            assert variations == 1, (gamma, q2)
            a = og.congestion_strategy(p, gamma).a
            assert P(a * (1 - 1e-14)) < 0 < P(a * (1 + 1e-14)), (gamma, q2)

    def test_cardano_oracle_grid(self):
        # the means and q1 enter only the constant term, so they cycle over
        # the (gamma, q2) grid instead of multiplying it
        means = itertools.cycle(itertools.product((0.3, 1.0), (0.0, 2.0), (0.0, 3.0)))
        grid = np.linspace(0.0, 1.0, 101)
        for (gamma, q2), (q1, mu1, mu2) in zip(itertools.product(grid, grid), means):
            p = params(q1=q1, q2=q2, mu1=mu1, mu2=mu2)
            new = _outcome(og.congestion_strategy, p, gamma)
            old = _outcome(cardano_oracle, p, gamma)
            assert isinstance(new, Exception) == isinstance(old, Exception), (p, gamma)
            if isinstance(new, Exception):
                continue
            (a, b, g), n_stable = old
            assert n_stable == 1, (p, gamma)
            assert _close((new.a, new.b, new.g), (a, b, g), 1e-14), (p, gamma)


class TestBaselines:
    def test_values(self):
        naive, none = og.baseline_strategies()
        assert (naive.a, naive.b, naive.g) == (0.0, 0.5, 0.0)
        assert (none.a, none.b, none.g) == (0.0, 1.0, 0.0)
        for s in (naive, none):
            assert 0.0 <= s.a < 1.0


class TestCoefficientInvariants:
    def test_grid_ranges_and_ordering(self):
        prev_anc, prev_ac = -1.0, -1.0
        prev_bnc, prev_bc = 2.0, 2.0
        for q2 in Q2_GRID:
            p = params(q2=q2)
            nc, co = og.mpe_strategy(p), og.coop_strategy(p)
            assert 0.25 <= nc.a <= 0.29289321881345254 + 1e-5
            assert 0.5 <= co.a <= 1.0
            assert nc.a < co.a
            if q2 > 0:
                assert nc.b > co.b
            assert nc.a >= prev_anc and co.a >= prev_ac
            assert nc.b <= prev_bnc and co.b <= prev_bc
            prev_anc, prev_ac = nc.a, co.a
            prev_bnc, prev_bc = nc.b, co.b

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        q2=hs.floats(min_value=0.0, max_value=1.0),
        q1=hs.floats(min_value=0.0, max_value=1.0),
        K=hs.integers(min_value=1, max_value=10 ** 6),
    )
    def test_constructor_outputs_stay_in_range(self, q2, q1, K):
        p = params(q1=q1, q2=q2, mu1=1.0, mu2=2.0)
        for s in (og.mpe_strategy(p), og.coop_strategy(p), og.k_agent_strategy(p, K)):
            assert 0.0 < s.a <= 1.0
            assert 0.0 <= s.b <= 1.0
            if q2 < 1.0:
                assert s.a < 1.0

    def test_validation(self):
        with pytest.raises(og.InvalidParamsError):
            og.MarketParamsL2(1.2, 0.5)
        with pytest.raises(og.InvalidParamsError):
            og.MarketParamsL2(0.5, 0.5, sigma1=-1.0)
        with pytest.raises(og.InvalidParamsError):
            og.RiskSensitivity(0.0, 1.0)
        with pytest.raises(og.InvalidParamsError, match="gamma"):
            og.congestion_strategy(params(), 1.5)
