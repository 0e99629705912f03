"""Best-response map and equilibrium fixed point under linear pricing."""
import math

import numpy as np
import pytest

import oligosched as og
from oligosched import fixed_point
from oligosched.fixed_point import FixedPointConfig
from conftest import spectral_radius


def one_shot_cost(u, x, F, pricing, ss, slot, tau):
    """Literal one-shot-deviation cost of the agent at ``slot``.

    Deterministic rollout of the conjectured play; load noise is zero-mean
    and enters the expected cost only through terms independent of u, so
    the argmin is unaffected by dropping it.
    """
    l = ss.pairs[slot][0]
    uvec = F @ x
    uvec[slot] = u
    total = float((pricing.q1 @ x + pricing.q2 @ uvec) * u)
    state = ss.R1 @ (x - uvec)
    for k in range(1, tau):
        uvec = F @ state
        price = float(pricing.q1 @ state + pricing.q2 @ uvec)
        total += price * float(uvec[ss.position(l, tau - k)])
        state = ss.R1 @ (state - uvec)
    return total


def reference_best_response_row(S, q1, q2, ss, i, tau):
    """Best-response row of the agent at slot i, built from D x D matrices.

    Independent oracle for the rank-one kernel: the one-shot cost's
    quadratic form A is accumulated term by term from outer products.
    """
    D = ss.D_c
    M = ss.R1 @ (np.eye(D) - S)
    w = q1 + S.T @ q2
    A = np.zeros((D, D))
    Mk = np.eye(D)
    l = ss.pairs[i][0]
    for k in range(1, tau):
        j = ss.position(l, tau - k)
        B = np.outer(w, S[j])
        A += Mk.T @ (B + B.T) @ Mk
        Mk = M @ Mk
    ri = ss.R1[:, i]
    left = ri @ A
    core = M + np.outer(ri, S[i])
    num = left @ core - (q1 + q2 @ S - q2[i] * S[i])
    den = float(ri @ A @ ri + 2.0 * q2[i])
    if abs(den) < 1e-12:
        raise og.SingularRowError(l, tau, den)
    return num / den


def reference_f_map(F, pricing, ss, sweep="jacobi"):
    """The best-response map, one oracle row at a time in slot order."""
    F = np.asarray(F, float)
    out = F.copy() if sweep == "gauss-seidel" else np.zeros_like(F)
    src = out if sweep == "gauss-seidel" else F
    for i, (l, tau) in enumerate(ss.pairs):
        if tau == 1:
            row = np.zeros(ss.D_c)
            row[i] = 1.0
        else:
            row = reference_best_response_row(src, pricing.q1, pricing.q2, ss, i, tau)
        out[i] = row
    return out


def reference_solve(pricing, ss, cfg):
    """Damped iteration on ``reference_f_map``: (sweeps, gain)."""
    F = og.even_split_gain(ss)
    for it in range(1, cfg.max_iter + 1):
        Fn = reference_f_map(F, pricing, ss, cfg.sweep)
        if np.max(np.abs(Fn - F)) <= cfg.tol:
            return it, F
        F = F + cfg.damping * (Fn - F)
        F[: ss.L] = np.eye(ss.D_c)[: ss.L]
    raise AssertionError("oracle iteration did not converge")


def random_stable_gain(ss, rng):
    while True:
        F = og.even_split_gain(ss) + 0.05 * rng.standard_normal((ss.D_c, ss.D_c))
        F[: ss.L] = np.eye(ss.D_c)[: ss.L]
        if spectral_radius(F, ss) < 1.0:
            return F


def random_pricing(ss, rng):
    return og.PricingRule(
        0.2 * rng.standard_normal(ss.D_c), np.abs(rng.standard_normal(ss.D_c)) + 0.5
    )


def one_shot_curvature(F, pricing, ss, slot, tau):
    """Coefficient of u^2 in ``one_shot_cost``, exact for its quadratic;
    it does not depend on the state."""
    x = np.linspace(-1.0, 1.0, ss.D_c)
    f = [one_shot_cost(u, x, F, pricing, ss, slot, tau) for u in (-1.0, 0.0, 1.0)]
    return (f[0] + f[2]) / 2.0 - f[1]


def quadratic_argmin(fn):
    vals = [fn(-1.0), fn(0.0), fn(1.0)]
    c2 = (vals[2] + vals[0]) / 2.0 - vals[1]
    c1 = (vals[2] - vals[0]) / 2.0
    assert c2 > 0.0
    return -c1 / (2.0 * c2)


class TestFMap:
    def test_deadline_rows_are_unit(self, ss3):
        rng = np.random.default_rng(0)
        F = rng.standard_normal((6, 6)) * 0.1 + og.even_split_gain(ss3)
        out = og.f_map(F, og.marginal_cost_pricing(ss3), ss3)
        assert np.array_equal(out[:3], np.eye(6)[:3])

    def test_l2_row_closed_form(self, ss2):
        # with unit deadline rows and flexible row [-a, -a, b], the mapped
        # flexible row is [-1, -1, 2(1-a)] / (2(2-a)) under q1=0, q2=ones
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.uniform(0.05, 0.9)
            b = rng.uniform(-0.5, 1.0)
            F = np.eye(3)
            F[2] = [-a, -a, b]
            out = og.f_map(F, og.marginal_cost_pricing(ss2), ss2)
            expected = np.array([-1.0, -1.0, 2.0 * (1.0 - a)]) / (2.0 * (2.0 - a))
            assert np.allclose(out[2], expected, atol=1e-13)

    def test_rows_match_one_shot_argmin(self):
        # finite-horizon rollout oracle for every non-deadline row
        rng = np.random.default_rng(5)
        for L in (2, 3):
            ss = og.build_state_space(L)
            pricing = og.PricingRule(
                0.2 * rng.standard_normal(ss.D_c), np.abs(rng.standard_normal(ss.D_c)) + 0.5
            )
            F = og.even_split_gain(ss) + 0.05 * rng.standard_normal((ss.D_c, ss.D_c))
            for i in range(ss.L):
                F[i] = np.eye(ss.D_c)[i]
            out = og.f_map(F, pricing, ss)
            for slot, (l, tau) in enumerate(ss.pairs):
                if tau == 1:
                    continue
                for _ in range(3):
                    x = rng.standard_normal(ss.D_c)
                    u_star = quadratic_argmin(
                        lambda u: one_shot_cost(u, x, F, pricing, ss, slot, tau)
                    )
                    assert u_star == pytest.approx(float(out[slot] @ x), abs=1e-6)

    def test_degenerate_pricing_raises_singular_row(self, ss2):
        pricing = og.PricingRule(np.zeros(3), np.zeros(3))
        with pytest.raises(og.SingularRowError) as exc:
            og.f_map(og.even_split_gain(ss2), pricing, ss2)
        assert exc.value.periods_left > 1

    @pytest.mark.parametrize("kwargs", [
        {"tol": 0.0}, {"max_iter": 0}, {"damping": 0.0}, {"damping": 1.5}, {"sweep": "sor"},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(og.InvalidParamsError):
            og.FixedPointConfig(**kwargs)

    def test_shape_validation(self, ss3):
        with pytest.raises(og.InvalidParamsError):
            og.f_map(np.eye(4), og.marginal_cost_pricing(ss3), ss3)
        # shape only: solve_mpe reports a diverging iterate as NotConvergedError
        F = og.even_split_gain(ss3)
        F[4, 2] = np.inf
        with np.errstate(invalid="ignore", over="ignore"):
            assert og.f_map(F, og.marginal_cost_pricing(ss3), ss3).shape == (6, 6)
        with pytest.raises(og.InvalidParamsError):
            og.PricingRule(np.zeros(2), np.zeros(3)).validated(ss3)
        with pytest.raises(og.InvalidParamsError, match="finite"):
            og.PricingRule(np.zeros(6), np.full(6, np.nan))


class TestRankOneKernel:
    @pytest.mark.parametrize("sweep", ["jacobi", "gauss-seidel"])
    @pytest.mark.parametrize("L", [2, 3, 4, 5, 8])
    def test_matches_reference_rows(self, L, sweep):
        rng = np.random.default_rng(100 + L)
        ss = og.build_state_space(L)
        for _ in range(5):
            F = random_stable_gain(ss, rng)
            pricing = random_pricing(ss, rng)
            want = reference_f_map(F, pricing, ss, sweep)
            got = og.f_map(F, pricing, ss, sweep)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("sweep", ["jacobi", "gauss-seidel"])
    @pytest.mark.parametrize("L", [2, 3, 5, 8])
    def test_degenerate_pricing_names_the_oracle_row(self, L, sweep):
        ss = og.build_state_space(L)
        pricing = og.PricingRule(np.zeros(ss.D_c), np.zeros(ss.D_c))
        F = og.even_split_gain(ss)
        with pytest.raises(og.SingularRowError) as want:
            reference_f_map(F, pricing, ss, sweep)
        with pytest.raises(og.SingularRowError) as got:
            og.f_map(F, pricing, ss, sweep)
        assert (got.value.agent_type, got.value.periods_left) == (
            want.value.agent_type,
            want.value.periods_left,
        )

    def test_first_singular_row_in_slot_order(self):
        # q1 = -F'q2 zeroes w, so every den is 2 q2[i]: only the row with
        # q2[i] = 0 is singular, wherever it sits in the batch
        ss = og.build_state_space(4)
        F = random_stable_gain(ss, np.random.default_rng(7))
        for i in range(ss.L, ss.D_c):
            q2 = np.ones(ss.D_c)
            q2[i] = 0.0
            pricing = og.PricingRule(-(F.T @ q2), q2)
            with pytest.raises(og.SingularRowError) as want:
                reference_f_map(F, pricing, ss)
            with pytest.raises(og.SingularRowError) as got:
                og.f_map(F, pricing, ss)
            assert (got.value.agent_type, got.value.periods_left) == ss.pairs[i]
            assert (want.value.agent_type, want.value.periods_left) == ss.pairs[i]


class TestIterateEquivalence:
    @pytest.mark.parametrize(
        "L, cfg",
        [(L, FixedPointConfig(tol=1e-13, damping=0.25)) for L in (2, 3, 4, 5)]
        + [(4, FixedPointConfig(tol=1e-13, sweep="gauss-seidel"))],
    )
    def test_solve_mpe_reaches_reference_fixed_point(self, L, cfg):
        # the damped oracle and Anderson take different paths to the same
        # fixed point; Anderson takes fewer sweeps
        ss = og.build_state_space(L)
        pricing = og.marginal_cost_pricing(ss)
        sweeps, F = reference_solve(pricing, ss, cfg)
        sol = og.solve_mpe(pricing, ss, cfg)
        assert sol.iterations < sweeps
        assert np.max(np.abs(sol.gain.F - F)) <= 1e-12

    def test_operator_objective_matches_reference_run(self, monkeypatch):
        ss = og.build_state_space(3)
        w = og.OperatorWeights(1.0, 1.0)
        res = og.optimize_pricing(w, ss, budget=60, seed=1)
        monkeypatch.setattr(fixed_point, "f_map", reference_f_map)
        ref = og.optimize_pricing(w, ss, budget=60, seed=1)
        assert res.objective == pytest.approx(ref.objective, rel=1e-12, abs=0.0)
        assert res.inner_sweeps == ref.inner_sweeps

    def test_solve_mpe_calls_f_map_through_module_global(self, ss3, monkeypatch):
        # the benchmark's tracer wraps fixed_point.f_map to count sweeps
        calls = []
        real = fixed_point.f_map

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(fixed_point, "f_map", counting)
        sol = og.solve_mpe(og.marginal_cost_pricing(ss3), ss3)
        assert len(calls) == sol.iterations


class TestSolveMpe:
    def test_l2_matches_closed_form(self, ss2):
        sol = og.solve_mpe(og.marginal_cost_pricing(ss2), ss2)
        assert sol.residual <= 1e-10
        row = sol.gain.F[2]
        assert row[0] == pytest.approx(-0.292893218813452, abs=1e-6)
        assert row[1] == pytest.approx(-0.292893218813452, abs=1e-6)
        assert row[2] == pytest.approx(0.414213562373095, abs=1e-6)
        assert sol.stability_margin > 0

    def test_l3_regression(self, ss3):
        sol = og.solve_mpe(
            og.marginal_cost_pricing(ss3), ss3, FixedPointConfig(tol=1e-9)
        )
        assert sol.residual <= 1e-8
        assert spectral_radius(sol.gain.F, ss3) < 1.0
        # regression values recorded from the first converged run
        assert sol.gain.F[5, 5] == pytest.approx(0.237026196877034, abs=1e-6)
        assert sol.gain.F[4, 4] == pytest.approx(0.32788504298045384, abs=1e-6)
        # same-tau agents are exchangeable at the symmetric equilibrium
        assert sol.gain.F[3, 3] == pytest.approx(sol.gain.F[4, 4], abs=1e-9)

    def test_damping_preserves_fixed_points(self, ss2):
        sol = og.solve_mpe(og.marginal_cost_pricing(ss2), ss2)
        F = sol.gain.F
        mapped = og.f_map(F, og.marginal_cost_pricing(ss2), ss2)
        damped = F + 0.3 * (mapped - F)
        assert np.max(np.abs(damped - F)) <= 1e-9

    def test_gauss_seidel_reaches_same_point(self, ss3):
        pricing = og.marginal_cost_pricing(ss3)
        a = og.solve_mpe(pricing, ss3, FixedPointConfig(sweep="jacobi"))
        b = og.solve_mpe(pricing, ss3, FixedPointConfig(sweep="gauss-seidel"))
        assert np.max(np.abs(a.gain.F - b.gain.F)) <= 1e-7

    @pytest.mark.parametrize("L", [6, 7, 8])
    def test_converges_where_damping_diverges(self, L):
        # the damped oracle diverges from L = 5 on at damping 0.5
        ss = og.build_state_space(L)
        pricing = og.marginal_cost_pricing(ss)
        sol = og.solve_mpe(pricing, ss, FixedPointConfig(damping=0.5))
        assert sol.residual <= 1e-10
        assert sol.stability_margin > 0
        mapped = og.f_map(sol.gain.F, pricing, ss)
        assert np.max(np.abs(mapped - sol.gain.F)) <= 1e-9

    @pytest.mark.parametrize("L", range(2, 9))
    def test_stability_margin_is_a_tight_certified_bound(self, L):
        # 1 - stability_margin is the doubling bound on the spectral radius:
        # never below the eigenvalue oracle, and within 10% of it
        ss = og.build_state_space(L)
        sol = og.solve_mpe(og.marginal_cost_pricing(ss), ss)
        rho = spectral_radius(sol.gain.F, ss)
        assert rho <= 1.0 - sol.stability_margin <= 1.1 * rho
        assert np.array_equal(sol.gramian, og.solve_lyapunov(sol.gain, ss))

    @pytest.mark.filterwarnings("error")
    def test_divergence_raises_only_not_converged(self, capfd):
        # at L = 9 the default iteration overflows; that must surface as
        # the typed error with its trace, with no warning or LAPACK message
        ss = og.build_state_space(9)
        with pytest.raises(og.NotConvergedError) as exc:
            og.solve_mpe(og.marginal_cost_pricing(ss), ss)
        assert exc.value.residuals
        assert not np.isfinite(exc.value.residuals[-1])
        assert capfd.readouterr().err == ""

    def test_not_converged_carries_trace(self, ss3):
        with pytest.raises(og.NotConvergedError) as exc:
            og.solve_mpe(
                og.marginal_cost_pricing(ss3), ss3, FixedPointConfig(max_iter=3)
            )
        assert len(exc.value.residuals) == 3

    def test_deadline_rows_exact_for_all_small_l(self):
        for L in range(2, 6):
            ss = og.build_state_space(L)
            sol = og.solve_mpe(
                og.marginal_cost_pricing(ss), ss, FixedPointConfig(damping=0.25)
            )
            for i in range(L):
                row = np.zeros(ss.D_c)
                row[i] = 1.0
                assert np.array_equal(sol.gain.F[i], row)

    def test_pricing_scale_report(self, ss3):
        # no invariance under positive scaling of the pricing vectors is
        # claimed anywhere; this records the observed behavior (both scales
        # must converge) without asserting a direction
        base = og.marginal_cost_pricing(ss3)
        scaled = og.PricingRule(2.0 * base.q1, 2.0 * base.q2)
        a = og.solve_mpe(base, ss3)
        b = og.solve_mpe(scaled, ss3)
        drift = float(np.max(np.abs(a.gain.F - b.gain.F)))
        print(f"pricing-scale drift (x2): {drift:.3e}")
        assert spectral_radius(a.gain.F, ss3) < 1.0 and spectral_radius(b.gain.F, ss3) < 1.0


class TestSecondOrderCertificate:
    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_denominator_is_twice_the_deviation_curvature(self, L):
        # on random gains and pricings with q2 of both signs
        rng = np.random.default_rng(20 + L)
        ss = og.build_state_space(L)
        batch = fixed_point._row_plans(L)[0]
        signs = set()
        for _ in range(4):
            F = random_stable_gain(ss, rng)
            pricing = og.PricingRule(rng.uniform(-5, 5, ss.D_c), rng.uniform(-5, 5, ss.D_c))
            den = fixed_point._best_response_rows(F, pricing.q1, pricing.q2, ss, batch)[1]
            for k, slot in enumerate(batch.rows):
                c2 = one_shot_curvature(F, pricing, ss, slot, ss.pairs[slot][1])
                assert den[k] == pytest.approx(2.0 * c2, rel=1e-9, abs=1e-12)
            signs |= set(np.sign(den))
        assert signs == {-1.0, 1.0}

    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
    def test_marginal_cost_is_an_equilibrium(self, L):
        ss = og.build_state_space(L)
        pricing = og.marginal_cost_pricing(ss)
        sol = og.solve_mpe(pricing, ss)
        den = fixed_point._best_response_rows(sol.gain.F, pricing.q1, pricing.q2, ss,
                                              fixed_point._row_plans(L)[0])[1]
        assert sol.min_denominator == den.min() > 2.0
        if L == 2:
            assert sol.min_denominator == pytest.approx(2.0 + np.sqrt(2.0), abs=1e-9)

    @pytest.mark.parametrize("L", [2, 3])
    def test_negative_denominator_raises_with_the_solution(self, L):
        # negated marginal cost: every row's numerator and denominator change
        # sign, so the fixed point is marginal cost's and maximizes each cost
        ss = og.build_state_space(L)
        pricing = og.PricingRule(np.zeros(ss.D_c), -np.ones(ss.D_c))
        with pytest.raises(og.NotAnEquilibriumError, match="no equilibrium") as exc:
            og.solve_mpe(pricing, ss)
        assert isinstance(exc.value, og.UnstableError)
        sol = exc.value.solution
        marginal = og.marginal_cost_pricing(ss)
        ref = og.solve_mpe(marginal, ss)
        assert np.max(np.abs(sol.gain.F - ref.gain.F)) <= 1e-9
        den = fixed_point._best_response_rows(ref.gain.F, marginal.q1, marginal.q2, ss,
                                              fixed_point._row_plans(L)[0])[1]
        assert sol.min_denominator == pytest.approx(-den.max(), rel=1e-9)
        assert sol.stability_margin > 0 and sol.gramian is not None
        val, diag = og.evaluate_pricing(pricing, og.OperatorWeights(1.0, 1.0), ss)
        assert math.isinf(val)
        assert diag == {"status": "not-an-equilibrium", "min_denominator": sol.min_denominator,
                        "iterations": sol.iterations}

    def test_operator_result_is_an_equilibrium(self, ss2):
        res = og.optimize_pricing(og.OperatorWeights(1.0, 1.0), ss2, budget=80, seed=2)
        assert og.solve_mpe(res.pricing, ss2).min_denominator > 0.0


class TestEquilibriumSelection:
    """Some pricings have two stable fixed points; solve_mpe picks one.

    The selection rule is "the equilibrium Anderson reaches from
    even-split".  This pricing, the third draw of an L = 3 sequence, has a
    second stable fixed point that a plain Newton iteration finds from the
    same start.
    """

    @staticmethod
    def pricing():
        rng = np.random.default_rng(1)
        draws = [1.5 * rng.standard_normal(12) for _ in range(3)]
        theta = np.array([0.0] * 6 + [1.0] * 6) + draws[2]
        return og.PricingRule(theta[:6], theta[6:])

    @staticmethod
    def operator_objective(F, ss):
        Q = og.solve_lyapunov(F, ss)
        return float(ss.e @ F @ Q @ F.T @ ss.e + ss.e @ Q @ ss.e)

    def newton_fixed_point(self, pricing, ss, tol=1e-13, h=1e-6, max_steps=60):
        """Newton on f_map(F) - F over the tau > 1 rows, from even-split,
        with a central-difference Jacobian."""
        L, D = ss.L, ss.D_c

        def residual(x):
            F = fixed_point.even_split_gain(ss)
            F[L:] = x.reshape(D - L, D)
            return (og.f_map(F, pricing, ss)[L:] - F[L:]).ravel()

        x = fixed_point.even_split_gain(ss)[L:].ravel()
        eye = h * np.eye(x.size)
        for _ in range(max_steps):
            r = residual(x)
            if np.max(np.abs(r)) <= tol:
                F = fixed_point.even_split_gain(ss)
                F[L:] = x.reshape(D - L, D)
                return F
            J = np.column_stack(
                [(residual(x + e) - residual(x - e)) / (2.0 * h) for e in eye]
            )
            x = x - np.linalg.solve(J, r)
        raise AssertionError("Newton did not reach a fixed point")

    def test_anderson_and_newton_select_different_equilibria(self, ss3):
        pricing = self.pricing()
        sol = og.solve_mpe(pricing, ss3)
        assert spectral_radius(sol.gain.F, ss3) == pytest.approx(0.2867, abs=1e-4)
        val, _ = og.evaluate_pricing(pricing, og.OperatorWeights(1.0, 1.0), ss3)
        assert val == pytest.approx(23.3876, abs=1e-4)
        assert val == pytest.approx(self.operator_objective(sol.gain.F, ss3), rel=1e-12)

        F = self.newton_fixed_point(pricing, ss3)
        assert np.max(np.abs(og.f_map(F, pricing, ss3) - F)) <= 1e-13
        assert spectral_radius(F, ss3) == pytest.approx(0.8586, abs=1e-4)
        assert np.max(np.abs(F - sol.gain.F)) == pytest.approx(4.79, abs=5e-3)
        # a different equilibrium, so a different operator objective
        assert self.operator_objective(F, ss3) > 2.0 * val
