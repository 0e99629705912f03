"""Operator pricing design: objective wiring, baseline guard, determinism,
and the bounded Nelder-Mead search against scipy's."""
import dis
import math
import sys

import numpy as np
import pytest

import oligosched as og
from conftest import spectral_radius
from oligosched import fixed_point, operator_design

# An L = 3 pricing whose equilibrium (35 sweeps of the search's inner
# solve) has spectral radius within 1e-9 of 1: its certificate fails.
BOUNDARY_PRICING = (
    [-0.9602784567973864, -0.09603787588144555, -1.955489991442598,
     2.764005992123827, -1.2798574489039642, -0.6241122286781979],
    [1.842320252413844, 0.1406421006354903, 0.7908308018454331,
     0.21356163418625457, 0.7003446341316312, -0.6899934339576366],
)


class TestOperatorObjective:
    def test_marginal_cost_matches_h2(self, ss2):
        w = og.OperatorWeights(1.0, 1.0)
        val = og.evaluate_pricing(og.marginal_cost_pricing(ss2), w, ss2)[0]
        sol = og.solve_mpe(og.marginal_cost_pricing(ss2), ss2)
        rep = og.h2_norms(sol.gain, ss2)
        assert val == rep.z1sq + rep.z2sq

    def test_other_pricing_and_weights_match_h2(self, ss2):
        # the objective is h2_norms' read-out of the certified Gramian, bit for bit
        pricing = og.PricingRule(np.full(3, 0.2), np.full(3, 1.5))
        val = og.evaluate_pricing(pricing, og.OperatorWeights(0.3, 2.0), ss2)[0]
        rep = og.h2_norms(og.solve_mpe(pricing, ss2).gain, ss2)
        assert val == 0.3 * rep.z1sq + 2.0 * rep.z2sq

    def test_weight_orderings_follow_components(self, ss2):
        mc = og.marginal_cost_pricing(ss2)
        other = og.PricingRule(np.array([0.2, 0.2, 0.2]), np.ones(3) * 1.5)
        reports = {}
        for name, pricing in (("mc", mc), ("other", other)):
            sol = og.solve_mpe(pricing, ss2)
            reports[name] = og.h2_norms(sol.gain, ss2)
        for weights, pick in (
            (og.OperatorWeights(1.0, 0.0), "z1sq"),
            (og.OperatorWeights(0.0, 1.0), "z2sq"),
        ):
            vals = {
                name: og.evaluate_pricing(pricing, weights, ss2)[0]
                for name, pricing in (("mc", mc), ("other", other))
            }
            expected_order = (
                vals["mc"] < vals["other"]
            )
            component_order = getattr(reports["mc"], pick) < getattr(
                reports["other"], pick
            )
            assert expected_order == component_order

    def test_degenerate_pricing_reports_singular_row(self, ss2):
        w = og.OperatorWeights(1.0, 1.0)
        val, diag = og.evaluate_pricing(
            og.PricingRule(np.zeros(3), np.zeros(3)), w, ss2
        )
        assert math.isinf(val)
        assert diag["status"] == "singular-row"
        assert diag["periods_left"] == 2

    @pytest.mark.parametrize("draw, sweeps, radius", [
        (17, 46, 1.131032), (53, 34, 1.091153), (83, 130, 1.501860), (92, 54, 1.111115),
        (217, 95, 1.227512), (240, 122, 1.510293), (299, 94, 2.127395),
    ])
    def test_unstable_fixed_point_reports_unstable(self, ss3, draw, sweeps, radius):
        # draws of a seeded pricing scan whose equilibrium, reached by the
        # search's inner solve, has closed-loop spectral radius above 1
        rng = np.random.default_rng(1)
        base = np.array([0.0] * 6 + [1.0] * 6)
        theta = [base + 1.5 * rng.standard_normal(12) for _ in range(draw + 1)][draw]
        pricing = og.PricingRule(theta[:6], theta[6:])
        cfg = operator_design._SEARCH_FP_CFG
        with pytest.raises(og.FixedPointUnstableError) as exc:
            og.solve_mpe(pricing, ss3, cfg)
        sol = exc.value.solution
        assert sol.iterations == sweeps
        assert sol.residual <= cfg.tol
        assert spectral_radius(sol.gain.F, ss3) == pytest.approx(radius, abs=1e-6)
        assert math.isnan(sol.stability_margin) and sol.gramian is None
        certificate = exc.value.__cause__
        assert isinstance(certificate, og.UnstableError)
        val, diag = og.evaluate_pricing(pricing, og.OperatorWeights(1.0, 1.0), ss3, cfg)
        assert math.isinf(val)
        assert diag == {"status": "unstable", "detail": str(exc.value), "iterations": sweeps}
        assert str(certificate) in diag["detail"]

    @pytest.mark.parametrize("fp_cfg", [operator_design._SEARCH_FP_CFG, None])
    def test_stability_boundary_pricing_reports_unstable(self, ss3, fp_cfg):
        # the closed loop is stable, but inside the certificate's margin
        pricing = og.PricingRule(*BOUNDARY_PRICING)
        with pytest.raises(og.FixedPointUnstableError, match="not below 1 - 1e-09") as exc:
            og.solve_mpe(pricing, ss3, fp_cfg)
        sol = exc.value.solution
        assert 0.0 < 1.0 - spectral_radius(sol.gain.F, ss3) < 1e-9
        w = og.OperatorWeights(1.0, 1.0)
        val, diag = og.evaluate_pricing(pricing, w, ss3, fp_cfg)
        assert math.isinf(val)
        assert diag["status"] == "unstable"
        assert diag["iterations"] == sol.iterations
        assert "not below 1 - 1e-09" in diag["detail"]

    def test_certificate_decides_stability_on_a_pricing_scan(self, ss3):
        # solve_mpe refuses a fixed point exactly when the eigenvalue oracle
        # puts its closed loop on or outside the unit circle, or the Gramian
        # solve refuses it; of these 300 draws 7 are refused and 13 do not
        # converge.  Stability is certified before the second-order
        # condition, so a fixed point refused as no equilibrium passed it.
        rng = np.random.default_rng(1)
        base = np.array([0.0] * 6 + [1.0] * 6)
        verdicts, non_equilibria = [], 0
        for _ in range(300):
            theta = base + 1.5 * rng.standard_normal(12)
            try:
                sol = og.solve_mpe(og.PricingRule(theta[:6], theta[6:]), ss3,
                                   operator_design._SEARCH_FP_CFG)
                refused = False
                assert sol.min_denominator > 0.0
            except og.FixedPointUnstableError as exc:
                sol, refused = exc.solution, True
            except og.NotAnEquilibriumError as exc:
                sol, refused = exc.solution, False
                assert sol.min_denominator <= 0.0
                non_equilibria += 1
            except (og.NotConvergedError, og.SingularRowError):
                continue
            F = sol.gain.F
            try:
                Q = og.solve_lyapunov(F, ss3)
            except og.UnstableError:
                Q = None
            assert refused == (spectral_radius(F, ss3) >= 1.0 or Q is None)
            if not refused:
                assert np.array_equal(sol.gramian, Q)
                assert spectral_radius(F, ss3) <= 1.0 - sol.stability_margin
            verdicts.append(refused)
        assert (verdicts.count(True), verdicts.count(False)) == (7, 280)
        assert non_equilibria == 157

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_finite_values_not_below_scalar_lq_bound(self, L):
        # The aggregate backlog X obeys X' = X - U + W with var W = L under
        # unit deadline rows, so alpha1 z1 + alpha2 z2 is at least L p, with p
        # the positive root of p^2 - alpha2 p - alpha1 alpha2 = 0: the Pareto
        # synthesis' bound at r = alpha1.  Of these draws the closest is 0.17 %
        # above the bound (L = 2).
        ss = og.build_state_space(L)
        rng = np.random.default_rng(40 + L)
        finite = 0
        for _ in range(60):
            w = og.OperatorWeights(*rng.exponential(size=2))
            pricing = og.PricingRule(rng.uniform(-1, 1, ss.D_c), rng.uniform(0, 2, ss.D_c))
            val = og.evaluate_pricing(pricing, w, ss)[0]
            if math.isfinite(val):
                finite += 1
                a1, a2 = w.alpha1, w.alpha2
                bound = L * 0.5 * (a2 + math.sqrt(a2 * a2 + 4.0 * a1 * a2))
                assert val >= bound * (1.0 - 1e-12)
        assert finite >= 50


class TestOperatorBound:
    """optimize_pricing reports the scalar LQ bound L p, its gap and the
    largest deviation of the gain's column sums from K = p/(alpha1 + p)."""

    @pytest.mark.parametrize("L, a1, a2", [(2, 1.0, 1.0), (3, 1.0, 1.0), (2, 0.3, 2.0),
                                           (3, 2.0, 0.1), (4, 1.0, 0.5)])
    def test_gap_not_negative(self, L, a1, a2):
        ss = og.build_state_space(L)
        res = og.optimize_pricing(og.OperatorWeights(a1, a2), ss, budget=30, seed=1)
        p = 0.5 * (a2 + math.sqrt(a2 * a2 + 4.0 * a1 * a2))
        assert res.lower_bound == pytest.approx(L * p, rel=1e-15)
        assert res.gap == res.objective - res.lower_bound
        assert res.gap >= -1e-12 * res.lower_bound
        colsums = res.gain.F.sum(axis=0)
        assert res.colsum_dev == pytest.approx(np.max(np.abs(colsums - p / (a1 + p))), abs=1e-15)

    def test_golden_ratio_bound_at_unit_weights(self, ss3):
        # p^2 - p - 1 = 0 gives p = phi, so L = 3 is bounded by 3 phi
        res = og.optimize_pricing(og.OperatorWeights(1.0, 1.0), ss3, budget=1)
        assert res.lower_bound == pytest.approx(1.5 * (1.0 + math.sqrt(5.0)), rel=1e-15)
        assert res.gap > 0.0

    @pytest.mark.parametrize("a1, a2", [(1.0, 1.0), (0.3, 2.0), (2.0, 0.0)])
    def test_single_slot_meets_its_bound(self, a1, a2):
        # L = 1 has no flexible slot: every pricing gives the gain [[1]], whose
        # objective alpha1 + alpha2 is the bound, with K = 1
        res = og.optimize_pricing(og.OperatorWeights(a1, a2), og.build_state_space(1),
                                  budget=20)
        assert np.array_equal(res.gain.F, [[1.0]])
        assert res.lower_bound == a1 + a2 == res.objective
        assert res.gap == 0.0 and res.colsum_dev == 0.0

    @pytest.mark.parametrize("a1, a2", [(1.0, 1.0), (0.3, 2.0)])
    def test_single_slot_stops_at_its_first_evaluation(self, a1, a2):
        # the baseline's gain [[1]] meets the bound, so no budget is spent past it
        res = og.optimize_pricing(og.OperatorWeights(a1, a2), og.build_state_space(1),
                                  budget=500)
        assert res.evaluations == 1
        assert res.objective == res.baseline_objective == a1 + a2
        assert res.gap == 0.0 and res.colsum_dev == 0.0

    def test_search_stops_once_its_gain_is_certified(self, ss2, monkeypatch):
        # a looser certificate ends the search inside a Nelder-Mead run, and
        # the evaluation that met it is counted
        real = operator_design.evaluate_pricing
        values = []

        def recording(*args, **kwargs):
            val, diag = real(*args, **kwargs)
            values.append(val)
            return val, diag

        monkeypatch.setattr(operator_design, "evaluate_pricing", recording)
        monkeypatch.setattr(operator_design, "_CERTIFIED", 0.1)
        res = og.optimize_pricing(og.OperatorWeights(1.0, 1.0), ss2, budget=500, seed=11)
        assert 1 < len(values) == res.evaluations < 500
        assert res.objective == min(values) == values[-1]
        assert res.colsum_dev <= 0.1 < og.optimize_pricing(
            og.OperatorWeights(1.0, 1.0), ss2, budget=1).colsum_dev

    def test_no_gain_reports_nan_deviation(self):
        res = og.optimize_pricing(og.OperatorWeights(1.0, 1.0), og.build_state_space(9),
                                  budget=1)
        assert res.gap == math.inf and math.isnan(res.colsum_dev)


class TestSharedBound:
    """The Pareto synthesis and the operator's pricing report one scalar LQ
    bound: L p for L >= 2, p the positive root of p^2 - q p - r q = 0, with
    loop gain K = p/(r + p), and q + r with K = 1 at L = 1.  The synthesis
    has q = a2 and r = a1 a3/(a1 + a3) in its squared weights, the operator
    q = alpha2 and r = alpha1."""

    @staticmethod
    def closed_form(r, q, L):
        if L == 1:
            return q + r, 1.0
        p = 0.5 * (q + math.sqrt(q * q + 4.0 * r * q))
        return L * p, p / (r + p)

    @pytest.mark.parametrize("L", range(1, 7))
    def test_both_designs_report_the_closed_form(self, L):
        ss = og.build_state_space(L)
        for m, ratio in [(0.1, 0.3), (0.5, 1.0), (0.9, 10.0), (0.3, 100.0)]:
            w = og.OutputWeights.normalized(m, 1.0 - m, ratio)
            a1, a2, a3 = w.alpha1 ** 2, w.alpha2 ** 2, w.alpha3 ** 2
            bound = self.closed_form(a1 * a3 / (a1 + a3), a2, L)[0]
            assert og.synthesize(w, ss).lower_bound == pytest.approx(bound, rel=1e-15)
        for a1, a2 in [(1.0, 1.0), (0.3, 2.0), (2.0, 0.1)]:
            res = og.optimize_pricing(og.OperatorWeights(a1, a2), ss, budget=1)
            bound, K = self.closed_form(a1, a2, L)
            assert res.lower_bound == pytest.approx(bound, rel=1e-15)
            if res.gain is not None:
                dev = np.max(np.abs(res.gain.F.sum(axis=0) - K))
                assert res.colsum_dev == pytest.approx(dev, abs=1e-15)


class TestOptimizePricing:
    def test_budget_one_returns_baseline(self, ss2):
        res = og.optimize_pricing(og.OperatorWeights(1.0, 1.0), ss2, budget=1, seed=3)
        assert res.evaluations == 1
        assert res.objective == res.baseline_objective
        assert np.array_equal(res.pricing.q1, np.zeros(3))
        assert np.array_equal(res.pricing.q2, np.ones(3))

    def test_failed_baseline_reports_inf_not_the_penalty(self):
        # at L = 9 the marginal-cost equilibrium does not converge in 600 sweeps
        res = og.optimize_pricing(og.OperatorWeights(1.0, 1.0), og.build_state_space(9),
                                  budget=1)
        assert res.baseline_objective == res.objective == math.inf
        assert res.gain is None
        assert res.failures == {"singular-row": 0, "not-converged": 1, "unstable": 0,
                                "not-an-equilibrium": 0}

    def test_never_worse_than_baseline_and_deterministic(self, ss2):
        w = og.OperatorWeights(1.0, 1.0)
        a = og.optimize_pricing(w, ss2, budget=150, seed=11)
        b = og.optimize_pricing(w, ss2, budget=150, seed=11)
        assert a.objective <= a.baseline_objective
        assert a.objective == b.objective
        assert np.array_equal(a.pricing.q1, b.pricing.q1)
        assert np.array_equal(a.pricing.q2, b.pricing.q2)
        assert a.evaluations == b.evaluations

    @pytest.mark.parametrize("L, budget, seed", [(2, 150, 11), (3, 500, 5)])
    def test_no_pricing_is_evaluated_twice(self, L, budget, seed, monkeypatch):
        # the baseline is the first start's first vertex, not a separate solve
        real = operator_design.evaluate_pricing
        seen = []

        def recording(pricing, *args, **kwargs):
            seen.append(pricing.q1.tobytes() + pricing.q2.tobytes())
            return real(pricing, *args, **kwargs)

        monkeypatch.setattr(operator_design, "evaluate_pricing", recording)
        res = og.optimize_pricing(og.OperatorWeights(1.0, 1.0), og.build_state_space(L),
                                  budget=budget, seed=seed)
        assert len(seen) == res.evaluations == budget
        assert len(set(seen)) == budget

    def test_reported_objective_reproducible_from_pricing(self, ss2):
        w = og.OperatorWeights(1.0, 1.0)
        res = og.optimize_pricing(w, ss2, budget=150, seed=11)
        again = og.evaluate_pricing(res.pricing, w, ss2)[0]
        assert abs(again - res.objective) <= 1e-10

    def test_reports_best_evaluated_pricing(self, ss2, monkeypatch):
        # maxfev stops this search mid-iteration, where Nelder-Mead's last
        # simplex misses a better point it has already evaluated
        from oligosched import operator_design

        real = operator_design.evaluate_pricing
        values = []

        def recording(*args, **kwargs):
            val, diag = real(*args, **kwargs)
            values.append(val)
            return val, diag

        monkeypatch.setattr(operator_design, "evaluate_pricing", recording)
        res = og.optimize_pricing(og.OperatorWeights(1.0, 0.5), ss2, budget=150, seed=11)
        assert len(values) == res.evaluations == 150
        assert res.objective == min(v for v in values if math.isfinite(v))
        monkeypatch.undo()
        again = og.optimize_pricing(og.OperatorWeights(1.0, 0.5), ss2, budget=150, seed=11)
        assert again.objective == res.objective

    def test_failure_counts_and_sweeps(self, ss2, monkeypatch):
        w = og.OperatorWeights(1.0, 1.0)
        res = og.optimize_pricing(w, ss2, budget=1, seed=3)
        baseline = og.solve_mpe(
            og.marginal_cost_pricing(ss2), ss2, operator_design._SEARCH_FP_CFG
        )
        assert res.failures == {"singular-row": 0, "not-converged": 0, "unstable": 0,
                                "not-an-equilibrium": 0}
        assert res.inner_sweeps == baseline.iterations

        # three sweeps cannot converge: every search solve fails that way
        monkeypatch.setattr(
            operator_design, "_SEARCH_FP_CFG", og.FixedPointConfig(max_iter=3)
        )
        res = og.optimize_pricing(w, ss2, budget=8, seed=3)
        assert res.failures == {
            "singular-row": 0,
            "not-converged": res.evaluations,
            "unstable": 0,
            "not-an-equilibrium": 0,
        }
        assert res.inner_sweeps == 3 * res.evaluations
        assert res.gain is None and math.isinf(res.objective)
        monkeypatch.undo()

        # a singular row stops its solve mid-sweep and adds no sweeps
        def singular(*args, **kwargs):
            raise og.SingularRowError(2, 2, 0.0)

        monkeypatch.setattr(fixed_point, "f_map", singular)
        res = og.optimize_pricing(w, ss2, budget=4, seed=3)
        assert res.failures["singular-row"] == res.evaluations
        assert res.inner_sweeps == 0

    def test_stability_boundary_counts_as_unstable(self, ss3, monkeypatch):
        # every search point priced at the boundary: each evaluation is one
        # "unstable" failure carrying its 35 sweeps, and the search goes on
        boundary = og.PricingRule(*BOUNDARY_PRICING)
        monkeypatch.setattr(operator_design, "PricingRule", lambda q1, q2: boundary)
        res = og.optimize_pricing(og.OperatorWeights(1.0, 1.0), ss3, budget=5, seed=3)
        assert res.evaluations >= 5
        assert res.failures == {
            "singular-row": 0, "not-converged": 0, "unstable": res.evaluations,
            "not-an-equilibrium": 0,
        }
        assert res.inner_sweeps == 35 * res.evaluations
        assert res.gain is None and math.isinf(res.objective)

    def test_restart_search_runs_and_repeats(self, ss2, monkeypatch):
        # at budget 1000 the first search meets its tolerances after 397
        # evaluations, its first the baseline, and a second starts from a
        # seeded perturbation of marginal-cost pricing
        real = operator_design.minimize
        starts, nfev = [], []

        def recording(fun, x0, maxfev):
            starts.append(x0.copy())
            count = real(fun, x0, maxfev)
            nfev.append(count)
            return count

        monkeypatch.setattr(operator_design, "minimize", recording)
        w = og.OperatorWeights(1.0, 1.0)
        a = og.optimize_pricing(w, ss2, budget=1000, seed=0)
        baseline = np.concatenate([np.zeros(3), np.ones(3)])
        gen = og.rngstreams.stream(0, 0)
        assert np.array_equal(starts[0], baseline)
        assert np.array_equal(starts[1], np.clip(
            baseline + 0.25 * gen.standard_normal(6), -operator_design._BOX, operator_design._BOX
        ))
        assert nfev == [397, 603]
        assert a.evaluations == 1000
        b = og.optimize_pricing(w, ss2, budget=1000, seed=0)
        assert a.objective == b.objective == 3.2360679774997987
        assert np.array_equal(a.pricing.q1, b.pricing.q1)
        assert np.array_equal(a.pricing.q2, b.pricing.q2)
        # every deadline-respecting policy costs at least L*p, where the golden
        # ratio p is the positive root of p^2 - alpha2*p - alpha1*alpha2 = 0
        assert (1.0 + math.sqrt(5.0)) * (1.0 - 1e-12) <= a.objective
        assert a.objective <= a.baseline_objective == 3.3753452853944816
        # a search that never sees a finite objective stops after 17 starts,
        # budget left over
        monkeypatch.setattr(operator_design, "evaluate_pricing",
                            lambda *args: (math.inf, {"status": "not-converged"}))
        starts.clear()
        c = og.optimize_pricing(w, ss2, budget=10 ** 6, seed=0)
        assert len(starts) == 17
        assert c.evaluations < 10 ** 6
        assert c.failures["not-converged"] == c.evaluations
        assert c.gain is None and c.objective == c.baseline_objective == math.inf

    def test_weights_validation(self):
        with pytest.raises(og.InvalidParamsError):
            og.OperatorWeights(-1.0, 1.0)
        with pytest.raises(og.InvalidParamsError):
            og.OperatorWeights(0.0, 0.0)

    def test_budget_validation(self, ss2):
        with pytest.raises(og.InvalidParamsError):
            og.optimize_pricing(og.OperatorWeights(1.0, 1.0), ss2, budget=0)


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _plateau(x):
    # the search's penalty on a half space, which holds all but the first
    # vertex of the initial simplex from x0 = 0.5: they tie at 1e12, and the
    # order of the shrinks' evaluations follows how the sort breaks the ties
    return operator_design._PENALTY if x.sum() > 10.01 else float(np.sum((x - 0.1) ** 2))


def _operator_l2(x):
    ss = og.build_state_space(2)
    val = og.evaluate_pricing(og.PricingRule(x[:3], x[3:]), og.OperatorWeights(1.0, 1.0), ss,
                              operator_design._SEARCH_FP_CFG)[0]
    return val if math.isfinite(val) else operator_design._PENALTY


# (objective, x0, maxfev): together they take every step of the search
NELDER_MEAD_CASES = {
    # expansions, reflections, both contractions; stops on the tolerances
    "rosenbrock": (_rosenbrock, [-1.2, 1.0, 0.0, 0.5], 5000),
    # the minimum lies outside the box: trial points are clipped
    "outside-box": (lambda x: float(np.sum((x - 7.0) ** 2)), [4.0, -1.0, 0.0], 400),
    # x0 on the upper bound: its initial vertex is reflected into the box
    "upper-bound-start": (_rosenbrock, [5.0, 0.0, -5.0], 300),
    # a flat function shrinks every iteration, here cut inside a shrink
    "flat-cut-in-shrink": (lambda x: 1.0, [0.5, -0.5, 0.0, 2.0], 9),
    # cut inside the initial simplex
    "cut-in-initial-simplex": (_rosenbrock, [0.1, 0.2, 0.3, 0.4, 0.5], 3),
    # tied penalties among 21 vertices, the simplex size of an L = 4 search
    "plateau-ties": (_plateau, [0.5] * 20, 600),
    # the pricing search's own objective at L = 2
    "operator-l2": (_operator_l2, [0.0] * 3 + [1.0] * 3, 120),
}

# the cases that stop on the tolerances; the others spend maxfev
TOLERANCE_STOPS = {"rosenbrock", "outside-box", "upper-bound-start"}


def _record(fun, points):
    def recorded(x):
        points.append(np.array(x, copy=True))
        return fun(x)

    return recorded


class TestNelderMead:
    """``operator_design.minimize`` takes scipy's steps, bit for bit."""

    @pytest.mark.parametrize("name", list(NELDER_MEAD_CASES))
    def test_same_points_as_scipy(self, name):
        from scipy.optimize import minimize as scipy_minimize

        fun, x0, maxfev = NELDER_MEAD_CASES[name]
        x0 = np.asarray(x0, dtype=float)
        ours, theirs = [], []
        count = operator_design.minimize(_record(fun, ours), x0.copy(), maxfev)
        box = operator_design._BOX
        res = scipy_minimize(
            _record(fun, theirs), x0.copy(), method="Nelder-Mead",
            bounds=[(-box, box)] * len(x0),
            options={"maxfev": maxfev, "xatol": operator_design._XATOL,
                     "fatol": operator_design._FATOL, "adaptive": True},
        )
        assert count == res.nfev == len(ours) == len(theirs)
        assert np.array(ours).tobytes() == np.array(theirs).tobytes()
        assert (count < maxfev) == (name in TOLERANCE_STOPS)

    def test_cases_run_every_line(self):
        # every line of the search and its helpers runs in some case above
        codes = [operator_design.minimize.__code__]
        codes += [c for c in codes[0].co_consts if hasattr(c, "co_code")]
        lines = {ln for code in codes for _, ln in dis.findlinestarts(code)}
        lines -= {code.co_firstlineno for code in codes}
        ran = set()

        def tracer(frame, event, arg):
            if frame.f_code not in codes:
                return None
            if event == "line":
                ran.add(frame.f_lineno)
            return tracer

        sys.settrace(tracer)
        try:
            for fun, x0, maxfev in NELDER_MEAD_CASES.values():
                operator_design.minimize(fun, np.asarray(x0, dtype=float), maxfev)
        finally:
            sys.settrace(None)
        assert lines - ran == set()
