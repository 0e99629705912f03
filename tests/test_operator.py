"""Operator pricing design: objective wiring, baseline guard, determinism."""
import math

import numpy as np
import pytest

import oligosched as og
from oligosched import fixed_point, operator_design

# An L = 3 pricing whose equilibrium (35 sweeps of the search's inner
# solve) has spectral radius within 1e-9 of 1: the equilibrium solve
# accepts it, and the Gramian solve of the objective cannot certify it.
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
        assert val == pytest.approx(rep.z1sq + rep.z2sq, rel=1e-10)

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
        assert 1.0 - sol.stability_margin == pytest.approx(radius, abs=1e-6)
        val, diag = og.evaluate_pricing(pricing, og.OperatorWeights(1.0, 1.0), ss3, cfg)
        assert math.isinf(val)
        assert diag == {
            "status": "unstable",
            "detail": f"fixed point reached but closed-loop spectral radius {radius:.6f} >= 1",
            "iterations": sweeps,
        }

    @pytest.mark.parametrize("fp_cfg", [operator_design._SEARCH_FP_CFG, None])
    def test_stability_boundary_pricing_reports_unstable(self, ss3, fp_cfg):
        pricing = og.PricingRule(*BOUNDARY_PRICING)
        sol = og.solve_mpe(pricing, ss3, fp_cfg)
        assert 0.0 < sol.stability_margin < 1e-9
        w = og.OperatorWeights(1.0, 1.0)
        val, diag = og.evaluate_pricing(pricing, w, ss3, fp_cfg)
        assert math.isinf(val)
        assert diag["status"] == "unstable"
        assert diag["iterations"] == sol.iterations
        assert "not below 1 - 1e-09" in diag["detail"]


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
        assert res.failures == {"singular-row": 0, "not-converged": 1, "unstable": 0}

    def test_never_worse_than_baseline_and_deterministic(self, ss2):
        w = og.OperatorWeights(1.0, 1.0)
        a = og.optimize_pricing(w, ss2, budget=150, seed=11)
        b = og.optimize_pricing(w, ss2, budget=150, seed=11)
        assert a.objective <= a.baseline_objective
        assert a.objective == b.objective
        assert np.array_equal(a.pricing.q1, b.pricing.q1)
        assert np.array_equal(a.pricing.q2, b.pricing.q2)
        assert a.evaluations == b.evaluations

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
        assert res.failures == {"singular-row": 0, "not-converged": 0, "unstable": 0}
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
            "singular-row": 0, "not-converged": 0, "unstable": res.evaluations
        }
        assert res.inner_sweeps == 35 * res.evaluations
        assert res.gain is None and math.isinf(res.objective)

    def test_restart_search_runs_and_repeats(self, ss2, monkeypatch):
        # at budget 1000 the first search meets its tolerances after 397
        # evaluations, and a second starts from a seeded perturbation of
        # marginal-cost pricing
        real = operator_design.minimize
        starts, nfev = [], []

        def recording(fun, x0, **kwargs):
            starts.append(x0.copy())
            res = real(fun, x0, **kwargs)
            nfev.append(res.nfev)
            return res

        monkeypatch.setattr(operator_design, "minimize", recording)
        w = og.OperatorWeights(1.0, 1.0)
        a = og.optimize_pricing(w, ss2, budget=1000, seed=0)
        baseline = np.concatenate([np.zeros(3), np.ones(3)])
        gen = og.rngstreams.stream(0, 0)
        assert np.array_equal(starts[0], baseline)
        assert np.array_equal(starts[1], np.clip(
            baseline + 0.25 * gen.standard_normal(6), -operator_design._BOX, operator_design._BOX
        ))
        assert nfev == [397, 602]
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
