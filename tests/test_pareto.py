"""Scalarized H2 synthesis and the three-way tradeoff front."""
import numpy as np
import pytest

import oligosched as og
from conftest import guard_stable, random_stable_gain, spectral_radius
from oligosched import pareto, statespace
from oligosched.fixed_point import even_split_gain
from oligosched.statespace import _solve_dlyap

# Largest |G|inf of the exact gradient that certifies a gain stationary; the
# default grid at L = 2-14 certifies below 1e-13.
TOL_GRAD = 1e-6


def guarded_objective(F, weights, ss):
    """objective_and_gradient of a gain that first passes the 1e-6 guard."""
    guard_stable(F, ss)
    return og.objective_and_gradient(F, weights, ss)


def descend_oracle(F0, weights, ss, tol_grad=1e-6, max_iter=5000, shrink=0.5):
    """Independent oracle: exact-gradient descent on J(F) from a stable F0.

    Barzilai-Borwein trial steps with Armijo backtracking; every trial gain
    passes the 1e-6 spectral-radius guard of guarded_objective.  Stops
    at |G|inf <= tol_grad, after max_iter steps or when no step is
    accepted.  Returns the final gain, objective, gradient and the
    objective after each accepted step.
    """
    F = F0.copy()
    J, G = guarded_objective(F, weights, ss)
    objectives = [J]
    t = 1.0 / (1.0 + float(np.linalg.norm(G)))
    for _ in range(max_iter):
        if float(np.max(np.abs(G))) <= tol_grad:
            break
        gsq = float(np.sum(G * G))
        accepted = False
        while t >= 1e-18:
            Fn = F - t * G
            try:
                Jn, Gn = guarded_objective(Fn, weights, ss)
            except og.UnstableError:
                Jn = np.inf
            if Jn <= J - 1e-4 * t * gsq:
                sF = Fn - F
                sG = Gn - G
                denom = float(np.sum(sF * sG))
                t_next = float(np.sum(sF * sF)) / denom if denom > 0 else t * 2.0
                F, J, G = Fn, Jn, Gn
                t = min(max(t_next, 1e-12), 1e3)
                accepted = True
                objectives.append(J)
                break
            t *= shrink
        if not accepted:
            break
    return F, J, G, objectives


# Regularizations eps of the singular control weight D12'D12, smallest first
# in half-decade rungs: ordqz rejects rungs erratically.
_EPS_LADDER = (1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 3e-7, 1e-6, 3e-6, 1e-5)


def dare_oracle(weights, ss):
    """Independent oracle: the Riccati gain of an eps-regularized DARE.

    Solves scipy's solve_discrete_are with D12'D12 inflated by eps I on each
    rung of _EPS_LADDER and returns (F, J) for the first rung whose exact
    gradient certifies |G|inf <= TOL_GRAD, or None when no rung does.
    """
    from scipy.linalg import solve_discrete_are

    C1, D12 = pareto._plant_outputs(weights, ss)
    A, B = ss.R1, -ss.R1
    S = C1.T @ D12
    for eps in _EPS_LADDER:
        R = D12.T @ D12 + eps * np.eye(ss.D_c)
        try:
            X = solve_discrete_are(A, B, C1.T @ C1, R, s=S)
            F = -np.linalg.solve(R + B.T @ X @ B, B.T @ X @ A + S.T)
            J, G = guarded_objective(F, weights, ss)
        except (ValueError, og.UnstableError):  # ordqz failures are ValueErrors
            continue
        if np.max(np.abs(G)) <= TOL_GRAD:
            return F, J
    return None


def policy_oracle(weights, ss, cap=100):
    """Independent oracle: Hewer's policy iteration (G. A. Hewer, IEEE TAC
    16(4), 1971).

    Starts from F = I, whose closed loop R1(I - F) = 0 is stable for every
    L and weight, and alternates evaluation, J = trace(R2'P R2) with P the
    adjoint Gramian of the gain, and improvement to the minimizer of the
    one-step cost F = -(R + B2'P B2)^+ (B2'P A + S') with R = D12'D12 and
    S = C1'D12 (Anderson & Moore, Optimal Control, 1990, ch. 2-3), until a
    step no longer lowers J or after ``cap`` steps.  R is singular, since
    only the sum of the deadline-slot controls enters cost or dynamics, so
    the step takes the least-squares solution.  Returns the gain before the
    step that ended it, its J and the J of every evaluated gain.
    """
    C1, D12 = pareto._plant_outputs(weights, ss)
    A, B = ss.R1, -ss.R1
    R, S = D12.T @ D12, C1.T @ D12

    def evaluate(F):
        M = ss.R1 @ (np.eye(ss.D_c) - F)
        C = C1 + D12 @ F
        P = _solve_dlyap(M.T, C.T @ C)[0]
        return P, float(np.trace(ss.R2.T @ P @ ss.R2))

    F = np.eye(ss.D_c)
    P, J = evaluate(F)
    trace = [J]
    for _ in range(cap):
        F_next = -np.linalg.lstsq(R + B.T @ P @ B, B.T @ P @ A + S.T)[0]
        P_next, J_next = evaluate(F_next)
        trace.append(J_next)
        if not J_next < J:
            break
        F, P, J = F_next, P_next, J_next
    return F, J, trace


def squared_weights(w):
    """(a1, a2, a3, r): the squared weights and r = a1 a3/(a1 + a3), 0 when a1 + a3 = 0."""
    a1, a2, a3 = w.alpha1 ** 2, w.alpha2 ** 2, w.alpha3 ** 2
    return a1, a2, a3, (a1 * a3 / (a1 + a3) if a1 + a3 > 0.0 else 0.0)


class TestDegenerateWeights:
    """Corner weights where the bound's root p or r vanishes."""

    @pytest.mark.parametrize("triple", [(1, 2, 3), (1, 0, 1), (1, 0, 0), (0, 0, 1),
                                        (2, 1, 0), (1, 1e-3, 1), (3, 1, 1)])
    def test_l1_is_the_scalar_case(self, triple):
        # no flexible slot: J = a1 F^2 + a2 + a3 (1 - F)^2, least at a3/(a1 + a3)
        ss = og.build_state_space(1)
        w = og.OutputWeights.normalized(*triple)
        a1, a2, a3, r = squared_weights(w)
        pt = og.synthesize(w, ss)
        assert pt.gain.F[0, 0] == pytest.approx(a3 / (a1 + a3), rel=1e-12, abs=1e-15)
        assert pt.objective == pytest.approx(a2 + r, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("L", [2, 3])
    def test_no_backlog_weight_with_r_positive_is_unstable(self, L, monkeypatch):
        # a2 = 0 and r > 0: the optimal loop gain K is 0, the open loop,
        # refused before any Lyapunov solve
        calls = []
        monkeypatch.setattr(statespace, "_solve_dlyap", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(pareto, "_solve_dlyap", lambda *a, **k: calls.append(a))
        with pytest.raises(og.UnstableError, match=r"alpha2 = 0 .* K = 0"):
            og.synthesize(og.OutputWeights.normalized(1.0, 0.0, 1.0), og.build_state_space(L))
        assert calls == []

    @pytest.mark.parametrize("L", [1, 2, 3, 5])
    def test_demand_only_costs_nothing(self, L):
        pt = og.synthesize(og.OutputWeights.normalized(1.0, 0.0, 0.0), og.build_state_space(L))
        assert pt.objective == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("L", [1, 2, 3, 5])
    def test_backlog_only_costs_l(self, L):
        pt = og.synthesize(og.OutputWeights.normalized(0.0, 1.0, 0.0), og.build_state_space(L))
        assert pt.objective == pytest.approx(L, rel=1e-12)

    @pytest.mark.parametrize("L", [2, 3, 5])
    @pytest.mark.parametrize("triple", [(0, 1, 0), (0, 1, 3), (2, 1, 0)])
    def test_r_zero_clears_the_backlog(self, triple, L):
        # r = 0 < a2 gives K = 1: demand plus mismatch clears every column,
        # e'F + e_L'(I - F) = e'; with a1 = 0 it is all demand, e'F = e'
        ss = og.build_state_space(L)
        w = og.OutputWeights.normalized(*triple)
        F = og.synthesize(w, ss).gain.F
        cleared = F.sum(axis=0) + ss.e_L @ (np.eye(ss.D_c) - F)
        assert np.max(np.abs(cleared - 1.0)) <= 1e-8
        if w.alpha1 == 0.0:
            assert np.max(np.abs(F.sum(axis=0) - 1.0)) <= 1e-8


class TestObjectiveAndGradient:
    def test_matches_weighted_norms(self, ss3):
        rng = np.random.default_rng(0)
        F = random_stable_gain(ss3, rng)
        w = og.OutputWeights.normalized(1.0, 2.0, 0.5)
        J, _ = og.objective_and_gradient(F, w, ss3)
        rep = og.h2_norms(F, ss3)
        assert J == pytest.approx(
            w.alpha1 ** 2 * rep.z1sq + w.alpha2 ** 2 * rep.z2sq + w.alpha3 ** 2 * rep.z3sq,
            rel=1e-12,
        )

    def test_gradient_against_central_differences(self, ss3):
        rng = np.random.default_rng(1)
        w = og.OutputWeights.normalized(1.0, 1.0, 2.0)
        h = 1e-6
        for _ in range(5):
            F = random_stable_gain(ss3, rng)
            _, G = og.objective_and_gradient(F, w, ss3)
            for _ in range(6):
                i, j = rng.integers(0, 6, size=2)
                Fp, Fm = F.copy(), F.copy()
                Fp[i, j] += h
                Fm[i, j] -= h
                Jp, _ = og.objective_and_gradient(Fp, w, ss3)
                Jm, _ = og.objective_and_gradient(Fm, w, ss3)
                fd = (Jp - Jm) / (2.0 * h)
                assert abs(fd - G[i, j]) <= 1e-5 * (1.0 + abs(fd))

    def test_demand_only_zero_gain_is_optimal(self, ss3):
        w = og.OutputWeights.normalized(1.0, 0.0, 0.0)
        J, G = og.objective_and_gradient(np.zeros((6, 6)), w, ss3)
        assert J == pytest.approx(0.0, abs=1e-14)
        assert np.max(np.abs(G)) <= 1e-12

    def test_mismatch_only_identity_is_optimal(self, ss3):
        w = og.OutputWeights.normalized(0.0, 0.0, 1.0)
        J, _ = og.objective_and_gradient(np.eye(6), w, ss3)
        assert J == pytest.approx(0.0, abs=1e-14)

    def test_unstable_rejected(self, ss2):
        F = np.zeros((3, 3))
        F[2, 1] = -1.5
        with pytest.raises(og.UnstableError):
            og.objective_and_gradient(F, og.OutputWeights.normalized(1, 1, 1), ss2)


class TestSynthesize:
    def test_descent_is_monotone(self, ss3):
        w = og.OutputWeights.normalized(1.0, 1.0, 3.0)
        _, _, _, objectives = descend_oracle(even_split_gain(ss3), w, ss3)
        assert np.all(np.diff(objectives) <= 0)

    @pytest.mark.parametrize("L", [2, 3, 5])
    def test_riccati_matches_descent_oracle(self, L):
        # one weight from each corner of the default grid plus its centre
        ss = og.build_state_space(L)
        for m, r in ((0.1, 0.3), (0.9, 0.3), (0.5, 3.0), (0.1, 100.0), (0.9, 100.0)):
            w = og.OutputWeights.normalized(m, 1.0 - m, r)
            pt = og.synthesize(w, ss)
            _, J_oracle, _, _ = descend_oracle(even_split_gain(ss), w, ss)
            J, G = guarded_objective(pt.gain.F, w, ss)
            assert np.max(np.abs(G)) <= TOL_GRAD
            assert abs(pt.gap) <= pareto._TOL_GAP * pt.lower_bound + 1e-14
            assert J <= J_oracle * (1 + 1e-9)
            assert pt.objective == pytest.approx(J, rel=1e-10)

    @pytest.mark.parametrize("L", [2, 3, 5])
    def test_not_above_dare_oracle_on_default_grid(self, L):
        ss = og.build_state_space(L)
        certified = 0
        for w in og.default_weight_grid():
            oracle = dare_oracle(w, ss)
            if oracle is None:
                continue
            certified += 1
            J, _ = og.objective_and_gradient(og.synthesize(w, ss).gain, w, ss)
            assert J <= oracle[1] * (1 + 1e-12)
        assert certified >= 20

    def test_l12_default_weight_certifies(self):
        # the eps-regularized DARE certifies this weight on no decade rung
        ss = og.build_state_space(12)
        w = og.OutputWeights.normalized(0.1, 0.9, 10.0)
        pt = og.synthesize(w, ss)
        _, G = guarded_objective(pt.gain.F, w, ss)
        assert np.max(np.abs(G)) <= TOL_GRAD

    @pytest.mark.parametrize("L", [2, 8])
    def test_edge_weight_certifies(self, L):
        # no rung of the eps-regularized DARE certifies this weight
        ss = og.build_state_space(L)
        w = og.OutputWeights.normalized(1.0, 0.001, 1.0)
        pt = og.synthesize(w, ss)
        _, G = guarded_objective(pt.gain.F, w, ss)
        assert np.max(np.abs(G)) <= TOL_GRAD

    @pytest.mark.parametrize("L", [2, 3, 5, 8])
    def test_closed_form_matches_policy_oracle(self, L):
        ss = og.build_state_space(L)
        for w in og.default_weight_grid():
            pt = og.synthesize(w, ss)
            F, J, trace = policy_oracle(w, ss)
            # Hewer's iteration never raises J; only the step that ends it
            # fails to lower J
            assert np.all(np.diff(trace)[:-1] < 0) and trace[-1] >= trace[-2]
            assert pt.objective == pytest.approx(J, rel=1e-12)
            assert np.max(np.abs(pt.gain.F - F)) <= 1e-8

    @pytest.mark.parametrize("L", range(2, 15))
    def test_gain_is_block_constant_and_meets_the_bound(self, L):
        # meeting the bound makes a gain globally optimal, so stationary:
        # the exact gradient confirms it
        ss = og.build_state_space(L)
        blocks = (slice(0, L), slice(L, ss.D_c))
        for w in og.default_weight_grid():
            pt = og.synthesize(w, ss)
            for rows in blocks:
                for cols in blocks:
                    block = pt.gain.F[rows, cols]
                    assert np.all(block == block[0, 0])
            _, a2, _, r = squared_weights(w)
            p = pareto._scalar_riccati(r, a2)
            assert p > 0.0 and p * p - a2 * p - r * a2 == pytest.approx(0.0, abs=1e-14)
            assert pt.lower_bound == L * p
            assert pt.gap == pt.objective - pt.lower_bound
            assert abs(pt.gap) <= pareto._TOL_GAP * pt.lower_bound + 1e-14
            assert pt.objective == pytest.approx(L * p, rel=1e-10)
            _, G = og.objective_and_gradient(pt.gain, w, ss)
            assert np.max(np.abs(G)) <= TOL_GRAD

    def test_one_gramian_per_weight(self, ss5, monkeypatch):
        real = statespace._solve_dlyap
        margins = []

        def counted(M, W, margin=0.0):
            margins.append(margin)
            return real(M, W, margin)

        monkeypatch.setattr(statespace, "_solve_dlyap", counted)
        monkeypatch.setattr(pareto, "_solve_dlyap", counted)
        grid = [og.OutputWeights.normalized(m, 1.0 - m, 1.0) for m in (0.2, 0.5, 0.8)]
        assert len(og.trace_front(grid, ss5)) == 3
        # Q_F of each gain, certified at the library margin, and no adjoint
        assert margins == [statespace._STABILITY_MARGIN] * 3

    def test_uncertifiable_gap_tolerance_raises(self, ss3, monkeypatch):
        # a negative relative tolerance puts the admissible gap below zero
        w = og.OutputWeights.normalized(1.0, 1.0, 1.0)
        monkeypatch.setattr(pareto, "_TOL_GAP", -1.0)
        with pytest.raises(og.NotConvergedError, match="gap"):
            og.synthesize(w, ss3)

    def test_failed_lyapunov_solve_raises_and_front_drops_point(self, ss2, monkeypatch):
        grid = [og.OutputWeights.normalized(m, 1.0 - m, 2.0) for m in (0.2, 0.5, 0.8)]
        real = statespace._solve_dlyap
        # the Gramian equation of the middle weight's gain F: its closed
        # loop is R1(I - F)
        F = og.synthesize(grid[1], ss2).gain.F
        M_middle = ss2.R1 @ (np.eye(ss2.D_c) - F)
        calls = []

        def fails_for_middle(M, W, margin=0.0):
            if np.array_equal(M, M_middle):
                calls.append(M)
                raise og.UnstableError("Lyapunov doubling series diverged")
            return real(M, W, margin)

        monkeypatch.setattr(statespace, "_solve_dlyap", fails_for_middle)
        with pytest.raises(og.UnstableError):
            og.synthesize(grid[1], ss2)
        assert len(calls) == 1
        with pytest.warns(UserWarning, match="synthesis failed for weights") as rec:
            front = og.trace_front(grid, ss2)
        assert len(rec) == 1
        assert 1 <= len(front) <= 2
        assert all(p.weights is not grid[1] for p in front)

    def test_deadline_dominant_weights_enforce_deadlines(self, ss2):
        w = og.OutputWeights.normalized(0.6, 0.4, 100.0)
        pt = og.synthesize(w, ss2)
        assert pt.report.z3sq <= 1e-3 * (pt.report.z1sq + pt.report.z2sq)
        assert spectral_radius(pt.gain.F, ss2) < 1.0

    def test_objective_recomputable_from_report(self, ss2):
        w = og.OutputWeights.normalized(1.0, 2.0, 3.0)
        pt = og.synthesize(w, ss2)
        recomputed = (
            w.alpha1 ** 2 * pt.report.z1sq
            + w.alpha2 ** 2 * pt.report.z2sq
            + w.alpha3 ** 2 * pt.report.z3sq
        )
        assert pt.objective == pytest.approx(recomputed, abs=1e-10)

    def test_sweep_front_is_non_dominated(self, ss2):
        grid = [
            og.OutputWeights.normalized(m, 1.0 - m, 2.0)
            for m in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        pts = og.trace_front(grid, ss2)
        assert len(pts) == len(grid)  # every optimum is kept
        for p in pts:
            for q in pts:
                if p is q:
                    continue
                assert not (
                    q.report.z1sq < p.report.z1sq
                    and q.report.z2sq < p.report.z2sq
                    and q.report.z3sq < p.report.z3sq
                )
        keys = [(p.report.z3sq, p.report.z2sq) for p in pts]
        assert keys == sorted(keys)

    def test_singleton_grid(self, ss2):
        w = og.OutputWeights.normalized(1.0, 1.0, 1.0)
        front = og.trace_front([w], ss2)
        single = og.synthesize(w, ss2)
        assert len(front) == 1
        assert front[0].objective == pytest.approx(single.objective, rel=1e-12)

    def test_empty_grid_rejected(self, ss2):
        with pytest.raises(og.InvalidParamsError):
            og.trace_front([], ss2)

    def test_library_failures_skipped_other_errors_propagate(self, ss2, monkeypatch):
        grid = [og.OutputWeights.normalized(m, 1.0 - m, 2.0) for m in (0.2, 0.5, 0.8)]
        real = pareto.synthesize

        def unstable_at_middle(w, ss):
            if w is grid[1]:
                raise og.UnstableError("closed loop lost stability")
            return real(w, ss)

        monkeypatch.setattr(pareto, "synthesize", unstable_at_middle)
        with pytest.warns(UserWarning, match="synthesis failed for weights") as rec:
            front = og.trace_front(grid, ss2)
        assert len(rec) == 1
        assert 1 <= len(front) <= 2
        assert all(p.weights is not grid[1] for p in front)

        def broken(w, ss):
            raise ZeroDivisionError("not a library failure")

        monkeypatch.setattr(pareto, "synthesize", broken)
        with pytest.raises(ZeroDivisionError):
            og.trace_front(grid, ss2)

    def test_front_dominates_heuristic_classes(self, ss3):
        # two guaranteed consequences of scalarized optimality: no heuristic
        # member strictly beats a front point in all three measures, and
        # every front point's weighted objective is at most the member's
        # weighted value (the member is a feasible gain)
        grid = [
            og.OutputWeights.normalized(m, 1.0 - m, r)
            for r in (1.0, 10.0, 100.0)
            for m in (0.2, 0.5, 0.8)
        ]
        front = og.trace_front(grid, ss3)
        heuristics = [
            og.h2_norms(og.make_f_br(d, ss3), ss3)
            for d in np.linspace(0.05, 0.45, 9)
        ]
        heuristics += [
            og.h2_norms(og.make_f_alpha(a, ss3), ss3)
            for a in np.linspace(0.1, 0.9, 9)
        ]
        slack = 1e-9
        for h in heuristics:
            for p in front:
                assert not (
                    h.z1sq < p.report.z1sq - slack
                    and h.z2sq < p.report.z2sq - slack
                    and h.z3sq < p.report.z3sq - slack
                )
                w = p.weights
                member_value = (
                    w.alpha1 ** 2 * h.z1sq
                    + w.alpha2 ** 2 * h.z2sq
                    + w.alpha3 ** 2 * h.z3sq
                )
                # near-optimality certificate; slack covers the gradient
                # stopping rule of the synthesis
                assert p.objective <= member_value * (1 + 1e-3) + 1e-6
