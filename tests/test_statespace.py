"""State-space construction, Lyapunov solvers, H2 norms, gain classes."""
import warnings

import numpy as np
import pytest

import oligosched as og
from conftest import guard_stable, random_stable_gain, spectral_radius
from oligosched.statespace import _solve_dlyap

# six-slot system matrices for L=3, checked bit for bit
R1_L3 = np.array(
    [
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 0],
    ],
    dtype=float,
)
R2_L3 = np.array(
    [
        [1, 0, 0],
        [0, 0, 0],
        [0, 0, 0],
        [0, 1, 0],
        [0, 0, 0],
        [0, 0, 1],
    ],
    dtype=float,
)


def kronecker_dlyap(M, W):
    """Oracle: solve M X M' - X + W = 0 as the vectorized D^2 x D^2 system."""
    n = M.shape[0]
    A = np.eye(n * n) - np.kron(M, M)
    return np.linalg.solve(A, W.reshape(-1)).reshape(n, n)


def closed_loop(F, ss):
    return ss.R1 @ (np.eye(ss.D_c) - np.asarray(F))


def gain_near_margin(ss, target=1.0 - 1.5e-6):
    """Dense gain -t*11' whose closed-loop spectral radius is just below ``target``.

    The radius is 0 at t = 0 and above one at t = 5; bisection on t lands
    just inside the oracles' 1e-6 guard (conftest.guard_stable).
    """
    ones = np.ones((ss.D_c, ss.D_c))
    lo, hi = 0.0, 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        rho = spectral_radius(-mid * ones, ss)
        if rho < target:
            lo = mid
        else:
            hi = mid
        if abs(rho - target) <= 1e-9:
            break
    return -lo * ones


def paper_index_matrices(L):
    """Oracle: build R1/R2 by literal index arithmetic, no slot bookkeeping."""
    D = L * (L + 1) // 2
    R1 = np.zeros((D, D))
    for k in range(1, L):
        for i in range(1, L - k + 1):
            r = int((k - 1) * (L + (2 - k) / 2) + i + 1)
            c = int(k * (L + (1 - k) / 2) + i)
            R1[r - 1, c - 1] = 1.0
    R2 = np.zeros((D, L))
    for l in range(1, L + 1):
        r = int((l - 1) * (L + (2 - l) / 2) + 1)
        R2[r - 1, l - 1] = 1.0
    return R1, R2


class TestBuildStateSpace:
    def test_l3_bit_match(self, ss3):
        assert np.array_equal(ss3.R1, R1_L3)
        assert np.array_equal(ss3.R2, R2_L3)

    def test_l1(self):
        ss = og.build_state_space(1)
        assert ss.D_c == 1
        assert np.array_equal(ss.R1, np.zeros((1, 1)))
        assert np.array_equal(ss.R2, np.ones((1, 1)))

    def test_index_formula_matches_up_to_l10(self):
        for L in range(1, 11):
            ss = og.build_state_space(L)
            R1, R2 = paper_index_matrices(L)
            assert np.array_equal(ss.R1, R1)
            assert np.array_equal(ss.R2, R2)
            # position map is a bijection onto 0..D_c-1
            seen = {ss.position(l, tau) for (l, tau) in ss.pairs}
            assert seen == set(range(ss.D_c))
            # shifting moves (l, tau) to (l, tau-1) and kills deadline slots
            for (l, tau) in ss.pairs:
                v = np.zeros(ss.D_c)
                v[ss.position(l, tau)] = 1.0
                w = ss.R1 @ v
                if tau == 1:
                    assert not w.any()
                else:
                    assert w[ss.position(l, tau - 1)] == 1.0 and w.sum() == 1.0
            # a chain of tau-1 shifts empties any single-agent state
            v = np.zeros(ss.D_c)
            v[ss.position(L, L)] = 1.0
            assert not np.linalg.matrix_power(ss.R1, L).any()

    def test_e_l_structure(self, ss5):
        assert ss5.e_L.sum() == 5
        assert ss5.e_L[:5].all() and not ss5.e_L[5:].any()

    def test_rejects_bad_l(self):
        with pytest.raises(og.InvalidParamsError):
            og.build_state_space(0)
        with pytest.raises(og.InvalidParamsError, match="no slot"):
            og.build_state_space(3).position(4, 1)


class TestOutputWeights:
    def test_validation(self):
        with pytest.raises(og.InvalidParamsError, match="nonnegative"):
            og.OutputWeights(-0.6, 0.8, 0.0)
        with pytest.raises(og.InvalidParamsError, match="unit norm"):
            og.OutputWeights(1.0, 1.0, 0.0)
        with pytest.raises(og.InvalidParamsError, match="not all be zero"):
            og.OutputWeights.normalized(0.0, 0.0, 0.0)


class TestLyapunov:
    def test_identity_gain_one_step_memory(self, ss3):
        Q = og.solve_lyapunov(np.eye(6), ss3)
        assert np.allclose(Q, ss3.R2 @ ss3.R2.T, atol=1e-12)

    def test_zero_gain_closed_forms(self, ss3):
        Q = og.solve_lyapunov(np.zeros((6, 6)), ss3)
        assert ss3.e @ Q @ ss3.e == pytest.approx(6.0, abs=1e-10)
        assert ss3.e_L @ Q @ ss3.e_L == pytest.approx(3.0, abs=1e-10)

    def test_matches_truncated_series(self, ss5):
        rng = np.random.default_rng(11)
        F = random_stable_gain(ss5, rng)
        Q = og.solve_lyapunov(F, ss5)
        M = ss5.R1 @ (np.eye(15) - F)
        W = ss5.R2 @ ss5.R2.T
        S = np.zeros_like(W)
        T = W.copy()
        for _ in range(200):
            S += T
            T = M @ T @ M.T
        assert np.max(np.abs(Q - S)) <= 1e-8

    def test_residual_and_psd_on_random_gains(self):
        rng = np.random.default_rng(2)
        for L in (2, 3, 4, 5, 6):
            ss = og.build_state_space(L)
            for _ in range(5):
                F = random_stable_gain(ss, rng)
                Q = og.solve_lyapunov(F, ss)
                M = ss.R1 @ (np.eye(ss.D_c) - F)
                res = np.linalg.norm(M @ Q @ M.T - Q + ss.R2 @ ss.R2.T)
                assert res <= 1e-10 * (1.0 + np.linalg.norm(Q))
                assert np.min(np.linalg.eigvalsh(Q)) >= -1e-10 * np.linalg.norm(Q)

    def test_large_dimension_path_agrees_with_kronecker(self):
        # L=11 (D_c=66): the doubling solve against the vectorized system
        ss = og.build_state_space(11)
        br = og.make_f_br(0.25, ss)
        Q_series = og.solve_lyapunov(br, ss)
        Q_kron = kronecker_dlyap(closed_loop(br.F, ss), ss.R2 @ ss.R2.T)
        assert np.max(np.abs(Q_series - Q_kron)) <= 1e-9

    @pytest.mark.parametrize("L", [2, 3, 5, 6, 11])
    def test_doubling_matches_kronecker_oracle(self, L):
        ss = og.build_state_space(L)
        rng = np.random.default_rng(100 + L)
        W = ss.R2 @ ss.R2.T
        near = gain_near_margin(ss)
        rho = spectral_radius(near, ss)
        assert 1.0 - 2e-6 < rho <= 1.0 - 1e-6
        for F in (random_stable_gain(ss, rng), og.make_f_br(0.4, ss).F, near):
            M = closed_loop(F, ss)
            X = _solve_dlyap(M, W)[0]
            X_kron = kronecker_dlyap(M, W)
            assert np.max(np.abs(X - X_kron)) <= 1e-9 * max(1.0, np.max(np.abs(X_kron)))
        # the adjoint (observability) equation at the near-margin gain
        M = closed_loop(near, ss)
        C = rng.standard_normal((3, ss.D_c))
        P = _solve_dlyap(M.T, C.T @ C)[0]
        P_kron = kronecker_dlyap(M.T, C.T @ C)
        assert np.max(np.abs(P - P_kron)) <= 1e-9 * max(1.0, np.max(np.abs(P_kron)))

    @pytest.mark.parametrize(
        "radius, failure",
        [(1.0, "not converged"), (1.0 + 1e-6, "diverged"), (1.5, "diverged")],
    )
    def test_doubling_rejects_unstable_closed_loop(self, ss3, radius, failure):
        # at radius 1 the partial sums stay finite but never settle, so the
        # step cap ends the loop; above 1 they overflow
        M = radius * np.eye(6) + np.triu(np.ones((6, 6)), 1) * 0.1
        with pytest.raises(og.UnstableError, match=failure):
            _solve_dlyap(M, ss3.R2 @ ss3.R2.T)

    def test_unstable_rejected(self, ss2, ss3):
        # the surviving flexible slot amplifies itself through the shift
        F = np.zeros((3, 3))
        F[2, 1] = -1.5
        with pytest.raises(og.UnstableError):
            og.solve_lyapunov(F, ss2)
        # M = R1(I - F) = 1e5 u w' with w'u = 2.8e-17 in floats: the loop is
        # stable (eigvals, perturbed by the same cancellation, reads 5e-4),
        # but M X M' cancels terms 1e10 times the size of X, so the doubling
        # sum misses the equation by 1.4e-4 and the residual refuses it
        u = np.array([0.0, 1.0, 2.0, 0.0, 3.0, 0.0])
        w = np.array([1.0, 0.1, 0.2, 1.0, -0.5 / 3.0, 1.0])
        F = np.eye(6) - np.linalg.pinv(ss3.R1) @ (1e5 * np.outer(u, w))
        assert spectral_radius(F, ss3) < 1e-3
        with pytest.raises(og.UnstableError, match="Lyapunov residual"):
            og.solve_lyapunov(F, ss3)


class TestSpectralCertificate:
    """The doubling solve accepts X only when ||M^(2^k)||inf^(1/2^k), read
    from its own iterates, is below 1 - margin; eigvals is the oracle for
    the radius that bound must cover."""

    def test_radius_inside_margin_rejected(self):
        M = np.diag([1.0 - 1e-10, 0.5, 0.2])
        with pytest.raises(og.UnstableError, match="spectral bound"):
            _solve_dlyap(M, np.eye(3), margin=1e-9)
        # the bound is tight on a diagonal M: a smaller margin accepts it
        X = _solve_dlyap(M, np.eye(3), margin=1e-11)[0]
        assert X[0, 0] == pytest.approx(1.0 / (1.0 - M[0, 0] ** 2), rel=1e-6)

    def test_unstable_mode_that_w_does_not_excite_rejected(self):
        # the series converges (W only excites the 0.5 mode), but M is unstable
        M = np.diag([0.5, 1.5, 0.0])
        W = np.zeros((3, 3))
        W[0, 0] = 1.0
        with pytest.raises(og.UnstableError, match="spectral bound"):
            _solve_dlyap(M, W)

    def test_nilpotent_closed_loop_certified_by_squaring(self):
        # ||M||inf = 50 fails the bound at k = 0; M^2 = 0 certifies it
        M = np.zeros((3, 3))
        M[0, 1] = 50.0
        W = np.zeros((3, 3))
        W[0, 0] = 1.0  # e1 spans W's range and lies in M's null space
        assert np.array_equal(_solve_dlyap(M, W, margin=1e-6)[0], W)

    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
    def test_bound_never_below_eigvals_radius(self, L):
        ss = og.build_state_space(L)
        rng = np.random.default_rng(300 + L)
        W = ss.R2 @ ss.R2.T
        for _ in range(5):
            F = random_stable_gain(ss, rng)
            M = closed_loop(F, ss)
            rho = spectral_radius(F, ss)
            with pytest.raises(og.UnstableError, match="spectral bound"):
                _solve_dlyap(M, W, margin=1.0 - rho)
            # halfway to one the bound certifies, and X is the margin-free X
            X = _solve_dlyap(M, W, margin=0.5 * (1.0 - rho))[0]
            assert np.array_equal(X, _solve_dlyap(M, W)[0])

    @pytest.mark.parametrize("L", range(2, 15))
    def test_default_grid_front_gains_accepted(self, L):
        ss = og.build_state_space(L)
        for w in og.default_weight_grid():
            pt = og.synthesize(w, ss)
            assert spectral_radius(pt.gain.F, ss) < 1.0 - 1e-6
            guard_stable(pt.gain.F, ss)

    def test_criterion_12_mpe_gains_accepted(self):
        cases = [(2, og.FixedPointConfig(tol=1e-10))]
        cases += [(L, og.FixedPointConfig(damping=0.25)) for L in (2, 3, 4, 5)]
        for L, cfg in cases:
            ss = og.build_state_space(L)
            sol = og.solve_mpe(og.marginal_cost_pricing(ss), ss, cfg)
            og.solve_lyapunov(sol.gain, ss)

    @pytest.mark.parametrize("L", [2, 3, 5, 6, 11])
    def test_gain_near_margin_accepted(self, L):
        ss = og.build_state_space(L)
        guard_stable(gain_near_margin(ss), ss)


class TestH2Norms:
    def test_identity_gain(self, ss5):
        rep = og.h2_norms(np.eye(15), ss5)
        assert rep.z1sq == pytest.approx(5.0, abs=1e-10)
        assert rep.z2sq == pytest.approx(5.0, abs=1e-10)
        assert rep.z3sq == pytest.approx(0.0, abs=1e-12)

    def test_zero_gain(self, ss3):
        rep = og.h2_norms(np.zeros((6, 6)), ss3)
        assert (rep.z1sq, rep.z2sq, rep.z3sq) == (
            pytest.approx(0.0, abs=1e-12),
            pytest.approx(6.0, abs=1e-10),
            pytest.approx(3.0, abs=1e-10),
        )

    def test_deadline_rows_null_the_mismatch(self, ss3):
        rng = np.random.default_rng(4)
        F = og.make_f_dl_projection(random_stable_gain(ss3, rng), ss3)
        rep = og.h2_norms(F, ss3)
        assert rep.z3sq == pytest.approx(0.0, abs=1e-14)

    def test_permutation_symmetry(self, ss3):
        # swapping the two tau=2 agents leaves all three norms unchanged
        br = og.make_f_br(0.3, ss3)
        perm = [0, 2, 1, 3, 4, 5]  # swap (2,1) and (3,1)... types within tau=1
        P = np.eye(6)[perm]
        F_perm = P @ br.F @ P.T
        a = og.h2_norms(br, ss3)
        b = og.h2_norms(F_perm, ss3)
        assert a.z2sq == pytest.approx(b.z2sq, rel=1e-12)

    def test_large_dimension_series_path(self):
        # L=11 (D_c=66): quadratic forms of an independently solved Gramian
        ss = og.build_state_space(11)
        br = og.make_f_br(0.2, ss)
        rep = og.h2_norms(br, ss)
        Q = kronecker_dlyap(closed_loop(br.F, ss), ss.R2 @ ss.R2.T)
        assert rep.z1sq == pytest.approx(float(ss.e @ br.F @ Q @ br.F.T @ ss.e), rel=1e-9)
        assert rep.z2sq == pytest.approx(float(ss.e @ Q @ ss.e), rel=1e-9)


    def test_overflowing_report_is_invalid_params(self):
        # a finite, stabilizing gain whose squared norms exceed the float range
        ss = og.build_state_space(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(og.InvalidParamsError, match="not finite"):
                og.h2_norms([[1e308]], ss)


class TestGainClasses:
    def test_br_reference_pattern(self, ss3):
        delta = 0.37
        F = og.make_f_br(delta, ss3).F
        expected = np.array(
            [
                [1, 0, 0, 0, 0, 0],
                [0, 1, 0, 0, 0, 0],
                [0, 0, 1, 0, 0, 0],
                [-delta / 5, -delta / 5, -delta / 5, 1 - delta, -delta / 5, -delta / 5],
                [-delta / 5, -delta / 5, -delta / 5, -delta / 5, 1 - delta, -delta / 5],
                [-delta / 5, -delta / 5, -delta / 5, -delta / 5, -delta / 5, 1 - delta],
            ]
        )
        assert np.array_equal(F, expected)

    def test_br_zero_is_identity_like(self, ss3):
        F = og.make_f_br(0.0, ss3).F
        assert np.array_equal(F, np.eye(6))

    def test_br_stability_near_the_cap(self):
        for L in (3, 5, 8):
            ss = og.build_state_space(L)
            assert spectral_radius(og.make_f_br(0.45, ss).F, ss) < 1.0

    def test_br_range_check(self, ss3):
        with pytest.raises(og.InvalidParamsError):
            og.make_f_br(0.6, ss3)

    def test_alpha_class_membership(self, ss3):
        F = og.make_f_alpha(0.4, ss3).F
        assert np.allclose(np.diag(F), 1.0)
        off = F - np.diag(np.diag(F))
        assert np.all(off <= 0.0)
        assert np.allclose(off.sum(axis=1), -0.4)
        with pytest.raises(og.InvalidParamsError):
            og.make_f_alpha(1.5, ss3)

    def test_dl_projection(self, ss3):
        rng = np.random.default_rng(8)
        F = og.make_f_dl_projection(rng.standard_normal((6, 6)), ss3).F
        assert np.array_equal(F[:3], np.eye(6)[:3])


class TestBrTradeoff:
    def test_monotone_tradeoff_grid(self):
        deltas = np.linspace(0.05, 0.45, 11)
        for L in (3, 5, 8):
            ss = og.build_state_space(L)
            z1 = []
            z2 = []
            for d in deltas:
                rep = og.h2_norms(og.make_f_br(d, ss), ss)
                z1.append(rep.z1sq)
                z2.append(rep.z2sq)
            assert np.all(np.diff(z1) < 0)
            assert np.all(np.diff(z2) > 0)

    def test_volatility_approx_values(self):
        L = 7
        assert og.br_demand_volatility_approx(0.5, L) == pytest.approx(L / 36.0, abs=1e-12)
        grid = np.linspace(0.01, 0.49, 25)
        vals = [og.br_demand_volatility_approx(d, 40) for d in grid]
        assert np.all(np.diff(vals) < 0)

    def test_approx_tracks_exact_slope_at_large_l(self):
        # signs of finite differences agree with the exact Gramian values
        ss = og.build_state_space(50)
        deltas = (0.1, 0.2, 0.3, 0.4)
        exact = [og.h2_norms(og.make_f_br(d, ss), ss).z1sq for d in deltas]
        approx = [og.br_demand_volatility_approx(d, 50) for d in deltas]
        assert np.all(np.sign(np.diff(exact)) == np.sign(np.diff(approx)))


def _bad_gains(ss):
    """Gains every entry point refuses, by defect: the make_f_br(0.3) gain
    at L = 3 with one bad entry, a missing column or a short row, and a
    matrix of strings."""
    F = og.make_f_br(0.3, ss).F
    nan, inf = F.copy(), F.copy()
    nan[4, 2] = np.nan  # a flexible row, which the simulator does not overwrite
    inf[5, 0] = -np.inf
    ragged = F.tolist()
    ragged[4] = ragged[4][:-1]
    return {
        "nan": nan,
        "inf": inf,
        "shape": F[:, :-1],
        "ragged": ragged,
        "strings": [["x"] * ss.D_c] * ss.D_c,
    }


ENTRY_POINTS = {
    "h2_norms": lambda F, ss: og.h2_norms(F, ss),
    "solve_lyapunov": lambda F, ss: og.solve_lyapunov(F, ss),
    "objective_and_gradient": lambda F, ss: og.objective_and_gradient(
        F, og.OutputWeights.normalized(1.0, 1.0, 1.0), ss),
    "simulate_general": lambda F, ss: og.simulate_general(
        F, ss, og.ArrivalSpec(q=(0.7,)), og.SimConfig(horizon=200, seed=1)),
    "make_f_dl_projection": lambda F, ss: og.make_f_dl_projection(F, ss),
}


class TestGainCheck:
    """Every library entry point that takes a gain refuses a non-numeric,
    wrongly shaped or non-finite one with InvalidParamsError."""

    @pytest.mark.parametrize("defect", ["nan", "inf", "shape", "ragged", "strings"])
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_entry_point_refuses_bad_gain(self, ss3, entry, defect):
        with pytest.raises(og.InvalidParamsError, match="gain"):
            ENTRY_POINTS[entry](_bad_gains(ss3)[defect], ss3)

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_entry_point_accepts_gain_forms(self, ss3, entry):
        # a FeedbackGain, its array and the array's nested lists agree
        gain = og.make_f_br(0.3, ss3)
        results = [ENTRY_POINTS[entry](F, ss3) for F in (gain, gain.F, gain.F.tolist())]
        assert len({repr(r) for r in results}) == 1
