"""Shared fixtures and independent oracles used across the test suite."""
import os
import sys
import tracemalloc

import numpy as np
import pytest

import oligosched as og
from oligosched.statespace import _solve_dlyap


def subprocess_env(**extra):
    """Environment for a fresh interpreter that imports this checkout: the
    test process's, with PYTHONPATH from sys.path and without OLIGO_SEED or
    the OpenBLAS thread variables, then ``extra`` set on top."""
    dropped = ("OLIGO_SEED", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    env.update(extra)
    return env


@pytest.fixture(scope="session")
def ss2():
    return og.build_state_space(2)


@pytest.fixture(scope="session")
def ss3():
    return og.build_state_space(3)


@pytest.fixture(scope="session")
def ss5():
    return og.build_state_space(5)


def expected_two_period_cost(u, x, d2, profile, p, gamma=0.0):
    """Literal expected two-period cost of the current flexible agent.

    Independent oracle: the realized cost is written straight from the
    market rules (marginal-cost price, deadline consumption, optional fee
    share gamma of other agents' demand) and the expectation over the next
    period is taken by enumerating arrivals and Gauss-Hermite quadrature
    over the Gaussian loads (exact, the integrand is quadratic).
    """
    nodes, wts = np.polynomial.hermite_e.hermegauss(7)
    wts = wts / wts.sum()
    a, b, g = profile.a, profile.b, profile.g
    total = (x + u) * (u + gamma * x)
    for h1, ph1 in ((1, p.q1), (0, 1.0 - p.q1)):
        for h2, ph2 in ((1, p.q2), (0, 1.0 - p.q2)):
            if ph1 == 0.0 or ph2 == 0.0:
                continue
            for z1, w1 in zip(nodes, wts):
                for z2, w2 in zip(nodes, wts):
                    d1n = p.mu1 + p.sigma1 * z1
                    d2n = p.mu2 + p.sigma2 * z2
                    xn = (d2 - u) + h1 * d1n
                    un = h2 * (-a * xn + b * d2n + g)
                    price = xn + un
                    own = (d2 - u) + gamma * (h1 * d1n + h2 * un)
                    total += ph1 * ph2 * w1 * w2 * price * own
    return total


def best_response_oracle(x, d2, profile, p, gamma=0.0):
    """Argmin over u of the expected two-period cost (exact quadratic fit)."""
    vals = [
        expected_two_period_cost(u, x, d2, profile, p, gamma)
        for u in (-1.0, 0.0, 1.0)
    ]
    c2 = (vals[2] + vals[0]) / 2.0 - vals[1]
    c1 = (vals[2] - vals[0]) / 2.0
    assert c2 > 0.0, "two-period cost is not strictly convex in u"
    return -c1 / (2.0 * c2)


def spectral_radius(F, ss):
    """Oracle: spectral radius of the closed loop R1(I - F), from its eigenvalues."""
    M = ss.R1 @ (np.eye(ss.D_c) - np.asarray(F, dtype=float))
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def guard_stable(F, ss, margin=1e-6):
    """Raise UnstableError unless the doubling solve certifies the closed loop
    R1(I - F) below 1 - ``margin``: the oracles' guard, wider than the library's."""
    M = ss.R1 @ (np.eye(ss.D_c) - np.asarray(F, dtype=float))
    _solve_dlyap(M, ss.R2 @ ss.R2.T, margin)


def random_stable_gain(ss, rng, scale=0.08):
    """Even-split gain plus a perturbation, rescaled until stable."""
    base = og.even_split_gain(ss)
    for _ in range(40):
        F = base + scale * rng.standard_normal((ss.D_c, ss.D_c))
        if spectral_radius(F, ss) < 0.95:
            return F
        scale *= 0.5
    return base


def traced_peak(run, warm_up):
    """Peak bytes that tracemalloc sees allocated during ``run()``.

    ``warm_up()`` runs first, untraced, so that what is made once per
    process (cached imports, numpy's first-use state) is not counted.
    """
    warm_up()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
