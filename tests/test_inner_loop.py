"""Best-response solvers: Riccati route vs gradient routes vs scipy."""

import numpy as np
import pytest
import scipy.linalg

import lqgames as lq
from lqgames import inner_loop
from lqgames.trace import CSV_HEADER


def random_interior_l(game, rng):
    # keep lambda_min(Q - L^T Rv L) comfortably positive
    while True:
        L = rng.uniform(-0.2, 0.2, size=(game.m2, game.d))
        Qt = game.Q - L.T @ game.Rv @ L
        if np.linalg.eigvalsh(0.5 * (Qt + Qt.T))[0] > 0.05:
            return L


def scipy_best_response(game, L):
    At = game.A - game.C @ L
    Qt = game.Q - L.T @ game.Rv @ L
    P = scipy.linalg.solve_discrete_are(At, game.B, Qt, game.Ru)
    K = np.linalg.solve(game.Ru + game.B.T @ P @ game.B, game.B.T @ P @ At)
    return K, P


def test_riccati_matches_scipy(g1):
    rng = np.random.default_rng(11)
    for _ in range(10):
        L = random_interior_l(g1, rng)
        res = lq.solve_inner_riccati(g1, L)
        K_sp, P_sp = scipy_best_response(g1, L)
        assert np.linalg.norm(res.K - K_sp, "fro") <= 1e-9
        assert np.linalg.norm(res.P - P_sp, "fro") <= 1e-8 * np.linalg.norm(P_sp)
        assert res.final_grad_norm <= 1e-9


def test_riccati_warm_start_agrees(g1):
    rng = np.random.default_rng(12)
    L_a = random_interior_l(g1, rng)
    L_b = L_a + 0.01
    cold = lq.solve_inner_riccati(g1, L_b)
    warm = lq.solve_inner_riccati(g1, L_b, P0=lq.solve_inner_riccati(g1, L_a).P)
    assert warm.iterations < cold.iterations
    assert np.linalg.norm(warm.K - cold.K, "fro") <= 1e-9


def test_riccati_cold_solve_takes_few_doublings(g1, g2, nash1, nash2):
    # a cold solve is ~10 doublings plus a Newton step or two, where value
    # iteration took hundreds of steps
    for game, nash in ((g1, nash1), (g2, nash2)):
        assert nash.iterations <= 16
        for L in (np.zeros((1, 3)), 0.5 * nash.Lstar, nash.Lstar):
            res = lq.solve_inner_riccati(game, L)
            assert res.iterations <= 16
            _, P_sp = scipy_best_response(game, L)
            assert np.linalg.norm(res.P - P_sp, "fro") <= 1e-10 * np.linalg.norm(P_sp, "fro")


def test_gauss_newton_half_step_is_best_response_in_p(g1, k1_at_zero):
    # one step at alpha = 1/2 lands exactly on the response implied by P(K0)
    L = np.zeros((1, 3))
    K0 = k1_at_zero + np.array([[0.2, -0.1, 0.1]])
    ev = lq.evaluate(g1, lq.PolicyPair(K=K0, L=L))
    cfg = lq.InnerConfig(method=lq.GAUSS_NEWTON, alpha=0.5)
    K1 = lq.inner_step(g1, K0, L, cfg)
    direct = np.linalg.solve(g1.Ru + g1.B.T @ ev.P @ g1.B,
                             g1.B.T @ ev.P @ (g1.A - g1.C @ L))
    assert np.linalg.norm(K1 - direct, "fro") <= 1e-12


def test_natural_step_equals_two_alpha_e(g1, k1_at_zero):
    L = np.zeros((1, 3))
    K0 = k1_at_zero + np.array([[0.1, 0.05, -0.1]])
    ev = lq.evaluate(g1, lq.PolicyPair(K=K0, L=L))
    cfg = lq.InnerConfig(method=lq.NATURAL_PG, alpha=0.02)
    K1 = lq.inner_step(g1, K0, L, cfg)
    assert np.linalg.norm(K1 - (K0 - 2 * 0.02 * ev.E), "fro") <= 1e-12


@pytest.mark.parametrize("method,alpha", [
    (lq.PG, 0.05),
    (lq.NATURAL_PG, None),
    (lq.GAUSS_NEWTON, 0.5),
])
def test_gradient_routes_agree_with_riccati(g1, k1_at_zero, method, alpha):
    rng = np.random.default_rng(13)
    L = random_interior_l(g1, rng)
    target = lq.solve_inner_riccati(g1, L)
    cfg = lq.InnerConfig(method=method, alpha=alpha, tol=1e-8)
    res = lq.solve_inner(g1, L, k1_at_zero, cfg)
    assert res.final_grad_norm <= 1e-8
    assert np.linalg.norm(res.K - target.K, "fro") <= 1e-6


def test_gauss_newton_log_gap_slope(g1, k1_at_zero):
    L = np.zeros((1, 3))
    K0 = k1_at_zero + np.array([[0.2, -0.1, 0.1]])
    star = lq.solve_inner_riccati(g1, L)
    c_star = lq.evaluate(g1, lq.PolicyPair(K=star.K, L=L)).cost
    cfg = lq.InnerConfig(method=lq.GAUSS_NEWTON, alpha=0.5, tol=1e-12)
    res = lq.solve_inner(g1, L, K0, cfg)
    gaps = [row.cost - c_star for row in res.trace]
    slope = lq.fit_log_slope(gaps, window=len(gaps))
    assert slope is not None and slope <= -0.1


def test_inner_trace_csv_shape(g1, k1_at_zero):
    cfg = lq.InnerConfig(method=lq.GAUSS_NEWTON, alpha=0.5, tol=1e-10)
    res = lq.solve_inner(g1, np.zeros((1, 3)), k1_at_zero, cfg)
    assert len(res.trace) == res.iterations + 1  # rows 0..iterations
    lines = lq.OuterTrace(rows=res.trace).to_csv().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == res.iterations + 2  # header + rows


def test_config_validation():
    with pytest.raises(ValueError):
        lq.InnerConfig(method=lq.GAUSS_NEWTON, alpha=0.6)
    with pytest.raises(ValueError):
        lq.InnerConfig(method="Newton")
    with pytest.raises(ValueError):
        lq.InnerConfig(tol=0.0)
    with pytest.raises(ValueError):
        lq.InnerConfig(alpha=-1.0)


def test_oversized_stepsize_reports_iteration(g1, k1_at_zero):
    cfg = lq.InnerConfig(method=lq.PG, alpha=5.0, tol=1e-10, max_iter=50)
    K0 = k1_at_zero + np.array([[0.25, -0.2, 0.15]])
    with pytest.raises(lq.UnstableError) as exc:
        lq.solve_inner(g1, np.zeros((1, 3)), K0, cfg)
    assert exc.value.iteration is not None


def test_riccati_domain_error_outside_feasible_set(g1):
    with pytest.raises(lq.DefinitenessError):
        lq.solve_inner_riccati(g1, np.array([[3.0, 3.0, 3.0]]))
