"""Tests for the workloads' own reference checks.

    python3 -m pytest perfbench
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import lqgames as lq  # noqa: E402
import workloads  # noqa: E402


def _kron_dlyap(Acl, W):
    """X = Acl^T X Acl + W by one Kronecker solve (row-major vec)."""
    d = Acl.shape[0]
    X = np.linalg.solve(np.eye(d * d) - np.kron(Acl.T, Acl.T), W.reshape(-1))
    return X.reshape(d, d)


def _best_response(g, L, iters=20_000):
    """Inner Riccati fixed point K(L) in plain numpy."""
    Qt = g.Q - L.T @ g.Rv @ L
    At = g.A - g.C @ L
    P = Qt.copy()
    for _ in range(iters):
        K = np.linalg.solve(g.Ru + g.B.T @ P @ g.B, g.B.T @ P @ At)
        Pn = Qt + At.T @ P @ At - At.T @ P @ g.B @ K
        if np.abs(Pn - P).max() < 1e-15:
            break
        P = Pn
    return np.linalg.solve(g.Ru + g.B.T @ P @ g.B, g.B.T @ P @ At)


def _whitened_projection(g, L, zeta):
    def powers(M):
        w, V = np.linalg.eigh(M)
        return (V * np.sqrt(w)) @ V.T, (V / np.sqrt(w)) @ V.T
    M = g.Q - zeta * np.eye(g.d)
    if np.linalg.eigvalsh(M - L.T @ g.Rv @ L)[0] >= -1e-12:
        return L
    rv_h, rv_ih = powers(g.Rv)
    m_h, m_ih = powers(M)
    U, s, Vt = np.linalg.svd(rv_h @ L @ m_ih, full_matrices=False)
    return rv_ih @ (U * np.minimum(s, 1.0)) @ Vt @ m_h


@pytest.mark.parametrize("spec", workloads.EXACT_D3_SOLVERS[:3], ids=lambda s: s["variant"])
def test_case2_projected_costs_are_projected_fixed_points(spec):
    g = lq.case2()
    nash = lq.solve_gare(g)
    omega = lq.OmegaSet.for_game(g, nash=nash)  # L* is outside: zeta = min eig(Q) / 2
    cfg = lq.OuterConfig(variant=spec["variant"], tol=spec["tol"],
                         projection=lq.PROJECTION_WHITENED_SV_CLIP)
    pair, _ = lq.solve_nested(g, np.zeros((1, 3)), cfg, omega)

    # everything below is plain numpy
    L = np.array(pair.L)
    K = _best_response(g, L)
    Acl = g.A - g.B @ K - g.C @ L
    P = _kron_dlyap(Acl, g.Q + K.T @ g.Ru @ K - L.T @ g.Rv @ L)
    Sigma = _kron_dlyap(Acl.T, g.Sigma0)
    F = (-g.Rv + g.C.T @ P @ g.C) @ L - g.C.T @ P @ (g.A - g.B @ K)
    if spec["variant"] == "NG":
        D, eta = 2.0 * F @ Sigma, 0.1
    elif spec["variant"] == "NaturalNG":
        D, eta = 2.0 * F, 0.05
    else:
        G = g.Ru + g.B.T @ P @ g.B
        W = g.Rv - g.C.T @ (P - P @ g.B @ np.linalg.solve(G, g.B.T @ P)) @ g.C
        D, eta = 2.0 * np.linalg.solve(W, F), 1.0 / (2.0 * np.linalg.norm(W, 2))
    mapping = (_whitened_projection(g, L + eta * D, omega.zeta) - L) / (2.0 * eta)

    assert np.linalg.norm(mapping) <= 10 * spec["tol"]
    assert np.linalg.eigvalsh(g.Q - L.T @ g.Rv @ L)[0] >= omega.zeta - 1e-9
    cost = float(np.trace(P @ g.Sigma0))
    ref = workloads.CASE2_PROJECTED_COST[f"nested-{spec['variant']}"]
    assert cost == pytest.approx(ref, rel=workloads.COST_RTOL)
    assert cost < nash.value  # Omega excludes L*, so the maximizer gets less


def test_gare_check_rejects_a_perturbed_solution():
    g = lq.case1()
    nash = lq.solve_gare(g)
    assert workloads.gare_check(g, nash) is None
    bad = lq.NashSolution(Pstar=nash.Pstar * (1 + 1e-6), Kstar=nash.Kstar, Lstar=nash.Lstar,
                          value=nash.value, iterations=nash.iterations,
                          residual=nash.residual)
    assert "residual" in workloads.gare_check(g, bad)
    bad = lq.NashSolution(Pstar=nash.Pstar, Kstar=nash.Kstar + 1e-6, Lstar=nash.Lstar,
                          value=nash.value, iterations=nash.iterations,
                          residual=nash.residual)
    assert "gains" in workloads.gare_check(g, bad)


def test_random_games_are_seeded_and_satisfy_the_assumptions():
    games, rejected = workloads.draw_games(seed=5, per_dim=1)
    again, rejected_again = workloads.draw_games(seed=5, per_dim=1)
    assert rejected == rejected_again
    assert [k for k, _, _ in games] == ["d24-0", "d48-0"]
    for (_, g, nash), (_, g2, _) in zip(games, again):
        assert np.array_equal(g.A, g2.A)
        report = lq.check_assumptions(g, nash)
        assert report.part_i_holds and report.part_ii_holds
        assert g.m1 == workloads.LARGE_M1 and g.m2 == workloads.LARGE_M2
