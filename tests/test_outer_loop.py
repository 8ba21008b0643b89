"""Outer maximizer loop: directions, projection, and nested convergence."""

import hashlib
import warnings

import numpy as np
import pytest
import scipy.linalg

import lqgames as lq
from lqgames import linalg, outer_loop

from conftest import load_perfbench


def test_w_matrix_closed_forms(g1, nash1):
    # zero input channel: W reduces to Rv - C^T P C
    g = lq.LqGame(A=0.5 * np.eye(3), B=np.zeros((3, 1)), C=[[0.1], [0.0], [0.0]],
                  Q=np.eye(3), Ru=[[1.0]], Rv=[[2.0]], Sigma0=np.eye(3))
    P = np.diag([1.0, 2.0, 3.0])
    W = lq.w_matrix(g, P)
    assert np.allclose(W, g.Rv - g.C.T @ P @ g.C, atol=1e-14)
    # P = 0: W = Rv
    assert np.allclose(lq.w_matrix(g1, np.zeros((3, 3))), g1.Rv, atol=1e-14)


def test_w_matrix_definiteness_guard():
    # disturbance channel orthogonal to the control channel: no cancellation
    g = lq.LqGame(A=0.5 * np.eye(3), B=[[1.0], [0.0], [0.0]], C=[[0.0], [1.0], [0.0]],
                  Q=np.eye(3), Ru=[[1.0]], Rv=[[2.0]], Sigma0=np.eye(3))
    with pytest.raises(lq.DefinitenessError):
        lq.w_matrix(g, 1000.0 * np.eye(3))
    W = lq.w_matrix(g, 1000.0 * np.eye(3), require_pd=False)
    assert np.linalg.eigvalsh(W)[0] < 0


def test_nested_gradient_matches_finite_differences(g1):
    rng = np.random.default_rng(21)
    L = rng.uniform(-0.15, 0.15, size=(1, 3))
    grad = lq.solve_inner_riccati(g1, L).ev.gradL

    def maximin_cost(Lx):
        r = lq.solve_inner_riccati(g1, Lx)
        return lq.evaluate(g1, lq.PolicyPair(K=r.K, L=Lx)).cost

    h = 1e-5
    fd = np.zeros_like(L)
    for idx in np.ndindex(*L.shape):
        for sgn in (1.0, -1.0):
            Lp = L.copy()
            Lp[idx] += sgn * h
            fd[idx] += sgn * maximin_cost(Lp)
    fd /= 2 * h
    assert np.linalg.norm(grad - fd, "fro") <= 1e-4 * max(1.0, np.linalg.norm(grad))


def test_natural_direction_identity(g1, nash1):
    # gradL Sigma^{-1} = 2F wherever Sigma is invertible
    rng = np.random.default_rng(22)
    L = rng.uniform(-0.15, 0.15, size=(1, 3))
    K = lq.solve_inner_riccati(g1, L).K
    ev = lq.evaluate(g1, lq.PolicyPair(K=K, L=L))
    lhs = np.linalg.solve(ev.Sigma, ev.gradL.T).T
    assert np.linalg.norm(lhs - 2.0 * ev.F, "fro") <= 1e-9 * max(
        1.0, np.linalg.norm(ev.F, "fro"))


def test_omega_default_zeta(g1, nash1):
    om = lq.OmegaSet.for_game(g1, nash=nash1)
    rep = lq.check_assumptions(g1, nash1)
    assert om.zeta == pytest.approx(0.5 * rep.ql_margin, rel=1e-9)
    assert om.margin(nash1.Lstar, g1) > 0  # the equilibrium stays interior


def test_omega_explicit_zeta_validation(g1, nash1):
    with pytest.raises(ValueError):
        lq.OmegaSet.for_game(g1, zeta=-1.0)
    with pytest.raises(lq.DefinitenessError):
        lq.OmegaSet.for_game(g1, zeta=2.0)  # exceeds lambda_min(Q) = 1
    with pytest.raises(ValueError):
        # above the equilibrium margin: Omega would exclude the Nash gain
        lq.OmegaSet.for_game(g1, zeta=0.9, nash=nash1)


def test_projection_scalar_boundary_case():
    g = lq.LqGame(A=[[0.0]], B=[[1.0]], C=[[1.0]], Q=[[1.0]], Ru=[[1.0]],
                  Rv=[[1.0]], Sigma0=[[1.0]])
    om = lq.OmegaSet.for_game(g, zeta=0.19)
    L = np.array([[2.0]])
    out = lq.project_omega(L, om, g)
    assert abs(out[0, 0] - 0.9) <= 1e-12


def test_projection_identity_idempotence_feasibility(g1, nash1):
    om = lq.OmegaSet.for_game(g1, nash=nash1)
    rng = np.random.default_rng(23)
    interior = rng.uniform(-0.1, 0.1, size=(1, 3))
    assert lq.project_omega(interior, om, g1) is not None
    assert np.array_equal(lq.project_omega(interior, om, g1), interior)
    for scale in (1.0, 2.0, 5.0):
        L = scale * rng.uniform(-1.0, 1.0, size=(1, 3))
        P1 = lq.project_omega(L, om, g1)
        assert om.margin(P1, g1) >= -1e-9
        P2 = lq.project_omega(P1, om, g1)
        assert np.linalg.norm(P2 - P1, "fro") <= 1e-12


def test_projection_contraction_on_spherical_weights():
    # on spherical Rv and M the whitened clip is the exact weighted projection,
    # which must be firmly nonexpansive in the weighted trace inner product
    g = lq.LqGame(A=np.zeros((3, 3)), B=np.eye(3), C=np.eye(3),
                  Q=(0.75 + 0.25) * np.eye(3), Ru=np.eye(3), Rv=2.0 * np.eye(3),
                  Sigma0=np.eye(3))
    om = lq.OmegaSet.for_game(g, zeta=0.25)  # M = 0.75 I
    rng = np.random.default_rng(24)
    for _ in range(25):
        L1 = rng.normal(scale=1.5, size=(3, 3))
        L2 = rng.normal(scale=1.5, size=(3, 3))
        P1 = lq.project_omega(L1, om, g)
        P2 = lq.project_omega(L2, om, g)
        D, DP = L1 - L2, P1 - P2
        lhs = np.trace(D @ om.M @ DP.T @ g.Rv)
        rhs = np.trace(DP @ om.M @ DP.T @ g.Rv)
        assert lhs >= rhs - 1e-10


def test_projected_step_computes_the_candidates_margin_once(g1, nash1, monkeypatch):
    om = lq.OmegaSet.for_game(g1, nash=nash1)
    calls = []
    margin = lq.OmegaSet.margin
    monkeypatch.setattr(lq.OmegaSet, "margin", lambda *a: calls.append(1) or margin(*a))
    L, D = np.zeros((1, 3)), np.array([[1.0, -2.0, 0.5]])
    for eta, active in ((1e-3, False), (10.0, True)):
        calls.clear()
        Lp, mapping, proj_active = outer_loop.projected_step(g1, L, D, eta, om)
        assert len(calls) == 1 and proj_active == active
        assert np.array_equal(Lp, lq.project_omega(L + eta * D, om, g1))
        assert np.array_equal(mapping, (Lp - L) / (2.0 * eta))


def test_projected_case2_takes_rv_roots_once_per_game(monkeypatch):
    # 259 of the 269 steps project; each took Rv's square roots anew before
    game = lq.case2()  # a fresh game: the roots are kept on it
    om = lq.OmegaSet.for_game(game, nash=lq.solve_gare(game))
    calls = []
    roots = linalg.sym_sqrt_and_inv_sqrt
    monkeypatch.setattr(linalg, "sym_sqrt_and_inv_sqrt",
                        lambda M, *a, **kw: calls.append(M) or roots(M, *a, **kw))
    cfg = lq.OuterConfig(variant=lq.NG, tol=1e-7, projection=lq.PROJECTION_WHITENED_SV_CLIP)
    _, trace = lq.solve_nested(game, np.zeros((1, 3)), cfg, om)
    assert trace.converged and sum(r.proj_active for r in trace.rows) == 259
    assert len(calls) == 1 and calls[0] is game.Rv
    # the same bytes as when every projection took the roots itself
    assert hashlib.sha256(trace.to_csv().encode()).hexdigest() == (
        "9c3e97b78806fa2b5b3ff7197d7063ef9158e1260a2b19500139acfea0cea1a6")


def test_outer_step_directions(g1):
    rng = np.random.default_rng(25)
    L = rng.uniform(-0.1, 0.1, size=(1, 3))
    res = lq.solve_inner_riccati(g1, L)
    ev = lq.evaluate(g1, lq.PolicyPair(K=res.K, L=L))

    def step(cfg):
        return outer_loop.projected_step(g1, L, *outer_loop._direction(g1, ev, cfg))

    Lp, mapping, proj_active = step(lq.OuterConfig(variant=lq.NG, eta=0.1))
    assert np.array_equal(Lp, L + 0.1 * ev.gradL)
    assert np.allclose(mapping, 0.5 * ev.gradL, atol=1e-14)
    assert not proj_active

    Lp, _, _ = step(lq.OuterConfig(variant=lq.NATURAL_NG, eta=0.05))
    assert np.linalg.norm(Lp - (L + 0.05 * 2.0 * ev.F), "fro") <= 1e-12

    Lp, _, _ = step(lq.OuterConfig(variant=lq.GAUSS_NEWTON_NG))  # adaptive stepsize
    W = lq.w_matrix(g1, ev.P)
    eta = 1.0 / (2.0 * np.linalg.norm(W, 2))
    assert np.linalg.norm(Lp - (L + eta * 2.0 * np.linalg.solve(W, ev.F)),
                          "fro") <= 1e-12


@pytest.mark.parametrize("variant", [lq.GAUSS_NEWTON_NG, lq.NATURAL_NG])
def test_nested_converges_case1(g1, nash1, variant):
    om = lq.OmegaSet.for_game(g1, nash=nash1)
    cfg = lq.OuterConfig(variant=variant, tol=1e-7, max_iter=6000,
                         projection=lq.PROJECTION_WHITENED_SV_CLIP)
    pair, trace = lq.solve_nested(g1, np.zeros((1, 3)), cfg, om)
    assert trace.converged
    assert abs(trace.rows[-1].cost - nash1.value) <= 1e-6
    assert np.linalg.norm(pair.K - nash1.Kstar, "fro") <= 1e-4
    assert np.linalg.norm(pair.L - nash1.Lstar, "fro") <= 1e-4
    assert trace.monotone_cost()
    assert all(row.rho < 1.0 for row in trace.rows)


def test_nested_from_equilibrium_is_immediate(g1, nash1):
    cfg = lq.OuterConfig(variant=lq.GAUSS_NEWTON_NG, tol=1e-6)
    pair, trace = lq.solve_nested(g1, nash1.Lstar, cfg)
    assert trace.converged and len(trace.rows) == 1
    assert trace.rows[0].grad_map_norm <= 1e-6


def test_nested_budget_exhaustion_returns_partial(g1):
    cfg = lq.OuterConfig(variant=lq.NG, eta=0.1, tol=1e-12, max_iter=5)
    pair, trace = lq.solve_nested(g1, np.zeros((1, 3)), cfg)
    assert not trace.converged
    assert len(trace.rows) == 6
    assert pair.L.shape == (1, 3)


def test_nested_rejects_infeasible_start(g1, nash1):
    om = lq.OmegaSet.for_game(g1, nash=nash1)
    cfg = lq.OuterConfig(projection=lq.PROJECTION_WHITENED_SV_CLIP)
    with pytest.raises(ValueError):
        lq.solve_nested(g1, np.array([[5.0, 0.0, 0.0]]), cfg, om)


def test_nested_attaches_partial_trace_on_inner_failure(g1):
    icfg = lq.InnerConfig(method=lq.PG, alpha=1e-3, tol=1e-12, max_iter=3)
    cfg = lq.OuterConfig(variant=lq.NG, eta=0.1, inner=icfg)
    with pytest.raises(lq.ConvergenceError) as exc:
        lq.solve_nested(g1, np.zeros((1, 3)), cfg)
    assert hasattr(exc.value, "trace")


@pytest.mark.parametrize("projection", [lq.PROJECTION_OFF, lq.PROJECTION_WHITENED_SV_CLIP])
def test_nested_diverging_step_is_a_typed_error(g1, nash1, projection):
    # eta = 1e300 takes L0 = 0 to about 1e298, where L^T Rv L overflows
    cfg = lq.OuterConfig(variant=lq.NG, eta=1e300, projection=projection)
    omega = lq.OmegaSet.for_game(g1, nash=nash1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow RuntimeWarning on the way
        with pytest.raises(lq.ConvergenceError, match="outer step 0 diverged") as exc:
            lq.solve_nested(g1, np.zeros((1, 3)), cfg, omega)
    assert exc.value.iterations == 0
    assert isinstance(exc.value.trace, lq.OuterTrace) and exc.value.trace.rows == []


def test_failed_riccati_warm_start_falls_back_to_a_cold_solve(g1):
    # with P0 = -I/lambda_max(B Ru^-1 B') the Newton steps lose Ru + B'PB > 0
    L = np.zeros((1, 3))
    G = g1.B @ np.linalg.solve(g1.Ru, g1.B.T)
    P_bad = -np.eye(3) / np.linalg.eigvalsh(G)[-1]
    with pytest.raises(lq.ConvergenceError):
        lq.solve_inner_riccati(g1, L, P0=P_bad)
    prev = lq.InnerResult(K=None, P=P_bad, iterations=0, final_grad_norm=0.0, trace=[])
    res = outer_loop._solve_inner_warm(g1, L, prev, lq.InnerConfig(method=lq.RICCATI))
    assert np.array_equal(res.P, lq.solve_inner_riccati(g1, L).P)


def test_warm_start_on_an_anti_stabilizing_root_falls_back_to_a_cold_solve(g1):
    # the inner DARE at L = 0 has a root built from the symplectic pencil's
    # eigenvalues outside the unit circle; Newton steps started there stay there
    L = np.zeros((1, 3))
    A, B, d = g1.A, g1.B, g1.d
    G = B @ np.linalg.solve(g1.Ru, B.T)
    w, V = scipy.linalg.eig(np.block([[A, np.zeros((d, d))], [-g1.Q, np.eye(d)]]),
                            np.block([[np.eye(d), G], [np.zeros((d, d)), A.T]]))
    U = V[:, np.abs(w) > 1.0]
    P_anti = np.real(U[d:] @ np.linalg.inv(U[:d]))
    P_anti = 0.5 * (P_anti + P_anti.T)
    K_anti = np.linalg.solve(g1.Ru + B.T @ P_anti @ B, B.T @ P_anti @ A)
    assert np.abs(np.linalg.eigvals(A - B @ K_anti)).max() > 10.0
    with pytest.raises(lq.UnstableError):
        lq.solve_inner_riccati(g1, L, P0=P_anti)
    prev = lq.InnerResult(K=K_anti, P=P_anti, iterations=0, final_grad_norm=0.0, trace=[])
    res = outer_loop._solve_inner_warm(g1, L, prev, lq.InnerConfig(method=lq.RICCATI))
    assert np.array_equal(res.P, lq.solve_inner_riccati(g1, L).P)


def test_warm_inner_solves_take_few_newton_steps_on_large_draws(monkeypatch):
    # a warm start near the new solution needs a few Newton steps and no
    # doublings; the fixed-point polish took 7-23 iterations here
    games, _ = load_perfbench("workloads").draw_games(4)
    warm_iterations = []
    solve = lq.inner_loop.solve_inner_riccati

    def traced(game, L, *args, **kwargs):
        res = solve(game, L, *args, **kwargs)
        if kwargs.get("P0") is not None:
            warm_iterations.append(res.iterations)
        return res

    monkeypatch.setattr(lq.inner_loop, "solve_inner_riccati", traced)
    cfg = lq.OuterConfig(variant=lq.GAUSS_NEWTON_NG,
                         inner=lq.InnerConfig(method=lq.RICCATI, tol=1e-10))
    for key, game, _ in games:
        if key.startswith("d48"):
            _, trace = lq.solve_nested(game, np.zeros((game.m2, game.d)), cfg)
            assert trace.converged, key
    assert len(warm_iterations) >= 12
    assert max(warm_iterations) <= 5


def test_riccati_inner_meets_default_tol_on_large_draws():
    # on these d = 48 benchmark draws the doubling result alone left
    # ||gradK|| ~ 1.1e-10 > 1e-10; the Newton step after it is what passes
    games, _ = load_perfbench("workloads").draw_games(4)
    draws = {key: (game, nash) for key, game, nash in games}
    cfg = lq.OuterConfig(variant=lq.GAUSS_NEWTON_NG,
                         inner=lq.InnerConfig(method=lq.RICCATI, tol=1e-10))
    for key in ("d48-2", "d48-3", "d48-10"):
        game, nash = draws[key]
        pair, trace = lq.solve_nested(game, np.zeros((game.m2, game.d)), cfg)
        assert trace.converged, key
        assert np.abs(pair.L - nash.Lstar).max() <= 1e-6, key
