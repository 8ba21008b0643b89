"""End-to-end acceptance checks, one per shipped guarantee.

Each check prints one PASS/FAIL line (shown with -s, or on failure) and
enforces its tolerance exactly; together they cover the Riccati oracle, the
analytic solvers, the sampled-data solvers, and reproducibility.
"""

import contextlib
import time

import numpy as np
import pytest

import lqgames as lq
from lqgames import modelfree as mf

from conftest import cost_finite_horizon, rollout_length_for, stabilizing_start

P1_EXPECTED = np.array([
    [23.7658, 16.8959, 0.0937],
    [16.8959, 18.4645, 0.1014],
    [0.0937, 0.1014, 1.0107],
])
P2_EXPECTED = np.array([
    [6.0173, 5.6702, -0.0071],
    [5.6702, 5.4213, -0.0067],
    [-0.0071, -0.0067, 0.0102],
])
VALUE1 = 1.29723
VALUE2 = 0.34347


@contextlib.contextmanager
def check(num, label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {num:02d} {label}")
        raise
    print(f"[PASS] {num:02d} {label}")


# -- shared converged runs (criteria 5, 6, 7) ---------------------------------

@pytest.fixture(scope="module")
def accepted_runs(g1, g2, nash1, nash2):
    runs = {}
    omega1 = lq.OmegaSet.for_game(g1, nash=nash1)
    L0 = np.zeros((1, 3))
    for variant in (lq.NG, lq.NATURAL_NG, lq.GAUSS_NEWTON_NG):
        cfg = lq.OuterConfig(variant=variant, tol=1e-7, max_iter=6000,
                             projection=lq.PROJECTION_WHITENED_SV_CLIP,
                             inner=lq.InnerConfig(method=lq.RICCATI, tol=1e-9))
        runs["case1", variant] = (*lq.solve_nested(g1, L0, cfg, omega1), g1, nash1)

    cfg2 = lq.OuterConfig(variant=lq.GAUSS_NEWTON_NG, tol=1e-7, max_iter=6000,
                          projection=lq.PROJECTION_OFF,
                          inner=lq.InnerConfig(method=lq.RICCATI, tol=1e-9))
    runs["case2", "nested"] = (*lq.solve_nested(g2, L0, cfg2), g2, nash2)
    pi0 = stabilizing_start(g2)
    ag = lq.BaselineConfig(flavor=lq.NATURAL_PG, eta=0.05,
                           inner_iters=5, tol=1e-7, max_outer=10_000)
    runs["case2", "ag"] = (*lq.run_ag(g2, pi0, ag), g2, nash2)
    gda = lq.BaselineConfig(flavor=lq.GAUSS_NEWTON, eta=0.2,
                            tol=1e-7, max_outer=10_000)
    runs["case2", "gda"] = (*lq.run_gda(g2, pi0, gda), g2, nash2)
    return runs


# -- criteria ------------------------------------------------------------------

def test_criterion_01_oracle_reproduces_published_solutions():
    with check(1, "GARE oracle matches published values to 5e-4 in under 1s"):
        t0 = time.perf_counter()
        n1 = lq.solve_gare(lq.case1())
        n2 = lq.solve_gare(lq.case2())
        elapsed = time.perf_counter() - t0
        assert np.max(np.abs(n1.Pstar - P1_EXPECTED)) <= 5e-4
        assert np.max(np.abs(n2.Pstar - P2_EXPECTED)) <= 5e-4
        assert abs(n1.value - VALUE1) <= 5e-4
        assert abs(n2.value - VALUE2) <= 5e-4
        assert elapsed < 1.0


def test_criterion_02_assumption_margins(g1, g2, nash1, nash2):
    with check(2, "interiority/definiteness margins match to 1e-3"):
        r1 = lq.check_assumptions(g1, nash1)
        assert abs(r1.ql_margin - 0.87389) <= 1e-3
        assert abs(r1.rv_margin - 0.99634) <= 1e-3
        assert r1.part_i_holds and r1.part_ii_holds
        r2 = lq.check_assumptions(g2, nash2)
        assert abs(r2.ql_margin - (-0.0011)) <= 5e-4
        assert r2.rv_margin > 0.0
        assert r2.part_i_holds and not r2.part_ii_holds


def _fd_grad(fun, M, h=1e-5):
    G = np.zeros_like(M)
    for i in range(M.shape[0]):
        for j in range(M.shape[1]):
            E = np.zeros_like(M)
            E[i, j] = h
            G[i, j] = (fun(M + E) - fun(M - E)) / (2.0 * h)
    return G


def _random_stabilizing_pairs(game, count, seed):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        L = rng.normal(0.0, 0.15, size=(game.m2, game.d))
        try:
            K = lq.solve_inner_riccati(game, L).K
        except lq.LqGamesError:
            continue
        K = K + rng.normal(0.0, 0.1, size=(game.m1, game.d))
        acl = game.A - game.B @ K - game.C @ L
        if np.abs(np.linalg.eigvals(acl)).max() < 0.995:
            pairs.append(lq.PolicyPair(K, L))
    return pairs


def test_criterion_03_gradients_match_finite_differences(g1, g2):
    with check(3, "analytic gradients match central differences to 1e-5 "
                  "on 20 random pairs per game"):
        for game, seed in ((g1, 31), (g2, 32)):
            for pi in _random_stabilizing_pairs(game, 20, seed):
                ev = lq.evaluate(game, pi)
                fd_k = _fd_grad(
                    lambda K: lq.evaluate(game, lq.PolicyPair(K, pi.L)).cost, pi.K)
                fd_l = _fd_grad(
                    lambda L: lq.evaluate(game, lq.PolicyPair(pi.K, L)).cost, pi.L)
                for fd, g in ((fd_k, ev.gradK), (fd_l, ev.gradL)):
                    rel = (np.linalg.norm(fd - g, "fro")
                           / max(np.linalg.norm(g, "fro"), 1e-8))
                    assert rel <= 1e-5


def _interior_draws(game, omega, count, seed, sigma):
    # (L, K0) draws: L strictly inside Omega (relative to the margin at L = 0,
    # which is the largest attainable), K0 a stabilizing offset of the best
    # response so every gradient method starts from the same point
    rng = np.random.default_rng(seed)
    floor = 0.5 * omega.margin(np.zeros((game.m2, game.d)), game)
    out = []
    while len(out) < count:
        L = rng.normal(0.0, sigma, size=(game.m2, game.d))
        if omega.margin(L, game) <= floor:
            continue
        K0 = lq.solve_inner_riccati(game, L).K + rng.normal(0.0, 0.08, size=(game.m1, game.d))
        acl = game.A - game.B @ K0 - game.C @ L
        if np.abs(np.linalg.eigvals(acl)).max() < 0.95:
            out.append((L, K0))
    return out


def test_criterion_04_inner_methods_agree_with_riccati(g1, g2, nash1, nash2):
    with check(4, "PG/NaturalPG/GaussNewton inner solves agree with the "
                  "Riccati best response to 1e-6 at 10 draws per game"):
        for game, nash, pg_alpha, seed, sigma in ((g1, nash1, 0.05, 41, 0.2),
                                                  (g2, nash2, 0.3, 42, 0.05)):
            omega = lq.OmegaSet.for_game(game, nash=nash)
            for L, K0 in _interior_draws(game, omega, 10, seed, sigma):
                res_r = lq.solve_inner_riccati(game, L)
                best_cost = lq.evaluate(game, lq.PolicyPair(res_r.K, L)).cost
                for method, alpha in ((lq.PG, pg_alpha),
                                      (lq.NATURAL_PG, None),
                                      (lq.GAUSS_NEWTON, None)):
                    cfg = lq.InnerConfig(method=method, alpha=alpha, tol=1e-8)
                    res = lq.solve_inner(game, L, K0, cfg)
                    assert res.final_grad_norm <= 1e-8
                    assert np.linalg.norm(res.K - res_r.K, "fro") <= 1e-6
                    if method == lq.GAUSS_NEWTON:
                        gaps = [row.cost - best_cost for row in res.trace]
                        slope = lq.fit_log_slope(gaps)
                        assert slope is not None and slope <= -0.1


def test_criterion_05_nested_variants_converge_on_case1(accepted_runs, nash1):
    with check(5, "projected NG/NaturalNG/GaussNewtonNG all reach the case-1 "
                  "equilibrium (cost 1e-5, gains 1e-3, monotone cost)"):
        for variant in (lq.NG, lq.NATURAL_NG, lq.GAUSS_NEWTON_NG):
            pair, trace, game, nash = accepted_runs["case1", variant]
            assert trace.converged, variant
            assert abs(trace.rows[-1].cost - nash.value) <= 1e-5
            assert np.linalg.norm(pair.K - nash.Kstar, "fro") <= 1e-3
            assert np.linalg.norm(pair.L - nash.Lstar, "fro") <= 1e-3
            assert trace.monotone_cost()
            slope = lq.fit_log_slope(trace.map_norms())
            assert slope is not None and slope < 0.0


def test_criterion_06_all_families_recover_case2_equilibrium(accepted_runs):
    with check(6, "nested, AG, and GDA all recover the case-2 equilibrium "
                  "gains to 1e-3 without projection"):
        for key in (("case2", "nested"), ("case2", "ag"), ("case2", "gda")):
            pair, trace, game, nash = accepted_runs[key]
            assert trace.converged, key
            assert np.linalg.norm(pair.K - nash.Kstar, "fro") <= 1e-3
            assert np.linalg.norm(pair.L - nash.Lstar, "fro") <= 1e-3


def test_criterion_07_iterates_remain_stabilizing(accepted_runs):
    with check(7, "every recorded iterate across accepted runs is stabilizing"):
        n_rows = 0
        for pair, trace, game, nash in accepted_runs.values():
            for row in trace.rows:
                assert row.rho < 1.0
            n_rows += len(trace.rows)
        assert n_rows > 100  # the check covered real trajectories


def test_criterion_08_riccati_residual_and_series_value(g1, g2, nash1, nash2):
    with check(8, "GARE residual at most 1e-10; truncated-series cost matches "
                  "the value to 1e-9"):
        for game, nash in ((g1, nash1), (g2, nash2)):
            assert nash.residual <= 1e-10
            pair = lq.PolicyPair(nash.Kstar, nash.Lstar)
            ev = lq.evaluate(game, pair)
            assert abs(ev.cost - nash.value) <= 1e-9
            horizon = 2 * rollout_length_for(ev.rho, 1e-10)
            assert abs(cost_finite_horizon(game, pair, horizon) - nash.value) <= 1e-9


def test_criterion_09_projection_properties(g1, nash1):
    with check(9, "constraint projection is exact on scalars, idempotent, "
                  "feasible, and the identity on the interior"):
        gs = lq.LqGame(A=[[0.0]], B=[[1.0]], C=[[1.0]], Q=[[1.0]], Ru=[[1.0]],
                       Rv=[[1.0]], Sigma0=[[1.0]])
        oms = lq.OmegaSet.for_game(gs, zeta=0.19)
        assert abs(lq.project_omega(np.array([[2.0]]), oms, gs)[0, 0] - 0.9) <= 1e-12

        omega = lq.OmegaSet.for_game(g1, nash=nash1)
        rng = np.random.default_rng(91)
        for _ in range(25):
            L = rng.normal(0.0, 1.5, size=(1, 3))
            P1 = lq.project_omega(L, omega, g1)
            assert omega.margin(P1, g1) >= -1e-9
            P2 = lq.project_omega(P1, omega, g1)
            assert np.linalg.norm(P2 - P1, "fro") <= 1e-12
        interior = rng.uniform(-0.1, 0.1, size=(1, 3))
        assert np.array_equal(lq.project_omega(interior, omega, g1), interior)


def test_criterion_10_sampled_estimates_match_model_reproducibly(g1, k1_at_zero):
    with check(10, "zeroth-order estimates hit the model gradient to a few "
                   "percent and rerun bit-identically inside 2 minutes"):
        t0 = time.perf_counter()
        K = np.array([[-2.16165767, -1.13134919, -0.77918194]])
        L = np.array([[2.84248962, 1.4483512, -1.61644337]])
        ev = lq.evaluate(g1, lq.PolicyPair(K, L))
        R = rollout_length_for(ev.rho, 1e-10)
        cfg = lq.EstimatorConfig(m=200_000, R=R, r=0.01, seed=11)
        a = lq.RolloutEngine(g1, cfg.seed).estimate_inner(K, L, cfg.m, cfg.R, cfg.r)
        b = lq.RolloutEngine(g1, cfg.seed).estimate_inner(K, L, cfg.m, cfg.R, cfg.r)
        g_a, S_a = a.grad, a.Sigma
        assert np.array_equal(g_a, b.grad) and np.array_equal(S_a, b.Sigma)
        assert (np.linalg.norm(g_a - ev.gradK, "fro")
                / np.linalg.norm(ev.gradK, "fro")) <= 0.05
        assert (np.linalg.norm(S_a - ev.Sigma, "fro")
                / np.linalg.norm(ev.Sigma, "fro")) <= 0.01

        smoke = lq.EstimatorConfig(m=24, R=40, r=0.02, seed=2)
        kw = dict(T=2, eta=1e-4, inner_steps=1, inner_alpha=1e-4, K0=k1_at_zero)
        L_a, tr_a = lq.outer_ng_modelfree(g1, np.zeros((1, 3)), smoke,
                                          flavor=lq.NG, **kw)
        L_b, tr_b = lq.outer_ng_modelfree(g1, np.zeros((1, 3)), smoke,
                                          flavor=lq.NG, **kw)
        assert np.array_equal(L_a, L_b)
        assert tr_a.to_csv() == tr_b.to_csv()
        assert time.perf_counter() - t0 <= 120.0


def test_criterion_11_sampled_loops_reduce_to_analytic_loops(g1, k1_at_zero):
    with check(11, "with exact estimates the sampled loops replay the analytic "
                   "iterates; AG with a converged inner loop follows nested "
                   "NaturalNG to 1e-8"):
        # inner: same floats, step for step
        L = np.zeros((1, 3))
        K0 = k1_at_zero + np.array([[0.1, 0.05, -0.1]])
        icfg = lq.InnerConfig(method=lq.PG, alpha=0.05, tol=1e-6, max_iter=20_000)
        res = lq.solve_inner(g1, L, K0, icfg)

        def exact_inner(K_, L_):
            ev = lq.evaluate(g1, lq.PolicyPair(K_, L_))
            return lq.GradEstimate(grad=ev.gradK, Sigma=ev.Sigma, cost_mean=ev.cost,
                                   cost_std=0.0, m=0, rho_max=ev.rho)

        K_mf = lq.inner_ng_modelfree(g1, L, K0, lq.EstimatorConfig(),
                                     res.iterations + 10, 0.05, flavor=lq.PG,
                                     tol=1e-6, estimator=exact_inner)
        assert np.array_equal(K_mf, res.K)

        # outer: same floats through the warm-started Riccati chain
        hold = {"P": None}

        def exact_outer(L_):
            r = None
            if hold["P"] is not None:
                try:
                    r = lq.solve_inner_riccati(g1, L_, P0=hold["P"])
                except (lq.ConvergenceError, lq.DefinitenessError):
                    r = None
            if r is None or r.final_grad_norm > 1e-10:
                r = lq.solve_inner_riccati(g1, L_)
            hold["P"] = r.P
            ev = lq.evaluate(g1, lq.PolicyPair(r.K, L_))
            return lq.GradEstimate(grad=ev.gradL, Sigma=ev.Sigma, cost_mean=ev.cost,
                                   cost_std=0.0, m=0, rho_max=ev.rho)

        T = 5
        _, tr_mf = lq.outer_ng_modelfree(g1, np.zeros((1, 3)), lq.EstimatorConfig(),
                                         T, 0.1, flavor=lq.NG, estimator=exact_outer)
        cfg = lq.OuterConfig(variant=lq.NG, eta=0.1, tol=1e-300, max_iter=T,
                             inner=lq.InnerConfig(method=lq.RICCATI, tol=1e-10))
        _, tr_ng = lq.solve_nested(g1, np.zeros((1, 3)), cfg)
        for rm, rn in zip(tr_mf.rows, tr_ng.rows):
            assert np.array_equal(rm.L, rn.L)

        # AG with the inner loop run to tolerance is the nested method
        ag = lq.BaselineConfig(flavor=lq.NATURAL_PG, eta=0.05,
                               inner_iters=100_000, inner_tol=1e-12,
                               tol=1e-6, max_outer=40)
        _, tr_ag = lq.run_ag(g1, stabilizing_start(g1), ag)
        ncfg = lq.OuterConfig(variant=lq.NATURAL_NG, eta=0.05, tol=1e-6, max_iter=40,
                              inner=lq.InnerConfig(method=lq.RICCATI, tol=1e-10))
        _, tr_nn = lq.solve_nested(g1, np.zeros((1, 3)), ncfg)
        n = min(len(tr_ag.rows), len(tr_nn.rows))
        assert n > 5
        for ra, rn in zip(tr_ag.rows[:n], tr_nn.rows[:n]):
            assert np.linalg.norm(ra.L - rn.L, "fro") <= 1e-8
