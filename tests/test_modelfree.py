"""Zeroth-order estimation and the sampled-data solvers."""

import numpy as np
import pytest

import lqgames as lq
from lqgames import modelfree as mf


# -- sphere sampling ---------------------------------------------------------

def test_sphere_batches_are_unbiased(g1):
    # entries have std r/sqrt(dim); a 5-sigma band on the mean of 1e5 draws
    eng = mf.RolloutEngine(g1, 123)
    U = eng.draw_perturbations(100_000, 1, 3, 1.0)
    assert np.allclose(np.linalg.norm(U, axis=(1, 2)), 1.0, atol=1e-12)
    bound = 5.0 / (np.sqrt(3.0) * np.sqrt(100_000.0))
    assert np.max(np.abs(U.mean(axis=0))) <= bound

    # every draw lies on the radius-r sphere; (seed, stream) fixes the draw,
    # and a different stream or seed changes it
    first, second = mf.RolloutEngine(g1, 4), mf.RolloutEngine(g1, 4)
    u0 = first.draw_perturbations(10, 2, 3, 0.7)
    assert u0.shape == (10, 2, 3)
    assert np.max(np.abs(np.linalg.norm(u0, axis=(1, 2)) - 0.7)) <= 1e-12
    assert np.array_equal(u0, second.draw_perturbations(10, 2, 3, 0.7))
    assert not np.array_equal(u0, first.draw_perturbations(10, 2, 3, 0.7))
    assert not np.array_equal(u0, mf.RolloutEngine(g1, 5).draw_perturbations(10, 2, 3, 0.7))


def test_rollout_length_for():
    assert mf.rollout_length_for(0.5, 1e-10) == 34
    assert lq.rollout_length_for(0.9239, 1e-10) == 291
    with pytest.raises(ValueError):
        lq.rollout_length_for(1.0)
    with pytest.raises(ValueError):
        lq.rollout_length_for(0.0)


# -- one-shot estimates ------------------------------------------------------

def test_estimator_matches_model_at_frozen_pair(g1):
    # fixed interior pair; budget chosen so the estimate resolves the gradient
    # to a few percent. Rollout length kills the truncation bias (rho^R ~ 1e-10)
    # so the remaining error is smoothing bias + sampling noise.
    K = np.array([[-2.16165767, -1.13134919, -0.77918194]])
    L = np.array([[2.84248962, 1.4483512, -1.61644337]])
    ev = lq.evaluate(g1, lq.PolicyPair(K, L))
    R = lq.rollout_length_for(ev.rho, 1e-10)
    assert R == 291
    cfg = lq.EstimatorConfig(m=200_000, R=R, r=0.01, seed=11)

    engine = mf.RolloutEngine(g1, cfg.seed)
    est = engine.estimate_inner(K, L, cfg.m, cfg.R, cfg.r)
    assert est.rho_max < 1.0
    assert est.m == cfg.m

    rel_grad = (np.linalg.norm(est.grad - ev.gradK, "fro")
                / np.linalg.norm(ev.gradK, "fro"))
    rel_sig = (np.linalg.norm(est.Sigma - ev.Sigma, "fro")
               / np.linalg.norm(ev.Sigma, "fro"))
    assert rel_grad <= 0.05
    assert rel_sig <= 0.01

    # the convenience wrapper consumes streams in the same fixed order
    grad2, Sigma2 = lq.estimate_grad_sigma(g1, K, L, cfg)
    assert np.array_equal(grad2, est.grad)
    assert np.array_equal(Sigma2, est.Sigma)


def test_estimates_are_bit_reproducible(g1, k1_at_zero):
    cfg = lq.EstimatorConfig(m=500, R=60, r=0.05, seed=9)
    L = np.zeros((1, 3))
    g_a, S_a = lq.estimate_grad_sigma(g1, k1_at_zero, L, cfg)
    g_b, S_b = lq.estimate_grad_sigma(g1, k1_at_zero, L, cfg)
    assert np.array_equal(g_a, g_b) and np.array_equal(S_a, S_b)
    g_c, _ = lq.estimate_grad_sigma(g1, k1_at_zero, L,
                                    lq.EstimatorConfig(m=500, R=60, r=0.05, seed=10))
    assert not np.array_equal(g_a, g_c)


def test_cube_initial_states(g1, k1_at_zero):
    cfg = lq.EstimatorConfig(m=400, R=50, r=0.05, seed=7, x0_dist="cube")
    grad, Sigma = lq.estimate_grad_sigma(g1, k1_at_zero, np.zeros((1, 3)), cfg)
    assert np.all(np.isfinite(grad))
    assert np.allclose(Sigma, Sigma.T)
    # cube sampling keeps the first two moments of Sigma0: zero mean, matching
    # covariance, so the Sigma estimate still targets the model quantity
    ev = lq.evaluate(g1, lq.PolicyPair(k1_at_zero, np.zeros((1, 3))))
    assert (np.linalg.norm(Sigma - ev.Sigma, "fro")
            / np.linalg.norm(ev.Sigma, "fro")) <= 0.35


def test_cube_requires_diagonal_state_covariance():
    S0 = np.array([[1.0, 0.2, 0.0], [0.2, 1.0, 0.0], [0.0, 0.0, 1.0]])
    g = lq.LqGame(A=0.4 * np.eye(3), B=[[1.0], [0.0], [0.0]], C=[[0.0], [0.0], [1.0]],
                  Q=np.eye(3), Ru=[[1.0]], Rv=[[5.0]], Sigma0=S0)
    with pytest.raises(lq.ConfigError):
        mf.RolloutEngine(g, 0, x0_dist="cube")
    with pytest.raises(ValueError):
        lq.EstimatorConfig(x0_dist="ball")


def test_destabilizing_perturbation_reports_sample_index(g1, k1_at_zero):
    eng = mf.RolloutEngine(g1, 3)
    with pytest.raises(lq.SampleError) as exc:
        eng.estimate_inner(k1_at_zero, np.zeros((1, 3)), 64, 10, 1.0)
    assert exc.value.index == 0


# -- wiring against the analytic loops ---------------------------------------

def _analytic_inner_estimator(game):
    def est(K, L):
        ev = lq.evaluate(game, lq.PolicyPair(K, L))
        return lq.GradEstimate(grad=ev.gradK, Sigma=ev.Sigma, cost_mean=ev.cost,
                               cost_std=0.0, m=0, rho_max=ev.rho)
    return est


def test_inner_pg_wiring_matches_analytic_loop(g1, k1_at_zero):
    # with the sampler replaced by exact values the model-free inner loop IS
    # the analytic one: same stop rule, same update arithmetic, same floats
    L = np.zeros((1, 3))
    K0 = k1_at_zero + np.array([[0.1, 0.05, -0.1]])
    icfg = lq.InnerConfig(method=lq.PG, alpha=0.05, tol=1e-6, max_iter=20_000)
    res = lq.solve_inner(g1, L, K0, icfg)
    K_mf = lq.inner_ng_modelfree(g1, L, K0, lq.EstimatorConfig(), res.iterations + 10,
                                 0.05, flavor=lq.PG, tol=1e-6,
                                 estimator=_analytic_inner_estimator(g1))
    assert np.array_equal(K_mf, res.K)


def test_inner_natural_pg_wiring_matches_analytic_loop(g1, k1_at_zero):
    L = np.zeros((1, 3))
    K0 = k1_at_zero + np.array([[0.1, 0.05, -0.1]])
    icfg = lq.InnerConfig(method=lq.NATURAL_PG, alpha=0.1, tol=1e-6, max_iter=20_000)
    res = lq.solve_inner(g1, L, K0, icfg)
    K_mf = lq.inner_ng_modelfree(g1, L, K0, lq.EstimatorConfig(), res.iterations + 10,
                                 0.1, flavor=lq.NATURAL_PG, tol=1e-6,
                                 estimator=_analytic_inner_estimator(g1))
    assert np.array_equal(K_mf, res.K)


def _mirror_outer_estimator(game, inner_tol):
    """Exact-gradient estimator that reproduces the nested solver's
    warm-started Riccati chain, so the L-iterates can be compared bitwise."""
    hold = {"P": None}

    def est(L):
        res = None
        if hold["P"] is not None:
            try:
                res = lq.solve_inner_riccati(game, L, P0=hold["P"])
            except (lq.ConvergenceError, lq.DefinitenessError):
                res = None
        if res is None or res.final_grad_norm > inner_tol:
            res = lq.solve_inner_riccati(game, L)
        hold["P"] = res.P
        ev = lq.evaluate(game, lq.PolicyPair(res.K, L))
        return lq.GradEstimate(grad=ev.gradL, Sigma=ev.Sigma, cost_mean=ev.cost,
                               cost_std=0.0, m=0, rho_max=ev.rho)
    return est


def test_outer_ng_wiring_matches_nested_loop(g1):
    T, eta, itol = 6, 0.1, 1e-10
    L0 = np.zeros((1, 3))
    L_mf, tr_mf = lq.outer_ng_modelfree(
        g1, L0, lq.EstimatorConfig(), T, eta, flavor=lq.NG,
        estimator=_mirror_outer_estimator(g1, itol))
    cfg = lq.OuterConfig(variant=lq.NG, eta=eta, tol=1e-300, max_iter=T,
                         inner=lq.InnerConfig(method=lq.RICCATI, tol=itol))
    pair, tr = lq.solve_nested(g1, L0, cfg)
    assert len(tr_mf.rows) == T + 1 and len(tr.rows) == T + 1
    for rm, rn in zip(tr_mf.rows, tr.rows):
        assert np.array_equal(rm.L, rn.L)
    assert np.array_equal(L_mf, tr.rows[-1].L)


def test_outer_natural_ng_wiring_matches_nested_loop(g1):
    T, eta, itol = 4, 0.05, 1e-10
    L0 = np.zeros((1, 3))
    L_mf, tr_mf = lq.outer_ng_modelfree(
        g1, L0, lq.EstimatorConfig(), T, eta, flavor=lq.NATURAL_NG,
        estimator=_mirror_outer_estimator(g1, itol))
    cfg = lq.OuterConfig(variant=lq.NATURAL_NG, eta=eta, tol=1e-300, max_iter=T,
                         inner=lq.InnerConfig(method=lq.RICCATI, tol=itol))
    pair, tr = lq.solve_nested(g1, L0, cfg)
    # the two sides compute the natural direction differently (Sigma-solve vs
    # the closed form), so agreement is to solver roundoff, not bitwise
    for rm, rn in zip(tr_mf.rows, tr.rows):
        assert np.linalg.norm(rm.L - rn.L, "fro") <= 1e-12


def test_inner_modelfree_rejects_gauss_newton(g1, k1_at_zero):
    with pytest.raises(lq.ConfigError):
        lq.inner_ng_modelfree(g1, np.zeros((1, 3)), k1_at_zero,
                              lq.EstimatorConfig(), 5, 0.05,
                              flavor=lq.GAUSS_NEWTON)
    with pytest.raises(lq.ConfigError):
        lq.outer_ng_modelfree(g1, np.zeros((1, 3)), lq.EstimatorConfig(), 2, 0.1,
                              flavor=lq.GAUSS_NEWTON_NG)
    with pytest.raises(ValueError):
        lq.inner_ng_modelfree(g1, np.zeros((1, 3)), k1_at_zero,
                              lq.EstimatorConfig(), 5, None)


# -- sampled-data convergence (reduced budgets, deterministic seeds) ----------

def test_inner_modelfree_approaches_best_response(g1, k1_at_zero):
    # moderate budget: the iterate settles near the best response, limited by
    # smoothing bias (~4 r^2) and the sampling noise floor. The seed is fixed,
    # so this is a regression test, not a statistical one.
    L = np.zeros((1, 3))
    K0 = k1_at_zero + np.array([[0.25, -0.2, 0.15]])
    err0 = np.linalg.norm(K0 - k1_at_zero, "fro")
    cfg = lq.EstimatorConfig(m=50_000, R=100, r=0.1, seed=5)
    K_T = lq.inner_ng_modelfree(g1, L, K0, cfg, 60, 0.06, flavor=lq.PG)
    err = np.linalg.norm(K_T - k1_at_zero, "fro")
    assert err <= 0.1
    assert err <= err0 / 3.0


def test_outer_modelfree_smoke_and_determinism(g1, nash1, k1_at_zero):
    # tiny budget: two outer steps end-to-end through the sampled inner solver,
    # checking plumbing and bit-reproducibility rather than progress
    L0 = np.zeros((1, 3))
    kw = dict(T=2, eta=1e-4, inner_steps=1, inner_alpha=1e-4, K0=k1_at_zero)
    cfg = lq.EstimatorConfig(m=24, R=40, r=0.02, seed=2)

    L_a, tr_a = lq.outer_ng_modelfree(g1, L0, cfg, flavor=lq.NG, **kw)
    assert len(tr_a.rows) == kw["T"] + 1
    assert np.all(np.isfinite(L_a))

    L_b, _ = lq.outer_ng_modelfree(g1, L0, cfg, flavor=lq.NG, **kw)
    assert np.array_equal(L_a, L_b)

    L_n, _ = lq.outer_ng_modelfree(g1, L0, cfg, flavor=lq.NATURAL_NG, **kw)
    assert np.all(np.isfinite(L_n))

    omega = lq.OmegaSet.for_game(g1, nash=nash1)
    L_p, tr_p = lq.outer_ng_modelfree(g1, L0, cfg, flavor=lq.NG, omega=omega, **kw)
    assert omega.margin(L_p, g1) >= -1e-9


# -- lock-step outer estimate against the sequential schedule -----------------

def _sequential_outer(engine, L, K_warm, m, R, r, steps, alpha, flavor):
    """The outer estimate in the sequential schedule, from public pieces: one
    inner solve after another, each a chain of estimate_inner calls, sample
    0's response the warm start of the rest; each response screened and then
    rolled out once from its own initial state."""
    g = engine.game
    V = engine.draw_perturbations(m, g.m2, g.d, r)
    x0 = engine.draw_x0(m)
    costs, Sigma, rho_max, warm = np.zeros(m), np.zeros((g.d, g.d)), 0.0, K_warm
    for i in range(m):
        Li, K = L + V[i], warm
        for j in range(steps):
            try:
                est = engine.estimate_inner(K, Li, m, R, r)
            except lq.SampleError as e:
                err = lq.SampleError(f"inner step {j}: {e}", index=e.index)
                err.sample = i  # the outer sample, for coverage checks
                raise err from e
            if flavor == lq.PG:
                K = lq.inner_loop.pg_update(K, est.grad, alpha)
            else:
                K = lq.inner_loop.natural_pg_update(K, est.grad, est.Sigma, alpha)
        if i == 0:
            warm = K
        Acl = g.A - g.B @ K - g.C @ Li
        rho = lq.linalg.spectral_radius(Acl)
        if rho >= 1.0 - lq.linalg.STABILITY_MARGIN:
            err = lq.SampleError(
                f"perturbed maximizer gain {i} of {m} yields an unstable inner "
                f"response (rho = {rho:.6f}); shrink r (currently {r:g})", index=i)
            err.sample = i
            raise err
        rho_max = max(rho_max, rho)
        W = g.Q + K.T @ g.Ru @ K - Li.T @ g.Rv @ Li
        X = x0[i]
        for _ in range(R):
            costs[i] += X @ W @ X
            Sigma += np.outer(X, X)
            X = Acl @ X
    grad = (g.m2 * g.d / (m * r * r)) * np.einsum("m,mij->ij", costs, V)
    est = lq.GradEstimate(grad=grad, Sigma=0.5 * (Sigma + Sigma.T) / m,
                          cost_mean=float(costs.mean()), cost_std=float(costs.std()),
                          m=m, rho_max=rho_max)
    return est, warm


def _rel(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("flavor,alpha", [(lq.PG, 1e-3), (lq.NATURAL_PG, 1e-4)])
def test_lockstep_outer_estimate_matches_sequential_schedule(g1, k1_at_zero, flavor, alpha):
    # two outer estimates in a row (a T = 1 run): the second starts from the
    # first one's warm response and from where the first left the streams
    m, R, r, steps = 30, 60, 0.02, 3
    lock, seq = mf.RolloutEngine(g1, 21), mf.RolloutEngine(g1, 21)
    L = np.zeros((1, 3))
    warm_lock = warm_seq = k1_at_zero
    for _ in range(2):
        est, warm_lock = lock.estimate_outer(L, warm_lock, m, R, r, steps, alpha, flavor)
        ref, warm_seq = _sequential_outer(seq, L, warm_seq, m, R, r, steps, alpha, flavor)
        assert lock._stream == seq._stream
        for a, b in ((est.grad, ref.grad), (est.Sigma, ref.Sigma),
                     (est.cost_mean, ref.cost_mean), (est.rho_max, ref.rho_max),
                     (warm_lock, warm_seq)):
            assert _rel(a, b) <= 1e-12
        assert est.m == m
        L = L + 1e-3 * est.grad


def _sample_error(fn, *args):
    try:
        fn(*args)
    except lq.SampleError as e:
        return e
    return None


def test_lockstep_raises_the_sequential_schedules_first_sample_error(g1, k1_at_zero):
    # a large radius destabilizes perturbed gains at several outer samples
    # and inner steps; the lock-step must report the failure the sequential
    # schedule meets first, inner-step failures and response screens alike
    seen = set()
    for flavor, alpha, m, r, steps in ((lq.PG, 0.01, 4, 0.8, 2),
                                       (lq.NATURAL_PG, 0.05, 8, 0.6, 1)):
        for seed in range(12):
            args = (np.zeros((1, 3)), k1_at_zero, m, 20, r, steps, alpha, flavor)
            want = _sample_error(_sequential_outer, mf.RolloutEngine(g1, seed), *args)
            got = _sample_error(mf.RolloutEngine.estimate_outer,
                                mf.RolloutEngine(g1, seed), *args)
            assert str(got) == str(want)
            if want is not None:
                assert got.index == want.index
                if str(want).startswith("inner step"):
                    seen.add(("inner", want.sample > 0, not str(want).startswith("inner step 0:")))
                else:
                    seen.add(("screen", want.sample > 0))
    # failures past sample 0 (the lock-step part), at inner steps after the
    # first, and in the response screen all occur
    assert {("inner", True, True), ("screen", True)} <= seen


def test_lockstep_results_do_not_depend_on_the_block_size(g1, k1_at_zero, monkeypatch):
    cfg = lq.EstimatorConfig(m=12, R=40, r=0.02, seed=4)
    kw = dict(T=1, eta=1e-3, inner_steps=2, inner_alpha=1e-3, inner_flavor=lq.PG,
              K0=k1_at_zero)
    L_a, tr_a = lq.outer_ng_modelfree(g1, np.zeros((1, 3)), cfg, **kw)
    monkeypatch.setattr(mf, "LOCKSTEP_TRAJECTORIES", 1)
    L_b, tr_b = lq.outer_ng_modelfree(g1, np.zeros((1, 3)), cfg, **kw)
    assert np.array_equal(L_a, L_b)
    assert tr_a.to_csv() == tr_b.to_csv()
