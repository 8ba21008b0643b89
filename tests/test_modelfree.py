"""Zeroth-order estimation and the sampled-data solvers."""

import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

import lqgames as lq
from lqgames import linalg
from lqgames import modelfree as mf

from conftest import rollout_length_for


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
    u1 = first.draw_perturbations(10, 2, 3, 0.7)
    assert not np.array_equal(u0, u1)
    # the engine re-keys one generator per stream: stream 1 draws what a new
    # Philox keyed (seed, 1) draws, whatever stream 0 left in the buffer
    fresh = np.random.Generator(np.random.Philox(key=np.array([4, 1], dtype=np.uint64)))
    assert np.array_equal(u1, mf._sphere(fresh, 10, 2, 3, 0.7))
    assert not np.array_equal(u0, mf.RolloutEngine(g1, 5).draw_perturbations(10, 2, 3, 0.7))


def test_rollout_length_for():
    assert rollout_length_for(0.5, 1e-10) == 34
    assert rollout_length_for(0.9239, 1e-10) == 291
    with pytest.raises(ValueError):
        rollout_length_for(1.0)
    with pytest.raises(ValueError):
        rollout_length_for(0.0)


# -- one-shot estimates ------------------------------------------------------

def test_estimator_matches_model_at_frozen_pair(g1):
    # fixed interior pair; budget chosen so the estimate resolves the gradient
    # to a few percent. Rollout length kills the truncation bias (rho^R ~ 1e-10)
    # so the remaining error is smoothing bias + sampling noise.
    K = np.array([[-2.16165767, -1.13134919, -0.77918194]])
    L = np.array([[2.84248962, 1.4483512, -1.61644337]])
    ev = lq.evaluate(g1, lq.PolicyPair(K, L))
    R = rollout_length_for(ev.rho, 1e-10)
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

    # a new engine on the seed consumes streams in the same fixed order
    again = lq.RolloutEngine(g1, cfg.seed).estimate_inner(K, L, cfg.m, cfg.R, cfg.r)
    assert np.array_equal(again.grad, est.grad)
    assert np.array_equal(again.Sigma, est.Sigma)


def test_estimates_are_bit_reproducible(g1, k1_at_zero):
    cfg = lq.EstimatorConfig(m=500, R=60, r=0.05, seed=9)
    L = np.zeros((1, 3))
    a = lq.RolloutEngine(g1, cfg.seed).estimate_inner(k1_at_zero, L, cfg.m, cfg.R, cfg.r)
    b = lq.RolloutEngine(g1, cfg.seed).estimate_inner(k1_at_zero, L, cfg.m, cfg.R, cfg.r)
    assert np.array_equal(a.grad, b.grad) and np.array_equal(a.Sigma, b.Sigma)
    cfg = lq.EstimatorConfig(m=500, R=60, r=0.05, seed=10)
    c = lq.RolloutEngine(g1, cfg.seed).estimate_inner(k1_at_zero, L, cfg.m, cfg.R, cfg.r)
    assert not np.array_equal(a.grad, c.grad)


def test_destabilizing_perturbation_reports_sample_index(g1, k1_at_zero):
    eng = mf.RolloutEngine(g1, 3)
    with pytest.raises(lq.SampleError) as exc:
        eng.estimate_inner(k1_at_zero, np.zeros((1, 3)), 64, 10, 1.0)
    assert exc.value.index == 0
    assert eng._stream == 2  # both of the estimate's streams stay taken


def test_initial_states_do_not_depend_on_how_they_are_drawn(monkeypatch):
    # a correlated Sigma0, whose Cholesky factor mixes the normal draws; rows
    # drawn all at once, in uneven pieces, and by the rollout's chunk walk,
    # with one pair cut into several chunks, are bit-equal
    S = np.array([[0.05, 0.01, -0.004], [0.01, 0.03, 0.002], [-0.004, 0.002, 0.02]])
    game = lq.LqGame(A=0.5 * np.eye(3), B=np.ones((3, 1)), C=np.ones((3, 1)), Q=np.eye(3),
                     Ru=np.eye(1), Rv=np.eye(1), Sigma0=S)
    whole = mf.RolloutEngine(game, 6).draw_x0(1068)
    eng = mf.RolloutEngine(game, 6)
    gen = eng._generator(0)
    pieces = [eng._x0(gen.standard_normal((n, 3))) for n in (1, 2, 3, 5, 7, 50, 1000)]
    assert np.array_equal(np.concatenate(pieces), whole)
    assert np.allclose(np.cov(whole.T), S, rtol=0.2, atol=0.005)
    monkeypatch.setattr(mf, "ROLLOUT_SLICE_ENTRIES", 9 * 400)  # chunks of 400 trajectories
    walked = np.empty((2, 1068, 3))
    for p, t in mf._chunks(2, 1068, 3):
        walked[p, t] = eng._states([0, 5][p], t.start == 0, len(range(1068)[t]))
    second = mf.RolloutEngine(game, 6)._generator(5).standard_normal((1068, 3))
    assert np.array_equal(walked, np.stack([whole, eng._x0(second)]))


# -- the stability screen ----------------------------------------------------

EDGE = 1.0 - linalg.STABILITY_MARGIN


def _loop_with_radius(rng, d, rho):
    """Q T Q' with Q a random rotation and T block upper triangular: its
    dominant eigenvalue is +-rho or the pair rho e^(+-i theta), the others lie
    in [-0.8, 0.8]."""
    T = np.triu(0.5 * rng.standard_normal((d, d)), 1)
    T[np.diag_indices(d)] = rng.uniform(-0.8, 0.8, d)
    if d >= 2 and rng.random() < 0.5:
        theta = rng.uniform(0.3, 2.8)
        T[:2, :2] = rho * np.array([[np.cos(theta), -np.sin(theta)],
                                    [np.sin(theta), np.cos(theta)]])
    else:
        T[0, 0] = rho * rng.choice([-1.0, 1.0])
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return Q @ T @ Q.T


def _reference_radii(game, K, U, L):
    """Spectral radii of the closed loops A - C L - B (K + u), one eigvals
    call per perturbation u in U."""
    return np.array([linalg.spectral_radius(game.A - game.C @ L - game.B @ (K + u)) for u in U])


def _identity_loops_game(d):
    """A game whose closed loop A - C L - B K is K itself (A = 0, B = -I,
    C = 0), so the screen can be fed given closed loops as gains."""
    return lq.LqGame(A=np.zeros((d, d)), B=-np.eye(d), C=np.zeros((d, 1)), Q=np.eye(d),
                     Ru=np.eye(d), Rv=np.eye(1), Sigma0=np.eye(d))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_schur_cohn_screen_matches_eigvals_at_the_margin(d, monkeypatch):
    # radii 1e-12 to 1e-8 either side of the margin, 100 draws each
    rng = np.random.default_rng([d, 2026])
    deltas = np.logspace(-12, -8, 9)
    rhos = np.repeat(np.concatenate([EDGE - deltas, EDGE + deltas]), 100)
    Acl = np.array([_loop_with_radius(rng, d, rho) for rho in rhos])
    want = mf._eig_radii(Acl) < EDGE
    assert np.array_equal(want, rhos < EDGE)  # eigvals resolves every draw
    eng = mf.RolloutEngine(_identity_loops_game(d), 0)
    monkeypatch.setattr(mf, "_eig_radii", None)  # the Schur-Cohn branch alone
    # the game's closed loops are its gains, so both are laid out trajectory-last alike
    stable, near = eng._verdicts(Acl[None], mf._trajectory_last(Acl[None]), np.zeros((1, 1, d)))
    assert near is None
    assert np.array_equal(stable[0], want)


@pytest.mark.parametrize("r", [0.1, 0.5, 0.8])
def test_schur_cohn_screen_matches_eigvals_on_sampled_gains(g1, k1_at_zero, r):
    eng = mf.RolloutEngine(g1, 31)
    U = eng.draw_perturbations(150_000, g1.m1, g1.d, r)
    L = np.full((1, 1, 3), 0.1)
    Acl = eng._closed_loops((k1_at_zero + U)[None], L)[0]
    want = mf._eig_radii(Acl) < EDGE
    Kp = (k1_at_zero + U)[None]
    loops = mf._chunk_loops(g1, mf._loop_offsets(g1, L), mf._trajectory_last(Kp))
    assert np.array_equal(eng._verdicts(Kp, loops, L)[0][0], want)
    if r == 0.8:
        assert 100 <= np.count_nonzero(~want) < want.size


def test_estimate_inner_rho_max_is_the_largest_sampled_radius(g1, k1_at_zero):
    m, r, L = 5000, 0.3, np.zeros((1, 3))
    est = mf.RolloutEngine(g1, 8).estimate_inner(k1_at_zero, L, m, 5, r)
    U = mf.RolloutEngine(g1, 8).draw_perturbations(m, g1.m1, g1.d, r)
    radii = _reference_radii(g1, k1_at_zero, U, L)
    top = int(np.argmax(radii))
    assert top % mf.RHO_PROBE_STRIDE != 0  # not a probe sample
    assert top >= 2 * _slice_size(g1)  # nor in the first two chunks
    assert est.rho_max == radii.max()


def _destabilizing_message(i, k, rho, r):
    return (f"perturbed gain {i} of {k} is destabilizing (rho = {rho:.6f}); shrink the "
            f"smoothing radius r (currently {r:g}) or move to a better-conditioned pair")


def test_estimate_inner_reports_a_first_failure_beyond_the_first_chunk(g1, k1_at_zero):
    # at r = 0.763 about one gain in 2000 destabilizes; on seed 9 the first
    # lies in the third chunk and two more in the fifth
    m, r, L = 8000, 0.763, np.zeros((1, 3))
    U = mf.RolloutEngine(g1, 9).draw_perturbations(m, g1.m1, g1.d, r)
    radii = _reference_radii(g1, k1_at_zero, U, L)
    bad = np.flatnonzero(radii >= EDGE)
    assert len(bad) >= 2 and bad[0] // _slice_size(g1) == 2
    with pytest.raises(lq.SampleError) as exc:
        mf.RolloutEngine(g1, 9).estimate_inner(k1_at_zero, L, m, 10, r)
    assert exc.value.index == bad[0]
    assert str(exc.value) == _destabilizing_message(bad[0], m, radii[bad[0]], r)


def test_lockstep_reports_a_failing_solve_in_a_later_chunk(g1, k1_at_zero):
    # 12 solves of k = 500 trajectories, three to a chunk; at r = 0.76 on
    # seed 2 only solve 11, in the fourth chunk, draws a destabilizing gain
    n, k, r = 12, 500, 0.76
    eng = mf.RolloutEngine(g1, 2)
    Ls = np.zeros((1, 3)) + eng.draw_perturbations(n, g1.m2, g1.d, 0.02)
    streams = 2 * np.arange(n)
    ref, first = mf.RolloutEngine(g1, 2), None
    for i in range(n):
        U = mf._sphere(ref._generator(streams[i]), k, g1.m1, g1.d, r)
        radii = _reference_radii(g1, k1_at_zero, U, Ls[i])
        bad = np.flatnonzero(radii >= EDGE)
        if bad.size:
            first = (i, int(bad[0]), radii[bad[0]])
            break
    assert first is not None and first[0] // (_slice_size(g1) // k) == 3
    K, error = eng._inner_solves(k1_at_zero, Ls, streams, k, 10, r, 1, 1e-3, lq.PG)
    assert error[0] == first[0]
    assert error[1].index == first[1]
    assert str(error[1]) == "inner step 0: " + _destabilizing_message(first[1], k, first[2], r)


def test_estimates_do_not_depend_on_the_chunk_size(g1, k1_at_zero, monkeypatch):
    # estimate_inner and a lock-step outer run (PG inside, so no inner step
    # reads Sigma) with chunks of 1820 and of 7 trajectories. Everything but
    # the correlation sum is bit-equal; that sum adds chunk by chunk, so it
    # agrees to roundoff.
    L = np.zeros((1, 3))
    cfg = lq.EstimatorConfig(m=12, R=40, r=0.02, seed=4)
    kw = dict(T=1, eta=1e-3, inner_steps=2, inner_alpha=1e-3, inner_flavor=lq.PG,
              K0=k1_at_zero)

    def run():
        est = mf.RolloutEngine(g1, 3).estimate_inner(k1_at_zero, L, 20_000, 100, 0.05)
        err = _sample_error(mf.RolloutEngine(g1, 9).estimate_inner, k1_at_zero, L, 8000, 10,
                            0.763)
        return est, (err.index, str(err)), lq.outer_ng_modelfree(g1, L, cfg, **kw)

    a = run()
    monkeypatch.setattr(mf, "ROLLOUT_SLICE_ENTRIES", 63)
    b = run()
    for name in ("grad", "cost_mean", "cost_std", "rho_max"):
        assert np.array_equal(getattr(a[0], name), getattr(b[0], name))
    assert _rel(a[0].Sigma, b[0].Sigma) <= 1e-14
    assert a[1] == b[1]
    assert np.array_equal(a[2][0], b[2][0])
    assert a[2][1].to_csv() == b[2][1].to_csv()


def test_estimate_inner_memory_stays_within_its_chunks(g1, k1_at_zero):
    # beyond its perturbations U (1.2 MB here) and its costs, an estimate
    # holds a chunk's work arrays at a time: the peak, 2.7 MB, is the sphere
    # draw's U, its squares and their norms. Whole initial states and
    # perturbed gains K + U peaked at 4.8 MB, a screen over the whole
    # (m, d, d) stack of closed loops at 5x the draws
    m, L = 50_000, np.zeros((1, 3))
    eng = mf.RolloutEngine(g1, 0)
    tracemalloc.start()
    try:
        eng.estimate_inner(k1_at_zero, L, m, 100, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


def test_estimate_inner_screens_larger_games_by_eigvals(monkeypatch):
    d = mf.SCREEN_MAX_DIM + 1
    rng = np.random.default_rng([d, 1, 1])
    A = rng.standard_normal((d, d))
    A *= 1.02 / np.abs(np.linalg.eigvals(A)).max()
    game = lq.LqGame(A=A, B=rng.standard_normal((d, 1)), C=0.05 * rng.standard_normal((d, 1)),
                     Q=np.eye(d), Ru=np.eye(1), Rv=np.eye(1), Sigma0=np.eye(d))
    L = np.zeros((1, d))
    K = lq.solve_inner_riccati(game, L).K

    def no_char_poly(Acl):
        raise AssertionError("Schur-Cohn screen used above SCREEN_MAX_DIM")

    monkeypatch.setattr(mf, "_char_poly", no_char_poly)
    m, verdicts = 400, []
    for r in (0.2, 0.5, 1.0):
        U = mf.RolloutEngine(game, 5).draw_perturbations(m, 1, d, r)
        radii = _reference_radii(game, K, U, L)
        bad = np.flatnonzero(radii >= EDGE)
        try:
            est = mf.RolloutEngine(game, 5).estimate_inner(K, L, m, 10, r)
        except lq.SampleError as e:
            i = int(bad[0])
            assert e.index == i
            assert str(e) == _destabilizing_message(i, m, radii[i], r)
            verdicts.append(i)
        else:
            assert not bad.size
            assert est.rho_max == radii.max()
            verdicts.append(None)
    assert verdicts[0] is None and verdicts[1] > 0 and verdicts[2] is not None


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


@pytest.mark.parametrize("projection", [False, True])
def test_outer_modelfree_diverging_step_is_a_typed_error(g2, nash2, projection):
    # eta = 1e300 sends L past where L^T Rv L overflows: the step is refused
    # before the projection sees it, with the rows taken so far
    omega = lq.OmegaSet.for_game(g2, nash=nash2) if projection else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow RuntimeWarning on the way
        with pytest.raises(lq.ConvergenceError, match="outer step 0 diverged") as exc:
            lq.outer_ng_modelfree(g2, np.zeros((1, 3)), lq.EstimatorConfig(), 3, 1e300,
                                  omega=omega, estimator=_mirror_outer_estimator(g2, 1e-10))
    assert exc.value.iterations == 0
    assert isinstance(exc.value.trace, lq.OuterTrace) and exc.value.trace.rows == []


def test_inner_modelfree_rejects_gauss_newton(g1, k1_at_zero):
    with pytest.raises(lq.ConfigError):
        lq.inner_ng_modelfree(g1, np.zeros((1, 3)), k1_at_zero,
                              lq.EstimatorConfig(), 5, 0.05,
                              flavor=lq.GAUSS_NEWTON)
    with pytest.raises(lq.ConfigError):
        lq.outer_ng_modelfree(g1, np.zeros((1, 3)), lq.EstimatorConfig(), 2, 0.1,
                              flavor=lq.GAUSS_NEWTON_NG)
    with pytest.raises(lq.ConfigError):
        lq.inner_ng_modelfree(g1, np.zeros((1, 3)), k1_at_zero,
                              lq.EstimatorConfig(), 5, None)


def test_modelfree_diverging_inner_step_is_a_typed_error(g1, k1_at_zero):
    # alpha = 1e300 sends K past where K^T Ru K overflows: the step is
    # refused, naming it, before any overflow warning
    L = np.zeros((1, 3))
    cfg = lq.EstimatorConfig(m=50, R=100, r=0.02, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for flavor in (lq.PG, lq.NATURAL_PG):
            with pytest.raises(lq.ConvergenceError, match="inner step 0 diverged") as exc:
                lq.inner_ng_modelfree(g1, L, k1_at_zero, cfg, 3, 1e300, flavor=flavor)
            assert exc.value.iterations == 0
            # under the outer loop the same failure carries the partial trace
            with pytest.raises(lq.ConvergenceError, match="inner step 0 diverged") as exc:
                lq.outer_ng_modelfree(g1, L, lq.EstimatorConfig(m=8, R=40, r=0.02), 2, 1e-3,
                                      inner_steps=2, inner_alpha=1e300, inner_flavor=flavor,
                                      K0=k1_at_zero)
            assert isinstance(exc.value.trace, lq.OuterTrace) and exc.value.trace.rows == []
        # a large but finite step is a destabilizing sample, again without warnings
        with pytest.raises(lq.SampleError, match="inner step 1: perturbed gain 0"):
            lq.inner_ng_modelfree(g1, L, k1_at_zero, cfg, 3, 1e120, flavor=lq.PG)


@pytest.mark.parametrize("case,error", [
    ("K_nan", ValueError), ("K_shape", lq.DimensionError), ("L_shape", lq.DimensionError),
    ("K_warm_shape", lq.DimensionError), ("K0_nan", ValueError),
    ("outer_L0_shape", lq.DimensionError), ("outer_K0_shape", lq.DimensionError)])
def test_modelfree_gains_are_checked_at_the_boundary(g1, k1_at_zero, case, error):
    L = np.zeros((1, 3))
    eng = mf.RolloutEngine(g1, 0)
    small = lq.EstimatorConfig(m=5, R=10, r=0.02)
    calls = {
        "K_nan": lambda: eng.estimate_inner(np.full((1, 3), np.nan), L, 10, 10, 0.05),
        "K_shape": lambda: eng.estimate_inner(np.zeros((2, 3)), L, 10, 10, 0.05),
        "L_shape": lambda: eng.estimate_inner(k1_at_zero, np.zeros((1, 2)), 10, 10, 0.05),
        "K_warm_shape": lambda: eng.estimate_outer(L, np.zeros((1, 4)), 5, 10, 0.02, 1,
                                                   1e-3, lq.PG),
        "K0_nan": lambda: lq.inner_ng_modelfree(g1, L, np.full((1, 3), np.nan), small, 1, 0.05),
        "outer_L0_shape": lambda: lq.outer_ng_modelfree(g1, np.zeros((2, 3)), small, 1, 1e-3,
                                                        K0=k1_at_zero),
        "outer_K0_shape": lambda: lq.outer_ng_modelfree(g1, L, small, 1, 1e-3,
                                                        K0=np.zeros((3, 1))),
    }
    with pytest.raises(error):
        calls[case]()
    assert eng._stream == 0


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


# -- the rollout kernel -------------------------------------------------------

def _stepped_rollout(game, K, L, x0, R):
    """The rollout sums by plain stepping, one batched matrix product per step
    over every trajectory: (P, k) costs and (P, d, d) correlation sums."""
    Acl = game.A - game.C @ L[:, None] - game.B @ K
    W = ((game.Q - np.swapaxes(L, 1, 2) @ game.Rv @ L)[:, None]
         + np.swapaxes(K, 2, 3) @ game.Ru @ K)
    x = x0[..., None]
    cost, S = np.zeros(x0.shape[:2]), np.zeros((x0.shape[0], game.d, game.d))
    for _ in range(R):
        cost += (np.swapaxes(x, 2, 3) @ W @ x)[..., 0, 0]
        S += (x @ np.swapaxes(x, 2, 3)).sum(axis=1)
        x = Acl @ x
    return cost, S


def _rollout_inputs(game, K, P, k, seed, r=0.05):
    """P pairs of k perturbed gains around K, small maximizer gains and
    initial states."""
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((P, k, game.m1, game.d))
    U *= r / np.linalg.norm(U, axis=(2, 3), keepdims=True)
    L = 0.05 * rng.standard_normal((P, game.m2, game.d))
    return K + U, L, rng.standard_normal((P, k, game.d))


def _slice_size(game):
    return max(1, mf.ROLLOUT_SLICE_ENTRIES // game.d ** 2)


def _small_game(d, m1, seed):
    rng = np.random.default_rng([d, m1, seed])
    A = rng.standard_normal((d, d))
    A *= 0.9 / np.abs(np.linalg.eigvals(A)).max()
    return lq.LqGame(A=A, B=rng.standard_normal((d, m1)), C=0.1 * rng.standard_normal((d, 1)),
                     Q=np.eye(d), Ru=np.eye(m1), Rv=5.0 * np.eye(1), Sigma0=np.eye(d))


# ROLLOUT_DOUBLING_R_PER_D2 values that force the doubling and the stepping kernel
DOUBLING, STEPPING = 0, np.inf


def _rollout(eng, K, L, x0, R, monkeypatch, per_d2=mf.ROLLOUT_DOUBLING_R_PER_D2):
    """The walk's (P, k) costs and (P, d, d) correlation sums for the
    per-trajectory gains K (P, k, m1, d), taken as perturbations of zero
    gains, with the kernel switch at per_d2."""
    with monkeypatch.context() as mp:
        mp.setattr(mf, "ROLLOUT_DOUBLING_R_PER_D2", per_d2)
        cost, S, _, failure = eng._walk(np.zeros((len(K),) + K.shape[2:]), L, K, x0, R)
    assert failure is None
    return cost, S


@pytest.mark.parametrize("R", [1, 2, 7, 64, 100, 291])
def test_rollout_kernels_match_a_stepping_reference(g1, k1_at_zero, R, monkeypatch):
    # one stack cut into fixed-offset slices of each pair's trajectories (k
    # above the slice size, not a multiple of it), one cut into whole pairs
    size = _slice_size(g1)
    eng = mf.RolloutEngine(g1, 0)
    for P, k in ((3, size + size // 2 + 3), (2 * size // 5 + 3, 5)):
        K, L, x0 = _rollout_inputs(g1, k1_at_zero, P, k, [R, P])
        want_cost, want_S = _stepped_rollout(g1, K, L, x0, R)
        for kernel in (DOUBLING, STEPPING):
            cost, S = _rollout(eng, K, L, x0, R, monkeypatch, kernel)
            assert _rel(cost, want_cost) <= 1e-12
            assert _rel(S, want_S) <= 1e-12


def test_rollout_pairs_are_bit_equal_alone_and_stacked(monkeypatch):
    game = _small_game(3, 2, 0)
    K = lq.solve_inner_riccati(game, np.zeros((1, 3))).K
    eng = mf.RolloutEngine(game, 0)
    size = _slice_size(game)
    # lone trajectories, a last slice of one trajectory, pairs cut into chunks
    for P, k in ((4, 1), (3, size + 1), (size // 7 + 3, 7)):
        K_, L, x0 = _rollout_inputs(game, K, P, k, [P, k])
        for kernel in (DOUBLING, STEPPING):
            cost, S = _rollout(eng, K_, L, x0, 64, monkeypatch, kernel)
            for i in (0, 1, P - 1):
                alone = _rollout(eng, K_[i:i + 1], L[i:i + 1], x0[i:i + 1], 64, monkeypatch,
                                 kernel)
                assert np.array_equal(alone[0][0], cost[i])
                assert np.array_equal(alone[1][0], S[i])


def test_rollout_switches_to_doubling_at_its_crossover(monkeypatch):
    game = _small_game(4, 1, 1)
    K = lq.solve_inner_riccati(game, np.zeros((1, 4))).K
    eng = mf.RolloutEngine(game, 0)
    K_, L, x0 = _rollout_inputs(game, K, 3, 50, 7)
    switch = mf.ROLLOUT_DOUBLING_R_PER_D2 * game.d ** 2
    for R, kernel in ((switch - 1, STEPPING), (switch, DOUBLING)):
        cost, S = _rollout(eng, K_, L, x0, R, monkeypatch)
        assert np.array_equal(cost, _rollout(eng, K_, L, x0, R, monkeypatch, kernel)[0])
        steps = _rollout(eng, K_, L, x0, R, monkeypatch, STEPPING)
        doubling = _rollout(eng, K_, L, x0, R, monkeypatch, DOUBLING)
        assert _rel(doubling[0], steps[0]) <= 1e-12 and _rel(doubling[1], steps[1]) <= 1e-12


# -- budgets -------------------------------------------------------------------

@pytest.mark.parametrize("case", ["m_zero", "R_zero", "R_float", "r_zero",
                                  "inner_steps_negative", "T_negative", "steps_negative",
                                  "config_m_zero", "config_R_float", "config_r_zero",
                                  "alpha_nan", "alpha_negative", "inner_alpha_inf",
                                  "estimate_outer_inner_alpha_zero", "eta_nan", "eta_none"])
def test_estimator_budgets_are_checked_at_the_boundary(g1, k1_at_zero, case):
    L = np.zeros((1, 3))
    eng = mf.RolloutEngine(g1, 0)
    small = lq.EstimatorConfig(m=5, R=10, r=0.02)
    calls = {
        "m_zero": lambda: eng.estimate_inner(k1_at_zero, L, 0, 10, 0.05),
        "R_zero": lambda: eng.estimate_inner(k1_at_zero, L, 10, 0, 0.05),
        "R_float": lambda: eng.estimate_inner(k1_at_zero, L, 10, 10.0, 0.05),
        "r_zero": lambda: eng.estimate_inner(k1_at_zero, L, 10, 10, 0.0),
        "inner_steps_negative": lambda: eng.estimate_outer(L, k1_at_zero, 5, 10, 0.02, -1,
                                                           1e-3, lq.PG),
        "T_negative": lambda: lq.outer_ng_modelfree(g1, L, small, -1, 1e-3, K0=k1_at_zero),
        "steps_negative": lambda: lq.inner_ng_modelfree(g1, L, k1_at_zero, small, -1, 0.05),
        "config_m_zero": lambda: lq.EstimatorConfig(m=0),
        "config_R_float": lambda: lq.EstimatorConfig(R=10.0),
        "config_r_zero": lambda: lq.EstimatorConfig(r=0.0),
        "alpha_nan": lambda: lq.inner_ng_modelfree(g1, L, k1_at_zero, small, 1, float("nan")),
        "alpha_negative": lambda: lq.inner_ng_modelfree(g1, L, k1_at_zero, small, 1, -0.05),
        "inner_alpha_inf": lambda: lq.outer_ng_modelfree(g1, L, small, 1, 1e-3,
                                                         inner_alpha=float("inf"),
                                                         K0=k1_at_zero),
        "estimate_outer_inner_alpha_zero": lambda: eng.estimate_outer(L, k1_at_zero, 5, 10,
                                                                      0.02, 1, 0.0, lq.PG),
        "eta_nan": lambda: lq.outer_ng_modelfree(g1, L, small, 1, float("nan"), K0=k1_at_zero),
        "eta_none": lambda: lq.outer_ng_modelfree(g1, L, small, 1, None, K0=k1_at_zero),
    }
    with pytest.raises(lq.ConfigError):
        calls[case]()
    assert eng._stream == 0  # no stream was drawn or skipped


# -- pinned seeded outputs -----------------------------------------------------

def _random_game(d, m1, seed, Sigma0=None):
    rng = np.random.default_rng([d, m1, seed])
    A = rng.standard_normal((d, d))
    A *= 1.02 / np.abs(np.linalg.eigvals(A)).max()
    return lq.LqGame(A=A, B=rng.standard_normal((d, m1)), C=0.05 * rng.standard_normal((d, 1)),
                     Q=np.eye(d), Ru=np.eye(m1), Rv=np.eye(1),
                     Sigma0=np.eye(d) if Sigma0 is None else Sigma0)


def _seeded_outputs(g1, k1):
    """Estimates, failures and short solver runs over both rollout kernels,
    both screens, pairs cut into chunks and a lock-step failure."""
    out = []

    def estimate(game, L, seed, m, R, r, K=None):
        K = lq.solve_inner_riccati(game, L).K if K is None else K
        eng = mf.RolloutEngine(game, seed)
        try:
            e = eng.estimate_inner(K, L, m, R, r)
            out.extend([e.grad, e.Sigma, e.cost_mean, e.cost_std, e.rho_max, e.m])
        except lq.SampleError as e:
            out.extend([str(e), e.index])
        out.append(eng._stream)

    L1 = np.full((1, 3), 0.1)
    estimate(g1, L1, 1, 4000, 100, 0.05, k1)  # doubling, one pair in three chunks
    estimate(g1, L1, 2, 3000, 10, 0.1, k1)  # stepping, R < 3 d^2
    estimate(lq.case2(), np.zeros((1, 3)), 3, 500, 40, 0.05)
    S = np.array([[0.05, 0.01], [0.01, 0.03]])
    estimate(_random_game(2, 2, 0, S), np.zeros((1, 2)), 4, 300, 5, 0.1)
    g4 = _random_game(4, 1, 1)
    estimate(g4, np.zeros((1, 4)), 5, 1500, 60, 0.2)  # eigvals screen, two chunks
    estimate(g4, np.zeros((1, 4)), 5, 400, 10, 0.5)  # fails at sample 190
    estimate(_random_game(6, 2, 2), np.zeros((1, 6)), 6, 600, 120, 0.05)
    estimate(g1, np.zeros((1, 3)), 9, 8000, 10, 0.763, k1)  # fails in the third chunk
    # outer step 1 fails at inner step 1 of sample 4, in lock-step
    cfg = lq.EstimatorConfig(m=6, R=20, r=0.3, seed=20)
    with pytest.raises(lq.SampleError) as exc:
        lq.outer_ng_modelfree(g1, np.zeros((1, 3)), cfg, T=1, eta=1e-3, inner_steps=2,
                              inner_alpha=1e-3, inner_flavor=lq.NATURAL_PG, K0=k1)
    out.extend([str(exc.value), exc.value.index, exc.value.trace.to_csv()])
    cfg = lq.EstimatorConfig(m=5, R=40, r=0.02, seed=7)
    L, tr = lq.outer_ng_modelfree(g1, np.zeros((1, 3)), cfg, T=1, eta=1e-3, inner_steps=2,
                                  inner_alpha=1e-3, inner_flavor=lq.PG, K0=k1)
    out.extend([L, tr.to_csv()])
    cfg = lq.EstimatorConfig(m=200, R=30, r=0.05, seed=8)
    out.append(lq.inner_ng_modelfree(g1, np.zeros((1, 3)), k1, cfg, 3, 1e-3, flavor=lq.PG))
    return out


def test_seeded_outputs_match_their_pinned_hash(g1, k1_at_zero):
    # every float of these runs, pinned: a change to the sampling, the screen
    # or the rollout arithmetic shows here even when it is self-consistent
    h = hashlib.sha256()
    for v in _seeded_outputs(g1, k1_at_zero):
        if isinstance(v, np.ndarray):
            h.update(np.ascontiguousarray(v, dtype=float).tobytes())
        else:
            h.update((v if isinstance(v, str) else repr(v)).encode())
    assert h.hexdigest() == "95681bcef5c15e2fee46702383227ca32c09c86c8c58144be608920c363fe38d"
