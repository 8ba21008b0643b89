"""Alternating-gradient and descent-ascent comparison methods."""

import warnings

import numpy as np
import pytest

import lqgames as lq

from conftest import stabilizing_start


def test_ag_fixed_point_at_equilibrium(g1, nash1):
    cfg = lq.BaselineConfig(family=lq.AG, flavor=lq.NATURAL_PG, eta=0.05,
                            inner_iters=5, tol=1e-6)
    pair, trace = lq.run_ag(g1, lq.PolicyPair(nash1.Kstar, nash1.Lstar), cfg)
    assert trace.converged and len(trace.rows) == 1
    assert np.linalg.norm(pair.L - nash1.Lstar, "fro") <= 1e-12


def test_gda_fixed_point_at_equilibrium(g1, nash1):
    cfg = lq.BaselineConfig(family=lq.GDA, flavor=lq.GAUSS_NEWTON, eta=0.2, tol=1e-6)
    pair, trace = lq.run_gda(g1, lq.PolicyPair(nash1.Kstar, nash1.Lstar), cfg)
    assert trace.converged and len(trace.rows) == 1
    assert np.linalg.norm(pair.K - nash1.Kstar, "fro") <= 1e-12


def test_gda_single_step_is_simultaneous_gradient(g1):
    pi0 = stabilizing_start(g1)
    K0 = pi0.K + np.array([[0.1, -0.05, 0.05]])
    L0 = np.array([[0.02, 0.01, -0.03]])
    ev = lq.evaluate(g1, lq.PolicyPair(K0, L0))
    eta = 0.03
    cfg = lq.BaselineConfig(family=lq.GDA, flavor=lq.PG, eta=eta,
                            inner_alpha=eta, tol=1e-12, max_outer=1)
    pair, trace = lq.run_gda(g1, lq.PolicyPair(K0, L0), cfg)
    assert np.array_equal(pair.K, K0 - eta * ev.gradK)
    assert np.array_equal(pair.L, L0 + eta * ev.gradL)


def test_gda_records_both_gradient_norms(g1):
    pi0 = stabilizing_start(g1)
    cfg = lq.BaselineConfig(family=lq.GDA, flavor=lq.GAUSS_NEWTON, eta=0.2,
                            tol=1e-6, max_outer=2000)
    pair, trace = lq.run_gda(g1, pi0, cfg)
    assert trace.converged
    ev = lq.evaluate(g1, pair)
    assert max(np.linalg.norm(ev.gradK, "fro"),
               np.linalg.norm(ev.gradL, "fro")) <= 1e-6


@pytest.mark.parametrize("family,flavor,eta,kw", [
    (lq.AG, lq.NATURAL_PG, 0.05, dict(inner_iters=5)),
    (lq.AG, lq.GAUSS_NEWTON, 0.1, dict(inner_iters=3)),
    (lq.GDA, lq.GAUSS_NEWTON, 0.2, {}),
    (lq.GDA, lq.NATURAL_PG, 0.1, {}),
])
def test_baselines_reach_equilibrium_case1(g1, nash1, family, flavor, eta, kw):
    cfg = lq.BaselineConfig(family=family, flavor=flavor, eta=eta,
                            tol=1e-7, max_outer=5000, **kw)
    run = lq.run_ag if family == lq.AG else lq.run_gda
    pair, trace = run(g1, stabilizing_start(g1), cfg)
    assert trace.converged
    assert np.linalg.norm(pair.K - nash1.Kstar, "fro") <= 1e-3
    assert np.linalg.norm(pair.L - nash1.Lstar, "fro") <= 1e-3
    assert all(row.rho < 1.0 for row in trace.rows)


def test_gda_case2_converges_non_monotone(g2, nash2):
    cfg = lq.BaselineConfig(family=lq.GDA, flavor=lq.GAUSS_NEWTON, eta=0.5,
                            tol=1e-6, max_outer=5000)
    pair, trace = lq.run_gda(g2, stabilizing_start(g2), cfg)
    assert trace.converged
    assert np.linalg.norm(pair.K - nash2.Kstar, "fro") <= 1e-3
    assert np.linalg.norm(pair.L - nash2.Lstar, "fro") <= 1e-3
    assert not trace.monotone_cost()


def test_ag_matches_nested_when_inner_runs_to_tolerance(g1):
    # with the inner loop run to tolerance each outer step, the alternating
    # method is the nested method: L-iterates agree along the whole path
    eta = 0.05
    cfg_ag = lq.BaselineConfig(family=lq.AG, flavor=lq.NATURAL_PG, eta=eta,
                               inner_iters=100_000, inner_tol=1e-12,
                               tol=1e-6, max_outer=40)
    pair_ag, tr_ag = lq.run_ag(g1, stabilizing_start(g1), cfg_ag)
    cfg_ng = lq.OuterConfig(variant=lq.NATURAL_NG, eta=eta, tol=1e-6, max_iter=40,
                            inner=lq.InnerConfig(method=lq.RICCATI, tol=1e-10))
    pair_ng, tr_ng = lq.solve_nested(g1, np.zeros((1, 3)), cfg_ng)
    n = min(len(tr_ag.rows), len(tr_ng.rows))
    assert n > 5
    for ra, rn in zip(tr_ag.rows[:n], tr_ng.rows[:n]):
        assert np.linalg.norm(ra.L - rn.L, "fro") <= 1e-8


def test_ag_evaluates_each_pair_once(g1, monkeypatch):
    # an inner loop that meets inner_tol early leaves its last evaluation to
    # the outer step, so no two evaluations in a row are at the same pair,
    # and every row holds the floats of a fresh evaluation at its pair
    calls = []
    evaluate = lq.policy.evaluate

    def counted(game, pair):
        calls.append((pair.K.copy(), pair.L.copy()))
        return evaluate(game, pair)

    cfg = lq.BaselineConfig(family=lq.AG, flavor=lq.GAUSS_NEWTON, eta=0.05, inner_iters=50,
                            inner_tol=1e-8, tol=1e-6, max_outer=30)
    start = stabilizing_start(g1)
    monkeypatch.setattr(lq.policy, "evaluate", counted)
    _, trace = lq.run_ag(g1, start, cfg)
    monkeypatch.undo()
    assert len(calls) > len(trace.rows) > 10
    for (K_a, L_a), (K_b, L_b) in zip(calls, calls[1:]):
        assert not (np.array_equal(K_a, K_b) and np.array_equal(L_a, L_b))
    for row in trace.rows:
        ev = lq.evaluate(g1, lq.PolicyPair(row.K, row.L))
        assert (row.cost, row.grad_norm, row.grad_k_norm, row.rho) == (
            ev.cost, lq.linalg.fro(ev.gradL), lq.linalg.fro(ev.gradK), ev.rho)


def test_gauss_newton_flavor_requires_definite_block():
    g = lq.LqGame(A=0.5 * np.eye(3), B=[[1.0], [0.0], [0.0]], C=[[0.0], [1.0], [0.0]],
                  Q=3.0 * np.eye(3), Ru=[[1.0]], Rv=[[1.2]], Sigma0=np.eye(3))
    pi0 = lq.PolicyPair(np.zeros((1, 3)), np.zeros((1, 3)))
    cfg = lq.BaselineConfig(family=lq.GDA, flavor=lq.GAUSS_NEWTON, eta=0.1, tol=1e-6)
    with pytest.raises(lq.DefinitenessError):
        lq.run_gda(g, pi0, cfg)


@pytest.mark.parametrize("family", [lq.AG, lq.GDA])
def test_diverging_l_update_is_a_typed_error(g1, family):
    # eta = 1e300 takes L0 = 0 to about 1e298, where L^T Rv L overflows
    cfg = lq.BaselineConfig(family=family, flavor=lq.NATURAL_PG, eta=1e300)
    run = lq.run_ag if family == lq.AG else lq.run_gda
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow RuntimeWarning on the way
        with pytest.raises(lq.ConvergenceError, match="outer step 0 diverged") as exc:
            run(g1, stabilizing_start(g1), cfg)
    assert exc.value.iterations == 0
    assert [r.t for r in exc.value.trace.rows] == [0]  # the row of the step that diverged


def test_baseline_config_validation():
    with pytest.raises(ValueError):
        lq.BaselineConfig(family="AGX")
    with pytest.raises(ValueError):
        lq.BaselineConfig(flavor="Riccati")
    with pytest.raises(ValueError):
        lq.BaselineConfig(eta=0.0)
    with pytest.raises(ValueError):
        lq.BaselineConfig(inner_iters=0)


def test_unstable_start_is_rejected_with_location(g1):
    cfg = lq.BaselineConfig(family=lq.GDA, flavor=lq.PG, eta=0.01, tol=1e-6)
    with pytest.raises(lq.UnstableError):
        lq.run_gda(g1, lq.PolicyPair(np.zeros((1, 3)), np.zeros((1, 3))), cfg)
