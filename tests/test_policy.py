"""Policy evaluation against scalar closed forms and finite differences."""

import dataclasses
import warnings

import numpy as np
import pytest

import lqgames as lq
from lqgames import linalg

from conftest import cost_finite_horizon


def scalar_game(a=0.5, b=1.0, c=0.3, q=1.0, ru=2.0, rv=5.0, s0=0.7):
    return lq.LqGame(A=[[a]], B=[[b]], C=[[c]], Q=[[q]], Ru=[[ru]],
                     Rv=[[rv]], Sigma0=[[s0]])


def test_scalar_closed_form():
    a, b, c, q, ru, rv, s0 = 0.5, 1.0, 0.3, 1.0, 2.0, 5.0, 0.7
    g = scalar_game(a, b, c, q, ru, rv, s0)
    k, l = 0.2, 0.1
    acl = a - b * k - c * l
    w = q + k * k * ru - l * l * rv
    P = w / (1 - acl * acl)
    Sigma = s0 / (1 - acl * acl)
    ev = lq.evaluate(g, lq.PolicyPair(K=[[k]], L=[[l]]))
    assert ev.P[0, 0] == pytest.approx(P, rel=1e-12)
    assert ev.Sigma[0, 0] == pytest.approx(Sigma, rel=1e-12)
    assert ev.cost == pytest.approx(P * s0, rel=1e-12)
    E = (ru + b * b * P) * k - b * P * (a - c * l)
    F = (-rv + c * c * P) * l - c * P * (a - b * k)
    assert ev.gradK[0, 0] == pytest.approx(2 * E * Sigma, rel=1e-11)
    assert ev.gradL[0, 0] == pytest.approx(2 * F * Sigma, rel=1e-11)
    assert ev.rho == pytest.approx(abs(acl))


def random_stabilizing_pairs(game, rng, count):
    base = lq.solve_inner_riccati(game, np.zeros((game.m2, game.d))).K
    out = []
    while len(out) < count:
        K = base + rng.uniform(-0.3, 0.3, size=(game.m1, game.d))
        L = rng.uniform(-0.2, 0.2, size=(game.m2, game.d))
        rho = np.max(np.abs(np.linalg.eigvals(game.A - game.B @ K - game.C @ L)))
        if rho < 0.98:
            out.append(lq.PolicyPair(K=K, L=L))
    return out


def fd_grad(game, pi, h=1e-5):
    """Central finite differences of the expected cost in (K, L)."""
    gk = np.zeros_like(pi.K)
    gl = np.zeros_like(pi.L)
    for idx in np.ndindex(*pi.K.shape):
        for sgn in (1.0, -1.0):
            Kp = pi.K.copy()
            Kp[idx] += sgn * h
            gk[idx] += sgn * lq.evaluate(game, lq.PolicyPair(K=Kp, L=pi.L)).cost
    for idx in np.ndindex(*pi.L.shape):
        for sgn in (1.0, -1.0):
            Lp = pi.L.copy()
            Lp[idx] += sgn * h
            gl[idx] += sgn * lq.evaluate(game, lq.PolicyPair(K=pi.K, L=Lp)).cost
    return gk / (2 * h), gl / (2 * h)


def test_gradients_match_finite_differences(g1):
    rng = np.random.default_rng(3)
    for pi in random_stabilizing_pairs(g1, rng, 5):
        ev = lq.evaluate(g1, pi)
        gk_fd, gl_fd = fd_grad(g1, pi)
        for exact, fd in ((ev.gradK, gk_fd), (ev.gradL, gl_fd)):
            denom = max(np.linalg.norm(exact, "fro"), 1e-8)
            assert np.linalg.norm(exact - fd, "fro") / denom <= 1e-5


def test_finite_horizon_cost_increases_to_limit(g1):
    pi = random_stabilizing_pairs(g1, np.random.default_rng(4), 1)[0]
    ev = lq.evaluate(g1, pi)
    costs = [cost_finite_horizon(g1, pi, R) for R in (5, 20, 80, 400)]
    # truncation underestimates the infinite-horizon cost and is monotone in R
    assert all(c <= ev.cost + 1e-12 for c in costs)
    assert all(costs[i] <= costs[i + 1] + 1e-12 for i in range(len(costs) - 1))
    assert costs[-1] == pytest.approx(ev.cost, rel=1e-6)


def test_constructors_leave_the_callers_arrays_writable(g1):
    # PolicyPair and LqGame freeze copies of float64 inputs, not the inputs
    K, L = np.zeros((1, 3)), np.ones((1, 3))
    pi = lq.PolicyPair(K=K, L=L)
    K[0, 0], L[0, 0] = 1.0, 2.0
    assert pi.K[0, 0] == 0.0 and pi.L[0, 0] == 1.0
    with pytest.raises(ValueError):
        pi.K[0, 0] = 1.0
    A = np.array(g1.A)
    game = lq.LqGame(A=A, B=np.array(g1.B), C=np.array(g1.C), Q=g1.Q, Ru=g1.Ru,
                     Rv=g1.Rv, Sigma0=g1.Sigma0)
    A[0, 0] += 1.0
    assert game.A[0, 0] == g1.A[0, 0]
    with pytest.raises(ValueError):
        game.A[0, 0] = 0.0


def test_evaluate_rejects_unstable_pair(g1):
    with pytest.raises(lq.UnstableError) as exc:
        lq.evaluate(g1, lq.PolicyPair(K=np.zeros((1, 3)), L=np.zeros((1, 3))))
    assert exc.value.rho > 1.0


def test_evaluate_types_a_nan_gain_before_lapack_sees_it(g1, nash1, capfd):
    # the loops hand evaluate unchecked gains: one that went NaN must raise a
    # typed error, return no NaN, and not reach LAPACK, whose argument checks
    # would print to stderr
    K = nash1.Kstar.copy()
    K[0, 1] = np.nan
    with pytest.raises(lq.ConvergenceError):
        lq.evaluate(g1, lq.PolicyPair._trusted(K, nash1.Lstar))
    out, err = capfd.readouterr()
    assert (out, err) == ("", "")


def test_evaluate_types_an_inf_gain_without_a_warning(g1, nash1, capfd):
    # the product B K of an inf gain sets numpy's invalid flag: evaluate must
    # raise the typed error a NaN gain gets, not warn
    K = nash1.Kstar.copy()
    K[0, 1] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(lq.ConvergenceError):
            lq.evaluate(g1, lq.PolicyPair._trusted(K, nash1.Lstar))
    out, err = capfd.readouterr()
    assert (out, err) == ("", "")


def test_check_stationary(g1, nash1):
    ok, report = lq.check_stationary(
        g1, lq.PolicyPair(nash1.Kstar, nash1.Lstar), tol=1e-7)
    assert ok and report.is_stationary
    assert report.p_min_eig > 0 and report.sigma_min_eig > 0
    pi = random_stabilizing_pairs(g1, np.random.default_rng(5), 1)[0]
    ok, report = lq.check_stationary(g1, pi, tol=1e-7)
    assert not ok and not report.is_stationary


@pytest.mark.parametrize("m1, m2", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_trusted_pair_evaluates_bit_for_bit_like_a_checked_one(m1, m2):
    # the loops hand evaluate their own gains through PolicyPair._trusted
    rng = np.random.default_rng(100 + 10 * m1 + m2)
    for d in range(2, 7):
        A = rng.normal(size=(d, d))
        A *= 0.8 / np.max(np.abs(np.linalg.eigvals(A)))
        V = rng.normal(size=(d, d))
        game = lq.LqGame(A=A, B=rng.normal(size=(d, m1)), C=rng.normal(size=(d, m2)),
                         Q=V @ V.T + np.eye(d), Ru=np.eye(m1), Rv=2.0 * np.eye(m2),
                         Sigma0=np.eye(d))
        K = 0.02 * rng.normal(size=(m1, d))
        L = 0.02 * rng.normal(size=(m2, d))
        want = lq.evaluate(game, lq.PolicyPair(K=K, L=L))
        got = lq.evaluate(game, lq.PolicyPair._trusted(K, L))
        for f in dataclasses.fields(lq.PolicyEval):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (d, f.name)


def test_evaluate_solves_its_lyapunov_pair_in_one_call(g1, nash1, monkeypatch):
    calls = []
    solve = linalg.solve_dlyap_transpose
    monkeypatch.setattr(linalg, "solve_dlyap_transpose",
                        lambda *a: calls.append(len(a)) or solve(*a))
    pi = lq.PolicyPair(K=nash1.Kstar, L=nash1.Lstar)
    ev = lq.evaluate(g1, pi)
    assert calls == [3]  # Acl, the stage weight and Sigma0
    Acl = g1.A - g1.B @ pi.K - g1.C @ pi.L
    assert np.allclose(ev.P, Acl.T @ ev.P @ Acl + lq.policy.stage_weight(g1, pi),
                       rtol=1e-12, atol=0.0)
    assert np.allclose(ev.Sigma, Acl @ ev.Sigma @ Acl.T + g1.Sigma0, rtol=1e-12, atol=0.0)


def test_policy_pair_dimension_check(g1):
    with pytest.raises(lq.DimensionError):
        lq.PolicyPair(K=np.zeros((2, 3)), L=np.zeros((1, 3))).check_dims(g1)
