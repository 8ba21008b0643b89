"""Shared fixtures: the two built-in games and their equilibrium solutions.

Session-scoped because solve_gare is deterministic and read-only; tests must
not mutate the returned objects.
"""

import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import lqgames as lq


@pytest.fixture(scope="session")
def g1():
    return lq.case1()


@pytest.fixture(scope="session")
def g2():
    return lq.case2()


@pytest.fixture(scope="session")
def nash1(g1):
    return lq.solve_gare(g1)


@pytest.fixture(scope="session")
def nash2(g2):
    return lq.solve_gare(g2)


@pytest.fixture(scope="session")
def k1_at_zero(g1):
    """Minimizer best response to L = 0 on case 1 (a common stabilizing start)."""
    return lq.solve_inner_riccati(g1, np.zeros((g1.m2, g1.d))).K


def no_saddle_game():
    """A game without a saddle point: P >= Q = 1 at any solution of its
    Riccati equation, so Rv - C^T P C < 0."""
    return lq.LqGame(A=[[1.5]], B=[[1.0]], C=[[1.0]], Q=[[1.0]], Ru=[[1.0]], Rv=[[1.0]],
                     Sigma0=[[1.0]])


def stabilizing_start(game):
    """Riccati best response to L = 0, paired with L = 0."""
    L0 = np.zeros((game.m2, game.d))
    K0 = lq.solve_inner_riccati(game, L0).K
    return lq.PolicyPair(K=K0, L=L0)


def rollout_length_for(rho, decay=1e-10):
    """Smallest R with rho^R <= decay, for truncation-bias control."""
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    return max(1, math.ceil(math.log(decay) / math.log(rho)))


def cost_finite_horizon(game, pi, horizon):
    """Truncated cost sum tr( sum_{t<T} W Acl^t Sigma0 (Acl^T)^t ), built from
    the game's matrices alone as an independent reference for evaluate().

    Works for unstable pairs as well; for stable ones it converges to
    evaluate(game, pi).cost as the horizon grows.
    """
    K, L = np.asarray(pi.K), np.asarray(pi.L)
    Acl = game.A - game.B @ K - game.C @ L
    W = game.Q + K.T @ game.Ru @ K - L.T @ game.Rv @ L
    total = 0.0
    S = np.array(game.Sigma0)  # Acl^t Sigma0 (Acl^T)^t
    for _ in range(horizon):
        total += float(np.sum(W * S))  # tr(W S), W and S symmetric
        S = Acl @ S @ Acl.T
    return total


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """Import perfbench/<name>.py; its modules import each other by bare name,
    so the directory goes on sys.path."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module(name)
