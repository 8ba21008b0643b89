"""Shared fixtures: the two built-in games and their equilibrium solutions.

Session-scoped because solve_gare is deterministic and read-only; tests must
not mutate the returned objects.
"""

import importlib
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


def stabilizing_start(game):
    """Riccati best response to L = 0, paired with L = 0."""
    L0 = np.zeros((game.m2, game.d))
    K0 = lq.solve_inner_riccati(game, L0).K
    return lq.PolicyPair(K=K0, L=L0)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """Import perfbench/<name>.py; its modules import each other by bare name,
    so the directory goes on sys.path."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module(name)
