"""Exact evaluation of a linear feedback pair (K, L).

For a stabilizing pair, the value matrix P and state correlation Sigma
solve the two discrete Lyapunov equations

    P     = (Q + K^T Ru K - L^T Rv L) + Acl^T P Acl,      Acl = A - BK - CL,
    Sigma = Sigma0 + Acl Sigma Acl^T,

and the cost is tr(P Sigma0) = tr(Sigma (Q + K^T Ru K - L^T Rv L)).
The policy gradients factor through the half-gradient matrices

    E = (Ru + B^T P B) K - B^T P (A - CL),    grad_K = 2 E Sigma,
    F = (-Rv + C^T P C) L - C^T P (A - BK),   grad_L = 2 F Sigma.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError

# sigma_min threshold treated as singular in the stationarity report
STATIONARY_SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class PolicyPair:
    """Feedback gains: u = -K x for the minimizer, v = -L x for the maximizer."""

    K: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        K = linalg.as_matrix(self.K, name="K")
        L = linalg.as_matrix(self.L, name="L")
        for field, val in (("K", K), ("L", L)):
            val.flags.writeable = False
            object.__setattr__(self, field, val)

    def check_dims(self, game):
        if self.K.shape != (game.m1, game.d):
            raise DimensionError(f"K shape {self.K.shape}, expected {(game.m1, game.d)}")
        if self.L.shape != (game.m2, game.d):
            raise DimensionError(f"L shape {self.L.shape}, expected {(game.m2, game.d)}")


@dataclass(frozen=True)
class PolicyEval:
    P: np.ndarray
    Sigma: np.ndarray
    cost: float
    gradK: np.ndarray
    gradL: np.ndarray
    E: np.ndarray
    F: np.ndarray
    rho: float


def closed_loop(game, pi):
    return game.A - game.B @ pi.K - game.C @ pi.L


def stage_weight(game, pi):
    """Q + K^T Ru K - L^T Rv L (may be indefinite for large L)."""
    W = game.Q + pi.K.T @ game.Ru @ pi.K - pi.L.T @ game.Rv @ pi.L
    return 0.5 * (W + W.T)


def evaluate(game, pi):
    """Full evaluation of a stabilizing pair. Raises UnstableError otherwise."""
    pi.check_dims(game)
    Acl = closed_loop(game, pi)
    rho = linalg.require_stable(Acl, context="evaluate")
    # Acl is stable and both weights exactly symmetric, so the unchecked solves
    # give the same floats as the checked ones
    P = linalg.solve_dlyap_transpose(Acl, stage_weight(game, pi), checked=False)
    Sigma = linalg.solve_dlyap_transpose(Acl.T, game.Sigma0, checked=False)
    cost = float(np.trace(P @ game.Sigma0))
    E = (game.Ru + game.B.T @ P @ game.B) @ pi.K - game.B.T @ P @ (game.A - game.C @ pi.L)
    F = (-game.Rv + game.C.T @ P @ game.C) @ pi.L - game.C.T @ P @ (game.A - game.B @ pi.K)
    return PolicyEval(P=P, Sigma=Sigma, cost=cost,
                      gradK=2.0 * E @ Sigma, gradL=2.0 * F @ Sigma,
                      E=E, F=F, rho=rho)


def cost_finite_horizon(game, pi, horizon):
    """Truncated cost sum tr( sum_{t<T} (Acl^T)^t W Acl^t Sigma0 ).

    Works for unstable pairs as well; for stable ones it converges to
    evaluate(game, pi).cost as the horizon grows.
    """
    pi.check_dims(game)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    Acl = closed_loop(game, pi)
    W = stage_weight(game, pi)
    total = 0.0
    S = game.Sigma0.copy()  # Acl^t Sigma0 (Acl^T)^t
    for _ in range(horizon):
        total += float(np.sum(W * S))  # tr(W S)
        S = Acl @ S @ Acl.T
    return total


@dataclass(frozen=True)
class StationarityReport:
    is_stationary: bool
    grad_k_norm: float
    grad_l_norm: float
    p_min_eig: float
    sigma_min_eig: float
    rv_block_sigma_min: float


def check_stationary(game, pi, tol):
    """Stationarity test at a stable pair.

    True iff both gradient norms are <= tol, P is PD, Sigma has full rank,
    and (-Rv + C^T P C) is invertible (sigma_min >= 1e-12).
    """
    ev = evaluate(game, pi)
    gk = float(np.linalg.norm(ev.gradK, "fro"))
    gl = float(np.linalg.norm(ev.gradL, "fro"))
    p_min = linalg.min_eigenvalue_sym(ev.P)
    s_min = linalg.min_eigenvalue_sym(ev.Sigma)
    block = -game.Rv + game.C.T @ ev.P @ game.C
    block_sigma = float(np.linalg.svd(block, compute_uv=False)[-1])
    ok = (gk <= tol and gl <= tol and p_min > 0.0
          and s_min >= STATIONARY_SINGULAR_TOL
          and block_sigma >= STATIONARY_SINGULAR_TOL)
    return ok, StationarityReport(
        is_stationary=ok, grad_k_norm=gk, grad_l_norm=gl,
        p_min_eig=p_min, sigma_min_eig=s_min, rv_block_sigma_min=block_sigma)
