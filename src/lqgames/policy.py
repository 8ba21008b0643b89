"""Exact evaluation of a linear feedback pair (K, L).

For a stabilizing pair, the value matrix P and state correlation Sigma
solve the two discrete Lyapunov equations

    P     = (Q + K^T Ru K - L^T Rv L) + Acl^T P Acl,      Acl = A - BK - CL,
    Sigma = Sigma0 + Acl Sigma Acl^T,

and the cost is tr(P Sigma0) = tr(Sigma (Q + K^T Ru K - L^T Rv L)). The
Sigma equation's closed loop is the transpose of the P equation's, so evaluate
solves both in one linalg.solve_dlyap_transpose call.
The policy gradients factor through the half-gradient matrices

    E = (Ru + B^T P B) K - B^T P (A - CL),    grad_K = 2 E Sigma,
    F = (-Rv + C^T P C) L - C^T P (A - BK),   grad_L = 2 F Sigma.

A PolicyPair built by a caller is checked (finite 2-d gains) and frozen as
copies. The nested, AG and GDA loops hand evaluate the gains they computed
themselves through the private PolicyPair._trusted, which skips that check
and the copy; evaluate checks the gains' shapes against the game either way.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ConvergenceError, DefinitenessError, DimensionError, _check_positive

# sigma_min threshold treated as singular in the stationarity report
STATIONARY_SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class PolicyPair:
    """Feedback gains: u = -K x for the minimizer, v = -L x for the maximizer."""

    K: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        for field in ("K", "L"):
            given = getattr(self, field)
            val = linalg.as_matrix(given, name=field)
            if val is given:
                val = val.copy()  # freeze a copy, not the caller's array
            val.flags.writeable = False
            object.__setattr__(self, field, val)

    @classmethod
    def _trusted(cls, K, L):
        """A pair around package-built float64 gains, unchecked and uncopied."""
        pi = object.__new__(cls)
        object.__setattr__(pi, "K", K)
        object.__setattr__(pi, "L", L)
        return pi

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
    return game.A - game.B.dot(pi.K) - game.C.dot(pi.L)


def stage_weight(game, pi):
    """Q + K^T Ru K - L^T Rv L (may be indefinite for large L)."""
    W = game.Q + pi.K.T.dot(game.Ru).dot(pi.K) - pi.L.T.dot(game.Rv).dot(pi.L)
    return 0.5 * (W + W.T)


def evaluate(game, pi):
    """Full evaluation of a stabilizing pair. Raises UnstableError otherwise."""
    pi.check_dims(game)
    with linalg.lapack_errors():
        try:
            Acl = closed_loop(game, pi)
        except DefinitenessError as e:  # an inf in a gain the loops computed
            raise ConvergenceError("evaluate: the closed loop has non-finite entries") from e
        rho = linalg.require_stable(Acl, context="evaluate")
        # Acl is stable and both weights exactly symmetric, as the solve requires
        P, Sigma = linalg.solve_dlyap_transpose(Acl, stage_weight(game, pi), game.Sigma0)
    cost = float(np.trace(P.dot(game.Sigma0)))
    BtP, CtP = game.B.T.dot(P), game.C.T.dot(P)
    E = (game.Ru + BtP.dot(game.B)).dot(pi.K) - BtP.dot(game.A - game.C.dot(pi.L))
    F = (-game.Rv + CtP.dot(game.C)).dot(pi.L) - CtP.dot(game.A - game.B.dot(pi.K))
    return PolicyEval(P=P, Sigma=Sigma, cost=cost,
                      gradK=(2.0 * E).dot(Sigma), gradL=(2.0 * F).dot(Sigma),
                      E=E, F=F, rho=rho)


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
    _check_positive("check_stationary.tol", tol, zero_ok=True)
    ev = evaluate(game, pi)
    gk = linalg.fro(ev.gradK)
    gl = linalg.fro(ev.gradL)
    p_min = linalg.min_eigenvalue_sym(ev.P)
    s_min = linalg.min_eigenvalue_sym(ev.Sigma)
    block = -game.Rv + game.C.T @ ev.P @ game.C
    block_sigma = float(linalg.svdvals(block)[-1])
    ok = (gk <= tol and gl <= tol and p_min > 0.0
          and s_min >= STATIONARY_SINGULAR_TOL
          and block_sigma >= STATIONARY_SINGULAR_TOL)
    return ok, StationarityReport(
        is_stationary=ok, grad_k_norm=gk, grad_l_norm=gl,
        p_min_eig=p_min, sigma_min_eig=s_min, rv_block_sigma_min=block_sigma)
