"""Alternating-gradient (AG) and gradient-descent-ascent (GDA) baselines.

AG runs a fixed number of inner K-updates per outer step, then one L-ascent
step of the matching flavor evaluated at the resulting (K_T, L_t). GDA
updates both gains simultaneously from one shared evaluation of (K_t, L_t).
Neither method projects. Stability is asserted at every sub-step, L-updates
must keep L and Q - L^T Rv L finite, and a violation aborts with the step.

Flavors reuse the inner-loop update arithmetic for the K-side. The L-side
ascends along gradL (PG), 2F (NaturalPG), or 2 (Rv - C^T P C)^{-1} F
(GaussNewton); the Gauss-Newton preconditioner must be positive definite.
"""

from dataclasses import dataclass

import numpy as np

from . import inner_loop, linalg, outer_loop, policy
from .errors import (DefinitenessError, UnstableError, _check_choice, _check_count,
                     _check_positive)
from .trace import OuterTrace, trace_row

FLAVORS = (inner_loop.PG, inner_loop.NATURAL_PG, inner_loop.GAUSS_NEWTON)


@dataclass(frozen=True)
class BaselineConfig:
    """Settings of either baseline; run_ag or run_gda picks the family.
    eta is the L-ascent stepsize. inner_alpha is the K stepsize: None means
    the flavor default for AG (PG 1e-3, NaturalPG adaptive, GaussNewton 1/2)
    and eta itself for GDA, whose listing uses one stepsize for both players.
    inner_tol > 0 lets AG leave the inner loop early once ||gradK|| drops
    below it (used to recover the fully nested method)."""

    flavor: str = inner_loop.GAUSS_NEWTON
    eta: float = 0.05
    inner_iters: int = 5
    max_outer: int = 10_000
    tol: float = 1e-6
    inner_alpha: float | None = None
    inner_tol: float = 0.0

    def __post_init__(self):
        _check_choice("BaselineConfig.flavor", self.flavor, FLAVORS)
        _check_positive("BaselineConfig.eta", self.eta)
        _check_count("BaselineConfig.inner_iters", self.inner_iters)
        _check_count("BaselineConfig.max_outer", self.max_outer)
        _check_positive("BaselineConfig.tol", self.tol)
        if self.inner_alpha is not None:
            _check_positive("BaselineConfig.inner_alpha", self.inner_alpha)
        _check_positive("BaselineConfig.inner_tol", self.inner_tol, zero_ok=True)


def _l_direction(game, ev, flavor):
    """Ascent direction for the maximizer; L + eta*direction is the update."""
    if flavor == inner_loop.PG:
        return ev.gradL
    if flavor == inner_loop.NATURAL_PG:
        return 2.0 * ev.F
    H = game.Rv - game.C.T.dot(ev.P).dot(game.C)
    H = 0.5 * (H + H.T)
    if linalg.min_eigenvalue_sym(H) <= 0.0:
        raise DefinitenessError(
            "Rv - C^T P C is not positive definite; the Gauss-Newton "
            "L-ascent direction is undefined here")
    return 2.0 * linalg.solve(H, ev.F)


def _evaluate_at(game, K, L, where):
    try:
        return policy.evaluate(game, policy.PolicyPair._trusted(K, L))
    except UnstableError as e:
        raise UnstableError(f"stability lost at {where} (rho = {e.rho:.6f})",
                            rho=e.rho) from e


def run_ag(game, pi0, cfg):
    """Alternating gradient from a stabilizing pair."""
    pi0.check_dims(game)
    icfg = inner_loop.InnerConfig(method=cfg.flavor, alpha=cfg.inner_alpha)
    K = np.array(pi0.K, dtype=float)
    L = np.array(pi0.L, dtype=float)
    trace = OuterTrace(meta={"family": "AG", "flavor": cfg.flavor,
                             "mu": float(linalg.min_eigenvalue_sym(game.Sigma0))})
    for t in range(cfg.max_outer + 1):
        for j in range(cfg.inner_iters):
            ev = _evaluate_at(game, K, L, f"outer step {t}, inner step {j}")
            if cfg.inner_tol > 0.0 and linalg.fro(ev.gradK) <= cfg.inner_tol:
                break  # ev is the evaluation at this (K, L)
            K = inner_loop._step_from_eval(game, K, ev, icfg)
        else:
            ev = _evaluate_at(game, K, L, f"outer step {t}, after inner loop")
        D = _l_direction(game, ev, cfg.flavor)
        map_norm = 0.5 * linalg.fro(D)
        trace.append(trace_row(game, t, L, ev.cost, ev.gradL, ev.rho,
                               grad_map_norm=map_norm, K=K, gradK=ev.gradK))
        if map_norm <= cfg.tol:
            trace.converged = True
            break
        if t < cfg.max_outer:
            L = outer_loop.projected_step(game, t, trace, L, D, cfg.eta)[0]
    return policy.PolicyPair(K=K, L=trace.rows[-1].L), trace


def run_gda(game, pi0, cfg):
    """Simultaneous descent-ascent: both updates use the same evaluation."""
    pi0.check_dims(game)
    alpha = cfg.inner_alpha if cfg.inner_alpha is not None else cfg.eta
    icfg = inner_loop.InnerConfig(method=cfg.flavor, alpha=alpha)
    K = np.array(pi0.K, dtype=float)
    L = np.array(pi0.L, dtype=float)
    trace = OuterTrace(meta={"family": "GDA", "flavor": cfg.flavor,
                             "mu": float(linalg.min_eigenvalue_sym(game.Sigma0))})
    for t in range(cfg.max_outer + 1):
        ev = _evaluate_at(game, K, L, f"step {t}")
        D = _l_direction(game, ev, cfg.flavor)
        map_norm = 0.5 * linalg.fro(D)
        trace.append(trace_row(game, t, L, ev.cost, ev.gradL, ev.rho,
                               grad_map_norm=map_norm, K=K, gradK=ev.gradK))
        if max(trace.rows[-1].grad_k_norm, trace.rows[-1].grad_norm) <= cfg.tol:
            trace.converged = True
            break
        if t < cfg.max_outer:
            K = inner_loop._step_from_eval(game, K, ev, icfg)
            L = outer_loop.projected_step(game, t, trace, L, D, cfg.eta)[0]
    return policy.PolicyPair(K=trace.rows[-1].K, L=trace.rows[-1].L), trace
