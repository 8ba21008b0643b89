"""Projected nested-gradient outer loop over the maximizer's gain L.

The maximin objective after inner minimization is Ct(L) = C(K(L), L) with
K(L) the inner best response. Its gradient is the L-gradient of C evaluated
at (K(L), L). Three update directions are supported, each followed by an
optional projection onto Omega = {L : Q - L^T Rv L >= zeta I}:

    NG:            L' = Proj[L + eta * gradL]            (gradL = 2 F Sigma)
    NaturalNG:     L' = Proj[L + eta * 2F]               (gradL Sigma^{-1})
    GaussNewtonNG: L' = Proj[L + eta * 2 W_L^{-1} F]

with W_L = Rv - C^T [P - P B (Ru + B^T P B)^{-1} B^T P] C. The gradient
mapping (L' - L)/(2 eta) measures constrained stationarity; its norm is the
stopping quantity.

Projection is Off by default. The WhitenedSvClip mode whitens L by
Rv^{1/2} L (Q - zeta I)^{-1/2}, clips singular values to 1, and maps back;
this is the exact projection in the whitened Frobenius metric and a
surrogate for the weighted metrics of the three variants.
"""

from dataclasses import dataclass, field

import numpy as np

from . import inner_loop, linalg, policy
from .errors import (ConfigError, ConvergenceError, DefinitenessError, InputError,
                     UnstableError, _check_choice, _check_count, _check_positive)
from .game import qtilde_min
from .trace import OuterTrace, trace_row

NG = "NG"
NATURAL_NG = "NaturalNG"
GAUSS_NEWTON_NG = "GaussNewtonNG"
VARIANTS = (NG, NATURAL_NG, GAUSS_NEWTON_NG)

PROJECTION_OFF = "Off"
PROJECTION_WHITENED_SV_CLIP = "WhitenedSvClip"
PROJECTIONS = (PROJECTION_OFF, PROJECTION_WHITENED_SV_CLIP)

DEFAULT_ETA = {NG: 0.1, NATURAL_NG: 0.05, GAUSS_NEWTON_NG: None}

INTERIOR_SLACK = 1e-12


@dataclass(frozen=True)
class OmegaSet:
    """Omega = {L : Q - L^T Rv L >= zeta I} as zeta, M = Q - zeta I and M's square roots."""

    zeta: float
    M: np.ndarray
    roots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_positive("OmegaSet.zeta", self.zeta)
        M = linalg.symmetrize(self.M, name="OmegaSet.M")
        roots = linalg.sym_sqrt_and_inv_sqrt(M, name="Q - zeta*I (zeta too large?)")
        M.setflags(write=False)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "roots", roots)

    @classmethod
    def for_game(cls, game, zeta=None, nash=None):
        """Build Omega for a game. Default zeta: half the minimum eigenvalue of
        Q - L*^T Rv L* when a Nash solution is supplied and that margin is
        positive, else half the minimum eigenvalue of Q."""
        margin = qtilde_min(game, nash.Lstar) if nash is not None else None
        if zeta is None:
            if margin is not None and margin > 0.0:
                zeta = 0.5 * margin
            else:
                zeta = 0.5 * linalg.min_eigenvalue_sym(game.Q)
        else:
            _check_positive("OmegaSet.zeta", zeta)
            if margin is not None and margin > 0.0 and zeta >= margin:
                raise ConfigError(
                    f"OmegaSet.zeta: {zeta:g} must stay below the equilibrium margin "
                    f"{margin:.6g} or Omega excludes the Nash gain")
        return cls(zeta=zeta, M=game.Q - zeta * np.eye(game.d))

    def margin(self, L, game):
        """min eigenvalue of Q - L^T Rv L - zeta I; >= 0 means L is feasible."""
        S = self.M - L.T.dot(game.Rv).dot(L)
        return linalg.min_eigenvalue_sym(0.5 * (S + S.T))


@dataclass(frozen=True)
class OuterConfig:
    variant: str = GAUSS_NEWTON_NG
    eta: float | None = None  # None: variant default (NG 0.1, NaturalNG 0.05, GN adaptive)
    tol: float = 1e-6
    max_iter: int = 10_000
    inner: inner_loop.InnerConfig = field(
        default_factory=lambda: inner_loop.InnerConfig(method=inner_loop.RICCATI, tol=1e-8))
    projection: str = PROJECTION_OFF

    def __post_init__(self):
        _check_choice("OuterConfig.variant", self.variant, VARIANTS)
        _check_choice("OuterConfig.projection", self.projection, PROJECTIONS)
        if self.eta is not None:
            _check_positive("OuterConfig.eta", self.eta)
        _check_positive("OuterConfig.tol", self.tol)
        _check_count("OuterConfig.max_iter", self.max_iter)
        if not isinstance(self.inner, inner_loop.InnerConfig):
            raise ConfigError(f"OuterConfig.inner: must be an InnerConfig, got {self.inner!r}")


def w_matrix(game, P, require_pd=True):
    """W = Rv - C^T [P - P B (Ru + B^T P B)^{-1} B^T P] C for symmetric PSD P."""
    BtP = game.B.T.dot(P)
    G = game.Ru + BtP.dot(game.B)
    inner = P - BtP.T.dot(np.linalg.solve(G, BtP))
    W = game.Rv - game.C.T.dot(inner).dot(game.C)
    W = 0.5 * (W + W.T)
    if require_pd and linalg.min_eigenvalue_sym(W) <= 0.0:
        raise DefinitenessError(
            "W_L is not positive definite; the Gauss-Newton outer direction is undefined here")
    return W


def project_omega(L, omega, game):
    """Projection onto Omega by whitened singular-value clipping.

    Feasible inputs (min-eig slack -1e-12) come back as the same object,
    which also makes the operator idempotent: clipped outputs sit on the
    boundary and re-enter through the feasibility branch.
    """
    L = np.asarray(L, dtype=float)
    if omega.margin(L, game) >= -INTERIOR_SLACK:
        return L
    rv_h, rv_ih = game._rv_roots
    m_h, m_ih = omega.roots
    U, s, V = linalg.svd(rv_h @ L @ m_ih)
    s = np.minimum(s, 1.0)
    return rv_ih @ (U * s) @ V.T @ m_h


def _direction(game, ev, cfg):
    """Ascent direction and effective stepsize for one outer update."""
    eta = cfg.eta
    if cfg.variant == NG:
        D = ev.gradL
        if eta is None:
            eta = DEFAULT_ETA[NG]
    elif cfg.variant == NATURAL_NG:
        D = 2.0 * ev.F
        if eta is None:
            eta = DEFAULT_ETA[NATURAL_NG]
    else:
        W = w_matrix(game, ev.P)
        D = 2.0 * np.linalg.solve(W, ev.F)
        if eta is None:
            eta = 1.0 / (2.0 * np.linalg.norm(W, 2))
    return D, eta


def projected_step(game, t, trace, L, D, eta, omega=None):
    """L' = Proj[L + eta * D] at outer step t, projected only when omega is
    given and the candidate leaves it. Returns (L', mapping (L' - L)/(2 eta),
    proj_active). When the candidate or Q - L^T Rv L is not finite, raises
    ConvergenceError carrying the partial trace, without overflow warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cand = L + eta * D
        # a non-finite entry of cand makes a diagonal entry of cand^T Rv cand non-finite
        finite = np.isfinite(cand.T.dot(game.Rv).dot(cand)).all()
    if not finite:
        e = ConvergenceError(f"outer step {t} diverged: L + eta D or Q - L^T Rv L is not "
                             "finite; the stepsize is likely too large", iterations=t)
        e.trace = trace  # partial progress travels with the failure
        raise e
    Lp = cand if omega is None else project_omega(cand, omega, game)
    return Lp, (Lp - L) / (2.0 * eta), Lp is not cand  # feasible cand comes back as is


def _solve_inner_warm(game, L, prev, cfg_inner):
    """Inner solve at L, warm-started from the inner result prev at the
    previous L. The Riccati method starts from prev.P and solves cold when
    that fails, lands on a non-stabilizing root or misses the inner
    tolerance; the gradient methods start from prev.K, and from the Riccati
    best response when prev.K does not stabilize the loop at L."""
    if cfg_inner.method == inner_loop.RICCATI:
        if prev is not None:
            try:
                res = inner_loop.solve_inner_riccati(game, L, P0=prev.P, _trusted=True)
                if res.final_grad_norm <= cfg_inner.tol:
                    return res
            except (ConvergenceError, DefinitenessError, UnstableError):
                pass
        return inner_loop.solve_inner(game, L, None, cfg_inner)
    if prev is not None:
        try:
            return inner_loop.solve_inner(game, L, prev.K, cfg_inner)
        except UnstableError as e:
            if e.iteration != 0:  # lost at a later step: the stepsize, not the start
                raise
    return inner_loop.solve_inner(game, L, inner_loop.solve_inner_riccati(game, L).K, cfg_inner)


def solve_nested(game, L0, cfg, omega=None):
    """Alternate inner best-response solves and projected outer steps until the
    gradient-mapping norm falls below cfg.tol.

    Returns the final (K(L_T), L_T) pair and the full per-iteration trace.
    """
    L = linalg.as_matrix(L0, rows=game.m2, cols=game.d, name="L0")
    if cfg.projection == PROJECTION_OFF:
        omega = None
    elif omega is None:
        raise ConfigError("solve_nested.omega: projection WhitenedSvClip requires an OmegaSet")
    if omega is not None and omega.margin(L, game) < -1e-9:
        raise InputError("solve_nested.L0: lies outside Omega")

    trace = OuterTrace(meta={
        "variant": cfg.variant,
        "projection": cfg.projection,
        "mu": float(linalg.min_eigenvalue_sym(game.Sigma0)),
    })
    inner_res = None
    for t in range(cfg.max_iter + 1):
        try:
            inner_res = _solve_inner_warm(game, L, inner_res, cfg.inner)
        except (ConvergenceError, DefinitenessError, UnstableError) as e:
            e.trace = trace  # partial progress travels with the failure
            raise
        ev = inner_res.ev
        D, eta = _direction(game, ev, cfg)
        Lp, mapping, proj_active = projected_step(game, t, trace, L, D, eta, omega)
        map_norm = linalg.fro(mapping)
        trace.append(trace_row(game, t, L, ev.cost, ev.gradL, ev.rho, grad_map_norm=map_norm,
                               proj_active=proj_active, K=inner_res.K,
                               margin=inner_res.trace[-1].lambda_min_qtilde))  # at this L
        if map_norm <= cfg.tol:
            trace.converged = True
            break
        L = Lp
    pair = policy.PolicyPair(K=inner_res.K, L=L if trace.converged else trace.rows[-1].L)
    return pair, trace
