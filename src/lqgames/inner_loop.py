"""Inner-loop solvers: the minimizer's best response K(L) to a fixed L.

Two routes with one result type: a Riccati solve (doubling, then fixed-point
steps) of

    P = Qt_L + At_L^T P At_L - At_L^T P B (Ru + B^T P B)^{-1} B^T P At_L,
    Qt_L = Q - L^T Rv L,   At_L = A - C L,   K(L) = (Ru + B^T P B)^{-1} B^T P At_L,

and iterative gradient descent on K with three update rules:

    PG:          K' = K - alpha * gradK
    NaturalPG:   K' = K - alpha * gradK Sigma^{-1}
    GaussNewton: K' = K - 2 alpha (Ru + B^T P B)^{-1} E

NaturalPG's default stepsize is adaptive, alpha = 1/(2 ||Ru + B^T P B||);
GaussNewton at alpha = 1/2 is the exact one-step best response in P.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg, policy
from .errors import ConvergenceError, DefinitenessError, UnstableError
from .game import qtilde_min
from .trace import TraceRow, trace_row

RICCATI_DEFAULT_TOL = 1e-12
RICCATI_DEFAULT_MAX_ITER = 100_000

PG = "PG"
NATURAL_PG = "NaturalPG"
GAUSS_NEWTON = "GaussNewton"
RICCATI = "Riccati"
METHODS = (PG, NATURAL_PG, GAUSS_NEWTON, RICCATI)

DEFAULT_ALPHA = {PG: 1e-3, NATURAL_PG: None, GAUSS_NEWTON: 0.5}


@dataclass(frozen=True)
class InnerConfig:
    """method: one of PG|NaturalPG|GaussNewton|Riccati.

    alpha None selects the method default (PG 1e-3, NaturalPG adaptive
    1/(2||Ru+B^T P B||), GaussNewton 1/2); ignored for Riccati.
    tol stops the gradient iteration at ||gradK||_F <= tol.
    """

    method: str = GAUSS_NEWTON
    alpha: float | None = None
    tol: float = 1e-10
    max_iter: int = 100_000

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown inner method {self.method!r}; expected one of {METHODS}")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.alpha is not None:
            if self.alpha <= 0.0:
                raise ValueError("alpha must be positive")
            if self.method == GAUSS_NEWTON and self.alpha > 0.5:
                raise ValueError("GaussNewton alpha must lie in (0, 1/2]")


@dataclass
class InnerResult:
    """trace rows record ||gradK|| as grad_norm, one row per visited K."""

    K: np.ndarray
    P: np.ndarray
    iterations: int
    final_grad_norm: float
    trace: list[TraceRow]


# Both updates also take stacks (leading axes on K, grad and Sigma) and give
# each gain in a stack the floats it would get alone.

def pg_update(K, grad, alpha):
    return K - alpha * grad

def natural_pg_update(K, grad, Sigma, alpha):
    # right-multiplication by Sigma^{-1} via a symmetric solve
    return K - alpha * np.linalg.solve(Sigma, grad.swapaxes(-1, -2)).swapaxes(-1, -2)


def solve_inner_riccati(game, L, tol=RICCATI_DEFAULT_TOL, max_iter=RICCATI_DEFAULT_MAX_ITER,
                        P0=None):
    """Best response K(L) from the inner Riccati equation.

    linalg.riccati_doubling solves X = Qt_L + At_L^T X (I + G X)^{-1} At_L,
    G = B Ru^{-1} B^T, in a few doublings; fixed-point steps of the map above
    then run until a step is at most tol, normally one. iterations counts
    doublings plus steps; max_iter caps the steps.

    A warm start P0 (say, the solution at a nearby L) doubles on the
    correction D = X - P0 instead, which solves the same kind of equation
    with the closed loop (I + G P0)^{-1} At_L, the weight (I + G P0)^{-1} G
    and the residual of P0 as its H. D is small, so the doubling stops once
    its estimated distance to D is below tol, in fewer doublings than a cold
    solve.

    Qt_L > 0 guarantees solvability; slightly indefinite Qt_L is attempted
    anyway (the equation still has a stabilizing solution near such points
    in practice) and only reported as the likely cause when the solve fails.
    """
    L = linalg.as_matrix(L, rows=game.m2, cols=game.d, name="L")
    Qt = game.Q - L.T @ game.Rv @ L
    Qt = 0.5 * (Qt + Qt.T)
    At = game.A - game.C @ L
    B, Ru = game.B, game.Ru

    BRB = B @ np.linalg.solve(Ru, B.T)
    G = 0.5 * (BRB + BRB.T)
    try:
        if P0 is None:
            P, doublings = linalg.riccati_doubling(At, G, Qt, tol)
        else:
            P0 = linalg.symmetrize(P0, name="P0")
            try:
                Y = np.linalg.solve(np.eye(game.d) + G @ P0, np.hstack([At, G]))
            except np.linalg.LinAlgError as e:
                raise ConvergenceError("I + G P0 is singular", iterations=0) from e
            A0, G0 = np.split(Y, 2, axis=1)
            R = Qt + At.T @ P0 @ A0 - P0
            D, doublings = linalg.riccati_doubling(A0, 0.5 * (G0 + G0.T), 0.5 * (R + R.T), tol)
            P = P0 + D
    except ConvergenceError as e:
        _raise_inner_domain(game, L, e.iterations, e.residual, str(e))
    step = np.inf
    for k in range(max_iter):
        G = Ru + B.T @ P @ B
        # built here from symmetric Ru and P, so no re-validation
        if np.linalg.eigvalsh(G)[0] <= 0.0:
            _raise_inner_domain(game, L, doublings + k, np.nan,
                                "Ru + B^T P B lost definiteness during iteration")
        Kn = np.linalg.solve(G, B.T @ P @ At)
        Pn = Qt + At.T @ P @ At - At.T @ P @ B @ Kn
        Pn = 0.5 * (Pn + Pn.T)
        step = np.linalg.norm(Pn - P, "fro")
        P = Pn
        if step <= tol:
            break
        if not np.isfinite(step):
            _raise_inner_domain(game, L, doublings + k, step, "iteration diverged")
    else:
        _raise_inner_domain(game, L, doublings + max_iter, step, "iteration cap reached")

    K = np.linalg.solve(Ru + B.T @ P @ B, B.T @ P @ At)
    rho = linalg.require_stable(game.A - game.B @ K - game.C @ L,
                                context="inner Riccati solution")
    row = trace_row(game, 0, L, float(np.trace(P @ game.Sigma0)),
                    policy.evaluate(game, policy.PolicyPair(K=K, L=L)).gradK, rho, K=K)
    return InnerResult(K=K, P=P, iterations=doublings + k + 1, final_grad_norm=row.grad_norm,
                       trace=[row])


def _raise_inner_domain(game, L, iteration, residual, reason):
    qt_min = qtilde_min(game, L)
    if qt_min <= 0.0:
        raise DefinitenessError(
            f"inner Riccati solve failed ({reason} at iteration {iteration}); "
            f"Q - L^T Rv L is not PD (min eigenvalue {qt_min:.3e}), which lies "
            "outside the guaranteed-solvable domain")
    raise ConvergenceError(
        f"inner Riccati solve failed: {reason} at iteration {iteration}",
        residual=residual, iterations=iteration)


def _step_from_eval(game, K, ev, cfg):
    """One K-update from an existing evaluation at (K, L)."""
    alpha = cfg.alpha if cfg.alpha is not None else DEFAULT_ALPHA[cfg.method]
    if cfg.method == PG:
        return pg_update(K, ev.gradK, alpha)
    if cfg.method == NATURAL_PG:
        if alpha is None:
            alpha = 1.0 / (2.0 * np.linalg.norm(game.Ru + game.B.T @ ev.P @ game.B, 2))
        return natural_pg_update(K, ev.gradK, ev.Sigma, alpha)
    if cfg.method == GAUSS_NEWTON:
        G = game.Ru + game.B.T @ ev.P @ game.B
        return K - 2.0 * alpha * np.linalg.solve(G, ev.E)
    raise ValueError(f"inner_step does not apply to method {cfg.method!r}")


def inner_step(game, K, L, cfg):
    """Single gradient-based update of K at fixed L."""
    K = linalg.as_matrix(K, rows=game.m1, cols=game.d, name="K")
    L = linalg.as_matrix(L, rows=game.m2, cols=game.d, name="L")
    ev = policy.evaluate(game, policy.PolicyPair(K=K, L=L))
    return _step_from_eval(game, K, ev, cfg)


def solve_inner(game, L, K0, cfg):
    """Iterate inner_step until ||gradK||_F <= cfg.tol.

    Every iterate must stay stabilizing; losing stability aborts with the
    iteration index (the usual cause is a too-large stepsize).
    """
    L = linalg.as_matrix(L, rows=game.m2, cols=game.d, name="L")
    if cfg.method == RICCATI:
        res = solve_inner_riccati(game, L)
        if res.final_grad_norm > cfg.tol:
            raise ConvergenceError(
                f"Riccati inner solve left ||gradK|| = {res.final_grad_norm:.3e} "
                f"above the inner tolerance {cfg.tol:g}",
                residual=res.final_grad_norm, iterations=res.iterations)
        return res

    K = linalg.as_matrix(K0, rows=game.m1, cols=game.d, name="K0")
    margin = qtilde_min(game, L)
    trace = []
    for t in range(cfg.max_iter + 1):
        try:
            ev = policy.evaluate(game, policy.PolicyPair(K=K, L=L))
        except UnstableError as e:
            raise UnstableError(
                f"inner loop lost stability at iteration {t} "
                f"(rho = {e.rho:.6f}); stepsize likely too large",
                rho=e.rho, iteration=t) from e
        trace.append(trace_row(game, t, L, ev.cost, ev.gradK, ev.rho, K=K, margin=margin))
        grad_norm = trace[-1].grad_norm
        if grad_norm <= cfg.tol:
            return InnerResult(K=K, P=ev.P, iterations=t,
                               final_grad_norm=grad_norm, trace=trace)
        K = _step_from_eval(game, K, ev, cfg)
    raise ConvergenceError(
        f"inner loop did not reach tol={cfg.tol:g} within {cfg.max_iter} iterations "
        f"(last ||gradK|| = {grad_norm:.3e})",
        residual=grad_norm, iterations=cfg.max_iter)
