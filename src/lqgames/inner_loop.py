"""Inner-loop solvers: the minimizer's best response K(L) to a fixed L.

Two routes with one result type: a Riccati solve (linalg.solve_dare:
doubling or a warm start, then Newton steps, each of which is the
GaussNewton step below at alpha = 1/2 with P evaluated exactly) of

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
from .errors import (ConfigError, ConvergenceError, DefinitenessError, UnstableError,
                     _check_choice, _check_count, _check_positive)
from .game import qtilde_min
from .trace import TraceRow, trace_row

RICCATI_DEFAULT_TOL = 1e-12

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
        _check_choice("InnerConfig.method", self.method, METHODS)
        _check_positive("InnerConfig.tol", self.tol)
        _check_count("InnerConfig.max_iter", self.max_iter)
        if self.alpha is not None:
            _check_positive("InnerConfig.alpha", self.alpha)
            if self.method == GAUSS_NEWTON and self.alpha > 0.5:
                raise ConfigError(f"InnerConfig.alpha: must lie in (0, 1/2] for GaussNewton, "
                                  f"got {self.alpha!r}")


@dataclass
class InnerResult:
    """trace rows record ||gradK|| as grad_norm, one row per visited K; ev is
    the exact evaluation at (K, L)."""

    K: np.ndarray
    P: np.ndarray
    iterations: int
    final_grad_norm: float
    trace: list[TraceRow]
    ev: policy.PolicyEval | None = None


# Both updates also take stacks (leading axes on K, grad and Sigma) and give
# each gain in a stack the floats it would get alone.

def pg_update(K, grad, alpha):
    return K - alpha * grad

def natural_pg_update(K, grad, Sigma, alpha):
    # right-multiplication by Sigma^{-1} via a symmetric solve
    return K - alpha * np.linalg.solve(Sigma, grad.swapaxes(-1, -2)).swapaxes(-1, -2)


def solve_inner_riccati(game, L, tol=RICCATI_DEFAULT_TOL, max_iter=linalg.DARE_MAX_STEPS,
                        P0=None, *, _trusted=False):
    """Best response K(L) from the inner Riccati equation, by linalg.solve_dare
    on (At_L, B, Qt_L, Ru): a few doublings from zero, or the warm start P0
    (say, the solution at a nearby L), then Newton steps until one is at most
    max(tol, sqrt(eps) ||P||_F). iterations counts doublings plus Newton
    steps; max_iter caps the Newton steps. The result carries the exact
    evaluation at (K(L), L) as ev.

    Qt_L > 0 guarantees solvability; slightly indefinite Qt_L is attempted
    anyway (the equation still has a stabilizing solution near such points
    in practice) and only reported as the likely cause when the solve fails.
    A warm start on a non-stabilizing root of the equation stays there and
    fails with UnstableError.

    _trusted (private) skips the checks of the arguments, for the package's
    own callers: L a float64 m2 x d matrix it has checked or built, and P0
    None or the P of an earlier result, which is exactly symmetric.
    """
    if not _trusted:
        _check_positive("solve_inner_riccati.tol", tol)
        _check_count("solve_inner_riccati.max_iter", max_iter)
        L = linalg.as_matrix(L, rows=game.m2, cols=game.d, name="L")
        if P0 is not None:
            P0 = linalg.symmetrize(P0, name="P0")
    Qt = game.Q - L.T.dot(game.Rv).dot(L)
    Qt = 0.5 * (Qt + Qt.T)
    At = game.A - game.C.dot(L)
    B, Ru = game.B, game.Ru
    try:
        # Ru is PD (LqGame checked it), so its inertia is (m1, 0)
        P, iterations = linalg.solve_dare(At, B, Qt, Ru, tol, X0=P0, max_steps=max_iter,
                                          inertia=(game.m1, 0))
    except ConvergenceError as e:
        _raise_inner_domain(game, L, e.iterations, e.residual, str(e))
    K = np.linalg.solve(Ru + B.T.dot(P).dot(B), B.T.dot(P).dot(At))
    # raises UnstableError if unstable
    ev = policy.evaluate(game, policy.PolicyPair._trusted(K, L))
    row = trace_row(game, 0, L, float(np.trace(P.dot(game.Sigma0))), ev.gradK, ev.rho, K=K,
                    margin=linalg.min_eigenvalue_sym(Qt))
    return InnerResult(K=K, P=P, iterations=iterations, final_grad_norm=row.grad_norm,
                       trace=[row], ev=ev)


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
    """One PG, NaturalPG or GaussNewton update of K from the exact
    evaluation ev at (K, L)."""
    alpha = cfg.alpha if cfg.alpha is not None else DEFAULT_ALPHA[cfg.method]
    if cfg.method == PG:
        return pg_update(K, ev.gradK, alpha)
    if cfg.method == NATURAL_PG:
        if alpha is None:
            alpha = 1.0 / (2.0 * np.linalg.norm(game.Ru + game.B.T.dot(ev.P).dot(game.B), 2))
        return natural_pg_update(K, ev.gradK, ev.Sigma, alpha)
    G = game.Ru + game.B.T.dot(ev.P).dot(game.B)
    return K - 2.0 * alpha * np.linalg.solve(G, ev.E)


def solve_inner(game, L, K0, cfg):
    """Take cfg.method's gradient steps on K until ||gradK||_F <= cfg.tol;
    the Riccati method solves directly.

    Every iterate must stay stabilizing; losing stability aborts with the
    iteration index (the usual cause is a too-large stepsize).
    """
    L = linalg.as_matrix(L, rows=game.m2, cols=game.d, name="L")
    if cfg.method == RICCATI:
        res = solve_inner_riccati(game, L, _trusted=True)
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
            ev = policy.evaluate(game, policy.PolicyPair._trusted(K, L))
        except UnstableError as e:
            raise UnstableError(
                f"inner loop lost stability at iteration {t} "
                f"(rho = {e.rho:.6f}); stepsize likely too large",
                rho=e.rho, iteration=t) from e
        trace.append(trace_row(game, t, L, ev.cost, ev.gradK, ev.rho, K=K, margin=margin))
        grad_norm = trace[-1].grad_norm
        if grad_norm <= cfg.tol:
            return InnerResult(K=K, P=ev.P, iterations=t,
                               final_grad_norm=grad_norm, trace=trace, ev=ev)
        K = _step_from_eval(game, K, ev, cfg)
    raise ConvergenceError(
        f"inner loop did not reach tol={cfg.tol:g} within {cfg.max_iter} iterations "
        f"(last ||gradK|| = {grad_norm:.3e})",
        residual=grad_norm, iterations=cfg.max_iter)
