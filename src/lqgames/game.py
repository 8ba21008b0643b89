"""Problem definition, the Riccati oracle for the Nash
equilibrium of a zero-sum LQ game, and the standing-assumption checker.

The game is

    x_{t+1} = A x_t + B u_t + C v_t,
    cost    = E sum_t ( x^T Q x + u^T Ru u - v^T Rv v ),

with the minimizer playing u = -K x and the maximizer v = -L x. The Nash
value matrix P* solves the generalized Riccati equation

    P = Q + A^T P A - [A^T P B, A^T P C] M(P)^{-1} [B^T P A; C^T P A],

    M(P) = [[Ru + B^T P B,  B^T P C   ],
            [C^T P B,      -Rv + C^T P C]],

and the equilibrium gains K*, L* are the two blocks of the one solve
M(P*) [K*; L*] = [B C]^T P* A. solve_gare finds P* as the stabilizing
solution of the discrete Riccati equation with input [B C] and weight
R = diag(Ru, -Rv), by linalg.solve_dare: doubling, then Newton steps. Then
M(P*) = R + [B C]^T P* [B C], the matrix each Newton step solves with.
"""

import functools
import json
from dataclasses import dataclass, fields

import numpy as np

from . import linalg
from .errors import (ConvergenceError, DefinitenessError, DimensionError, InputError,
                     _check_count, _check_positive)

GARE_DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class LqGame:
    """Immutable problem data. Q, Ru, Rv, Sigma0 must be symmetric PD."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    Ru: np.ndarray
    Rv: np.ndarray
    Sigma0: np.ndarray

    def __post_init__(self):
        A = linalg.as_matrix(self.A, name="A")
        d = A.shape[0]
        if A.shape[1] != d:
            raise DimensionError(f"A must be square, got {A.shape}")
        B = linalg.as_matrix(self.B, rows=d, name="B")
        C = linalg.as_matrix(self.C, rows=d, name="C")
        checked = {"A": A, "B": B, "C": C}
        for name, n in (("Q", d), ("Ru", B.shape[1]), ("Rv", C.shape[1]), ("Sigma0", d)):
            M = linalg.as_matrix(getattr(self, name), rows=n, cols=n, name=name)
            checked[name] = M = linalg.symmetrize(M, name=name)
            lam = linalg.min_eigenvalue_sym(M)
            if lam <= 0.0:
                raise InputError(f"{name}: must be positive definite, min eigenvalue {lam:.3e}")
        for field, val in checked.items():
            if val is getattr(self, field):
                val = val.copy()  # freeze a copy, not the caller's array
            val.flags.writeable = False
            object.__setattr__(self, field, val)

    @functools.cached_property
    def _rv_roots(self):
        """(Rv^{1/2}, Rv^{-1/2}), read-only, taken once per game for the projection."""
        roots = linalg.sym_sqrt_and_inv_sqrt(self.Rv, name="Rv")
        for M in roots:
            M.flags.writeable = False
        return roots

    @property
    def d(self):
        return self.A.shape[0]

    @property
    def m1(self):
        return self.B.shape[1]

    @property
    def m2(self):
        return self.C.shape[1]

    def to_json_dict(self):
        return {
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "C": self.C.tolist(),
            "Q": self.Q.tolist(),
            "Ru": self.Ru.tolist(),
            "Rv": self.Rv.tolist(),
            "Sigma0": self.Sigma0.tolist(),
            "d": self.d,
            "m1": self.m1,
            "m2": self.m2,
        }

    @classmethod
    def from_json_dict(cls, doc):
        """The game of a to_json_dict document. Its d, m1 and m2 are not read:
        the matrices' shapes give them, and the constructor checks those."""
        names = [f.name for f in fields(cls)]
        if not isinstance(doc, dict):
            raise InputError(f"a game document must be an object holding {names}, "
                             f"got a {type(doc).__name__}")
        missing = [name for name in names if name not in doc]
        if missing:
            raise InputError(f"a game document must hold {names}; missing {missing}")
        return cls(**{name: doc[name] for name in names})

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class NashSolution:
    Pstar: np.ndarray
    Kstar: np.ndarray
    Lstar: np.ndarray
    value: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class AssumptionReport:
    """Margins of the two standing conditions at the equilibrium.

    rv_margin = lambda_min(Rv - C^T P* C), ql_margin = lambda_min(Q - L*^T Rv L*).
    """

    rv_margin: float
    ql_margin: float

    @property
    def part_i_holds(self):
        return self.rv_margin > 0.0

    @property
    def part_ii_holds(self):
        return self.ql_margin > 0.0


def solve_gare(game, tol=GARE_DEFAULT_TOL, max_iter=linalg.DARE_MAX_STEPS):
    """Nash value matrix by Riccati doubling, then Newton steps.

    The game equation is the discrete Riccati equation with the stacked input
    [B C] and the indefinite weight diag(Ru, -Rv), which linalg.solve_dare
    solves: about ten doublings, then Newton steps until one is at most
    max(tol, sqrt(eps) ||P||_F), normally one or two. max_iter caps the
    Newton steps; iterations counts doublings plus Newton steps. With
    N = [B C]^T P A, one solve M(P) [K; L] = N gives the gains, and the map
    Q + A^T P A - N^T [K; L] the returned residual: the Frobenius norm of
    P - map(P), which must be at most tol or, when larger, the roundoff level
    64 eps ||A||_F^2 ||P||_F of that map. A singular M(P) raises
    DefinitenessError.
    """
    _check_positive("solve_gare.tol", tol)
    _check_count("solve_gare.max_iter", max_iter)
    R = np.block([[game.Ru, np.zeros((game.m1, game.m2))],
                  [np.zeros((game.m2, game.m1)), -game.Rv]])
    BC = np.hstack([game.B, game.C])
    # Ru and Rv are PD (LqGame checked them), so R's inertia is (m1, m2)
    P, iterations = linalg.solve_dare(game.A, BC, game.Q, R, tol,
                                      max_steps=max_iter, inertia=(game.m1, game.m2))
    N = BC.T @ P @ game.A
    with linalg.lapack_errors():
        try:
            KL = linalg.solve(R + BC.T @ P @ BC, N)
        except DefinitenessError as e:
            raise DefinitenessError("GARE solution: M(P*) is singular") from e
        K, L = KL[:game.m1], KL[game.m1:]
        Pn = game.Q + game.A.T @ P @ game.A - N.T @ KL
        residual = linalg.fro(0.5 * (Pn + Pn.T) - P)
        bound = max(tol, 64.0 * np.finfo(float).eps * linalg.fro(game.A) ** 2 * linalg.fro(P))
        if residual > bound:
            raise ConvergenceError(
                f"GARE residual {residual:.3e} above {bound:.3e} after convergence test",
                residual=residual, iterations=iterations)
        linalg.require_stable(game.A - game.B @ K - game.C @ L, context="GARE solution")
    value = float(np.trace(P @ game.Sigma0))
    return NashSolution(Pstar=P, Kstar=K, Lstar=L, value=value,
                        iterations=iterations, residual=residual)


def qtilde_min(game, L):
    """lambda_min(Q - L^T Rv L), the constraint margin of the maximizer gain L."""
    S = game.Q - L.T.dot(game.Rv).dot(L)
    return linalg.min_eigenvalue_sym(0.5 * (S + S.T))


def check_assumptions(game, sol):
    """Margins of the two equilibrium conditions; flags are (margin > 0)."""
    S = game.Rv - game.C.T @ sol.Pstar @ game.C
    rv_margin = linalg.min_eigenvalue_sym(0.5 * (S + S.T))
    return AssumptionReport(rv_margin=rv_margin, ql_margin=qtilde_min(game, sol.Lstar))


_A_BENCH = [[0.956488, 0.0816012, -0.0005],
            [0.0741349, 0.94121, -0.000708383],
            [0.0, 0.0, 0.132655]]
_B_BENCH = [[-0.00550808], [-0.096], [0.867345]]


def case1():
    """First benchmark game: Q = I, weak disturbance channel."""
    return LqGame(
        A=np.array(_A_BENCH),
        B=np.array(_B_BENCH),
        C=np.array([[0.00951892], [0.0038373], [0.001]]),
        Q=np.eye(3),
        Ru=np.eye(1),
        Rv=np.eye(1),
        Sigma0=0.03 * np.eye(3),
    )


def case2():
    """Second benchmark game: Q = 0.01 I, strong disturbance channel.

    At its equilibrium, Q - L*^T Rv L* has a slightly negative smallest
    eigenvalue, so constraint-set machinery cannot contain L*.
    """
    return LqGame(
        A=np.array(_A_BENCH),
        B=np.array(_B_BENCH),
        C=np.array([[0.00951892], [0.0038373], [0.2]]),
        Q=0.01 * np.eye(3),
        Ru=np.eye(1),
        Rv=np.eye(1),
        Sigma0=0.03 * np.eye(3),
    )
