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

and the equilibrium gains K*, L* are the two block components of the
M(P*)^{-1} solve above. solve_gare finds P* as the stabilizing solution of
the discrete Riccati equation with input [B C] and weight diag(Ru, -Rv), by
linalg.solve_dare: doubling, then Newton steps.
"""

import functools
import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ConvergenceError, DefinitenessError, DimensionError

GARE_DEFAULT_TOL = 1e-10

# sigma_min below this (relative to scale) counts as singular in block solves
SINGULAR_TOL = 1e-12


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
                raise ValueError(f"{name}: must be positive definite, min eigenvalue {lam:.3e}")
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
        d, m1, m2 = int(doc["d"]), int(doc["m1"]), int(doc["m2"])
        g = cls(
            A=np.asarray(doc["A"], dtype=float).reshape(d, d),
            B=np.asarray(doc["B"], dtype=float).reshape(d, m1),
            C=np.asarray(doc["C"], dtype=float).reshape(d, m2),
            Q=np.asarray(doc["Q"], dtype=float).reshape(d, d),
            Ru=np.asarray(doc["Ru"], dtype=float).reshape(m1, m1),
            Rv=np.asarray(doc["Rv"], dtype=float).reshape(m2, m2),
            Sigma0=np.asarray(doc["Sigma0"], dtype=float).reshape(d, d),
        )
        return g

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


def _gare_gains(game, P):
    """Solve M(P) [K; L] = [B^T P A; C^T P A] by Schur complement on the
    (2,2) block. Returns (K, L)."""
    B, C, A = game.B, game.C, game.A
    M11 = game.Ru + B.T @ P @ B
    M12 = B.T @ P @ C
    M22 = -game.Rv + C.T @ P @ C
    N1 = B.T @ P @ A
    N2 = C.T @ P @ A

    s22 = np.linalg.svd(M22, compute_uv=False)
    if s22[-1] <= SINGULAR_TOL * max(1.0, s22[0]):
        raise DefinitenessError(
            f"(2,2) block -Rv + C^T P C is singular (sigma_min {s22[-1]:.3e})")
    M22inv_M21 = np.linalg.solve(M22, M12.T)
    M22inv_N2 = np.linalg.solve(M22, N2)
    S = M11 - M12 @ M22inv_M21
    sS = np.linalg.svd(S, compute_uv=False)
    if sS[-1] <= SINGULAR_TOL * max(1.0, sS[0]):
        raise DefinitenessError(
            f"Schur complement of the block matrix is singular (sigma_min {sS[-1]:.3e})")
    K = np.linalg.solve(S, N1 - M12 @ M22inv_N2)
    L = np.linalg.solve(M22, N2 - M12.T @ K)
    return K, L


def _gare_map(game, P):
    """One application of the Riccati fixed-point map; returns (P_next, K, L)."""
    K, L = _gare_gains(game, P)
    A, B, C = game.A, game.B, game.C
    Pn = game.Q + A.T @ P @ A - (A.T @ P @ B) @ K - (A.T @ P @ C) @ L
    return 0.5 * (Pn + Pn.T), K, L


def solve_gare(game, tol=GARE_DEFAULT_TOL, max_iter=linalg.DARE_MAX_STEPS):
    """Nash value matrix by Riccati doubling, then Newton steps.

    The game equation is the discrete Riccati equation with the stacked input
    [B C] and the indefinite weight diag(Ru, -Rv), which linalg.solve_dare
    solves: about ten doublings, then Newton steps until one is at most
    max(tol, sqrt(eps) ||P||_F), normally one or two. max_iter caps the
    Newton steps; iterations counts doublings plus Newton steps. The returned
    residual is the Frobenius norm of P - map(P) for the game Riccati map,
    which must be at most tol or, when larger, the roundoff level
    64 eps ||A||_F^2 ||P||_F of that map.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    R = np.block([[game.Ru, np.zeros((game.m1, game.m2))],
                  [np.zeros((game.m2, game.m1)), -game.Rv]])
    # Ru and Rv are PD (LqGame checked them), so R's inertia is (m1, m2)
    P, iterations = linalg.solve_dare(game.A, np.hstack([game.B, game.C]), game.Q, R, tol,
                                      max_steps=max_iter, inertia=(game.m1, game.m2))
    Pcheck, K, L = _gare_map(game, P)
    residual = float(np.linalg.norm(Pcheck - P, "fro"))
    bound = max(tol, 64.0 * np.finfo(float).eps * np.linalg.norm(game.A, "fro") ** 2
                * np.linalg.norm(P, "fro"))
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
