"""Dense real-matrix kernels used by every other module.

All routines operate on float64 numpy arrays. Symmetric outputs are
explicitly symmetrized. Input is checked once, where it enters the package:
LqGame, a caller's PolicyPair and the public solver entry points (evaluate,
solve_inner, solve_inner_riccati with its P0, solve_nested, run_ag, run_gda,
solve_gare) reject non-finite, misshapen or asymmetric arrays through
as_matrix and symmetrize (non-finite entries raise InputError, a ValueError
as well as an LqGamesError). Everything else here trusts the arrays the package
built (symmetric ones exactly symmetric): spectral_radius,
min_eigenvalue_sym, require_stable, solve_dlyap_transpose, riccati_doubling,
solve_dare (whose callers also pass R's inertia, known from LqGame's PD
checks), svd, sym_sqrt_and_inv_sqrt and fro. Only solve_dlyap checks its
own. The small-d paths multiply with ndarray.dot, not @: it calls the same
BLAS routine, so the floats are the same, at about half the cost for 3 x 3
operands.

solve_dlyap_transpose is the one Lyapunov solver. Given a second weight it
also solves the transposed equation, the pair of an evaluation, in one call:
below d = 9 both Kronecker systems go to one batched LAPACK solve, whose
floats are bit-identical to two single solves because each system gets the
same factorization it gets alone; above, one Smith doubling loop updates both
from the same powers of the closed loop.

Both Riccati solvers (the game oracle and the inner best response) call one
routine, solve_dare: structure-preserving doubling from zero or a warm start,
one matrix inverse per doubling, then Newton steps, each a Lyapunov solve.
"""

import functools
import math

import numpy as np

from .errors import (ConvergenceError, DefinitenessError, DimensionError, InputError,
                     NotSymmetricError, UnstableError)

SYM_TOL = 1e-12
# Spectral radii in [1 - STABILITY_MARGIN, 1) are rejected as numerically marginal.
STABILITY_MARGIN = 1e-9
# Lyapunov solves: the vectorized Kronecker system (d^2 x d^2, O(d^6)) for
# d <= 8, Smith doubling above. The measured crossover lies between d=6 and
# d=10; at d=3 Kronecker is about 2x faster.
DLYAP_DIRECT_MAX_DIM = 8
# Smith doubling (Lyapunov) and SDA (Riccati) stop once ||A_k||_F^2 falls to
# about machine epsilon; the cap bounds the loop for inputs whose powers decay
# too slowly or overflow.
DOUBLING_TOL = 1e-16
DOUBLING_MAX_STEPS = 64
# Newton steps after the doubling or warm start converge quadratically; a
# solve that needs more than this many is not converging.
DARE_MAX_STEPS = 100
# A Newton step at most NEWTON_STOP ||X||_F is at roundoff (see solve_dare).
NEWTON_STOP = np.sqrt(np.finfo(float).eps)


def as_matrix(M, rows=None, cols=None, name="matrix"):
    """Validate and return M as a float64 2-d array with finite entries."""
    try:
        M = np.atleast_2d(np.asarray(M, dtype=float))
    except (TypeError, ValueError):  # not numbers, or ragged rows
        raise InputError(f"{name}: not a matrix of numbers") from None
    if M.ndim != 2:
        raise DimensionError(f"{name}: expected a 2-d array, got ndim={M.ndim}")
    if not np.isfinite(M).all():
        raise InputError(f"{name}: non-finite entries")
    if rows is not None and M.shape[0] != rows:
        raise DimensionError(f"{name}: expected {rows} rows, got {M.shape[0]}")
    if cols is not None and M.shape[1] != cols:
        raise DimensionError(f"{name}: expected {cols} cols, got {M.shape[1]}")
    return M


@functools.cache
def _eye(n):
    """The n x n identity, made once per n and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def fro(M):
    """Frobenius norm: the floats of np.linalg.norm(M, "fro") without its wrapper."""
    v = M.ravel(order="K")
    return math.sqrt(v.dot(v))


def symmetrize(M, name="matrix"):
    """Return (M + M^T)/2, rejecting symmetry defects above 1e-12 relative."""
    M = as_matrix(M, name=name)
    if M.shape[0] != M.shape[1]:
        raise DimensionError(f"{name}: not square {M.shape}")
    D = (M - M.T).ravel()
    defect = np.sqrt(D.dot(D))
    if defect > SYM_TOL * (1.0 + np.sqrt(M.ravel().dot(M.ravel()))):
        raise NotSymmetricError(f"{name}: symmetry defect {defect:.3e} above tolerance")
    return 0.5 * (M + M.T)


def spectral_radius(M):
    """max |lambda_i(M)| over the complex spectrum of a square matrix."""
    try:
        ev = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as e:
        raise ConvergenceError(f"eigenvalue iteration failed: {e}") from e
    return float(np.abs(ev).max()) if ev.size else 0.0


def min_eigenvalue_sym(M):
    """Smallest eigenvalue of an exactly symmetric matrix."""
    return float(np.linalg.eigvalsh(M)[0])


def require_stable(Acl, context="closed loop", iteration=None):
    """Return rho(Acl), raising UnstableError when at or above the margin."""
    rho = spectral_radius(Acl)
    if rho >= 1.0 - STABILITY_MARGIN:
        raise UnstableError(
            f"{context}: spectral radius {rho:.12g} is not strictly below 1",
            rho=rho,
            iteration=iteration,
        )
    return rho


def _dlyap_transpose_direct(Acl, W, S=None):
    # vec(Acl^T X Acl) = (Acl^T kron Acl^T) vec(X) in row-major flattening; the
    # broadcast product forms the same Kronecker entries as np.kron, faster
    d = Acl.shape[0]
    n = d * d
    At = Acl.T
    lhs = _eye(n) - (At[:, None, :, None] * At[None, :, None, :]).reshape(n, n)
    if S is None:
        X = np.linalg.solve(lhs, W.reshape(-1)).reshape(d, d)
        return 0.5 * (X + X.T)
    # the Y system's matrix I - Acl kron Acl is the transpose of the X system's:
    # both go to one batched solve, which factors each as a lone solve would
    # (filled in place: np.stack costs about what the second call would)
    pair = np.empty((2, n, n))
    pair[0] = lhs
    pair[1] = lhs.T
    rhs = np.empty((2, n, 1))
    rhs[0, :, 0] = W.reshape(-1)
    rhs[1, :, 0] = S.reshape(-1)
    XY = np.linalg.solve(pair, rhs).reshape(2, d, d)
    XY = 0.5 * (XY + XY.transpose(0, 2, 1))
    return XY[0], XY[1]


def _dlyap_transpose_doubling(Acl, W, S=None):
    # Smith doubling: after k steps X = sum_{j < 2^k} (Acl^j)^T W Acl^j and Ak =
    # Acl^(2^k). The remaining tail is Ak^T X_inf Ak, so a small ||Ak|| bounds it
    # relative to X whatever the sign of W (the stage weight can be indefinite,
    # which rules out stopping on a small increment). Y = sum Acl^j S (Acl^j)^T
    # takes the same powers, and its tail Ak Y_inf Ak^T the same bound.
    X, Y = W, S
    Ak = Acl
    for _ in range(DOUBLING_MAX_STEPS):
        X = X + Ak.T @ X @ Ak
        if S is not None:
            Y = Y + Ak @ Y @ Ak.T
        Ak = Ak @ Ak
        v = Ak.ravel()
        tail = float(v.dot(v))
        if tail <= DOUBLING_TOL:
            X = 0.5 * (X + X.T)
            return X if S is None else (X, 0.5 * (Y + Y.T))
    raise ConvergenceError(
        f"solve_dlyap_transpose: Smith doubling left ||Acl^(2^k)||_F^2 = {tail:.3e} "
        f"after {DOUBLING_MAX_STEPS} doublings",
        residual=tail, iterations=DOUBLING_MAX_STEPS)


def solve_dlyap_transpose(Acl, W, S=None):
    """Solve X = Acl^T X Acl + W for stable Acl and exactly symmetric W.

    Given an exactly symmetric S as well, also solve Y = Acl Y Acl^T + S and
    return (X, Y): the pair policy.evaluate needs, in one call. Kronecker for
    d <= 8, Smith doubling above. The pair's Kronecker systems go to one
    batched np.linalg.solve, which runs the same LAPACK factorization on each
    as two single calls would, so X and Y are bit-identical to them. Smith
    doubling shares the powers Acl^(2^k) between X and Y, which moves Y in its
    last bits against a lone solve on Acl^T. Checks nothing, stability
    included: policy.evaluate tests stability once for the pair.
    """
    if Acl.shape[0] <= DLYAP_DIRECT_MAX_DIM:
        return _dlyap_transpose_direct(Acl, W, S)
    return _dlyap_transpose_doubling(Acl, W, S)


def solve_dlyap(Acl, W):
    """Solve X = Acl X Acl^T + W for stable Acl and symmetric W, both checked."""
    Acl = as_matrix(Acl, name="Acl")
    require_stable(Acl, context="solve_dlyap")
    return solve_dlyap_transpose(Acl.T, symmetrize(W, name="W"))


def riccati_doubling(A, G, H):
    """Structure-preserving doubling (SDA; Chu, Fan and Lin 2005) for the
    discrete Riccati equation X = H + A^T X (I + G X)^{-1} A, G and H symmetric.

    Each doubling inverts W = I + G H once (an inverse and two products cost
    less than one solve against [A, G]) and forms
        A' = A W^{-1} A,   G' = G + A W^{-1} G A^T,   H' = H + A^T H W^{-1} A.
    H_k equals the fixed-point iterate after 2^k steps from X = 0, so the limit
    is the one value iteration reaches, and ||A_k|| decays like the spectral
    radius of the closed loop at that limit to the power 2^k. Stops once
    ||A_k||_F^2 <= 1e-16 and returns (X, doublings). A singular W, a
    non-finite iterate or the step cap raise ConvergenceError.
    """
    eye = _eye(A.shape[0])
    for k in range(1, DOUBLING_MAX_STEPS + 1):
        # an overflow, or the inf - inf it leads to, is caught just below
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                Winv = np.linalg.inv(eye + G @ H)
            except np.linalg.LinAlgError as e:
                raise ConvergenceError(
                    f"riccati_doubling: I + G H is singular at doubling {k}",
                    iterations=k) from e
            # (I + G H)^{-1} G is symmetric, which keeps G' symmetric
            WA, WG = Winv @ A, Winv @ G
            G = G + A @ WG @ A.T
            H = H + A.T @ H @ WA
            A = A @ WA
            G = 0.5 * (G + G.T)
            H = 0.5 * (H + H.T)
            tail = float((A * A).sum())
        if not (np.isfinite(tail) and np.isfinite(H).all() and np.isfinite(G).all()):
            raise ConvergenceError(f"riccati_doubling: non-finite iterate at doubling {k}",
                                   residual=tail, iterations=k)
        if tail <= DOUBLING_TOL:
            return H, k
    raise ConvergenceError(
        f"riccati_doubling: ||A_k||_F^2 = {tail:.3e} after {DOUBLING_MAX_STEPS} "
        "doublings", residual=tail, iterations=DOUBLING_MAX_STEPS)


def _inertia(M):
    """(positive, negative) eigenvalue counts of a symmetric matrix."""
    ev = np.linalg.eigvalsh(M)
    return np.count_nonzero(ev > 0.0), np.count_nonzero(ev < 0.0)


def solve_dare(A, B, H, R, tol, X0=None, max_steps=DARE_MAX_STEPS, inertia=None):
    """Stabilizing solution of the discrete algebraic Riccati equation

        X = H + A^T X A - A^T X B (R + B^T X B)^{-1} B^T X A,

    H symmetric and R symmetric and invertible, possibly indefinite.

    Starts from riccati_doubling on G = B R^{-1} B^T from zero, or from the
    warm start X0, then takes Newton steps (Hewer 1971): with the gains
    K = (R + B^T X B)^{-1} B^T X A, the next X solves the Lyapunov equation
    X = (A - BK)^T X (A - BK) + H + K^T R K, which is the exact value of the
    policy K. Every step first checks that R + B^T X B keeps the inertia of
    R, which a bad warm start breaks; callers that know R's inertia pass it
    as inertia, else it is counted from R's eigenvalues. Newton converges
    quadratically, so the error left after a step of
    ||dX||_F <= max(tol, sqrt(eps) ||X||_F) is at roundoff; the first such
    step stops the solve. Returns (X, iterations), iterations counting
    doublings plus Newton steps, of which max_steps caps the latter.
    Failures raise ConvergenceError.
    """
    if inertia is None:
        inertia = _inertia(R)
    if X0 is None:
        G = B @ np.linalg.solve(R, B.T)
        X, doublings = riccati_doubling(A, 0.5 * (G + G.T), H)
    else:
        X, doublings = X0, 0
    step = np.inf
    for k in range(1, max_steps + 1):
        BtX = B.T.dot(X)
        M = R + BtX.dot(B)
        M = 0.5 * (M + M.T)
        if _inertia(M) != inertia:
            raise ConvergenceError(
                f"solve_dare: R + B^T X B lost the inertia of R before Newton step {k}",
                residual=step, iterations=doublings + k - 1)
        K = np.linalg.solve(M, BtX.dot(A))
        W = H + K.T.dot(R).dot(K)
        try:
            Xn = solve_dlyap_transpose(A - B.dot(K), 0.5 * (W + W.T))
        except np.linalg.LinAlgError as e:
            raise ConvergenceError(f"solve_dare: singular Lyapunov system at Newton step {k}",
                                   residual=step, iterations=doublings + k) from e
        step = fro(Xn - X)
        X = Xn
        if not np.isfinite(step):
            raise ConvergenceError(f"solve_dare: non-finite iterate at Newton step {k}",
                                   residual=step, iterations=doublings + k)
        if step <= max(tol, NEWTON_STOP * fro(X)):
            return X, doublings + k
    raise ConvergenceError(
        f"solve_dare: Newton step {step:.3e} above the stop after {max_steps} steps",
        residual=step, iterations=doublings + max_steps)


def svd(M):
    """Thin SVD returning (U, s, V) with M ~= U @ diag(s) @ V.T."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return U, s, Vt.T


def sym_sqrt_and_inv_sqrt(M, name="matrix"):
    """Square root and inverse square root of an exactly symmetric PD matrix."""
    evals, vecs = np.linalg.eigh(M)
    if evals[0] <= 0.0:
        raise DefinitenessError(f"{name} is not positive definite (min eig {evals[0]:.3e})")
    root = np.sqrt(evals)
    S = (vecs * root) @ vecs.T
    Sinv = (vecs / root) @ vecs.T
    return 0.5 * (S + S.T), 0.5 * (Sinv + Sinv.T)
