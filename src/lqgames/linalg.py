"""Dense real-matrix kernels used by every other module.

All routines operate on float64 numpy arrays. Symmetric outputs are
explicitly symmetrized. Input is checked once, where it enters the package:
LqGame, PolicyPair and the public solver entry points reject non-finite,
misshapen or asymmetric arrays through as_matrix and symmetrize. The kernels
trust the arrays the package built (symmetric ones exactly symmetric); only
solve_dlyap checks its own. The small-d paths multiply with ndarray.dot, not
@: it calls the same BLAS routine, so the floats are the same, at about half
the cost for 3 x 3 operands.

Both Riccati solvers (the game oracle and the inner best response) call one
routine, solve_dare: structure-preserving doubling from zero or a warm start,
then Newton steps, each a Lyapunov solve.
"""

import numpy as np

from .errors import (ConvergenceError, DefinitenessError, DimensionError, NotSymmetricError,
                     UnstableError)

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


def as_matrix(M, rows=None, cols=None, name="matrix"):
    """Validate and return M as a float64 2-d array with finite entries."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.ndim != 2:
        raise DimensionError(f"{name}: expected a 2-d array, got ndim={M.ndim}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name}: non-finite entries")
    if rows is not None and M.shape[0] != rows:
        raise DimensionError(f"{name}: expected {rows} rows, got {M.shape[0]}")
    if cols is not None and M.shape[1] != cols:
        raise DimensionError(f"{name}: expected {cols} cols, got {M.shape[1]}")
    return M


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


def _dlyap_transpose_direct(Acl, W):
    # vec(Acl^T X Acl) = (Acl^T kron Acl^T) vec(X) in row-major flattening; the
    # broadcast product forms the same Kronecker entries as np.kron, faster
    d = Acl.shape[0]
    At = Acl.T
    lhs = np.eye(d * d) - (At[:, None, :, None] * At[None, :, None, :]).reshape(d * d, d * d)
    X = np.linalg.solve(lhs, W.reshape(-1)).reshape(d, d)
    return 0.5 * (X + X.T)


def _dlyap_transpose_doubling(Acl, W):
    # Smith doubling: after k steps X = sum_{j < 2^k} (Acl^j)^T W Acl^j and Ak =
    # Acl^(2^k). The remaining tail is Ak^T X_inf Ak, so a small ||Ak|| bounds it
    # relative to X whatever the sign of W (the stage weight can be indefinite,
    # which rules out stopping on a small increment).
    X = W
    Ak = Acl
    for _ in range(DOUBLING_MAX_STEPS):
        X = X + Ak.T @ X @ Ak
        Ak = Ak @ Ak
        tail = float((Ak * Ak).sum())
        if tail <= DOUBLING_TOL:
            return 0.5 * (X + X.T)
    raise ConvergenceError(
        f"solve_dlyap_transpose: Smith doubling left ||Acl^(2^k)||_F^2 = {tail:.3e} "
        f"after {DOUBLING_MAX_STEPS} doublings",
        residual=tail, iterations=DOUBLING_MAX_STEPS)


def solve_dlyap_transpose(Acl, W):
    """Solve X = Acl^T X Acl + W for stable Acl and exactly symmetric W.

    Kronecker for d <= 8, Smith doubling above. Checks nothing, stability
    included: policy.evaluate tests stability once for both of its solves.
    """
    if Acl.shape[0] <= DLYAP_DIRECT_MAX_DIM:
        return _dlyap_transpose_direct(Acl, W)
    return _dlyap_transpose_doubling(Acl, W)


def solve_dlyap(Acl, W):
    """Solve X = Acl X Acl^T + W for stable Acl and symmetric W, both checked."""
    Acl = as_matrix(Acl, name="Acl")
    require_stable(Acl, context="solve_dlyap")
    return solve_dlyap_transpose(Acl.T, symmetrize(W, name="W"))


def riccati_doubling(A, G, H):
    """Structure-preserving doubling (SDA; Chu, Fan and Lin 2005) for the
    discrete Riccati equation X = H + A^T X (I + G X)^{-1} A, G and H symmetric.

    Each doubling forms W = I + G H and
        A' = A W^{-1} A,   G' = G + A W^{-1} G A^T,   H' = H + A^T H W^{-1} A.
    H_k equals the fixed-point iterate after 2^k steps from X = 0, so the limit
    is the one value iteration reaches, and ||A_k|| decays like the spectral
    radius of the closed loop at that limit to the power 2^k. Stops once
    ||A_k||_F^2 <= 1e-16 and returns (X, doublings). A singular W, a
    non-finite iterate or the step cap raise ConvergenceError.
    """
    eye = np.eye(A.shape[0])
    for k in range(1, DOUBLING_MAX_STEPS + 1):
        try:
            # (I + G H)^{-1} G is symmetric, which keeps G' symmetric
            Y = np.linalg.solve(eye + G @ H, np.hstack([A, G]))
        except np.linalg.LinAlgError as e:
            raise ConvergenceError(f"riccati_doubling: I + G H is singular at doubling {k}",
                                   iterations=k) from e
        WA, WG = np.split(Y, 2, axis=1)
        G = G + A @ WG @ A.T
        H = H + A.T @ H @ WA
        A = A @ WA
        G = 0.5 * (G + G.T)
        H = 0.5 * (H + H.T)
        with np.errstate(over="ignore"):  # an overflow is caught just below
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


def solve_dare(A, B, H, R, tol, X0=None, max_steps=DARE_MAX_STEPS):
    """Stabilizing solution of the discrete algebraic Riccati equation

        X = H + A^T X A - A^T X B (R + B^T X B)^{-1} B^T X A,

    H symmetric and R symmetric and invertible, possibly indefinite.

    Starts from riccati_doubling on G = B R^{-1} B^T from zero, or from the
    warm start X0, then takes Newton steps (Hewer 1971): with the gains
    K = (R + B^T X B)^{-1} B^T X A, the next X solves the Lyapunov equation
    X = (A - BK)^T X (A - BK) + H + K^T R K, which is the exact value of the
    policy K. Every step first checks that R + B^T X B keeps the inertia of
    R, which a bad warm start breaks. Newton converges quadratically, so the
    error left after a step of ||dX||_F <= max(tol, sqrt(eps) ||X||_F) is at
    roundoff; the first such step stops the solve. Returns (X, iterations),
    iterations counting doublings plus Newton steps, of which max_steps
    caps the latter. Failures raise ConvergenceError.
    """
    inertia = _inertia(R)
    if X0 is None:
        G = B @ np.linalg.solve(R, B.T)
        X, doublings = riccati_doubling(A, 0.5 * (G + G.T), H)
    else:
        X, doublings = X0, 0
    floor = np.sqrt(np.finfo(float).eps)
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
        step = float(np.linalg.norm(Xn - X, "fro"))
        X = Xn
        if not np.isfinite(step):
            raise ConvergenceError(f"solve_dare: non-finite iterate at Newton step {k}",
                                   residual=step, iterations=doublings + k)
        if step <= max(tol, floor * np.linalg.norm(X, "fro")):
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
