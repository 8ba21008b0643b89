"""Dense real-matrix kernels used by every other module.

All routines operate on float64 numpy arrays. Symmetric outputs are
explicitly symmetrized; asymmetric inputs beyond tolerance are rejected
rather than silently averaged.
"""

import numpy as np

from .errors import ConvergenceError, DimensionError, NotSymmetricError, UnstableError

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


def as_matrix(M, rows=None, cols=None, name="matrix"):
    """Validate and return M as a float64 2-d array with finite entries."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.ndim != 2:
        raise DimensionError(f"{name}: expected a 2-d array, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
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
    defect = np.linalg.norm(M - M.T, "fro")
    if defect > SYM_TOL * (1.0 + np.linalg.norm(M, "fro")):
        raise NotSymmetricError(f"{name}: symmetry defect {defect:.3e} above tolerance")
    return 0.5 * (M + M.T)


def spectral_radius(M):
    """max |lambda_i(M)| over the complex spectrum of a square matrix."""
    M = as_matrix(M, name="spectral_radius input")
    if M.shape[0] != M.shape[1]:
        raise DimensionError(f"spectral_radius: not square {M.shape}")
    try:
        ev = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as e:
        raise ConvergenceError(f"eigenvalue iteration failed: {e}") from e
    return float(np.max(np.abs(ev))) if ev.size else 0.0


def min_eigenvalue_sym(M):
    """Smallest eigenvalue of a symmetric matrix."""
    M = symmetrize(M, name="min_eigenvalue_sym input")
    return float(np.linalg.eigvalsh(M)[0])


def is_stable(Acl):
    """True iff rho(Acl) < 1 - STABILITY_MARGIN."""
    return spectral_radius(Acl) < 1.0 - STABILITY_MARGIN


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
    # vec(Acl^T X Acl) = (Acl^T kron Acl^T) vec(X) in row-major flattening
    d = Acl.shape[0]
    lhs = np.eye(d * d) - np.kron(Acl.T, Acl.T)
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
        tail = float(np.sum(Ak * Ak))
        if tail <= DOUBLING_TOL:
            return 0.5 * (X + X.T)
    raise ConvergenceError(
        f"solve_dlyap_transpose: Smith doubling left ||Acl^(2^k)||_F^2 = {tail:.3e} "
        f"after {DOUBLING_MAX_STEPS} doublings",
        residual=tail, iterations=DOUBLING_MAX_STEPS)


def solve_dlyap_transpose(Acl, W, checked=True):
    """Solve X = Acl^T X Acl + W for stable Acl and symmetric W.

    Kronecker for d <= 8, Smith doubling above. checked=False skips the input
    checks, stability included, for a caller that has already established
    them (policy.evaluate tests stability once for both of its solves).
    """
    if checked:
        Acl = as_matrix(Acl, name="Acl")
        W = symmetrize(W, name="W")
        if Acl.shape[0] != W.shape[0]:
            raise DimensionError(f"Acl {Acl.shape} vs W {W.shape}")
        require_stable(Acl, context="solve_dlyap_transpose")
    if Acl.shape[0] <= DLYAP_DIRECT_MAX_DIM:
        return _dlyap_transpose_direct(Acl, W)
    return _dlyap_transpose_doubling(Acl, W)


def solve_dlyap(Acl, W):
    """Solve X = Acl X Acl^T + W (the state-correlation orientation)."""
    return solve_dlyap_transpose(as_matrix(Acl, name="Acl").T, W)


def riccati_doubling(A, G, H, tol=0.0):
    """Structure-preserving doubling (SDA; Chu, Fan and Lin 2005) for the
    discrete Riccati equation X = H + A^T X (I + G X)^{-1} A, G and H symmetric.

    Each doubling forms W = I + G H and
        A' = A W^{-1} A,   G' = G + A W^{-1} G A^T,   H' = H + A^T H W^{-1} A.
    H_k equals the fixed-point iterate after 2^k steps from X = 0, so the limit
    is the one value iteration reaches, and ||A_k|| decays like the spectral
    radius of the closed loop at that limit to the power 2^k. Stops once
    ||A_k||_F^2 <= 1e-16, or once the last increment of H times ||A_k||_F^2
    before it is at most tol: the iterate's error contracts like
    A_k^T e A_k, so that product estimates the distance left to X, which is
    what lets a small X (a correction to a warm start) stop early. Returns
    (X, doublings). A singular W, a non-finite iterate or the step cap raise
    ConvergenceError.
    """
    eye = np.eye(A.shape[0])
    tail = float(np.sum(A * A))
    for k in range(1, DOUBLING_MAX_STEPS + 1):
        try:
            # (I + G H)^{-1} G is symmetric, which keeps G' symmetric
            Y = np.linalg.solve(eye + G @ H, np.hstack([A, G]))
        except np.linalg.LinAlgError as e:
            raise ConvergenceError(f"riccati_doubling: I + G H is singular at doubling {k}",
                                   iterations=k) from e
        WA, WG = np.split(Y, 2, axis=1)
        dH = A.T @ H @ WA
        left = tail * np.linalg.norm(dH, "fro")  # ||A_k||_F^2 ||H_{k+1} - H_k||_F
        G = G + A @ WG @ A.T
        H = H + dH
        A = A @ WA
        G = 0.5 * (G + G.T)
        H = 0.5 * (H + H.T)
        tail = float(np.sum(A * A))
        if not (np.isfinite(tail) and np.all(np.isfinite(H)) and np.all(np.isfinite(G))):
            raise ConvergenceError(f"riccati_doubling: non-finite iterate at doubling {k}",
                                   residual=tail, iterations=k)
        if tail <= DOUBLING_TOL or left <= tol:
            return H, k
    raise ConvergenceError(
        f"riccati_doubling: ||A_k||_F^2 = {tail:.3e} after {DOUBLING_MAX_STEPS} "
        "doublings", residual=tail, iterations=DOUBLING_MAX_STEPS)


def svd(M):
    """Thin SVD returning (U, s, V) with M ~= U @ diag(s) @ V.T."""
    M = as_matrix(M, name="svd input")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return U, s, Vt.T


def sym_sqrt_and_inv_sqrt(M, name="matrix"):
    """Square root and inverse square root of a symmetric PD matrix."""
    M = symmetrize(M, name=name)
    evals, vecs = np.linalg.eigh(M)
    if evals[0] <= 0.0:
        raise ValueError(f"{name}: not positive definite (min eig {evals[0]:.3e})")
    root = np.sqrt(evals)
    S = (vecs * root) @ vecs.T
    Sinv = (vecs / root) @ vecs.T
    return 0.5 * (S + S.T), 0.5 * (Sinv + Sinv.T)
