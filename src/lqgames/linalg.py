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
# Smith doubling stops once ||Acl^(2^k)||_F^2 falls to about machine epsilon;
# the cap bounds the loop for inputs whose powers decay too slowly or overflow.
DLYAP_DOUBLING_TOL = 1e-16
DLYAP_DOUBLING_MAX_STEPS = 64


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
    for _ in range(DLYAP_DOUBLING_MAX_STEPS):
        X = X + Ak.T @ X @ Ak
        Ak = Ak @ Ak
        tail = float(np.sum(Ak * Ak))
        if tail <= DLYAP_DOUBLING_TOL:
            return 0.5 * (X + X.T)
    raise ConvergenceError(
        f"solve_dlyap_transpose: Smith doubling left ||Acl^(2^k)||_F^2 = {tail:.3e} "
        f"after {DLYAP_DOUBLING_MAX_STEPS} doublings",
        residual=tail, iterations=DLYAP_DOUBLING_MAX_STEPS)


def solve_dlyap_transpose(Acl, W):
    """Solve X = Acl^T X Acl + W for stable Acl and symmetric W.

    Kronecker for d <= 8, Smith doubling above.
    """
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
