"""Dense linear-algebra kernels against independent oracles.

The Lyapunov solves get two second routes: a 200-term truncated series
(definitionally correct for a stable closed loop) and scipy's solver.
"""

import numpy as np
import pytest
import scipy.linalg

import lqgames.linalg as lin
from lqgames import ConvergenceError, DimensionError, NotSymmetricError, UnstableError

# both sides of the Kronecker / Smith-doubling switch at DLYAP_DIRECT_MAX_DIM = 8
DLYAP_DIMS = (3, 8, 9, 24, 48)


def random_stable(rng, n=3, radius=0.9):
    M = rng.normal(size=(n, n))
    return M * (radius / lin.spectral_radius(M))


def random_psd(rng, n=3):
    V = rng.normal(size=(n, n))
    return V @ V.T


def series_dlyap(Acl, W, terms=200):
    # X = sum_k Acl^k W (Acl^T)^k, the defining series for the reachability form
    X = np.zeros_like(W)
    term = W.copy()
    for _ in range(terms):
        X = X + term
        term = Acl @ term @ Acl.T
    return X


def test_spectral_radius_known():
    assert lin.spectral_radius(np.diag([0.5, -0.25, 0.1])) == pytest.approx(0.5)


def test_require_stable_margin():
    assert lin.require_stable(np.diag([0.9, 0.5, 0.1])) == pytest.approx(0.9)
    for Acl in (np.eye(3), np.diag([1.5, 0.0, 0.0]),
                np.diag([1.0 - 0.5 * lin.STABILITY_MARGIN, 0.0, 0.0])):
        with pytest.raises(UnstableError):
            lin.require_stable(Acl)


def test_require_stable_raises_with_context():
    with pytest.raises(UnstableError) as exc:
        lin.require_stable(np.diag([1.2, 0.0]), context="test loop", iteration=7)
    assert exc.value.rho == pytest.approx(1.2)
    assert exc.value.iteration == 7


def test_symmetrize_accepts_roundoff_rejects_asymmetry():
    rng = np.random.default_rng(0)
    S = random_psd(rng)
    noisy = S + 1e-13 * np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0.0]])
    out = lin.symmetrize(noisy)
    assert np.array_equal(out, out.T)
    with pytest.raises(NotSymmetricError):
        lin.symmetrize(S + np.array([[0, 0.1, 0], [0, 0, 0], [0, 0, 0.0]]))


def test_as_matrix_shape_check():
    with pytest.raises(DimensionError):
        lin.as_matrix(np.zeros((2, 2)), rows=1, cols=3, name="K")


@pytest.mark.parametrize("d", DLYAP_DIMS)
def test_dlyap_matches_series_and_scipy(d):
    rng = np.random.default_rng(7)
    for _ in range(10):
        Acl = random_stable(rng, n=d)
        W = random_psd(rng, n=d)
        X = lin.solve_dlyap(Acl, W)
        assert np.linalg.norm(X - series_dlyap(Acl, W), "fro") <= 1e-9 * max(
            1.0, np.linalg.norm(X, "fro"))
        X_scipy = scipy.linalg.solve_discrete_lyapunov(Acl, W)
        assert np.linalg.norm(X - X_scipy, "fro") <= 1e-10 * max(
            1.0, np.linalg.norm(X, "fro"))
        # defining residual
        assert np.linalg.norm(X - Acl @ X @ Acl.T - W, "fro") <= 1e-10 * max(
            1.0, np.linalg.norm(X, "fro"))


@pytest.mark.parametrize("d", DLYAP_DIMS)
def test_dlyap_transpose_is_adjoint_direction(d):
    rng = np.random.default_rng(8)
    for _ in range(10):
        Acl = random_stable(rng, n=d)
        W = random_psd(rng, n=d)
        X = lin.solve_dlyap_transpose(Acl, W)
        assert np.allclose(X, lin.solve_dlyap(Acl.T, W), atol=1e-11)
        assert np.linalg.norm(X - Acl.T @ X @ Acl - W, "fro") <= 1e-10 * max(
            1.0, np.linalg.norm(X, "fro"))


def test_dlyap_doubling_near_unit_radius():
    # rho = 1 - 1e-6 needs about 2^24 series terms; the condition number of
    # I - Acl (x) Acl is about 5e6 here, which sets the loose scipy tolerance
    rng = np.random.default_rng(11)
    Acl = random_stable(rng, n=48, radius=1.0 - 1e-6)
    W = random_psd(rng, n=48)
    X = lin.solve_dlyap(Acl, W)
    scale = np.linalg.norm(X, "fro")
    assert np.linalg.norm(X - Acl @ X @ Acl.T - W, "fro") <= 1e-12 * scale
    X_scipy = scipy.linalg.solve_discrete_lyapunov(Acl, W)
    assert np.linalg.norm(X - X_scipy, "fro") <= 1e-7 * scale


def test_dlyap_doubling_cap_raises(monkeypatch):
    monkeypatch.setattr(lin, "DOUBLING_MAX_STEPS", 1)
    rng = np.random.default_rng(12)
    with pytest.raises(ConvergenceError, match="solve_dlyap_transpose") as exc:
        lin.solve_dlyap_transpose(random_stable(rng, n=24), random_psd(rng, n=24))
    assert exc.value.iterations == 1


def test_riccati_doubling_matches_scipy_dare():
    rng = np.random.default_rng(13)
    A = rng.normal(size=(6, 6))
    B = rng.normal(size=(6, 2))
    H = random_psd(rng, n=6) + np.eye(6)
    X, doublings = lin.riccati_doubling(A, B @ B.T, H)
    X_scipy = scipy.linalg.solve_discrete_are(A, B, H, np.eye(2))
    assert np.linalg.norm(X - X_scipy, "fro") <= 1e-12 * np.linalg.norm(X_scipy, "fro")
    assert doublings <= 16


def test_riccati_doubling_failures_are_typed(monkeypatch):
    # W = I + G H singular at the first doubling
    with pytest.raises(ConvergenceError, match="singular"):
        lin.riccati_doubling(0.5 * np.eye(3), -np.eye(3), np.eye(3))
    # no control (G = 0) on an unstable A: A_k = A^(2^k) overflows
    with pytest.raises(ConvergenceError, match="non-finite"):
        lin.riccati_doubling(2.0 * np.eye(3), np.zeros((3, 3)), np.eye(3))
    monkeypatch.setattr(lin, "DOUBLING_MAX_STEPS", 1)
    with pytest.raises(ConvergenceError, match="after 1 doublings") as exc:
        lin.riccati_doubling(0.9 * np.eye(3), np.zeros((3, 3)), np.eye(3))
    assert exc.value.iterations == 1


def test_solve_dare_failures_are_typed():
    A, B, H, R = np.diag([1.0, 0.5, 0.3]), np.array([[0.0], [1.0], [0.0]]), np.eye(3), np.eye(1)
    # a mode at exactly 1 that B cannot reach makes the Newton step's
    # Lyapunov system singular
    with pytest.raises(ConvergenceError, match="singular Lyapunov"):
        lin.solve_dare(A, B, H, R, 1e-12, X0=np.eye(3))
    # R + B'X0B = 0 has lost the inertia of R
    with pytest.raises(ConvergenceError, match="inertia") as exc:
        lin.solve_dare(0.5 * A, B, H, R, 1e-12, X0=-np.eye(3))
    assert exc.value.iterations == 0


def test_dlyap_rejects_unstable():
    with pytest.raises(UnstableError):
        lin.solve_dlyap(np.diag([1.01, 0.2, 0.2]), np.eye(3))


def test_sym_sqrt_and_inv_sqrt():
    rng = np.random.default_rng(9)
    S = random_psd(rng) + 0.1 * np.eye(3)
    half, inv_half = lin.sym_sqrt_and_inv_sqrt(S)
    assert np.allclose(half @ half, S, atol=1e-12 * np.linalg.norm(S))
    assert np.allclose(half @ inv_half, np.eye(3), atol=1e-12)


def test_min_eigenvalue_sym():
    assert lin.min_eigenvalue_sym(np.diag([3.0, -2.0, 5.0])) == pytest.approx(-2.0)


def test_svd_reconstructs():
    rng = np.random.default_rng(10)
    M = rng.normal(size=(1, 3))
    U, s, V = lin.svd(M)
    assert np.allclose((U * s) @ V.T, M, atol=1e-13)
