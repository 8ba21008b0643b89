"""Dense linear-algebra kernels against independent oracles.

The Lyapunov solves get two second routes: a 200-term truncated series
(definitionally correct for a stable closed loop) and scipy's solver.
"""

import numpy as np
import pytest
import scipy.linalg

import lqgames.linalg as lin
from lqgames import modelfree
from lqgames import (ConvergenceError, DimensionError, InputError, NotSymmetricError,
                     UnstableError)

# both sides of the Kronecker / Smith-doubling switch at DLYAP_DIRECT_MAX_DIM = 8
DLYAP_DIMS = (3, 8, 9, 24, 48)


def random_stable(rng, n=3, radius=0.9):
    M = rng.normal(size=(n, n))
    return M * (radius / lin.spectral_radius(M))


def random_psd(rng, n=3):
    V = rng.normal(size=(n, n))
    return V @ V.T


def dlyap(Acl, W):
    # X = Acl X Acl^T + W is the transposed equation of Acl^T, after the
    # stability check its callers make
    lin.require_stable(Acl)
    return lin.solve_dlyap_transpose(Acl.T, lin.symmetrize(W))


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
        X = dlyap(Acl, W)
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
        assert np.allclose(X, dlyap(Acl.T, W), atol=1e-11)
        assert np.linalg.norm(X - Acl.T @ X @ Acl - W, "fro") <= 1e-10 * max(
            1.0, np.linalg.norm(X, "fro"))


def test_dlyap_doubling_near_unit_radius():
    # rho = 1 - 1e-6 needs about 2^24 series terms; the condition number of
    # I - Acl (x) Acl is about 5e6 here, which sets the loose scipy tolerance
    rng = np.random.default_rng(11)
    Acl = random_stable(rng, n=48, radius=1.0 - 1e-6)
    W = random_psd(rng, n=48)
    X = dlyap(Acl, W)
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


@pytest.mark.parametrize("d", DLYAP_DIMS)
def test_dlyap_pair_matches_two_single_solves(d):
    # evaluate's pair: X = Acl^T X Acl + W and Y = Acl Y Acl^T + S in one call
    rng = np.random.default_rng(14)
    for _ in range(5):
        Acl = random_stable(rng, n=d)
        W = random_psd(rng, n=d) - random_psd(rng, n=d)  # a stage weight can be indefinite
        S = random_psd(rng, n=d)
        X, Y = lin.solve_dlyap_transpose(Acl, W, S)
        X1, Y1 = lin.solve_dlyap_transpose(Acl, W), lin.solve_dlyap_transpose(Acl.T, S)
        assert np.array_equal(X, X.T) and np.array_equal(Y, Y.T)
        if d <= lin.DLYAP_DIRECT_MAX_DIM:
            # one batched LAPACK solve factors each system as a lone solve does
            assert X.tobytes() == X1.tobytes() and Y.tobytes() == Y1.tobytes()
        else:
            for Z, Z1 in ((X, X1), (Y, Y1)):
                assert np.linalg.norm(Z - Z1, "fro") <= 1e-12 * np.linalg.norm(Z1, "fro")
        for Z, M, Wt in ((X, Acl.T, W), (Y, Acl, S)):
            scale = max(1.0, np.linalg.norm(Z, "fro"))
            assert np.linalg.norm(Z - scipy.linalg.solve_discrete_lyapunov(M, Wt),
                                  "fro") <= 1e-10 * scale
            assert np.linalg.norm(Z - M @ Z @ M.T - Wt, "fro") <= 1e-10 * scale


def test_dlyap_pair_near_unit_radius():
    rng = np.random.default_rng(11)
    Acl = random_stable(rng, n=48, radius=1.0 - 1e-6)
    W, S = random_psd(rng, n=48), random_psd(rng, n=48)
    X, Y = lin.solve_dlyap_transpose(Acl, W, S)
    for Z, Z1, M, Wt in ((X, lin.solve_dlyap_transpose(Acl, W), Acl.T, W),
                         (Y, lin.solve_dlyap_transpose(Acl.T, S), Acl, S)):
        scale = np.linalg.norm(Z, "fro")
        assert np.linalg.norm(Z - Z1, "fro") <= 1e-12 * scale
        assert np.linalg.norm(Z - M @ Z @ M.T - Wt, "fro") <= 1e-12 * scale


def _rel(X, X_ref):
    return np.linalg.norm(X - X_ref, "fro") / np.linalg.norm(X_ref, "fro")


def test_riccati_doubling_matches_scipy_dare():
    rng = np.random.default_rng(13)
    A = rng.normal(size=(6, 6))
    B = rng.normal(size=(6, 2))
    H = random_psd(rng, n=6) + np.eye(6)
    X, doublings = lin.riccati_doubling(A, B @ B.T, H)
    X_scipy = scipy.linalg.solve_discrete_are(A, B, H, np.eye(2))
    assert _rel(X, X_scipy) <= 1e-12
    assert doublings <= 16
    # either side of the Lyapunov switch, open loop unstable; doubling's
    # roundoff grows with d (to 6.5e-13 at d = 48 here), and the Newton steps
    # of solve_dare polish it off
    for d in (3, 8, 24, 48):
        rng = np.random.default_rng(13)
        A = random_stable(rng, n=d, radius=1.05)
        B = rng.normal(size=(d, 2))
        H = random_psd(rng, n=d) + np.eye(d)
        X, doublings = lin.riccati_doubling(A, B @ B.T, H)
        X_scipy = scipy.linalg.solve_discrete_are(A, B, H, np.eye(2))
        assert _rel(X, X_scipy) <= (1e-12 if d <= 8 else 2e-12), d
        assert doublings <= 16
        assert _rel(lin.solve_dare(A, B, H, np.eye(2), 1e-12)[0], X_scipy) <= 1e-12, d


def test_riccati_doubling_on_an_indefinite_gare_weight(g1, g2):
    # the game's Riccati equation: input [B, C], weight diag(Ru, -Rv), so
    # G = B Ru^-1 B^T - C Rv^-1 C^T is indefinite
    rng = np.random.default_rng(15)
    d = 24
    A = random_stable(rng, n=d, radius=1.05)
    games = [(g.A, g.B, g.C, g.Q, g.Ru, g.Rv) for g in (g1, g2)]
    games.append((A, rng.normal(size=(d, 2)), 0.1 * rng.normal(size=(d, 1)), np.eye(d),
                  np.eye(2), 10.0 * np.eye(1)))
    for A, B, C, H, Ru, Rv in games:
        G = B @ np.linalg.solve(Ru, B.T) - C @ np.linalg.solve(Rv, C.T)
        assert lin.min_eigenvalue_sym(0.5 * (G + G.T)) < 0.0
        X, doublings = lin.riccati_doubling(A, 0.5 * (G + G.T), H)
        X_scipy = scipy.linalg.solve_discrete_are(A, np.hstack([B, C]), H,
                                                  scipy.linalg.block_diag(Ru, -Rv))
        assert _rel(X, X_scipy) <= 1e-12
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


def test_riccati_doubling_types_an_overflow_to_inf_minus_inf_as_non_finite():
    # an indefinite G takes the first doubling's products to +inf and -inf,
    # whose sum sets numpy's invalid flag as a singular I + G H does: it is a
    # non-finite iterate all the same, and warns nothing on the way
    A = 1e156 * np.array([[1.0, -7.0], [-9.0, -5.0]])
    G, H = np.array([[-2.0, -0.4], [-0.4, 1.0]]), np.array([[0.2, -0.2], [-0.2, 0.4]])
    with pytest.raises(ConvergenceError, match="non-finite iterate at doubling 1"):
        lin.riccati_doubling(A, G, H)


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


def test_solve_dare_with_the_callers_inertia_gives_the_same_floats(g1):
    # the game and inner solves pass R's inertia instead of counting it
    rng = np.random.default_rng(12)
    problems = [(g1.A, np.hstack([g1.B, g1.C]), g1.Q, np.diag([1.0, -1.0]), (1, 1))]
    for d, m in ((2, 1), (4, 2), (6, 2)):
        B = rng.normal(size=(d, m))
        problems.append((random_stable(rng, d, radius=1.2), B, np.eye(d),
                         random_psd(rng, m) + np.eye(m), (m, 0)))
    for A, B, H, R, inertia in problems:
        X, _ = lin.solve_dare(A, B, H, R, 1e-12)
        for X0 in (None, X + 1e-3 * np.eye(len(A))):
            want = lin.solve_dare(A, B, H, R, 1e-12, X0=X0)
            got = lin.solve_dare(A, B, H, R, 1e-12, X0=X0, inertia=inertia)
            assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]


def test_fro_is_numpys_frobenius_norm_bit_for_bit():
    rng = np.random.default_rng(13)
    M = rng.normal(size=(5, 4)) * 10.0 ** rng.integers(-8, 9, size=(5, 4))
    for X in (M, np.asfortranarray(M), M.T, M[:, ::2], M[:1], rng.normal(size=(1, 7))):
        assert lin.fro(X) == float(np.linalg.norm(X, "fro"))


def test_dlyap_rejects_unstable():
    with pytest.raises(UnstableError):
        dlyap(np.diag([1.01, 0.2, 0.2]), np.eye(3))


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


@pytest.mark.parametrize("d", (1, 2, 3, 5, 8, 24, 48))
def test_lapack_kernels_give_numpy_linalgs_floats(d):
    # each kernel calls the gufunc that numpy.linalg's wrapper calls, on the
    # same input, so the floats must agree bit for bit
    rng = np.random.default_rng(300 + d)
    M, B, b = rng.normal(size=(d, d)), rng.normal(size=(d, 3)), rng.normal(size=d)
    pair, rhs = rng.normal(size=(2, d, d)), rng.normal(size=(2, d, 1))
    S = lin.symmetrize(random_psd(rng, d) - random_psd(rng, d))
    PD = lin.symmetrize(random_psd(rng, d) + np.eye(d))
    assert np.array_equal(lin.solve(M, B), np.linalg.solve(M, B))
    assert np.array_equal(lin.solve(M, b[:, None])[:, 0], np.linalg.solve(M, b))
    assert np.array_equal(lin.solve(pair, rhs), np.linalg.solve(pair, rhs))
    assert np.array_equal(lin.inv(M), np.linalg.inv(M))
    assert np.array_equal(lin.eigvals(M), np.linalg.eigvals(M))
    assert np.array_equal(lin.eigvalsh(S), np.linalg.eigvalsh(S))
    assert all(np.array_equal(x, y) for x, y in zip(lin._eigh(PD), np.linalg.eigh(PD)))
    assert np.array_equal(lin.cholesky(PD), np.linalg.cholesky(PD))
    assert np.array_equal(lin.svdvals(M), np.linalg.svd(M, compute_uv=False))
    assert lin.svdvals(PD)[0] == np.linalg.norm(PD, 2)  # the adaptive stepsizes
    U, s, V = lin.svd(M[:max(1, d // 2)])
    want = np.linalg.svd(M[:max(1, d // 2)], full_matrices=False)
    assert all(np.array_equal(x, y) for x, y in zip((U, s, V.T), want))
    # modelfree's radii of a stack of closed loops, as its d > 3 screen takes them
    loops = rng.normal(size=(2, 5, d, d))
    assert np.array_equal(modelfree._eig_radii(loops),
                          np.abs(np.linalg.eigvals(loops)).max(axis=-1))


@pytest.mark.parametrize("value", [[["a", "b"]], [[1.0, 2.0], [3.0]], [[{}]]])
def test_as_matrix_names_a_matrix_that_is_not_numbers(value):
    with pytest.raises(InputError, match="B: not a matrix of numbers"):
        lin.as_matrix(value, name="B")
