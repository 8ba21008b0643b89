"""Sampled-data (model-free) solvers: zeroth-order gradient estimation from
cost rollouts, a model-free inner K-solver, and a model-free outer nested
update for L.

Estimation follows the one-point smoothing scheme: perturb the gain on a
Frobenius sphere of radius r, roll the perturbed policy out for R steps, and
average (dim/r^2) * cost * perturbation over m trajectories. The state
correlation estimate reuses the same rollouts. Rollout sums run over R terms
starting at the initial state, matching the infinite-horizon quantities they
truncate.

Randomness is counter-based: every draw comes from a Philox generator keyed
by (seed, stream index), with one stream per logical draw block. Results are
bit-reproducible for a fixed seed no matter how trajectories are scheduled,
and per-trajectory values are row slices of one vectorized draw.

Trace columns for the outer solver are diagnostics computed from the model
(spectral radius, constraint margin); the algorithm itself touches only
sampled costs and states.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import inner_loop, linalg, outer_loop
from .errors import ConfigError, SampleError
from .trace import OuterTrace, trace_row

_MASK64 = (1 << 64) - 1

X0_GAUSSIAN = "gaussian"
X0_CUBE = "cube"


@dataclass(frozen=True)
class EstimatorConfig:
    """m trajectories per estimate, R rollout steps, smoothing radius r."""

    m: int = 1000
    R: int = 100
    r: float = 0.05
    seed: int = 0
    x0_dist: str = X0_GAUSSIAN

    def __post_init__(self):
        if self.m < 1 or self.R < 1:
            raise ValueError("m and R must be >= 1")
        if self.r <= 0.0:
            raise ValueError("r must be positive")
        if self.x0_dist not in (X0_GAUSSIAN, X0_CUBE):
            raise ValueError(f"unknown x0_dist {self.x0_dist!r}")


@dataclass
class GradEstimate:
    grad: np.ndarray
    Sigma: np.ndarray
    cost_mean: float
    cost_std: float
    m: int
    rho_max: float


def _generator(seed, stream):
    key = np.array([int(seed) & _MASK64, int(stream) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def rollout_length_for(rho, decay=1e-10):
    """Smallest R with rho^R <= decay, for truncation-bias control."""
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    return max(1, math.ceil(math.log(decay) / math.log(rho)))


class RolloutEngine:
    """Deterministic seeded simulator bound to one game.

    Streams are consumed in a fixed order (one per draw block), so a given
    seed always produces the same sequence of estimates.
    """

    def __init__(self, game, seed, x0_dist=X0_GAUSSIAN):
        self.game = game
        self.seed = int(seed)
        self.x0_dist = x0_dist
        self._stream = 0
        self._chol = np.linalg.cholesky(game.Sigma0)
        if x0_dist == X0_CUBE:
            off_diag = game.Sigma0 - np.diag(np.diag(game.Sigma0))
            if np.any(off_diag != 0.0):
                raise ConfigError("cube initial-state sampling requires a diagonal Sigma0")
            self._half_width = np.sqrt(3.0 * np.diag(game.Sigma0))

    def _next_gen(self):
        gen = _generator(self.seed, self._stream)
        self._stream += 1
        return gen

    def draw_perturbations(self, m, rows, cols, radius):
        """m independent Frobenius-sphere perturbations as an (m, rows, cols) stack."""
        gen = self._next_gen()
        w = gen.standard_normal((m, rows * cols))
        norms = np.linalg.norm(w, axis=1, keepdims=True)
        return (radius * w / norms).reshape(m, rows, cols)

    def draw_x0(self, m):
        gen = self._next_gen()
        if self.x0_dist == X0_CUBE:
            return gen.uniform(-1.0, 1.0, size=(m, self.game.d)) * self._half_width
        return gen.standard_normal((m, self.game.d)) @ self._chol.T

    def _rollout(self, Acl, Wstage, x0, R):
        """Batched R-step rollout. Returns per-sample cost sums and the pooled
        state correlation sum (over samples and steps, divided by m)."""
        m = x0.shape[0]
        X = x0
        cost = np.zeros(m)
        S = np.zeros((self.game.d, self.game.d))
        for t in range(R):
            cost += np.einsum("mi,mij,mj->m", X, Wstage, X)
            S += X.T @ X
            if t + 1 < R:
                X = np.einsum("mij,mj->mi", Acl, X)
        return cost, S / m

    def _check_samples_stable(self, Acl, radius):
        lam = np.linalg.eigvals(Acl)
        rho = np.abs(lam).max(axis=1)
        bad = np.nonzero(rho >= 1.0 - linalg.STABILITY_MARGIN)[0]
        if bad.size:
            i = int(bad[0])
            raise SampleError(
                f"perturbed gain {i} of {Acl.shape[0]} is destabilizing "
                f"(rho = {rho[i]:.6f}); shrink the smoothing radius r "
                f"(currently {radius:g}) or move to a better-conditioned pair",
                index=i)
        return float(rho.max())

    def estimate_inner(self, K, L, m, R, r):
        """Zeroth-order (gradK, Sigma) estimate at (K, L) by perturbing K."""
        g = self.game
        K = np.asarray(K, dtype=float)
        L = np.asarray(L, dtype=float)
        U = self.draw_perturbations(m, g.m1, g.d, r)
        x0 = self.draw_x0(m)
        Ks = K[None, :, :] + U
        Acl = (g.A - g.C @ L)[None, :, :] - np.einsum("ij,mjk->mik", g.B, Ks)
        rho_max = self._check_samples_stable(Acl, r)
        base = g.Q - L.T @ g.Rv @ L
        Wstage = base[None, :, :] + np.einsum("mai,ab,mbj->mij", Ks, g.Ru, Ks)
        cost, Sigma = self._rollout(Acl, Wstage, x0, R)
        dim = g.m1 * g.d
        grad = (dim / (m * r * r)) * np.einsum("m,mij->ij", cost, U)
        return GradEstimate(grad=grad, Sigma=0.5 * (Sigma + Sigma.T),
                            cost_mean=float(cost.mean()), cost_std=float(cost.std()),
                            m=m, rho_max=rho_max)

    def estimate_outer(self, L, inner_solve, m, R, r):
        """Zeroth-order (gradL, Sigma) estimate for the maximin objective.

        Perturbs L on the sphere, obtains a (model-free) inner response for
        each perturbed L via inner_solve(L_i, i), and reuses each response's
        rollout for both the cost and the correlation estimate.
        """
        g = self.game
        L = np.asarray(L, dtype=float)
        V = self.draw_perturbations(m, g.m2, g.d, r)
        x0 = self.draw_x0(m)
        costs = np.zeros(m)
        Sigma = np.zeros((g.d, g.d))
        rho_max = 0.0
        for i in range(m):
            Li = L + V[i]
            Ki = inner_solve(Li, i)
            Acl = g.A - g.B @ Ki - g.C @ Li
            rho = linalg.spectral_radius(Acl)
            if rho >= 1.0 - linalg.STABILITY_MARGIN:
                raise SampleError(
                    f"perturbed maximizer gain {i} of {m} yields an unstable "
                    f"inner response (rho = {rho:.6f}); shrink r (currently {r:g})",
                    index=i)
            rho_max = max(rho_max, rho)
            Wstage = g.Q + Ki.T @ g.Ru @ Ki - Li.T @ g.Rv @ Li
            c, S = self._rollout(Acl[None, :, :], Wstage[None, :, :], x0[i:i + 1], R)
            costs[i] = c[0]
            Sigma += S
        dim = g.m2 * g.d
        grad = (dim / (m * r * r)) * np.einsum("m,mij->ij", costs, V)
        return GradEstimate(grad=grad, Sigma=0.5 * (Sigma + Sigma.T) / m,
                            cost_mean=float(costs.mean()), cost_std=float(costs.std()),
                            m=m, rho_max=rho_max)


def estimate_grad_sigma(game, K, L, cfg):
    """One-shot (gradK_hat, Sigma_hat) at (K, L) under cfg's budget and seed."""
    est = RolloutEngine(game, cfg.seed, cfg.x0_dist).estimate_inner(
        K, L, cfg.m, cfg.R, cfg.r)
    return est.grad, est.Sigma


def inner_ng_modelfree(game, L, K0, cfg, steps, alpha, flavor=inner_loop.NATURAL_PG,
                       tol=None, estimator=None, record=None):
    """Model-free inner solver: gradient steps on K driven by sampled estimates.

    flavor PG uses K - alpha * grad_hat; NaturalPG additionally right-solves
    with the sampled Sigma. The Gauss-Newton inner update needs P itself and
    cannot be estimated this way, so it is rejected. estimator(K, L) may
    replace the sampler (used to validate the wiring against the analytic
    inner loop) and must return a GradEstimate; tol, when set, stops early
    once the estimated gradient norm falls below it. record(j, K, est) is
    called with each visited iterate and its GradEstimate, for
    instrumentation.
    """
    if flavor == inner_loop.GAUSS_NEWTON:
        raise ConfigError("the Gauss-Newton inner update cannot be estimated "
                          "from rollouts; use PG or NaturalPG")
    if flavor not in (inner_loop.PG, inner_loop.NATURAL_PG):
        raise ConfigError(f"unknown model-free inner flavor {flavor!r}")
    if alpha is None or alpha <= 0.0:
        raise ValueError("alpha must be an explicit positive stepsize")
    if estimator is None:
        engine = RolloutEngine(game, cfg.seed, cfg.x0_dist)
        estimator = lambda K_, L_: engine.estimate_inner(K_, L_, cfg.m, cfg.R, cfg.r)
    K = np.array(K0, dtype=float)
    L = np.asarray(L, dtype=float)
    for j in range(steps):
        try:
            est = estimator(K, L)
        except SampleError as e:
            raise SampleError(f"inner step {j}: {e}", index=e.index) from e
        if record is not None:
            record(j, K, est)
        if tol is not None and np.linalg.norm(est.grad, "fro") <= tol:
            break
        if flavor == inner_loop.PG:
            K = inner_loop.pg_update(K, est.grad, alpha)
        else:
            K = inner_loop.natural_pg_update(K, est.grad, est.Sigma, alpha)
    return K


def outer_ng_modelfree(game, L0, cfg, T, eta, flavor=outer_loop.NG, omega=None,
                       inner_steps=10, inner_alpha=0.05,
                       inner_flavor=inner_loop.NATURAL_PG, K0=None,
                       estimator=None):
    """Model-free projected nested-gradient outer loop.

    Per outer step, the default estimator perturbs L on the sphere, runs the
    model-free inner solver at every perturbed L (warm-started from the
    previous response), and averages rollout costs into a nested-gradient
    estimate. flavor NG steps along grad_hat, NaturalNG along
    grad_hat Sigma_hat^{-1}; omega, when given, projects the update.

    estimator(L) -> GradEstimate may replace the whole sampling block (used
    for analytic wiring checks).
    """
    if flavor not in (outer_loop.NG, outer_loop.NATURAL_NG):
        raise ConfigError("model-free outer flavor must be NG or NaturalNG")
    if eta is None or eta <= 0.0:
        raise ValueError("eta must be an explicit positive stepsize")
    L = np.array(L0, dtype=float)
    engine = None
    if estimator is None:
        engine = RolloutEngine(game, cfg.seed, cfg.x0_dist)
        if K0 is None:
            K0 = inner_loop.solve_inner_riccati(game, L).K
        warm = {"K": np.asarray(K0, dtype=float)}

        def estimator(L_):
            def inner_solve(Li, i):
                Ki = inner_ng_modelfree(
                    game, Li, warm["K"], cfg, inner_steps, inner_alpha,
                    flavor=inner_flavor,
                    estimator=lambda K_, L__: engine.estimate_inner(
                        K_, L__, cfg.m, cfg.R, cfg.r))
                if i == 0:
                    warm["K"] = Ki
                return Ki
            return engine.estimate_outer(L_, inner_solve, cfg.m, cfg.R, cfg.r)

    trace = OuterTrace(meta={"variant": f"modelfree-{flavor}",
                             "mu": float(linalg.min_eigenvalue_sym(game.Sigma0))})
    for t in range(T + 1):
        est = estimator(L)
        if flavor == outer_loop.NG:
            D = est.grad
        else:
            D = np.linalg.solve(est.Sigma, est.grad.T).T
        Lp, mapping, proj_active = outer_loop.projected_step(game, L, D, eta, omega)
        trace.append(trace_row(game, t, L, est.cost_mean, est.grad, est.rho_max,
                               grad_map_norm=float(np.linalg.norm(mapping, "fro")),
                               proj_active=proj_active))
        if t < T:
            L = Lp
    return L, trace
