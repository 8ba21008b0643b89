"""Sampled-data (model-free) solvers: zeroth-order gradient estimation from
cost rollouts, a model-free inner K-solver, and a model-free outer nested
update for L.

Estimation follows the one-point smoothing scheme: perturb the gain on a
Frobenius sphere of radius r, roll the perturbed policy out for R steps, and
average (dim/r^2) * cost * perturbation over m trajectories. The state
correlation estimate reuses the same rollouts. Rollout sums run over R terms
starting at the initial state, matching the infinite-horizon quantities they
truncate.

One rollout kernel serves every estimate. It advances a stack of gain pairs
(K_p, L_p), each with k trajectories and one perturbed minimizer gain per
trajectory, through u = K x, x' = (A - C L) x - B u, with stage cost
x'(Q - L'Rv L)x + u'Ru u. State and control are kept together as one
(pairs, d + m1, k) array, so that the dynamics, the stage cost and the state
correlation sum are batched matrix products. estimate_inner is the one-pair
case; the lock-step inner solves and the outer estimate's own rollouts (one
trajectory per pair) are the others.

Randomness is counter-based: every draw comes from a Philox generator keyed
by (seed, stream index), with one stream per logical draw block. Results are
bit-reproducible for a fixed seed no matter how trajectories are scheduled,
and per-trajectory values are row slices of one vectorized draw.

The outer estimate runs in lock-step. Its stream order is that of the
sequential schedule, in which the inner solve at perturbed maximizer gain i
takes its inner step j's perturbations and initial states from streams
s0 + 2 + 2 * inner_steps * i + 2 * j and the one after (s0 and s0 + 1 hold
the outer draws). Sample 0 runs first and alone, because its response is
the warm start of the other samples and of the next outer step. Samples
1..m-1 then take their inner steps together, in blocks of at most
LOCKSTEP_TRAJECTORIES live trajectories, each drawing from its own streams,
so neither the schedule nor the block size changes a result. A failure
raises the SampleError that the sequential schedule would raise first.

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

# Most inner trajectories the lock-step outer estimate keeps live at once, as
# many as one estimate_inner call at m = 5e4; outer samples run in blocks of
# max(1, LOCKSTEP_TRAJECTORIES // m).
LOCKSTEP_TRAJECTORIES = 50_000


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


def _sphere(gen, m, rows, cols, radius):
    w = gen.standard_normal((m, rows * cols))
    norms = np.linalg.norm(w, axis=1, keepdims=True)
    return (radius * w / norms).reshape(m, rows, cols)


def _unstable_sample(rho, radius):
    """The SampleError for the first perturbed gain in rho at or past the
    stability margin, or None."""
    bad = np.nonzero(rho >= 1.0 - linalg.STABILITY_MARGIN)[0]
    if not bad.size:
        return None
    i = int(bad[0])
    return SampleError(
        f"perturbed gain {i} of {rho.shape[0]} is destabilizing "
        f"(rho = {rho[i]:.6f}); shrink the smoothing radius r "
        f"(currently {radius:g}) or move to a better-conditioned pair",
        index=i)


def _at_inner_step(j, e):
    return SampleError(f"inner step {j}: {e}", index=e.index)


def _inner_update(K, grad, Sigma, alpha, flavor):
    if flavor == inner_loop.PG:
        return inner_loop.pg_update(K, grad, alpha)
    return inner_loop.natural_pg_update(K, grad, Sigma, alpha)


def _check_inner_method(flavor, alpha):
    if flavor == inner_loop.GAUSS_NEWTON:
        raise ConfigError("the Gauss-Newton inner update cannot be estimated "
                          "from rollouts; use PG or NaturalPG")
    if flavor not in (inner_loop.PG, inner_loop.NATURAL_PG):
        raise ConfigError(f"unknown model-free inner flavor {flavor!r}")
    if alpha is None or alpha <= 0.0:
        raise ValueError("alpha must be an explicit positive stepsize")


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

    def _x0(self, gen, m):
        if self.x0_dist == X0_CUBE:
            return gen.uniform(-1.0, 1.0, size=(m, self.game.d)) * self._half_width
        return gen.standard_normal((m, self.game.d)) @ self._chol.T

    def draw_perturbations(self, m, rows, cols, radius):
        """m independent Frobenius-sphere perturbations as an (m, rows, cols) stack."""
        return _sphere(self._next_gen(), m, rows, cols, radius)

    def draw_x0(self, m):
        return self._x0(self._next_gen(), m)

    def _radii(self, K, L):
        """(P, k) closed-loop spectral radii of the gains K (P, k, m1, d)
        against L (P, m2, d), from one batched eigvals call."""
        g = self.game
        Acl = (g.A - g.C @ L)[:, None] - g.B @ K
        return np.abs(np.linalg.eigvals(Acl)).max(axis=-1)

    def _rollout(self, K, L, x0, R):
        """Batched R-step rollouts of P gain pairs with k trajectories each.

        K is (P, k, m1, d), one minimizer gain per trajectory; L is
        (P, m2, d); x0 is (P, k, d). Returns the (P, k) cost sums and the
        (P, d, d) state correlation sums over each pair's trajectories and
        steps. Every pair is computed alone, so a result does not depend on
        what else is in the stack.

        The state and the control share one (P, d + m1, k) array z = [x; u],
        so that x' = [A - C L, -B] z, the stage cost z' diag(Q - L'Rv L, Ru) z
        and the correlation sum z z' each take one batched product.
        """
        g = self.game
        d, m1 = g.d, g.m1
        P, k = x0.shape[:2]
        F = np.concatenate([g.A - g.C @ L, np.broadcast_to(-g.B, (P, d, m1))], axis=2)
        W = np.zeros((P, d + m1, d + m1))
        W[:, :d, :d] = g.Q - np.swapaxes(L, 1, 2) @ g.Rv @ L
        W[:, d:, d:] = g.Ru
        Kt = np.ascontiguousarray(np.moveaxis(K, 1, -1))  # (P, m1, d, k)
        z, z_next = np.empty((P, d + m1, k)), np.empty((P, d + m1, k))
        z[:, :d] = np.swapaxes(x0, 1, 2)
        cost = np.zeros((P, k))
        S = np.zeros((P, d + m1, d + m1))
        for t in range(R):
            np.einsum("paik,pik->pak", Kt, z[:, :d], out=z[:, d:])
            cost += np.einsum("pik,pik->pk", z, W @ z)
            S += z @ np.swapaxes(z, 1, 2)
            if t + 1 < R:
                np.matmul(F, z, out=z_next[:, :d])
                z, z_next = z_next, z
        return cost, S[:, :d, :d]

    def _estimates(self, K, L, U, x0, R, r):
        """One-point (gradK, Sigma) estimates at P stable pairs at once:
        K (P, m1, d) perturbed by U (P, k, m1, d), L (P, m2, d), x0 (P, k, d).
        Returns grad (P, m1, d), Sigma (P, d, d) and the (P, k) costs."""
        g = self.game
        k = U.shape[1]
        cost, S = self._rollout(K[:, None] + U, L, x0, R)
        dim = g.m1 * g.d
        grad = (dim / (k * r * r)) * np.einsum("pk,pkij->pij", cost, U)
        Sigma = S / k
        return grad, 0.5 * (Sigma + np.swapaxes(Sigma, 1, 2)), cost

    def estimate_inner(self, K, L, m, R, r):
        """Zeroth-order (gradK, Sigma) estimate at (K, L) by perturbing K."""
        g = self.game
        K = np.asarray(K, dtype=float)[None]
        L = np.asarray(L, dtype=float)[None]
        U = self.draw_perturbations(m, g.m1, g.d, r)[None]
        x0 = self.draw_x0(m)[None]
        rho = self._radii(K[:, None] + U, L)[0]
        error = _unstable_sample(rho, r)
        if error is not None:
            raise error
        grad, Sigma, cost = self._estimates(K, L, U, x0, R, r)
        return GradEstimate(grad=grad[0], Sigma=Sigma[0],
                            cost_mean=float(cost.mean()), cost_std=float(cost.std()),
                            m=m, rho_max=float(rho.max()))

    def estimate_outer(self, L, K_warm, m, R, r, inner_steps, inner_alpha, inner_flavor):
        """Zeroth-order (gradL, Sigma) estimate for the maximin objective.

        Perturbs L on the sphere and runs inner_steps model-free inner steps
        (inner_flavor PG or NaturalPG, stepsize inner_alpha, m trajectories
        per step) from K_warm at each perturbed L: sample 0 first, then the
        rest in lock-step. Each response is rolled out once, for both the
        cost and the correlation estimate. Returns the estimate and sample
        0's response, the warm start for the next call.
        """
        _check_inner_method(inner_flavor, inner_alpha)
        g = self.game
        L = np.asarray(L, dtype=float)
        first = self._stream
        V = self.draw_perturbations(m, g.m2, g.d, r)
        x0 = self.draw_x0(m)
        self._stream = first + 2 + 2 * inner_steps * m
        Ls = L + V
        Ks = np.empty((m, g.m1, g.d))
        block = max(1, LOCKSTEP_TRAJECTORIES // m)
        # sample 0 alone first: its response is the warm start of the rest
        bounds = [(0, 1)] + [(i, min(i + block, m)) for i in range(1, m, block)]
        error = None
        for i0, i1 in bounds:
            streams = first + 2 + 2 * inner_steps * np.arange(i0, i1)
            Ks[i0:i1], error = self._inner_solves(K_warm if i0 == 0 else Ks[0], Ls[i0:i1],
                                                  streams, m, R, r, inner_steps,
                                                  inner_alpha, inner_flavor)
            if error is not None:
                error = (i0 + error[0], error[1])
                break
        # the sequential schedule screens each response right after its inner
        # solve, so a screen failure before the first inner failure wins
        n = m if error is None else error[0]
        rho = self._radii(Ks[:n, None], Ls[:n])[:, 0]
        bad = np.nonzero(rho >= 1.0 - linalg.STABILITY_MARGIN)[0]
        if bad.size:
            i = int(bad[0])
            raise SampleError(
                f"perturbed maximizer gain {i} of {m} yields an unstable "
                f"inner response (rho = {rho[i]:.6f}); shrink r (currently {r:g})",
                index=i)
        if error is not None:
            raise error[1]
        costs, S = self._rollout(Ks[:, None], Ls, x0[:, None], R)
        costs = costs[:, 0]
        dim = g.m2 * g.d
        grad = (dim / (m * r * r)) * np.einsum("m,mij->ij", costs, V)
        Sigma = S.sum(axis=0)
        est = GradEstimate(grad=grad, Sigma=0.5 * (Sigma + Sigma.T) / m,
                           cost_mean=float(costs.mean()), cost_std=float(costs.std()),
                           m=m, rho_max=float(rho.max()))
        return est, Ks[0].copy()

    def _inner_solves(self, K_warm, Ls, streams, k, R, r, steps, alpha, flavor):
        """Model-free inner solves at the maximizer gains Ls (n, m2, d), all
        from K_warm and advanced together, k trajectories per estimate; solve
        i's step j draws from streams[i] + 2 j and the stream after it.

        Returns the (n, m1, d) responses and None, or the index of the first
        solve that failed and its SampleError; the solves after it are
        dropped when it fails, and their responses are meaningless.
        """
        g = self.game
        n = Ls.shape[0]
        K = np.broadcast_to(K_warm, (n, g.m1, g.d)).copy()
        error = None
        for j in range(steps):
            U = np.stack([_sphere(_generator(self.seed, s + 2 * j), k, g.m1, g.d, r)
                          for s in streams[:n]])
            rho = self._radii(K[:n, None] + U, Ls[:n])
            failed = np.nonzero((rho >= 1.0 - linalg.STABILITY_MARGIN).any(axis=1))[0]
            if failed.size:
                n = int(failed[0])
                error = (n, _at_inner_step(j, _unstable_sample(rho[n], r)))
                if n == 0:
                    break
                U = U[:n]
            x0 = np.stack([self._x0(_generator(self.seed, s + 2 * j + 1), k)
                           for s in streams[:n]])
            grad, Sigma, _ = self._estimates(K[:n], Ls[:n], U, x0, R, r)
            K[:n] = _inner_update(K[:n], grad, Sigma, alpha, flavor)
        return K, error


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
    inner loop) and must return a GradEstimate. Every iterate K_0..K_steps is
    estimated, the returned one included; tol, when set, stops early once
    the estimated gradient norm falls below it. record(j, K, est) is called
    with each visited iterate and its GradEstimate, for instrumentation.
    """
    _check_inner_method(flavor, alpha)
    if estimator is None:
        engine = RolloutEngine(game, cfg.seed, cfg.x0_dist)
        estimator = lambda K_, L_: engine.estimate_inner(K_, L_, cfg.m, cfg.R, cfg.r)
    K = np.array(K0, dtype=float)
    L = np.asarray(L, dtype=float)
    for j in range(steps + 1):
        try:
            est = estimator(K, L)
        except SampleError as e:
            raise _at_inner_step(j, e) from e
        if record is not None:
            record(j, K, est)
        if j == steps or (tol is not None and np.linalg.norm(est.grad, "fro") <= tol):
            return K
        K = _inner_update(K, est.grad, est.Sigma, alpha, flavor)


def outer_ng_modelfree(game, L0, cfg, T, eta, flavor=outer_loop.NG, omega=None,
                       inner_steps=10, inner_alpha=0.05,
                       inner_flavor=inner_loop.NATURAL_PG, K0=None,
                       estimator=None):
    """Model-free projected nested-gradient outer loop.

    Per outer step, the default estimator (RolloutEngine.estimate_outer)
    perturbs L on the sphere, runs the model-free inner solver at every
    perturbed L (warm-started from the previous step's response at sample
    0), and averages rollout costs into a nested-gradient estimate. flavor
    NG steps along grad_hat, NaturalNG along grad_hat Sigma_hat^{-1}; omega,
    when given, projects the update.

    estimator(L) -> GradEstimate may replace the whole sampling block (used
    for analytic wiring checks).
    """
    if flavor not in (outer_loop.NG, outer_loop.NATURAL_NG):
        raise ConfigError("model-free outer flavor must be NG or NaturalNG")
    if eta is None or eta <= 0.0:
        raise ValueError("eta must be an explicit positive stepsize")
    L = np.array(L0, dtype=float)
    if estimator is None:
        engine = RolloutEngine(game, cfg.seed, cfg.x0_dist)
        if K0 is None:
            K0 = inner_loop.solve_inner_riccati(game, L).K
        warm = [K0]

        def estimator(L_):
            est, warm[0] = engine.estimate_outer(L_, warm[0], cfg.m, cfg.R, cfg.r,
                                                 inner_steps, inner_alpha, inner_flavor)
            return est

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
