"""Sampled-data (model-free) solvers: zeroth-order gradient estimation from
cost rollouts, a model-free inner K-solver, and a model-free outer nested
update for L.

Estimation follows the one-point smoothing scheme: perturb the gain on a
Frobenius sphere of radius r, roll the perturbed policy out for R steps, and
average (dim/r^2) * cost * perturbation over m trajectories. The state
correlation estimate reuses the same rollouts. Rollout sums run over R terms
starting at the initial state, matching the infinite-horizon quantities they
truncate.

One rollout kernel serves every estimate. It takes a stack of gain pairs
(K_p, L_p), each with k trajectories and one perturbed minimizer gain per
trajectory, under u = K x, x' = (A - C L) x - B u and the stage cost
x'(Q - L'Rv L)x + u'Ru u, and returns each trajectory's R-step cost and each
pair's state correlation sum. Trajectory i's states are A_i^t x0_i for its
closed loop A_i = A - C L - B K_i, so both sums follow from
M_i = sum_{t<R} A_i^t x0_i x0_i' A_i^t', which binary doubling builds in
O(log R) products of d x d matrices; the cost is <W_i, M_i> for the stage
weight W_i = Q - L'Rv L + K_i'Ru K_i. The products are einsums over
(d, d, trajectories) stacks, taken in slices of at most
ROLLOUT_SLICE_ENTRIES // d^2 trajectories to bound memory. Doubling costs
O(d^3 log R) per trajectory and stepping O(d^2 R), so for rollouts short
for their dimension, R < ROLLOUT_DOUBLING_R_PER_D2 * d^2, the kernel steps R
times instead. estimate_inner is the one-pair case; the lock-step inner
solves and the outer estimate's own rollouts (one trajectory per pair) are
the others. Budgets (m, R, r and the step counts), stepsizes and gains are
checked once, where they enter: EstimatorConfig, estimate_inner,
estimate_outer, inner_ng_modelfree and outer_ng_modelfree raise ConfigError
for bad budgets, stepsizes and flavors, naming the field, and check gains
through linalg.as_matrix.

Randomness is counter-based: every draw comes from the engine's Philox
generator re-keyed to (seed, stream index), one stream per draw block. Results
are bit-reproducible for a fixed seed no matter how trajectories are scheduled,
and per-trajectory values are row slices of one vectorized draw. An initial
state is x0 = chol(Sigma0) z for a standard normal row z, each entry summed
over the lower triangular factor's row in order, one elementwise product at
a time, so a row's floats do not depend on how many rows are drawn with it;
the rollouts draw each estimate's initial states chunk by chunk from its
stream.

The outer estimate runs in lock-step. Its stream order is that of the
sequential schedule, in which the inner solve at perturbed maximizer gain i
takes its inner step j's perturbations and initial states from streams
s0 + 2 + 2 * inner_steps * i + 2 * j and the one after (s0 and s0 + 1 hold
the outer draws). Sample 0 runs first and alone, because its response is
the warm start of the other samples and of the next outer step. Samples
1..m-1 then take their inner steps together, in blocks of at most
LOCKSTEP_TRAJECTORIES live trajectories, each drawing from its own streams,
so neither the schedule nor the block size changes a result. A failure
raises the error that the sequential schedule would raise first.

Every perturbed gain must keep its closed loop strictly inside the stability
margin (rho < 1 - linalg.STABILITY_MARGIN). The screen walks the perturbed
gains in the rollout's chunks. Up to SCREEN_MAX_DIM states each chunk's
closed loops are built trajectory-last, as the rollout builds them, and
their verdicts come from a Schur-Cohn test on each loop's characteristic
polynomial, scaled by 1 - STABILITY_MARGIN, so the margin is the one linalg
applies; larger games are screened by batched eigvals on the chunk. The
screen keeps only its verdicts and the few loops whose radius eigvals must
decide. The perturbed gains K + U are formed one chunk at a time, by the
screen and by the rollouts, which also draw the initial states chunk by
chunk, so an estimate's memory beyond its perturbations U and its costs is
bounded by one chunk. Eigenvalues are computed only where a radius is
reported: the first failing sample's in the SampleError message,
estimate_inner's rho_max (eigvals on a strided probe first, then on the few
loops the per-chunk Schur-Cohn test cannot place below the probe's
maximum), and estimate_outer's screen of its at most m inner responses,
whose largest radius goes into the trace.

An inner step whose update, or K'Ru K, is not finite raises a
ConvergenceError naming the step. A SampleError or ConvergenceError raised
by outer_ng_modelfree carries the trace of the steps before it as .trace.

Trace columns for the outer solver are diagnostics computed from the model
(spectral radius, constraint margin); the algorithm itself touches only
sampled costs and states.
"""

from dataclasses import dataclass

import numpy as np

from . import inner_loop, linalg, outer_loop
from .errors import (ConfigError, ConvergenceError, SampleError, _check_choice, _check_count,
                     _check_positive)
from .trace import OuterTrace, trace_row

_MASK64 = (1 << 64) - 1

# Most inner trajectories the lock-step outer estimate keeps live at once, as
# many as one estimate_inner call at m = 5e4; outer samples run in blocks of
# max(1, LOCKSTEP_TRAJECTORIES // m).
LOCKSTEP_TRAJECTORIES = 50_000
# Closed loops up to this dimension are screened by the Schur-Cohn test on
# their characteristic polynomials; larger ones by batched eigvals, because
# near the margin the coefficient route stops agreeing with eigvals from
# d = 4 on.
SCREEN_MAX_DIM = 3
# estimate_inner's rho_max runs eigvals on every RHO_PROBE_STRIDE-th loop.
RHO_PROBE_STRIDE = 64
# Rollouts build each trajectory's R-step sums by doubling, O(d^3 log R) per
# trajectory, when R >= ROLLOUT_DOUBLING_R_PER_D2 * d^2, and step R times,
# O(d^2 R), below that. The R at which both took equal time (m = 2e4, one
# pair, random games with m1 = 1) was about 6 at d = 2, 14 at d = 3, 32 at
# d = 4, 75 at d = 5, 120 at d = 6, 250 at d = 8, 330 at d = 10 and 1300 at
# d = 20.
ROLLOUT_DOUBLING_R_PER_D2 = 3
# Both rollout kernels and the stability screen work on chunks of at most
# max(1, ROLLOUT_SLICE_ENTRIES // d^2) trajectories (1820 at d = 3), so each
# of their work arrays holds about this many entries (doubling keeps six,
# the screen a few); at d = 3 chunks of 1024 to 8192 trajectories took about
# the same time.
ROLLOUT_SLICE_ENTRIES = 16_384
# Products of (d, d, n) stacks, the stack index last: A B and A B'.
_PRODUCT = "ijn,jln->iln"
_PRODUCT_T = "ijn,ljn->iln"


@dataclass(frozen=True)
class EstimatorConfig:
    """m trajectories per estimate, R rollout steps, smoothing radius r."""

    m: int = 1000
    R: int = 100
    r: float = 0.05
    seed: int = 0

    def __post_init__(self):
        _check_count("EstimatorConfig.m", self.m)
        _check_count("EstimatorConfig.R", self.R)
        _check_positive("EstimatorConfig.r", self.r)
        _check_count("EstimatorConfig.seed", self.seed, least=0)


@dataclass
class GradEstimate:
    grad: np.ndarray
    Sigma: np.ndarray
    cost_mean: float
    cost_std: float
    m: int
    rho_max: float


def _sphere(gen, m, rows, cols, radius):
    w = gen.standard_normal((m, rows * cols))
    # the floats of radius * w / np.linalg.norm(w, axis=1), scaled in place
    norms = np.sqrt(np.add.reduce(w * w, axis=1))
    w *= radius
    w /= norms[:, None]
    return w.reshape(m, rows, cols)


class _PerturbedGains:
    """The gains K_p + U[p, i] of P pairs of k trajectories, for base gains K
    (P, m1, d) and perturbations U (P, k, m1, d), formed only where read:
    [p, t], for slices p of pairs and t of trajectories, returns that block
    of the (P, k, m1, d) stack, with the floats of K[:, None] + U."""

    def __init__(self, K, U):
        self.K, self.U = K, U
        self.shape = U.shape

    def __getitem__(self, block):
        p, t = block
        return self.K[p, None] + self.U[p, t]


class _StreamedStates:
    """The initial states of P pairs of k trajectories, pair i's drawn from
    stream streams[i] of the engine as the rollout walks its chunks:
    [p, t] draws rows t of the pairs p, (pairs, trajectories, d). Read the
    chunks in the order _chunks yields them, and key no other stream until
    the walk ends: a pair cut into several chunks draws its later rows from
    the stream that its first chunk keyed. Each pair's rows are those of
    draw_x0(k) on its stream, however the walk cuts them."""

    def __init__(self, engine, streams, k):
        self.engine, self.streams = engine, streams
        self.shape = (len(streams), k, engine.game.d)

    def __getitem__(self, block):
        p, t = block
        eng = self.engine
        n, d = len(range(self.shape[1])[t]), self.shape[2]
        return eng._x0(np.stack([(eng._generator(s) if t.start == 0 else eng._gen)
                                 .standard_normal((n, d)) for s in self.streams[p]]))


def _eig_radii(Acl):
    """Spectral radii of a stack of closed loops Acl (..., d, d), from batched eigvals."""
    return np.abs(np.linalg.eigvals(Acl)).max(axis=-1)


def _chunks(P, k, d):
    """The chunks in which rollouts and the screen walk a (P, k) stack of
    trajectories, as (pairs, trajectories) slices of at most
    max(1, ROLLOUT_SLICE_ENTRIES // d^2) trajectories: whole pairs when a
    pair has fewer, else one fixed-offset slice of one pair's trajectories,
    so a pair's results do not depend on the stack."""
    size = max(1, ROLLOUT_SLICE_ENTRIES // d ** 2)
    pairs = size // min(k, size)
    for p0 in range(0, P, pairs):
        for k0 in range(0, k, size):
            yield slice(p0, p0 + pairs), slice(k0, k0 + size)


def _loop_offsets(game, L):
    """A - C L for the maximizer gains L (P, m2, d), trajectory-last as
    (d, d, P, 1)."""
    return np.moveaxis(game.A - game.C @ L, 0, -1)[..., None]


def _trajectory_last(K):
    """Gains K (p, k, m1, d) as a contiguous (m1, d, p, k) stack."""
    return np.ascontiguousarray(np.moveaxis(K, (0, 1), (2, 3)))


def _chunk_loops(game, F, Kt, out=None):
    """The closed loops F - B K of a chunk, (d, d, p, k), for the offsets F
    (d, d, p, 1) of _loop_offsets and the gains Kt of _trajectory_last."""
    Acl = np.einsum("ia,ajpk->ijpk", game.B, Kt, out=out)
    return np.subtract(F, Acl, out=Acl)


def _char_poly(Acl):
    """Coefficients [1, c_1, ..., c_d], stacked on a leading axis, of the monic
    characteristic polynomials z^d + c_1 z^(d-1) + ... + c_d of the closed
    loops Acl (d, d, ...), stacked on trailing axes, d <= 3.

    They come from the power traces p_k = tr Acl^k by Newton's identities,
    k c_k = -(p_k + c_1 p_(k-1) + ... + c_(k-1) p_1); tr Acl^3 is the sum of
    Acl^2 * Acl^T, so one batched product serves every d <= 3. Loops with
    entries large enough to overflow get non-finite coefficients, which the
    Schur-Cohn test rejects.
    """
    d = Acl.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        p = [np.einsum("ii...->...", Acl)]
        if d > 1:
            A2 = np.einsum("ij...,jl...->il...", Acl, Acl)
            p.append(np.einsum("ii...->...", A2))
            if d > 2:
                p.append(np.einsum("ij...,ji...->...", A2, Acl))
        c = np.empty((d + 1,) + Acl.shape[2:])
        c[0] = 1.0
        for k in range(1, d + 1):
            c[k] = -sum(c[k - i] * p[i - 1] for i in range(1, k + 1)) / k
    return c


def _inside(coef, s):
    """Mask of the monic polynomials coef (n + 1, ...) whose roots all lie in
    |z| < s, by the Schur-Cohn step-down (Jury 1964) on the coefficients of
    p(s z) / s^n: with a the leading-first coefficients, k = a_n / a_0 and
    a <- a[:n] - k a[n:0:-1] until one is left, the roots lie inside exactly
    when every |k| < 1. A polynomial that fails a step may turn into infs or
    NaNs in later ones; those compare false and stay rejected."""
    n = coef.shape[0] - 1
    ok = np.ones(coef.shape[1:], dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = coef / (s ** np.arange(n + 1)).reshape((-1,) + (1,) * ok.ndim)
        for j in range(n, 0, -1):
            k = a[j] / a[0]
            ok &= np.abs(k) < 1.0
            a = a[:j] - k * a[j:0:-1]
    return ok


def _at_inner_step(j, e):
    return SampleError(f"inner step {j}: {e}", index=e.index)


def _inner_update(game, K, grad, Sigma, alpha, flavor):
    """The inner updates of the gains K (..., m1, d), and the mask of those
    that stayed finite with K'Ru K finite, without overflow warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        if flavor == inner_loop.PG:
            K = inner_loop.pg_update(K, grad, alpha)
        else:
            K = inner_loop.natural_pg_update(K, grad, Sigma, alpha)
        # a non-finite entry of K makes a diagonal entry of K'Ru K non-finite
        ok = np.isfinite(np.swapaxes(K, -1, -2) @ game.Ru @ K).all(axis=(-2, -1))
    return K, ok


def _diverged(j):
    return ConvergenceError(f"inner step {j} diverged: K - alpha D or K^T Ru K is not "
                            "finite; the stepsize alpha is likely too large", iterations=j)


def _doubled_sums(A, X, M, T, AT, R):
    """M = sum_{t<R} A^t X A^t' for (d, d, n) stacks, R >= 1, by binary
    doubling (Smith 1968): from X_1 = X, X_2n = X_n + A^n X_n A^n' and
    A^2n = A^n A^n, and each set bit of R, lowest first, folds in
    M <- X_n + A^n M A^n'. That takes O(log R) products where stepping takes
    R. A, X, T and AT are overwritten; M is returned."""
    first = True
    while True:
        if R & 1:
            if first:
                np.copyto(M, X)
                first = False
            else:
                np.einsum(_PRODUCT, A, M, out=T)
                np.einsum(_PRODUCT_T, T, A, out=M)
                M += X
        R >>= 1
        if not R:
            return M
        np.einsum(_PRODUCT, A, X, out=T)
        np.einsum(_PRODUCT_T, T, A, out=AT)
        X += AT
        np.einsum(_PRODUCT, A, A, out=T)
        A, T = T, A


def _check_inner_method(owner, flavor, alpha, prefix=""):
    """Raise ConfigError unless the fields prefix + flavor and prefix + alpha
    name a model-free inner flavor and a stepsize."""
    if flavor == inner_loop.GAUSS_NEWTON:
        raise ConfigError(f"{owner}.{prefix}flavor: the Gauss-Newton inner update cannot be "
                          "estimated from rollouts; use PG or NaturalPG")
    _check_choice(f"{owner}.{prefix}flavor", flavor, (inner_loop.PG, inner_loop.NATURAL_PG))
    _check_positive(f"{owner}.{prefix}alpha", alpha)


def _check_inner_args(steps, alpha, flavor, tol):
    """Raise ConfigError unless inner_ng_modelfree can take these arguments."""
    _check_count("inner_ng_modelfree.steps", steps, least=0)
    _check_inner_method("inner_ng_modelfree", flavor, alpha)
    if tol is not None:
        _check_positive("inner_ng_modelfree.tol", tol)


def _check_outer_args(T, eta, flavor, inner_steps, inner_alpha, inner_flavor):
    """Raise ConfigError unless outer_ng_modelfree can take these arguments."""
    _check_count("outer_ng_modelfree.T", T, least=0)
    _check_positive("outer_ng_modelfree.eta", eta)
    _check_choice("outer_ng_modelfree.flavor", flavor, (outer_loop.NG, outer_loop.NATURAL_NG))
    _check_count("outer_ng_modelfree.inner_steps", inner_steps, least=0)
    _check_inner_method("outer_ng_modelfree", inner_flavor, inner_alpha, "inner_")



class RolloutEngine:
    """Deterministic seeded simulator bound to one game.

    Streams are consumed in a fixed order (one per draw block), so a given
    seed always produces the same sequence of estimates.
    """

    def __init__(self, game, seed):
        self.game = game
        self.seed = int(seed)
        self._stream = 0
        self._philox = np.random.Philox(key=0)
        self._fresh_state = self._philox.state  # counter 0 and an empty buffer
        self._gen = np.random.Generator(self._philox)
        self._chol = np.linalg.cholesky(game.Sigma0)

    def _generator(self, stream):
        """The engine's generator, re-keyed to draw what Generator(Philox(key=
        (seed, stream))) would; consume it before the next stream is keyed."""
        self._fresh_state["state"]["key"] = np.array(
            [self.seed & _MASK64, int(stream) & _MASK64], dtype=np.uint64)
        self._philox.state = self._fresh_state  # the setter copies
        return self._gen

    def _next_gen(self):
        gen = self._generator(self._stream)
        self._stream += 1
        return gen

    def _x0(self, z):
        """Gaussian initial states with covariance Sigma0 from standard normal
        rows z (..., d): x_i = sum_{j <= i} chol_ij z_j for the lower
        Cholesky factor chol, summed in order of j one elementwise product
        at a time, so that a row's floats do not depend on the rows drawn
        with it (a BLAS product's can)."""
        c = self._chol
        x = np.empty_like(z)
        for i in range(self.game.d):
            x[..., i] = c[i, 0] * z[..., 0]
            for j in range(1, i + 1):
                x[..., i] += c[i, j] * z[..., j]
        return x

    def draw_perturbations(self, m, rows, cols, radius):
        """m independent Frobenius-sphere perturbations as an (m, rows, cols) stack."""
        return _sphere(self._next_gen(), m, rows, cols, radius)

    def draw_x0(self, m):
        """m Gaussian initial states with covariance Sigma0 as an (m, d) array."""
        return self._x0(self._next_gen().standard_normal((m, self.game.d)))

    def _closed_loops(self, K, L):
        """(P, k, d, d) closed loops A - C L - B K of the gains K (P, k, m1, d)
        against L (P, m2, d)."""
        g = self.game
        return (g.A - g.C @ L)[:, None] - g.B @ K

    def _screen(self, Kp, L, rho_hat=None):
        """Stability verdicts for the closed loops A - C L_p - B Kp[p, i] of
        the perturbed gains Kp (P, k, m1, d), an array or _PerturbedGains,
        against L (P, m2, d), walked in the rollout's chunks, so no array
        spans more than one chunk's loops.

        Returns the (P, k) mask of rho < 1 - STABILITY_MARGIN and, given
        rho_hat, the (P, k) mask of loops whose radius the screen cannot
        place below rho_hat (1 - 1e-12), else None. Up to SCREEN_MAX_DIM the
        loops are built as the rollout builds them and both masks come from
        the Schur-Cohn test on their characteristic polynomials; above it
        from batched eigvals on loops built as _closed_loops builds them.
        """
        g = self.game
        P, k = Kp.shape[:2]
        s = 1.0 - linalg.STABILITY_MARGIN
        stable = np.empty((P, k), dtype=bool)
        near = None if rho_hat is None else np.empty((P, k), dtype=bool)
        F = _loop_offsets(g, L)
        for p, t in _chunks(P, k, g.d):
            if g.d <= SCREEN_MAX_DIM:
                coef = _char_poly(_chunk_loops(g, F[:, :, p], _trajectory_last(Kp[p, t])))
                stable[p, t] = _inside(coef, s)
                if near is not None:
                    near[p, t] = ~_inside(coef, rho_hat * (1.0 - 1e-12))
            else:
                rho = _eig_radii(self._closed_loops(Kp[p, t], L[p]))
                stable[p, t] = rho < s
                if near is not None:
                    near[p, t] = rho > rho_hat
        return stable, near

    def _first_unstable(self, Kp, L, stable, radius):
        """The first pair with a closed loop that is not stable and the
        SampleError naming its first such perturbed gain, or None; the
        reported radius comes from eigvals."""
        failed = np.flatnonzero(~stable.all(axis=1))
        if not failed.size:
            return None
        p = int(failed[0])
        i = int(np.flatnonzero(~stable[p])[0])
        rho = _eig_radii(self._closed_loops(Kp[p:p + 1, i:i + 1], L[p:p + 1]))[0, 0]
        return p, SampleError(
            f"perturbed gain {i} of {stable.shape[1]} is destabilizing "
            f"(rho = {rho:.6f}); shrink the smoothing radius r "
            f"(currently {radius:g}) or move to a better-conditioned pair",
            index=i)

    def _rollout(self, K, L, x0, R):
        """Batched R-step rollouts of P gain pairs with k trajectories each.

        K is (P, k, m1, d), one minimizer gain per trajectory, an array or
        _PerturbedGains; L is (P, m2, d); x0 is (P, k, d), an array or
        _StreamedStates; R >= 1. Both kernels read K and x0 one chunk of
        _chunks at a time, in order. Returns the (P, k) cost sums and
        the (P, d, d) state correlation sums over each pair's trajectories
        and steps. Every pair is computed alone, so a result does not depend
        on what else is in the stack. The sums are built by doubling from
        R >= ROLLOUT_DOUBLING_R_PER_D2 * d^2 on, and by stepping below it.
        """
        if R >= ROLLOUT_DOUBLING_R_PER_D2 * self.game.d ** 2:
            return self._rollout_doubling(K, L, x0, R)
        return self._rollout_steps(K, L, x0, R)

    def _rollout_doubling(self, K, L, x0, R):
        """_rollout by doubling: trajectory i's correlation sum M_i comes
        from _doubled_sums on its closed loop, and its cost is <W_i, M_i>.

        Arrays keep the trajectory index last, (d, d, pairs, trajectories),
        so that every product is one einsum over the stack. The work runs in
        the chunks of _chunks, so a pair's sums do not depend on the stack.
        """
        g = self.game
        d = g.d
        P, k = x0.shape[:2]
        F = _loop_offsets(g, L)
        Wbar = np.moveaxis(g.Q - np.swapaxes(L, 1, 2) @ g.Rv @ L, 0, -1)[..., None]
        cost, S = np.empty((P, k)), np.zeros((d, d, P))
        work = np.empty((6, d * d * max(2, min(P * k, ROLLOUT_SLICE_ENTRIES // d ** 2))))
        for p, t in _chunks(P, k, d):
            Kt = _trajectory_last(K[p, t])
            x = np.ascontiguousarray(np.moveaxis(x0[p, t], 2, 0))
            kept = x.shape[2]
            if x.shape[1] * kept == 1:
                # einsum sums over a lone (d, d, 1) stack in another
                # order; a copy of the trajectory keeps the usual one
                Kt, x = np.concatenate((Kt, Kt), -1), np.concatenate((x, x), -1)
            shape = (d, d) + x.shape[1:]
            n = shape[2] * shape[3]
            Acl, W, X, M, T, AT = (w[:d * d * n].reshape(shape) for w in work)
            _chunk_loops(g, F[:, :, p], Kt, out=Acl)
            np.einsum("aipk,ajpk->ijpk", Kt, np.einsum("ab,bjpk->ajpk", g.Ru, Kt), out=W)
            W += Wbar[:, :, p]
            np.multiply(x[:, None], x[None], out=X)
            _doubled_sums(*(a.reshape(d, d, n) for a in (Acl, X, M, T, AT)), R)
            cost[p, t] = np.einsum("ijpk,ijpk->pk", W, M)[:, :kept]
            S[:, :, p] += M[..., :kept].sum(axis=-1)
        return cost, np.moveaxis(S, -1, 0)

    def _rollout_steps(self, K, L, x0, R):
        """_rollout by stepping R times, chunk by chunk.

        The state and the control share one (pairs, d + m1, trajectories)
        array z = [x; u], so that x' = [A - C L, -B] z, the stage cost
        z' diag(Q - L'Rv L, Ru) z and the correlation sum z z' each take one
        batched product.
        """
        g = self.game
        d, m1 = g.d, g.m1
        P, k = x0.shape[:2]
        F = np.concatenate([g.A - g.C @ L, np.broadcast_to(-g.B, (P, d, m1))], axis=2)
        W = np.zeros((P, d + m1, d + m1))
        W[:, :d, :d] = g.Q - np.swapaxes(L, 1, 2) @ g.Rv @ L
        W[:, d:, d:] = g.Ru
        cost = np.empty((P, k))
        S = np.zeros((P, d + m1, d + m1))
        for p, t in _chunks(P, k, d):
            Kt = np.ascontiguousarray(np.moveaxis(K[p, t], 1, -1))  # (pairs, m1, d, k)
            x = x0[p, t]
            z = np.empty((x.shape[0], d + m1, x.shape[1]))
            z_next = np.empty_like(z)
            z[:, :d] = np.swapaxes(x, 1, 2)
            c = np.zeros(x.shape[:2])
            Fp, Wp, Sp = F[p], W[p], S[p]  # Sp is a view: its sums land in S
            for step in range(R):
                np.einsum("paik,pik->pak", Kt, z[:, :d], out=z[:, d:])
                c += np.einsum("pik,pik->pk", z, Wp @ z)
                Sp += z @ np.swapaxes(z, 1, 2)
                if step + 1 < R:
                    np.matmul(Fp, z, out=z_next[:, :d])
                    z, z_next = z_next, z
            cost[p, t] = c
        return cost, S[:, :d, :d]

    def _estimates(self, Kp, L, x0, R, r):
        """One-point (gradK, Sigma) estimates at P stable pairs at once: the
        perturbed gains Kp = _PerturbedGains(K, U), L (P, m2, d), and the
        initial states x0 (P, k, d) of _rollout. Returns grad (P, m1, d),
        Sigma (P, d, d) and the (P, k) costs."""
        g = self.game
        k = Kp.shape[1]
        cost, S = self._rollout(Kp, L, x0, R)
        dim = g.m1 * g.d
        grad = (dim / (k * r * r)) * np.einsum("pk,pkij->pij", cost, Kp.U)
        Sigma = S / k
        return grad, 0.5 * (Sigma + np.swapaxes(Sigma, 1, 2)), cost

    def estimate_inner(self, K, L, m, R, r):
        """Zeroth-order (gradK, Sigma) estimate at (K, L) by perturbing K.

        The perturbations U come from the next stream and the initial states
        from the one after it, drawn chunk by chunk during the rollout; both
        streams are taken before the screen, so a SampleError leaves the
        engine where a finished estimate would."""
        _check_count("RolloutEngine.estimate_inner.m", m)
        _check_count("RolloutEngine.estimate_inner.R", R)
        _check_positive("RolloutEngine.estimate_inner.r", r)
        g = self.game
        K = linalg.as_matrix(K, g.m1, g.d, "K")[None]
        L = linalg.as_matrix(L, g.m2, g.d, "L")[None]
        stream = self._stream
        self._stream += 2
        U = _sphere(self._generator(stream), m, g.m1, g.d, r)[None]
        Kp = _PerturbedGains(K, U)
        # rho_max: eigvals on a strided probe gives rho_hat, the screen places
        # most loops below it chunk by chunk, and eigvals decides the few it
        # cannot. That is exact unless a loop's eigvals and characteristic
        # polynomial disagree by more than 1e-12 relative, which takes
        # eigenvalues near a defective (Jordan) one.
        rho_hat = float(_eig_radii(self._closed_loops(Kp[:, ::RHO_PROBE_STRIDE], L)).max())
        stable, near = self._screen(Kp, L, rho_hat)
        failure = self._first_unstable(Kp, L, stable, r)
        if failure is not None:
            raise failure[1]
        rho_max = rho_hat
        if near.any():
            rho_max = max(rho_max, float(_eig_radii(self._closed_loops((K + U[near])[None],
                                                                       L)).max()))
        x0 = _StreamedStates(self, [stream + 1], m)
        grad, Sigma, cost = self._estimates(Kp, L, x0, R, r)
        return GradEstimate(grad=grad[0], Sigma=Sigma[0],
                            cost_mean=float(cost.mean()), cost_std=float(cost.std()),
                            m=m, rho_max=rho_max)

    def estimate_outer(self, L, K_warm, m, R, r, inner_steps, inner_alpha, inner_flavor):
        """Zeroth-order (gradL, Sigma) estimate for the maximin objective.

        Perturbs L on the sphere and runs inner_steps model-free inner steps
        (inner_flavor PG or NaturalPG, stepsize inner_alpha, m trajectories
        per step) from K_warm at each perturbed L: sample 0 first, then the
        rest in lock-step. Each response is rolled out once, for both the
        cost and the correlation estimate. Returns the estimate and sample
        0's response, the warm start for the next call.
        """
        _check_count("RolloutEngine.estimate_outer.m", m)
        _check_count("RolloutEngine.estimate_outer.R", R)
        _check_positive("RolloutEngine.estimate_outer.r", r)
        _check_count("RolloutEngine.estimate_outer.inner_steps", inner_steps, least=0)
        _check_inner_method("RolloutEngine.estimate_outer", inner_flavor, inner_alpha, "inner_")
        g = self.game
        K_warm = linalg.as_matrix(K_warm, g.m1, g.d, "K_warm")
        L = linalg.as_matrix(L, g.m2, g.d, "L")
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
        # eigvals here: the screen runs over at most m responses, and their
        # largest radius goes into the trace
        rho = _eig_radii(self._closed_loops(Ks[:n, None], Ls[:n]))[:, 0]
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
        solve that failed and its error (a SampleError, or the
        ConvergenceError of a diverged step); the solves after it are
        dropped when it fails, and their responses are meaningless.
        """
        g = self.game
        n = Ls.shape[0]
        K = np.broadcast_to(K_warm, (n, g.m1, g.d)).copy()
        error = None
        for j in range(steps):
            U = np.stack([_sphere(self._generator(s + 2 * j), k, g.m1, g.d, r)
                          for s in streams[:n]])
            Kp = _PerturbedGains(K[:n], U)
            failure = self._first_unstable(Kp, Ls[:n], self._screen(Kp, Ls[:n])[0], r)
            if failure is not None:
                n = failure[0]
                error = (n, _at_inner_step(j, failure[1]))
                if n == 0:
                    break
                Kp = _PerturbedGains(K[:n], U[:n])
            x0 = _StreamedStates(self, streams[:n] + 2 * j + 1, k)
            grad, Sigma, _ = self._estimates(Kp, Ls[:n], x0, R, r)
            K[:n], ok = _inner_update(g, K[:n], grad, Sigma, alpha, flavor)
            diverged = np.flatnonzero(~ok)
            if diverged.size:
                n = int(diverged[0])
                error = (n, _diverged(j))
                if n == 0:
                    break
        return K, error


def estimate_grad_sigma(game, K, L, cfg):
    """One-shot (gradK_hat, Sigma_hat) at (K, L) under cfg's budget and seed."""
    est = RolloutEngine(game, cfg.seed).estimate_inner(K, L, cfg.m, cfg.R, cfg.r)
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
    _check_inner_args(steps, alpha, flavor, tol)
    if estimator is None:
        engine = RolloutEngine(game, cfg.seed)
        estimator = lambda K_, L_: engine.estimate_inner(K_, L_, cfg.m, cfg.R, cfg.r)
    K = linalg.as_matrix(K0, game.m1, game.d, "K0").copy()  # K0 itself is never returned
    L = linalg.as_matrix(L, game.m2, game.d, "L")
    for j in range(steps + 1):
        try:
            est = estimator(K, L)
        except SampleError as e:
            raise _at_inner_step(j, e) from e
        if record is not None:
            record(j, K, est)
        if j == steps or (tol is not None and linalg.fro(est.grad) <= tol):
            return K
        K, ok = _inner_update(game, K, est.grad, est.Sigma, alpha, flavor)
        if not ok:
            raise _diverged(j)


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
    _check_outer_args(T, eta, flavor, inner_steps, inner_alpha, inner_flavor)
    L = linalg.as_matrix(L0, game.m2, game.d, "L0").copy()
    if K0 is not None:
        K0 = linalg.as_matrix(K0, game.m1, game.d, "K0")
    if estimator is None:
        engine = RolloutEngine(game, cfg.seed)
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
        try:
            est = estimator(L)
        except (SampleError, ConvergenceError) as e:
            e.trace = trace  # partial progress travels with the failure
            raise
        if flavor == outer_loop.NG:
            D = est.grad
        else:
            D = np.linalg.solve(est.Sigma, est.grad.T).T
        Lp, mapping, proj_active = outer_loop.projected_step(game, t, trace, L, D, eta, omega)
        trace.append(trace_row(game, t, L, est.cost_mean, est.grad, est.rho_max,
                               grad_map_norm=linalg.fro(mapping),
                               proj_active=proj_active))
        if t < T:
            L = Lp
    return L, trace
