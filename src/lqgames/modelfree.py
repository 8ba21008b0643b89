"""Sampled-data (model-free) solvers: zeroth-order gradient estimation from
cost rollouts, a model-free inner K-solver, and a model-free outer nested
update for L.

Estimation follows the one-point smoothing scheme: perturb the gain on a
Frobenius sphere of radius r, roll the perturbed policy out for R steps, and
average (dim/r^2) * cost * perturbation over m trajectories. The state
correlation estimate reuses the same rollouts. Rollout sums run over R terms
starting at the initial state, matching the infinite-horizon quantities they
truncate.

One walk over the trajectories serves every estimate. It takes a stack of
gain pairs (K_p, L_p), each with k trajectories and one perturbed minimizer
gain per trajectory, under u = K x, x' = (A - C L) x - B u and the stage cost
x'(Q - L'Rv L)x + u'Ru u, in chunks of at most ROLLOUT_SLICE_ENTRIES // d^2
trajectories to bound memory. Each chunk forms its perturbed gains K + U
and their trajectory-last copy once, screens its closed loops, draws its
initial states and is rolled out into each trajectory's R-step cost and
each pair's state correlation sum. Trajectory i's states are A_i^t x0_i for
its closed loop A_i = A - C L - B K_i, so both sums follow from
M_i = sum_{t<R} A_i^t x0_i x0_i' A_i^t', which binary doubling builds in
O(log R) products of d x d matrices; the cost is <W_i, M_i> for the stage
weight W_i = Q - L'Rv L + K_i'Ru K_i. The products are einsums over
(d, d, trajectories) stacks. The doubling keeps its sums transposed, so that
every product but the squaring takes einsum's faster spelling A B', and its
first squaring A_i^2 is the one the Schur-Cohn screen computed; it works in
six arrays of a chunk's size. Doubling costs O(d^3 log R) per trajectory and
stepping O(d^2 R), so for rollouts short for their dimension,
R < ROLLOUT_DOUBLING_R_PER_D2 * d^2, the chunk is stepped R times instead.
estimate_inner is the one-pair case; the lock-step inner solves and the
outer estimate's own rollouts (one unperturbed trajectory per pair) are the
others. Budgets (m, R, r and the step counts), stepsizes and gains are
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
the walk draws each estimate's initial states chunk by chunk from its
stream.

The outer estimate runs in lock-step. Its stream order is that of the
sequential schedule, in which the inner solve at perturbed maximizer gain i
takes its inner step j's perturbations and initial states from streams
s0 + 2 + 2 * inner_steps * i + 2 * j and the one after (s0 and s0 + 1 hold
the outer draws). Sample 0 runs first and alone, because its response is
the warm start of the other samples and of the next outer step. Samples
1..m-1 then take their inner steps together, in blocks of at most
LOCKSTEP_TRAJECTORIES live trajectories, each drawing from its own streams
(a block's perturbations into one array, normalized at once), so neither
the schedule nor the block size changes a result. A failure
raises the error that the sequential schedule would raise first.

Every perturbed gain must keep its closed loop strictly inside the stability
margin (rho < 1 - linalg.STABILITY_MARGIN). Up to SCREEN_MAX_DIM states a
chunk's verdicts come from a Schur-Cohn test on the characteristic
polynomials of the closed loops that the doubling kernel then reads, scaled
by 1 - STABILITY_MARGIN, so the margin is the one linalg applies; larger
games are screened by batched eigvals on the chunk. At the first
destabilizing gain the walk rolls out only the pairs before it and stops,
so an estimate's memory beyond its perturbations U and its costs is bounded
by one chunk. Eigenvalues are computed only where a radius is reported: the
first failing sample's in the SampleError message, estimate_inner's rho_max
(eigvals on a strided probe first, then on the few loops the per-chunk
Schur-Cohn test cannot place below the probe's maximum), and
estimate_outer's screen of its at most m inner responses, whose largest
radius goes into the trace.

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
# O(d^2 R), below that. The R at which both take equal time (m = 2e4, one
# pair, random games with m1 = 1, the eigvals screen left out) is about 3 at
# d = 2, 15 at d = 3, 25 at d = 4, 40 at d = 5, 49 at d = 6, 84 at d = 8 and
# 114 at d = 10. Moving the switch moves which kernel sums a rollout, and so
# its floats.
ROLLOUT_DOUBLING_R_PER_D2 = 3
# The walk screens and rolls out chunks of at most
# max(1, ROLLOUT_SLICE_ENTRIES // d^2) trajectories (1820 at d = 3), so each
# of its work arrays holds about this many entries (doubling keeps six, the
# screen a few); at d = 3 chunks of 1024 to 8192 trajectories took about the
# same time.
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
    return _to_sphere(gen.standard_normal((m, rows * cols)), radius).reshape(m, rows, cols)


def _to_sphere(w, radius):
    """The rows w (..., n) scaled in place onto the sphere of radius radius:
    the floats of radius * w / np.linalg.norm(w, axis=-1). Each row's norm is
    reduced along the row, as norm reduces it; a sum down columns adds in
    another order from 8 entries a row on."""
    norms = np.sqrt(np.add.reduce(w * w, axis=-1))
    w *= radius
    w /= norms[..., None]
    return w


def _eig_radii(Acl):
    """Spectral radii of a stack of closed loops Acl (..., d, d), from batched eigvals."""
    return np.abs(linalg.eigvals(Acl)).max(axis=-1)


def _chunks(P, k, d):
    """The chunks in which RolloutEngine._walk walks a (P, k) stack of
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
    return (game.A - game.C @ L).transpose(1, 2, 0)[..., None]


def _trajectory_last(K):
    """Gains K (p, k, m1, d) as a contiguous (m1, d, p, k) stack."""
    return np.ascontiguousarray(K.transpose(2, 3, 0, 1))


def _chunk_loops(game, F, Kt, out=None):
    """The closed loops F - B K of a chunk, (d, d, p, k), for the offsets F
    (d, d, p, 1) of _loop_offsets and the gains Kt of _trajectory_last."""
    Acl = np.einsum("ia,ajpk->ijpk", game.B, Kt, out=out)
    return np.subtract(F, Acl, out=Acl)


def _char_poly(Acl, out=None):
    """Coefficients [1, c_1, ..., c_d], stacked on a leading axis, of the monic
    characteristic polynomials z^d + c_1 z^(d-1) + ... + c_d of the closed
    loops Acl (d, d, ...), stacked on trailing axes, d <= 3.

    They come from the power traces p_k = tr Acl^k by Newton's identities,
    k c_k = -(c_(k-1) p_1 + ... + c_1 p_(k-1) + p_k); tr Acl^3 is the sum of
    Acl^2 * Acl^T, so one batched product serves every d <= 3. For d > 1 that
    product Acl^2 goes into out when given, where the doubling kernel takes
    it as its first squaring. Loops with entries large enough to overflow get
    non-finite coefficients, which the Schur-Cohn test rejects.
    """
    d = Acl.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        p = [np.einsum("ii...->...", Acl)]
        if d > 1:
            A2 = np.einsum("ij...,jl...->il...", Acl, Acl, out=out)
            p.append(np.einsum("ii...->...", A2))
            if d > 2:
                p.append(np.einsum("ij...,ji...->...", A2, Acl))
        c = np.empty((d + 1,) + Acl.shape[2:])
        c[0] = 1.0
        for k in range(1, d + 1):
            s = c[k - 1] * p[0]
            for i in range(2, k + 1):
                s += c[k - i] * p[i - 1]
            c[k] = -s / k
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


def _doubled_sums(A, A2, X, M, T, AT, R, squared=False):
    """M = sum_{t<R} A^t X A^t' for (d, d, n) stacks, R >= 1 and X exactly
    symmetric, by binary doubling (Smith 1968): from X_1 = X,
    X_2n = X_n + A^n X_n A^n' and A^2n = A^n A^n, and each set bit of R,
    lowest first, folds in M <- X_n + A^n M A^n'. That takes O(log R)
    products where stepping takes R.

    X and M are kept transposed, so that every product but the squaring is
    the faster einsum spelling A B': (A Y A')' is A (A Y)', whose terms are
    those of (A Y) A' summed in the same order, so the floats are the same.
    A2 takes the squares; given squared, it holds A^2 already (the Schur-Cohn
    screen's). A, A2, X, M and AT are overwritten; M is returned, transposed
    back, in T."""
    first = True
    while True:
        if R & 1:
            if first:
                np.copyto(M, X)
                first = False
            else:
                np.einsum(_PRODUCT_T, A, M, out=T)
                np.einsum(_PRODUCT_T, A, T, out=M)
                M += X
        R >>= 1
        if not R:
            np.copyto(T, M.transpose(1, 0, 2))
            return T
        np.einsum(_PRODUCT_T, A, X, out=T)
        np.einsum(_PRODUCT_T, A, T, out=AT)
        X += AT
        if not squared:
            np.einsum(_PRODUCT, A, A, out=A2)
        squared = False
        A, A2 = A2, A


def _stepped_sums(F, W, Kp, x, R, S):
    """A chunk's (pairs, k) costs by stepping R times, its correlation sums
    added into S (pairs, d + m1, d + m1), for its gains Kp (pairs, k, m1, d)
    and initial states x (pairs, k, d). The state and the control share one
    (pairs, d + m1, k) array z = [x; u], so that x' = F z for
    F = [A - C L, -B], the stage cost z' W z for W = diag(Q - L'Rv L, Ru) and
    the correlation sum z z' each take one batched product."""
    pairs, k, d = x.shape
    K = np.ascontiguousarray(Kp.transpose(0, 2, 3, 1))  # (pairs, m1, d, k)
    z = np.empty((pairs, F.shape[2], k))
    z_next = np.empty_like(z)
    z[:, :d] = np.swapaxes(x, 1, 2)
    cost = np.zeros((pairs, k))
    for step in range(R):
        np.einsum("paik,pik->pak", K, z[:, :d], out=z[:, d:])
        cost += np.einsum("pik,pik->pk", z, W @ z)
        S += z @ np.swapaxes(z, 1, 2)
        if step + 1 < R:
            np.matmul(F, z, out=z_next[:, :d])
            z, z_next = z_next, z
    return cost


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
        self._key = self._fresh_state["state"]["key"]
        self._key[0] = self.seed & _MASK64
        self._gen = np.random.Generator(self._philox)
        self._chol = linalg.cholesky(game.Sigma0)

    def _generator(self, stream):
        """The engine's generator, re-keyed to draw what Generator(Philox(key=
        (seed, stream))) would; consume it before the next stream is keyed."""
        self._key[1] = int(stream) & _MASK64
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

    def _states(self, streams, first, n):
        """n initial states of each pair, (pairs, n, d), pair i's from stream
        streams[i]: its first n rows when first, else the next n rows of the
        stream keyed last, so a pair walked in several chunks gets the rows
        of draw_x0(k) on its stream."""
        z = np.empty((len(streams), n, self.game.d))
        for i, s in enumerate(streams):
            (self._generator(s) if first else self._gen).standard_normal(out=z[i])
        return self._x0(z)

    def _verdicts(self, Kp, Acl, L, rho_hat=None, A2=None):
        """Stability of a chunk's closed loops A - C L_p - B Kp[p, i], for its
        gains Kp (pairs, n, m1, d), its loops Acl (d, d, pairs, >= n) as
        _chunk_loops builds them, and L (pairs, m2, d). The Schur-Cohn test
        leaves Acl^2 in A2 when given (see _char_poly).

        Returns the (pairs, n) mask of rho < 1 - STABILITY_MARGIN and, given
        rho_hat, the (pairs, n) mask of loops whose radius the test cannot
        place below rho_hat (1 - 1e-12), else None. Up to SCREEN_MAX_DIM
        both come from the Schur-Cohn test on the loops' characteristic
        polynomials, above it from batched eigvals on loops built as
        _closed_loops builds them.
        """
        n = Kp.shape[1]
        s = 1.0 - linalg.STABILITY_MARGIN
        if self.game.d > SCREEN_MAX_DIM:
            rho = _eig_radii(self._closed_loops(Kp, L))
            return rho < s, None if rho_hat is None else rho > rho_hat
        coef = _char_poly(Acl, A2)
        near = None if rho_hat is None else ~_inside(coef, rho_hat * (1.0 - 1e-12))[:, :n]
        return _inside(coef, s)[:, :n], near

    def _walk(self, K, L, U, x0, R, rho_hat=None):
        """Screen and roll out P gain pairs of k trajectories each, chunk by
        chunk of _chunks; every estimate walks its trajectories here.

        Trajectory i of pair p runs the minimizer gain K[p] + U[p, i] against
        L[p], for K (P, m1, d), L (P, m2, d) and perturbations U
        (P, k, m1, d); with U None it runs K[p] itself, unscreened (k = 1).
        x0 holds the (P, k, d) initial states, or the P streams that pair p's
        are drawn from, as draw_x0(k) would draw them. Each chunk forms its
        gains and their trajectory-last copy once, and its closed loops
        where the Schur-Cohn screen or the doubling kernel reads them; it
        is screened (_verdicts), draws its initial states and is rolled out,
        by doubling (_doubled_sums) from R >= ROLLOUT_DOUBLING_R_PER_D2 * d^2
        on, else by stepping (_stepped_sums). The doubling works in six
        arrays of the chunk's size: the loops, their squares (left by the
        screen for 1 < d <= SCREEN_MAX_DIM), its transposed sums X and M and
        two products; the stage weights W go where X was once it is done.
        Every pair is computed alone, so its results do not depend on the
        stack.

        Returns the (P, k) costs, the (P, d, d) correlation sums over each
        pair's trajectories and steps, the largest radius of a single pair's
        loops given its probe radius rho_hat (estimate_inner's rho_max; else
        None) and None, or the first destabilizing gain as
        (pair, index, rho): the walk then rolls out only the pairs before
        it, and the results of the rest are meaningless.
        """
        g = self.game
        d, m1 = g.d, g.m1
        P, k = (len(K), 1) if U is None else U.shape[:2]
        doubling = R >= ROLLOUT_DOUBLING_R_PER_D2 * d ** 2
        F = _loop_offsets(g, L)
        Wbar = g.Q - np.swapaxes(L, 1, 2) @ g.Rv @ L
        if doubling:
            Wbar = Wbar.transpose(1, 2, 0)[..., None]
            S = np.zeros((d, d, P))
        else:
            Fz = np.concatenate([g.A - g.C @ L, np.broadcast_to(-g.B, (P, d, m1))], axis=2)
            Wz = np.zeros((P, d + m1, d + m1))
            Wz[:, :d, :d] = Wbar
            Wz[:, d:, d:] = g.Ru
            S = np.zeros((P, d + m1, d + m1))
        # the doubling kernel's six work arrays, the first for the loops and
        # the second for their squares; share: the Schur-Cohn screen leaves
        # the squares there, which the doubling takes as its first
        loops = doubling or (U is not None and d <= SCREEN_MAX_DIM)
        share = doubling and U is not None and 1 < d <= SCREEN_MAX_DIM
        work = np.empty((6 if doubling else 1,
                         d * d * max(2, min(P * k, ROLLOUT_SLICE_ENTRIES // d ** 2))))

        def form(p, Kp):  # the chunk's gains trajectory-last, its loops in work[0]
            Kt = _trajectory_last(Kp)
            if doubling and Kt.shape[2] * Kt.shape[3] == 1:
                # einsum sums over a lone (d, d, 1) stack in another
                # order; a copy of the trajectory keeps the usual one
                Kt = np.concatenate((Kt, Kt), -1)
            shape = (d, d) + Kt.shape[2:]
            arrays = [w[:d * d * Kt.shape[2] * Kt.shape[3]].reshape(shape) for w in work]
            if loops:
                _chunk_loops(g, F[:, :, p], Kt, out=arrays[0])
            return Kt, arrays

        cost = np.empty((P, k))
        near_gains, failure = [], None
        for p, t in _chunks(P, k, d):
            Kp = K[p, None] if U is None else K[p, None] + U[p, t]
            n = Kp.shape[1]
            Kt, arrays = form(p, Kp)
            squared = share
            if U is not None:
                stable, near = self._verdicts(Kp, arrays[0], L[p], rho_hat,
                                              arrays[1] if share else None)
                if near is not None:
                    near_gains.append(Kp[near])
                if not stable.all():
                    i = int(np.flatnonzero(~stable.all(axis=1))[0])
                    j = int(np.flatnonzero(~stable[i])[0])
                    rho = _eig_radii(self._closed_loops(Kp[i:i + 1, j:j + 1], L[p][i:i + 1]))
                    failure = (p.start + i, t.start + j, rho[0, 0])
                    if i == 0:
                        break
                    p, Kp = slice(p.start, p.start + i), Kp[:i]
                    Kt, arrays = form(p, Kp)
                    squared = False
            x = self._states(x0[p], t.start == 0, n) if np.ndim(x0) == 1 else x0[p, t]
            if doubling:
                x = np.ascontiguousarray(x.transpose(2, 0, 1))
                if Kt.shape[3] > n:
                    x = np.concatenate((x, x), -1)
                np.multiply(x[:, None], x[None], out=arrays[2])
                M = _doubled_sums(*(a.reshape(d, d, -1) for a in arrays), R, squared)
                M = M.reshape(arrays[0].shape)
                # the stage weights, where the doubling kept X
                W = np.einsum("aipk,ajpk->ijpk", Kt, np.einsum("ab,bjpk->ajpk", g.Ru, Kt),
                              out=arrays[2])
                W += Wbar[:, :, p]
                cost[p, t] = np.einsum("ijpk,ijpk->pk", W, M)[:, :n]
                S[:, :, p] += M[..., :n].sum(axis=-1)
            else:
                cost[p, t] = _stepped_sums(Fz[p], Wz[p], Kp, x, R, S[p])
            if failure is not None:
                break
        if doubling:
            S = S.transpose(2, 0, 1)
        rho_max = rho_hat
        if near_gains and sum(map(len, near_gains)):
            near = np.concatenate(near_gains)[None]
            rho_max = max(rho_hat, float(_eig_radii(self._closed_loops(near, L)).max()))
        return cost, S[:, :d, :d], rho_max, failure

    def _estimate(self, K, L, U, streams, R, r, rho_hat=None):
        """One-point (gradK, Sigma) estimates at the P pairs (K[p], L[p]) from
        the perturbations U (P, k, m1, d), pair p's initial states drawn from
        stream streams[p] (see _walk). Returns grad (n, m1, d), Sigma
        (n, d, d) and the (n, k) costs of the n pairs before the first with
        a destabilizing gain (n = P without one), rho_max as _walk returns
        it, and None or that gain's SampleError."""
        g = self.game
        k = U.shape[1]
        cost, S, rho_max, failure = self._walk(K, L, U, streams, R, rho_hat)
        n, error = len(K), None
        if failure is not None:
            n, i, rho = failure
            error = SampleError(f"perturbed gain {i} of {k} is destabilizing (rho = {rho:.6f}); "
                                f"shrink the smoothing radius r (currently {r:g}) or move to a "
                                "better-conditioned pair", index=i)
        grad = (g.m1 * g.d / (k * r * r)) * np.einsum("pk,pkij->pij", cost[:n], U[:n])
        Sigma = S[:n] / k
        return grad, 0.5 * (Sigma + np.swapaxes(Sigma, 1, 2)), cost[:n], rho_max, error

    def estimate_inner(self, K, L, m, R, r):
        """Zeroth-order (gradK, Sigma) estimate at (K, L) by perturbing K.

        The perturbations U come from the next stream and the initial states
        from the one after it, drawn chunk by chunk during the walk; both
        streams are taken first, so a SampleError leaves the engine where a
        finished estimate would."""
        _check_count("RolloutEngine.estimate_inner.m", m)
        _check_count("RolloutEngine.estimate_inner.R", R)
        _check_positive("RolloutEngine.estimate_inner.r", r)
        g = self.game
        K = linalg.as_matrix(K, g.m1, g.d, "K")[None]
        L = linalg.as_matrix(L, g.m2, g.d, "L")[None]
        stream = self._stream
        self._stream += 2
        U = _sphere(self._generator(stream), m, g.m1, g.d, r)[None]
        # rho_max: eigvals on a strided probe gives rho_hat, the screen places
        # most loops below it chunk by chunk, and eigvals decides the few it
        # cannot. That is exact unless a loop's eigvals and characteristic
        # polynomial disagree by more than 1e-12 relative, which takes
        # eigenvalues near a defective (Jordan) one.
        rho_hat = float(_eig_radii(self._closed_loops(K[:, None] + U[:, ::RHO_PROBE_STRIDE],
                                                      L)).max())
        grad, Sigma, cost, rho_max, error = self._estimate(K, L, U, [stream + 1], R, r, rho_hat)
        if error is not None:
            raise error
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
        bad = np.nonzero(~(rho < 1.0 - linalg.STABILITY_MARGIN))[0]
        if bad.size:
            i = int(bad[0])
            raise SampleError(
                f"perturbed maximizer gain {i} of {m} yields an unstable "
                f"inner response (rho = {rho[i]:.6f}); shrink r (currently {r:g})",
                index=i)
        if error is not None:
            raise error[1]
        costs, S, _, _ = self._walk(Ks, Ls, None, x0[:, None], R)
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
        U = np.empty((n, k, g.m1 * g.d))
        for j in range(steps):
            # every live solve's perturbations in one block, each drawn
            # from its own stream, as _sphere would draw it alone
            for i, s in enumerate(streams[:n]):
                self._generator(s + 2 * j).standard_normal(out=U[i])
            _to_sphere(U[:n], r)
            grad, Sigma, _, _, failure = self._estimate(K[:n], Ls[:n],
                                                        U[:n].reshape(n, k, g.m1, g.d),
                                                        streams[:n] + 2 * j + 1, R, r)
            if failure is not None:
                n = len(grad)
                error = (n, _at_inner_step(j, failure))
                if n == 0:
                    break
            K[:n], ok = _inner_update(g, K[:n], grad, Sigma, alpha, flavor)
            diverged = np.flatnonzero(~ok)
            if diverged.size:
                n = int(diverged[0])
                error = (n, _diverged(j))
                if n == 0:
                    break
        return K, error


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
            D = linalg.solve(est.Sigma, est.grad.T).T
        Lp, mapping, proj_active = outer_loop.projected_step(game, t, trace, L, D, eta, omega)
        trace.append(trace_row(game, t, L, est.cost_mean, est.grad, est.rho_max,
                               grad_map_norm=linalg.fro(mapping),
                               proj_active=proj_active))
        if t < T:
            L = Lp
    return L, trace
