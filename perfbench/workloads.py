"""The benchmark's three workloads: inputs made from the seed, the timed op,
and an independent check of every op's result.

A workload exposes `keys` (its distinct inputs), `order(rng)` (the inputs of
one pass, in run order), `group(key)` (the latency group an input belongs
to), `run(key)` (the timed call into the package) and `check(key, out)`
(returns None, or a message saying what is wrong). Checks run outside the
timed region.
"""

import contextlib
import io
import json
import os
import shutil
import statistics

import numpy as np

import lqgames as lq
from lqgames import cli, experiments

import benchstats

# ---------------------------------------------------------------------------
# independent reference checks (plain numpy, no package kernels)


def gare_check(game, nash, tol=1e-9):
    """Verify a claimed Nash solution through the game Riccati equation.

    Recomputes the GARE map at P* with the stacked input [B C] and the
    indefinite weight diag(Ru, -Rv), and requires: a small residual, gains
    equal to the ones that map produces, a stable closed loop, and the
    saddle curvature conditions Ru + B'PB > 0 and Rv - C'PC > 0. Returns
    None or a message.
    """
    A, B, C = game.A, game.B, game.C
    P = nash.Pstar
    m1 = B.shape[1]
    BC = np.hstack([B, C])
    Rbar = np.zeros((BC.shape[1], BC.shape[1]))
    Rbar[:m1, :m1] = game.Ru
    Rbar[m1:, m1:] = -game.Rv
    N = BC.T @ P @ A
    KL = np.linalg.solve(Rbar + BC.T @ P @ BC, N)
    Pn = game.Q + A.T @ P @ A - N.T @ KL
    scale = 1.0 + np.linalg.norm(P)
    res = np.linalg.norm(Pn - P) / scale
    if not res <= tol:
        return f"GARE residual {res:.3e} above {tol:g}"
    gain_err = max(np.abs(KL[:m1] - nash.Kstar).max(), np.abs(KL[m1:] - nash.Lstar).max())
    if not gain_err <= tol * scale:
        return f"gains differ from the Riccati map at P* by {gain_err:.3e}"
    rho = np.abs(np.linalg.eigvals(A - B @ nash.Kstar - C @ nash.Lstar)).max()
    if not rho < 1.0:
        return f"equilibrium closed loop unstable (rho {rho:.6f})"
    if np.linalg.eigvalsh(game.Ru + B.T @ P @ B)[0] <= 0.0:
        return "Ru + B'P*B is not positive definite"
    if np.linalg.eigvalsh(game.Rv - C.T @ P @ C)[0] <= 0.0:
        return "Rv - C'P*C is not positive definite"
    return None


def verified_nash(game):
    nash = lq.solve_gare(game)
    err = gare_check(game, nash)
    if err is not None:
        raise RuntimeError(f"oracle failed its independent check: {err}")
    return nash


class Workload:
    """Defaults: every pass runs each input once in a seeded random order,
    and each input is its own latency group."""

    keys = ()

    def order(self, rng):
        return [self.keys[i] for i in rng.permutation(len(self.keys))]

    def group(self, key):
        return key


def _close(a, b, tol):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.abs(a - b).max() <= tol * (1.0 + np.abs(b).max())


# ---------------------------------------------------------------------------
# exact-d3: the command line on the two built-in games

NESTED_TOL = 1e-7

EXACT_D3_SOLVERS = (
    {"solver": "nested", "variant": "GaussNewtonNG", "tol": NESTED_TOL,
     "projection": "WhitenedSvClip"},
    {"solver": "nested", "variant": "NaturalNG", "tol": NESTED_TOL,
     "projection": "WhitenedSvClip"},
    {"solver": "nested", "variant": "NG", "tol": NESTED_TOL,
     "projection": "WhitenedSvClip"},
    {"solver": "ag", "flavor": "NaturalPG", "eta": 0.05},
    {"solver": "gda", "flavor": "GaussNewton", "eta": 0.2},
    {"solver": "gda", "flavor": "NaturalPG", "eta": 0.05},
)
# The README's nested-GN + GDA pair, so the runner's worker pool runs. The
# README's third entry (modelfree-inner, NaturalPG at r=0.05) is left out: it
# fails with SampleError at inner step 8, a known defect.
README_PAIR = (EXACT_D3_SOLVERS[0], EXACT_D3_SOLVERS[4])

# Final costs of the projected nested runs on case2, where Omega excludes
# L*: each variant stops at its own projected fixed point (the whitened
# projection is not the projection in each variant's own metric), below the
# unconstrained value. Recorded from this benchmark's first version;
# test_workloads.py re-derives them as projected fixed points in plain numpy.
CASE2_PROJECTED_COST = {
    "nested-GaussNewtonNG": 0.3427970893351714,
    "nested-NaturalNG": 0.34279709169049666,
    "nested-NG": 0.3432728989471154,
}
# Final costs must match to COST_RTOL. At a saddle point the cost is stationary
# in the gains, so this holds only because each run also stops on a small
# gradient norm, checked below against the solver's own tol. The CLI writes
# no gains, so costs and stopping norms are what the artifacts can show.
COST_RTOL = 1e-10
BASELINE_TOL = 1e-6  # the tol the CLI gives AG and GDA configs without one


class ExactD3(Workload):
    """`lqgames run` (cli.main, in process) on case1 and case2, one config
    per op; artifacts must match the first run of the same config byte for
    byte."""

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.cli_seed = str(seed)
        self.nash = {g: verified_nash(getattr(lq, g)()) for g in ("case1", "case2")}
        self.configs = {}
        for game in ("case1", "case2"):
            for i, spec in enumerate(EXACT_D3_SOLVERS + (README_PAIR,)):
                solvers = list(spec) if isinstance(spec, tuple) else [spec]
                key = f"{game}-{i}"
                path = os.path.join(workdir, f"{key}.json")
                with open(path, "w") as fh:
                    json.dump({"game": game, "solvers": solvers}, fh)
                self.configs[key] = (game, path, solvers)
        # the cheapest config (case1, GDA GaussNewton) first: it is the warm-up
        self.keys = sorted(self.configs, key=lambda k: k != "case1-4")
        self.artifacts = {}
        self._runs = 0

    def run(self, key):
        _, path, _ = self.configs[key]
        self._runs += 1
        out_dir = os.path.join(self.workdir, f"out-{self._runs}")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["run", "--config", path, "--out", out_dir,
                           "--seed", self.cli_seed])
        return rc, out_dir

    def check(self, key, out):
        rc, out_dir = out
        try:
            return self._check(key, rc, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _check(self, key, rc, out_dir):
        if rc != 0:
            return f"lqgames run exited with {rc}"
        files = {}
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                files[name] = fh.read()
        first = self.artifacts.get(key)
        if first is not None:
            if files != first:
                diff = sorted(n for n in set(files) | set(first) if files.get(n) != first.get(n))
                return f"artifacts differ from the first run: {diff}"
            return None  # identical to a run that passed the checks below
        problem = self._check_results(key, files)
        if problem is None:
            self.artifacts[key] = files
        return problem

    def _check_results(self, key, files):
        game, _, solvers = self.configs[key]
        value = float(np.trace(self.nash[game].Pstar @ getattr(lq, game)().Sigma0))
        summary = json.loads(files["summary.json"])
        if summary["failing"]:
            return f"failing solvers {summary['failing']}"
        for spec in solvers:
            name = experiments.solver_name(spec)
            s = summary["solvers"][name]
            rows = [ln.split(",") for ln in files[f"{name}.csv"].decode().split("\n")[1:] if ln]
            final_cost = float(rows[-1][1])
            if final_cost != s["final_cost"]:
                return f"{name}: summary and trace disagree on the final cost"
            if not s["converged"]:
                return f"{name}: not converged"
            # the norm each solver stops on: the gradient map, or for GDA
            # ||gradL|| (its ||gradK|| is not written out)
            stop = float(rows[-1][3 if spec["solver"] == "gda" else 2])
            tol = spec.get("tol", BASELINE_TOL)
            if not stop <= tol:
                return f"{name}: final stopping norm {stop:.3e} above tol {tol:g}"
            if game == "case2" and spec.get("projection") == "WhitenedSvClip":
                margin = float(rows[-1][4])
                if margin < summary["zeta"] - 1e-9:
                    return f"{name}: final L outside Omega (margin {margin:.3e})"
                if final_cost > value + COST_RTOL * abs(value):
                    return f"{name}: projected cost {final_cost!r} above the game value {value!r}"
                ref = CASE2_PROJECTED_COST[name]
            else:
                ref = value
            if abs(final_cost - ref) > COST_RTOL * abs(ref):
                return f"{name}: final cost {final_cost!r}, expected {ref!r}"
        return None


# ---------------------------------------------------------------------------
# exact-large-d: seeded random games on either side of the Lyapunov switch

LARGE_DIMS = (24, 48)
LARGE_M1, LARGE_M2 = 2, 1
OPEN_LOOP_RHO = 1.02
# Equilibrium closed-loop spectral radius band. Op time follows the Lyapunov
# and Riccati iteration counts, which grow like 1/(1 - rho); the band keeps
# the inputs of different seeds comparable.
CLOSED_LOOP_RHO = (0.80, 0.90)
GAMES_PER_DIM = 12
GEN_GARE_MAX_ITER = 5000
GAIN_TOL = 1e-6


def random_game(rng, d):
    """A random game with open-loop spectral radius OPEN_LOOP_RHO."""
    A = rng.standard_normal((d, d))
    A *= OPEN_LOOP_RHO / np.abs(np.linalg.eigvals(A)).max()
    return lq.LqGame(
        A=A,
        B=rng.standard_normal((d, LARGE_M1)),
        C=0.1 * rng.standard_normal((d, LARGE_M2)) / np.sqrt(d),
        Q=np.eye(d), Ru=np.eye(LARGE_M1), Rv=np.eye(LARGE_M2), Sigma0=np.eye(d))


def draw_games(seed, per_dim=GAMES_PER_DIM):
    """per_dim games for each d in LARGE_DIMS, keeping only draws whose GARE
    solves, where check_assumptions holds on both parts, and whose
    equilibrium closed-loop radius lies in CLOSED_LOOP_RHO. Returns
    (games, rejected) with games as a list of (key, game, nash) and rejected
    counting the discarded draws by reason."""
    games, rejected = [], {}
    for d in LARGE_DIMS:
        rng = np.random.default_rng([seed, d])
        kept = 0
        while kept < per_dim:
            game = random_game(rng, d)
            try:
                nash = lq.solve_gare(game, max_iter=GEN_GARE_MAX_ITER)
            except lq.LqGamesError as e:
                rejected[type(e).__name__] = rejected.get(type(e).__name__, 0) + 1
                continue
            report = lq.check_assumptions(game, nash)
            if not (report.part_i_holds and report.part_ii_holds):
                reason = "assumption_part_i" if not report.part_i_holds else "assumption_part_ii"
                rejected[reason] = rejected.get(reason, 0) + 1
                continue
            err = gare_check(game, nash)
            if err is not None:
                raise RuntimeError(f"d={d} oracle failed its independent check: {err}")
            rho = np.abs(np.linalg.eigvals(game.A - game.B @ nash.Kstar
                                           - game.C @ nash.Lstar)).max()
            if not CLOSED_LOOP_RHO[0] <= rho <= CLOSED_LOOP_RHO[1]:
                rejected["closed_loop_rho"] = rejected.get("closed_loop_rho", 0) + 1
                continue
            games.append((f"d{d}-{kept}", game, nash))
            kept += 1
    return games, rejected


class ExactLargeD(Workload):
    """solve_gare, then projected nested GaussNewtonNG to tol 1e-7 with the
    default inner loop (Riccati, tol 1e-8); both gain pairs must match the
    verified (K*, L*).

    Known defect: with InnerConfig(method=RICCATI) at its own default tol
    1e-10, as in the README quickstart, some d=24 games fail with
    ConvergenceError (||gradK|| ~ 1.5e-10 after the Riccati solve)."""

    def __init__(self, seed, workdir):
        games, self.rejected = draw_games(seed)
        self.games = {key: (game, nash) for key, game, nash in games}
        self.keys = [key for key, _, _ in games]
        self.cfg = lq.OuterConfig(variant=lq.GAUSS_NEWTON_NG, tol=NESTED_TOL,
                                  projection=lq.PROJECTION_WHITENED_SV_CLIP)

    def run(self, key):
        game, _ = self.games[key]
        nash = lq.solve_gare(game)
        omega = lq.OmegaSet.for_game(game, nash=nash)
        pair, trace = lq.solve_nested(game, np.zeros((game.m2, game.d)), self.cfg, omega)
        return nash, pair, trace

    def check(self, key, out):
        _, ref = self.games[key]
        nash, pair, trace = out
        if not (_close(nash.Kstar, ref.Kstar, 1e-9) and _close(nash.Lstar, ref.Lstar, 1e-9)):
            return "solve_gare gains differ from the verified equilibrium"
        if not trace.converged:
            return f"nested solve did not converge in {len(trace.rows)} iterations"
        if not (_close(pair.K, ref.Kstar, GAIN_TOL) and _close(pair.L, ref.Lstar, GAIN_TOL)):
            return "nested gains differ from (K*, L*) beyond tolerance"
        return None


# ---------------------------------------------------------------------------
# modelfree: the batched estimator and one model-free outer step on case1

BATCH = {"m": 50_000, "R": 100, "r": 0.05}
OUTER = {"m": 50, "R": 100, "r": 0.02, "eta": 1e-3, "inner_steps": 5, "inner_alpha": 1e-3}
SEEDS_PER_KIND = 3
# Per-rollout cost has standard deviation about 1.26 times its mean on case1
# at (K(0), 0), so its root mean square is about 1.61 times the mean.
COST_RMS_OVER_MEAN = 1.65
N_SIGMA = 4.0
SIGMA_RTOL = 0.03
# Least norm of the outer estimate, in units of its noise sd. The noise is
# a sum of m random directions in m2*d = 3 dimensions, so its norm falls
# below this with probability about 1e-6.
OUTER_NORM_MIN = 0.01


class ModelFree(Workload):
    """Alternates `batch-estimate` (RolloutEngine.estimate_inner, m=5e4,
    R=100, r=0.05, at (K(0), 0)) with `outer-step` (one outer_ng_modelfree
    step, T=0, m=50, R=100, r=0.02, five PG inner steps at alpha=1e-3,
    eta=1e-3). Inputs are estimator seeds drawn from the workload seed.
    PG is used inside because NaturalPG inner steps at m <= 100 destabilize
    within the first three steps on seeds 0-2 (a known defect)."""

    def __init__(self, seed, workdir):
        self.game = lq.case1()
        self.L0 = np.zeros((self.game.m2, self.game.d))
        self.K0 = lq.solve_inner_riccati(self.game, self.L0).K
        self.exact = lq.evaluate(self.game, lq.PolicyPair(K=self.K0, L=self.L0))
        rng = np.random.default_rng([seed, 7])
        draws = rng.integers(0, 2 ** 63, size=2 * SEEDS_PER_KIND)
        self.keys = []
        for i in range(SEEDS_PER_KIND):
            self.keys += [("batch-estimate", int(draws[2 * i])),
                          ("outer-step", int(draws[2 * i + 1]))]
        self.first = {}

    def order(self, rng):
        return list(self.keys)  # the two kinds alternate

    def group(self, key):
        return key[0]  # the estimator seed does not change the work done

    def run(self, key):
        kind, est_seed = key
        g = self.game
        if kind == "batch-estimate":
            engine = lq.RolloutEngine(g, est_seed)
            return engine.estimate_inner(self.K0, self.L0, BATCH["m"], BATCH["R"], BATCH["r"])
        cfg = lq.EstimatorConfig(m=OUTER["m"], R=OUTER["R"], r=OUTER["r"], seed=est_seed)
        return lq.outer_ng_modelfree(g, self.L0, cfg, T=0, eta=OUTER["eta"],
                                     inner_steps=OUTER["inner_steps"],
                                     inner_alpha=OUTER["inner_alpha"],
                                     inner_flavor=lq.PG)

    def check(self, key, out):
        kind = key[0]
        if kind == "batch-estimate":
            blob = b"".join(np.ascontiguousarray(a).tobytes()
                            for a in (out.grad, out.Sigma, out.cost_mean, out.cost_std))
        else:
            L, trace = out
            blob = np.ascontiguousarray(L).tobytes() + trace.to_csv().encode()
        first = self.first.get(key)
        if first is not None:
            return None if blob == first else "seeded estimate not bit-identical to its first run"
        if kind == "batch-estimate":
            problem = self._check_batch(out, self.exact)
        else:
            problem = self._check_outer(out, self.exact)
        if problem is None:
            self.first[key] = blob
        return problem

    def extra_metrics(self, samples):
        """Modelfree-specific views of the same ops (printed, not gated)."""
        out = {}
        batch = samples.get("batch-estimate")
        if batch:
            steps = BATCH["m"] * BATCH["R"] * len(batch)
            out["rollout_steps_per_s"] = (steps / sum(batch), "1/s")
        outer = samples.get("outer-step")
        if outer:
            value, pct, n = benchstats.tail(outer)
            out["outer_step_s.p50"] = (statistics.median(outer), "s")
            out[f"outer_step_s.tail (p{pct:.0f} of {n})"] = (value, "s")
        return out

    def _check_batch(self, est, ex):
        m, r = BATCH["m"], BATCH["r"]
        dim = self.game.m1 * self.game.d
        # rms error of the one-point estimate: dim * rms(cost) / (r sqrt(m))
        sd = dim * COST_RMS_OVER_MEAN * ex.cost / (r * np.sqrt(m))
        err = np.linalg.norm(est.grad - ex.gradK)
        if not err <= N_SIGMA * sd:
            return f"gradK estimate off by {err:.3e} (allowed {N_SIGMA * sd:.3e})"
        cost_sd = COST_RMS_OVER_MEAN * ex.cost / np.sqrt(m)
        if not abs(est.cost_mean - ex.cost) <= N_SIGMA * cost_sd + 0.01 * ex.cost:
            return f"cost estimate {est.cost_mean!r} vs exact {ex.cost!r}"
        serr = np.linalg.norm(est.Sigma - ex.Sigma) / np.linalg.norm(ex.Sigma)
        if not serr <= SIGMA_RTOL:
            return f"Sigma estimate off by {serr:.3e} relative"
        return None

    def _check_outer(self, out, ex):
        L, trace = out
        m, r = OUTER["m"], OUTER["r"]
        if not np.array_equal(L, self.L0) or len(trace.rows) != 1:
            return "a T=0 outer run must return L0 and one trace row"
        row = trace.rows[0]
        dim = self.game.m2 * self.game.d
        sd = dim * COST_RMS_OVER_MEAN * ex.cost / (r * np.sqrt(m))
        # At m=50 the estimate is mostly noise: sd is about 140 ||gradL||, and
        # the norm fell between 0.17 sd and 1.8 sd over 80 seeds. The band
        # rejects only gross errors, such as a zero or runaway estimate; the
        # bit-identity check on repeats guards the rest.
        if not OUTER_NORM_MIN * sd <= row.grad_norm <= np.linalg.norm(ex.gradL) + N_SIGMA * sd:
            return f"gradL estimate norm {row.grad_norm:.3e} outside its noise band (sd {sd:.3e})"
        if not abs(row.cost - ex.cost) <= N_SIGMA * COST_RMS_OVER_MEAN * ex.cost / np.sqrt(m):
            return f"cost estimate {row.cost!r} vs exact {ex.cost!r}"
        if not 0.0 < row.rho < 1.0:
            return f"sampled closed loops not stable (rho_max {row.rho!r})"
        if not np.isfinite([row.grad_map_norm, row.lambda_min_qtilde]).all():
            return "non-finite trace entries"
        return None


WORKLOADS = {
    "exact-d3": ExactD3,
    "exact-large-d": ExactLargeD,
    "modelfree": ModelFree,
}
