"""Experiment runner behind the CLI: load a config, run the selected solvers
against the GARE oracle, and write per-solver artifacts.

Each solver produces five files in the output directory: <name>.csv (the
iteration trace), <name>.json (the run summary, including the oracle gap),
and three SVG plots of the same trace and summary, rendered from memory:
cost vs t with the oracle value as a horizontal rule, gradient-mapping norm
vs t on a log scale, and the constraint margin min-eig(Q - L^T Rv L) vs t.
An experiment-level summary.json aggregates the per-solver summaries.

Reruns with the same config and seeds are byte-identical: no timestamps or
timing data reach the artifacts, float formatting is repr-based, and every
solver is deterministic given its seed.
"""

import dataclasses
import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from . import baselines, game as game_mod, inner_loop, linalg, modelfree, outer_loop, svgplot
from .errors import ConfigError, LqGamesError, SampleError
from .policy import PolicyPair
from .trace import OuterTrace, trace_row


def _field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


_BASELINE_KEYS = _field_names(baselines.BaselineConfig) - {"family"} | {"K0", "L0"}
# The model-free runners' own arguments and their defaults.
_MODELFREE_ARGS = {
    "modelfree-inner": {"steps": 20, "alpha": 0.05, "flavor": inner_loop.NATURAL_PG,
                        "tol": None},
    "modelfree-outer": {"T": 20, "eta": 0.05, "flavor": outer_loop.NG, "inner_steps": 10,
                        "inner_alpha": 0.05, "inner_flavor": inner_loop.NATURAL_PG},
}
_STEP_COUNTS = ("steps", "T", "inner_steps")
_FLAVORS = {
    ("modelfree-inner", "flavor"): (inner_loop.PG, inner_loop.NATURAL_PG),
    ("modelfree-outer", "flavor"): (outer_loop.NG, outer_loop.NATURAL_NG),
    ("modelfree-outer", "inner_flavor"): (inner_loop.PG, inner_loop.NATURAL_PG),
}
# The keys each solver kind reads besides "solver" and "name": the fields of
# its config dataclass plus the runner's own arguments. Any other key is
# rejected before a solver runs.
SPEC_KEYS = {
    "nested": _field_names(outer_loop.OuterConfig) | {"L0"},
    "ag": _BASELINE_KEYS,
    "gda": _BASELINE_KEYS,
    "modelfree-inner": _field_names(modelfree.EstimatorConfig) | {"L", "K0"}
    | set(_MODELFREE_ARGS["modelfree-inner"]),
    "modelfree-outer": _field_names(modelfree.EstimatorConfig) | {"L0", "projection"}
    | set(_MODELFREE_ARGS["modelfree-outer"]),
}
SOLVER_KINDS = tuple(SPEC_KEYS)

_NAME_RE = re.compile(r"[^A-Za-z0-9_.-]+")


@dataclass
class ExperimentConfig:
    game: str = "case1"
    solvers: list = field(default_factory=list)
    zeta: float | None = None
    seed: int = 0
    out: str = "lqgames_out"

    @classmethod
    def from_dict(cls, d, require_solvers=True):
        if not isinstance(d, dict):
            raise ConfigError("experiment config must be a JSON object")
        _check_keys(d, {"game", "solvers", "zeta", "seed", "out"}, "experiment config")
        cfg = cls(
            game=d.get("game", "case1"),
            solvers=list(d.get("solvers", [])),
            zeta=d.get("zeta"),
            seed=int(d.get("seed", 0)),
            out=d.get("out", "lqgames_out"),
        )
        if cfg.game not in ("case1", "case2") and not os.path.exists(cfg.game):
            raise ConfigError(f"game file not found: {cfg.game}")
        if require_solvers and not cfg.solvers:
            raise ConfigError("config lists no solvers")
        seen = set()
        for spec in cfg.solvers:
            if not isinstance(spec, dict) or "solver" not in spec:
                raise ConfigError("each solver entry must be an object with a 'solver' key")
            if spec["solver"] not in SOLVER_KINDS:
                raise ConfigError(f"unknown solver kind {spec['solver']!r}; "
                                  f"expected one of {SOLVER_KINDS}")
            name = solver_name(spec)
            if name in seen:
                raise ConfigError(f"duplicate solver name {name!r}")
            seen.add(name)
            _check_keys(spec, SPEC_KEYS[spec["solver"]] | {"solver", "name"}, f"solver {name!r}")
            if spec.get("projection", outer_loop.PROJECTION_OFF) not in outer_loop.PROJECTIONS:
                raise ConfigError(f"solver {name!r}: unknown projection {spec['projection']!r}; "
                                  f"expected one of {outer_loop.PROJECTIONS}")
            if spec["solver"] == "nested":
                inner = spec.get("inner", {})
                if not isinstance(inner, dict):
                    raise ConfigError(f"solver {name!r}: 'inner' must be an object")
                _check_keys(inner, _field_names(inner_loop.InnerConfig), f"solver {name!r} inner")
            if spec["solver"] in _MODELFREE_ARGS:
                _modelfree_args(spec)
        return cfg

    @classmethod
    def load(cls, path, require_solvers=True):
        try:
            with open(path) as fh:
                d = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
        return cls.from_dict(d, require_solvers=require_solvers)


def _check_keys(d, known, where):
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _modelfree_args(spec):
    """The runner arguments of a model-free solver spec: the defaults in
    _MODELFREE_ARGS, overridden by the spec's values once they are checked.
    Step counts are integers >= 0, stepsizes and tol finite and positive,
    flavors one of their kind's."""
    kind = spec["solver"]
    args = dict(_MODELFREE_ARGS[kind])
    for key in sorted(args.keys() & spec.keys()):
        value = spec[key]
        if (kind, key) in _FLAVORS:
            ok, want = value in _FLAVORS[kind, key], f"one of {_FLAVORS[kind, key]}"
        elif key == "tol" and value is None:
            ok = True
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            ok, want = False, "a number"
        elif key in _STEP_COUNTS:
            ok, want = float(value).is_integer() and value >= 0, "an integer >= 0"
            value = int(value) if ok else value
        else:
            ok, want = math.isfinite(value) and value > 0, "finite and positive"
            value = float(value)
        if not ok:
            raise ConfigError(f"solver {solver_name(spec)!r}: {key} must be {want}, "
                              f"got {value!r}")
        args[key] = value
    return args


def _has_tolerance(spec):
    """Whether a solver runs to a tolerance: all but the model-free ones do,
    and modelfree-inner does when it is given one."""
    if spec["solver"] in _MODELFREE_ARGS:
        return _modelfree_args(spec).get("tol") is not None
    return True


def _config(base, spec, **fixed):
    """base with the spec's values for its fields, JSON numbers coerced to the
    field's int or float type, and then the fixed values."""
    given = {}
    for f in dataclasses.fields(base):
        if f.name in spec and f.name not in fixed:
            value = spec[f.name]
            if value is not None and f.type is int:
                value = int(value)
            elif value is not None and f.type in (float, float | None):
                value = float(value)
            given[f.name] = value
    return dataclasses.replace(base, **given, **fixed)


def solver_name(spec):
    base = spec.get("name")
    if not base:
        tag = spec.get("variant") or spec.get("flavor") or ""
        base = f"{spec['solver']}-{tag}" if tag else spec["solver"]
    return _NAME_RE.sub("-", str(base))


def load_game(source):
    if source == "case1":
        return game_mod.case1()
    if source == "case2":
        return game_mod.case2()
    return game_mod.LqGame.load(source)


def _zeros_L(game):
    return np.zeros((game.m2, game.d))


def _parse_gain(value, rows, cols, name):
    if value is None:
        return None
    arr = np.asarray(value, dtype=float)
    if arr.shape != (rows, cols):
        raise ConfigError(f"{name} must have shape {(rows, cols)}, got {arr.shape}")
    return arr


def _default_pi0(game):
    # a stabilizing start: best response to L = 0 (A itself may be unstable)
    K0 = inner_loop.solve_inner_riccati(game, _zeros_L(game)).K
    return PolicyPair(K=K0, L=_zeros_L(game))


def _run_nested(game, spec, omega):
    base = outer_loop.OuterConfig()
    cfg = _config(base, spec, inner=_config(base.inner, spec.get("inner", {})))
    L0 = _parse_gain(spec.get("L0"), game.m2, game.d, "L0")
    if L0 is None:
        L0 = _zeros_L(game)
    _, trace = outer_loop.solve_nested(game, L0, cfg, omega)
    return trace


def _run_baseline(game, spec):
    family = baselines.AG if spec["solver"] == "ag" else baselines.GDA
    cfg = _config(baselines.BaselineConfig(), spec, family=family)
    K0 = _parse_gain(spec.get("K0"), game.m1, game.d, "K0")
    L0 = _parse_gain(spec.get("L0"), game.m2, game.d, "L0")
    if K0 is None and L0 is None:
        pi0 = _default_pi0(game)
    else:
        if L0 is None:
            L0 = _zeros_L(game)
        if K0 is None:
            K0 = inner_loop.solve_inner_riccati(game, L0).K
        pi0 = PolicyPair(K=K0, L=L0)
    run = baselines.run_ag if family == baselines.AG else baselines.run_gda
    _, trace = run(game, pi0, cfg)
    return trace


def _run_modelfree_inner(game, spec, seed):
    cfg = _config(modelfree.EstimatorConfig(seed=seed), spec)
    L = _parse_gain(spec.get("L"), game.m2, game.d, "L")
    if L is None:
        L = _zeros_L(game)
    K0 = _parse_gain(spec.get("K0"), game.m1, game.d, "K0")
    if K0 is None:
        K0 = inner_loop.solve_inner_riccati(game, L).K
    args = _modelfree_args(spec)
    trace = OuterTrace(meta={"variant": f"modelfree-inner-{args['flavor']}"})
    margin = game_mod.qtilde_min(game, L)

    def record(j, K, est):
        rho = linalg.spectral_radius(game.A - game.B @ K - game.C @ L)
        trace.append(trace_row(game, j, L, est.cost_mean, est.grad, rho, K=K, margin=margin))

    try:
        modelfree.inner_ng_modelfree(game, L, K0, cfg, args["steps"], args["alpha"],
                                     flavor=args["flavor"], tol=args["tol"], record=record)
    except SampleError as e:
        e.trace = trace  # partial progress travels with the failure
        raise
    # converged: stopped because the estimated gradient norm met the tol
    trace.converged = (args["tol"] is not None and bool(trace.rows)
                       and trace.rows[-1].grad_norm <= args["tol"])
    return trace


def _run_modelfree_outer(game, spec, omega, seed):
    cfg = _config(modelfree.EstimatorConfig(seed=seed), spec)
    L0 = _parse_gain(spec.get("L0"), game.m2, game.d, "L0")
    if L0 is None:
        L0 = _zeros_L(game)
    use_omega = omega if spec.get("projection") == outer_loop.PROJECTION_WHITENED_SV_CLIP else None
    # no tolerance: the run takes its T steps and does not claim convergence
    _, trace = modelfree.outer_ng_modelfree(game, L0, cfg, omega=use_omega,
                                            **_modelfree_args(spec))
    return trace


def run_solver(game, spec, omega, seed):
    kind = spec["solver"]
    if kind == "nested":
        return _run_nested(game, spec, omega)
    if kind in ("ag", "gda"):
        return _run_baseline(game, spec)
    if kind == "modelfree-inner":
        return _run_modelfree_inner(game, spec, seed)
    return _run_modelfree_outer(game, spec, omega, seed)


def _write_plots(out_dir, name, trace, summary):
    """Render the three standard plots of a trace and its summary dict."""
    ts = [r.t for r in trace.rows]
    oracle_value = summary.get("oracle_value")
    svgplot.line_plot(
        os.path.join(out_dir, f"{name}_cost.svg"),
        [(name, ts, [r.cost for r in trace.rows])],
        title="Expected cost per outer iteration", xlabel="iteration t",
        ylabel="cost", hline=oracle_value, hline_label="oracle value")
    svgplot.line_plot(
        os.path.join(out_dir, f"{name}_gradmap.svg"),
        [(name, ts, [r.grad_map_norm for r in trace.rows])],
        title="Gradient-mapping norm", xlabel="iteration t",
        ylabel="mapping norm", logy=True)
    zeta = summary.get("zeta")
    svgplot.line_plot(
        os.path.join(out_dir, f"{name}_qtilde.svg"),
        [(name, ts, [r.lambda_min_qtilde for r in trace.rows])],
        title="Constraint margin along the run", xlabel="iteration t",
        ylabel="min eig(Q - L' Rv L)", hline=zeta,
        hline_label="zeta" if zeta is not None else None)


def run_experiment(cfg, out_dir=None, seed=None):
    """Run every solver in cfg and write artifacts. Returns the aggregate
    summary dict; solver errors are recorded there rather than raised."""
    out_dir = out_dir or cfg.out
    base_seed = cfg.seed if seed is None else int(seed)
    gm = load_game(cfg.game)
    nash = game_mod.solve_gare(gm)
    report = game_mod.check_assumptions(gm, nash)
    omega = outer_loop.OmegaSet.for_game(gm, zeta=cfg.zeta, nash=nash)
    os.makedirs(out_dir, exist_ok=True)

    nu = float(np.linalg.eigvalsh(outer_loop.w_matrix(gm, nash.Pstar))[0])

    solvers = {}
    failing = []
    for spec in cfg.solvers:
        name = solver_name(spec)
        try:
            trace = run_solver(gm, spec, omega, base_seed)
            trace.meta.setdefault("zeta", float(omega.zeta))
            trace.meta.setdefault("nu", nu)
            trace.write_csv(os.path.join(out_dir, f"{name}.csv"))
            solvers[name] = trace.write_summary(os.path.join(out_dir, f"{name}.json"),
                                                oracle_value=nash.value)
            _write_plots(out_dir, name, trace, solvers[name])
        except (LqGamesError, np.linalg.LinAlgError, ValueError) as e:
            solvers[name] = {"error": f"{type(e).__name__}: {e}", "converged": False}
            partial = getattr(e, "trace", None)
            if partial is not None:
                partial.write_csv(os.path.join(out_dir, f"{name}.csv"))
                solvers[name]["partial_rows"] = len(partial.rows)
        # failing: raised, or missed a tolerance it was given
        if "error" in solvers[name] or (_has_tolerance(spec) and not solvers[name]["converged"]):
            failing.append(name)
    aggregate = {
        "game": cfg.game,
        "zeta": float(omega.zeta),
        "oracle": {
            "value": float(nash.value),
            "iterations": int(nash.iterations),
            "ql_margin": float(report.ql_margin),
            "rv_margin": float(report.rv_margin),
        },
        "solvers": solvers,
        "failing": failing,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(aggregate, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return aggregate


def oracle_report(cfg):
    """Machine-readable GARE oracle output for cfg's game."""
    gm = load_game(cfg.game)
    nash = game_mod.solve_gare(gm)
    report = game_mod.check_assumptions(gm, nash)
    return {
        "P": nash.Pstar.tolist(),
        "K": nash.Kstar.tolist(),
        "L": nash.Lstar.tolist(),
        "value": float(nash.value),
        "iterations": int(nash.iterations),
        "residual": float(nash.residual),
        "ql_margin": float(report.ql_margin),
        "rv_margin": float(report.rv_margin),
        "assumption_part_i": bool(report.part_i_holds),
        "assumption_part_ii": bool(report.part_ii_holds),
    }
