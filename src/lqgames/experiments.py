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
import os
import re
from dataclasses import dataclass, field

import numpy as np

from . import baselines, game as game_mod, inner_loop, linalg, modelfree, outer_loop, svgplot
from .errors import (ConfigError, ConvergenceError, LqGamesError, SampleError, _check_choice,
                     _check_count, _check_positive)
from .policy import PolicyPair
from .trace import OuterTrace, trace_row


def _field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


_BASELINE_KEYS = _field_names(baselines.BaselineConfig) | {"K0", "L0"}
# The model-free runners' own arguments, their defaults, and the runner's check.
_MODELFREE_ARGS = {
    "modelfree-inner": ({"steps": 20, "alpha": 0.05, "flavor": inner_loop.NATURAL_PG,
                         "tol": None}, modelfree._check_inner_args),
    "modelfree-outer": ({"T": 20, "eta": 0.05, "flavor": outer_loop.NG, "inner_steps": 10,
                         "inner_alpha": 0.05, "inner_flavor": inner_loop.NATURAL_PG},
                        modelfree._check_outer_args),
}
# The keys each solver kind reads besides "solver" and "name": the fields of
# its config dataclass plus the runner's own arguments. Any other key is
# rejected before a solver runs.
SPEC_KEYS = {
    "nested": _field_names(outer_loop.OuterConfig) | {"L0"},
    "ag": _BASELINE_KEYS,
    "gda": _BASELINE_KEYS,
    "modelfree-inner": _field_names(modelfree.EstimatorConfig) | {"L", "K0"}
    | set(_MODELFREE_ARGS["modelfree-inner"][0]),
    "modelfree-outer": _field_names(modelfree.EstimatorConfig) | {"L0", "projection"}
    | set(_MODELFREE_ARGS["modelfree-outer"][0]),
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

    def __post_init__(self):
        if not isinstance(self.game, str) or (self.game not in ("case1", "case2")
                                              and not os.path.exists(self.game)):
            raise ConfigError(f"ExperimentConfig.game: must be case1, case2 or a game file, "
                              f"got {self.game!r}")
        if self.zeta is not None:
            _check_positive("ExperimentConfig.zeta", self.zeta)
        _check_count("ExperimentConfig.seed", self.seed, least=0)
        if not isinstance(self.out, str):
            raise ConfigError(f"ExperimentConfig.out: must be a path, got {self.out!r}")
        if not isinstance(self.solvers, list):
            raise ConfigError(f"ExperimentConfig.solvers: must be a list, got {self.solvers!r}")
        seen = set()
        for spec in self.solvers:
            if not isinstance(spec, dict) or spec.get("solver") not in SOLVER_KINDS:
                raise ConfigError(f"each solver entry must be an object whose 'solver' is one "
                                  f"of {SOLVER_KINDS}, got {spec!r}")
            name = solver_name(spec)
            if name in seen:
                raise ConfigError(f"duplicate solver name {name!r}")
            seen.add(name)
            _check_keys(spec, SPEC_KEYS[spec["solver"]] | {"solver", "name"}, f"solver {name!r}")
            if spec["solver"] == "nested":
                inner = spec.get("inner", {})
                if not isinstance(inner, dict):
                    raise ConfigError(f"solver {name!r}: 'inner' must be an object")
                _check_keys(inner, _field_names(inner_loop.InnerConfig), f"solver {name!r} inner")
            try:  # build the solver's config now, so a bad value fails before any run
                _solver_config(spec, self.seed)
            except ConfigError as e:
                raise ConfigError(f"solver {name!r}: {e}") from None

    @classmethod
    def from_dict(cls, d, require_solvers=True):
        if not isinstance(d, dict):
            raise ConfigError("experiment config must be a JSON object")
        _check_keys(d, {"game", "solvers", "zeta", "seed", "out"}, "experiment config")
        cfg = cls(
            game=d.get("game", "case1"),
            solvers=d.get("solvers", []),
            zeta=_coerce(d.get("zeta"), float),
            seed=_coerce(d.get("seed", 0), int),
            out=d.get("out", "lqgames_out"),
        )
        if require_solvers and not cfg.solvers:
            raise ConfigError("config lists no solvers")
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
    _MODELFREE_ARGS, overridden by the spec's values, checked by the runner's
    own check."""
    defaults, check = _MODELFREE_ARGS[spec["solver"]]
    args = {key: _coerce(spec.get(key, value), float if value is None else type(value))
            for key, value in defaults.items()}
    check(**args)
    return args


def _coerce(value, kind):
    """A JSON number as the field's kind where that changes no value: 5.0 for
    an int field is 5, 1 (up to 2**53) for a float field 1.0. Anything else
    comes back as it is, for the config's own check to take or reject."""
    if kind is int and type(value) is float and value.is_integer():
        return int(value)
    if kind is float and type(value) is int and abs(value) <= 2 ** 53:
        return float(value)
    return value


def _config(base, spec, **fixed):
    """base with the spec's values for its fields, integral JSON numbers
    coerced to the field's int or float type, and then the fixed values."""
    given = {f.name: _coerce(spec[f.name], float if f.type == float | None else f.type)
             for f in dataclasses.fields(base) if f.name in spec and f.name not in fixed}
    return dataclasses.replace(base, **given, **fixed)


def _solver_config(spec, seed):
    """The config a solver spec makes, paired with the runner arguments for a
    model-free solver. Building them checks every value."""
    kind = spec["solver"]
    if kind == "nested":
        base = outer_loop.OuterConfig()
        return _config(base, spec, inner=_config(base.inner, spec.get("inner", {})))
    if kind in ("ag", "gda"):
        return _config(baselines.BaselineConfig(), spec)
    _check_choice(f"{kind}.projection", spec.get("projection", outer_loop.PROJECTION_OFF),
                  outer_loop.PROJECTIONS)
    return _config(modelfree.EstimatorConfig(seed=seed), spec), _modelfree_args(spec)


def solver_name(spec):
    base = spec.get("name")
    if not base:
        tag = spec.get("variant") or spec.get("flavor") or ""
        base = f"{spec['solver']}-{tag}" if tag else spec["solver"]
    return _NAME_RE.sub("-", str(base))


def load_game(source):
    """The built-in game case1 or case2, or the game in the file source. A file
    that cannot be read or does not hold a valid game is a ConfigError."""
    if source == "case1":
        return game_mod.case1()
    if source == "case2":
        return game_mod.case2()
    try:
        return game_mod.LqGame.load(source)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, LqGamesError) as e:
        raise ConfigError(f"ExperimentConfig.game: cannot load a game from {source}: "
                          f"{type(e).__name__}: {e}") from None


def _parse_gain(value, rows, cols, name, zero=False):
    """The spec's gain as a rows x cols matrix; when absent, zeros if zero, else None."""
    if value is None:
        return np.zeros((rows, cols)) if zero else None
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):  # not numbers, or ragged
        arr = None
    if arr is None or arr.shape != (rows, cols):
        raise ConfigError(f"{name}: must be a {rows} x {cols} matrix of numbers, got {value!r}")
    return arr


def _spec_gains(game, spec):
    """The gains a solver spec gives (K0, and L0 or L), checked against the
    game's shapes: an absent K0 is None, an absent L0 or L zeros. A gain
    of the wrong shape is a ConfigError naming the solver."""
    keys = [key for key in ("K0", "L0", "L") if key in SPEC_KEYS[spec["solver"]]]
    try:
        return {key: _parse_gain(spec.get(key), game.m1 if key == "K0" else game.m2, game.d,
                                 key, zero=key != "K0") for key in keys}
    except ConfigError as e:
        raise ConfigError(f"solver {solver_name(spec)!r}: {e}") from None


def _run_nested(game, gains, cfg, omega):
    _, trace = outer_loop.solve_nested(game, gains["L0"], cfg, omega)
    return trace


def _run_baseline(game, gains, cfg, kind):
    K0, L0 = gains["K0"], gains["L0"]
    if K0 is None:  # a stabilizing start: the best response to L0 (A may be unstable)
        K0 = inner_loop.solve_inner_riccati(game, L0).K
    run = baselines.run_ag if kind == "ag" else baselines.run_gda
    _, trace = run(game, PolicyPair(K=K0, L=L0), cfg)
    return trace


def _run_modelfree_inner(game, gains, cfg, args):
    L, K0 = gains["L"], gains["K0"]
    if K0 is None:
        K0 = inner_loop.solve_inner_riccati(game, L).K
    trace = OuterTrace(meta={"variant": f"modelfree-inner-{args['flavor']}"})
    margin = game_mod.qtilde_min(game, L)

    def record(j, K, est):
        rho = linalg.spectral_radius(game.A - game.B @ K - game.C @ L)
        trace.append(trace_row(game, j, L, est.cost_mean, est.grad, rho, K=K, margin=margin))

    try:
        modelfree.inner_ng_modelfree(game, L, K0, cfg, args["steps"], args["alpha"],
                                     flavor=args["flavor"], tol=args["tol"], record=record)
    except (SampleError, ConvergenceError) as e:
        e.trace = trace  # partial progress travels with the failure
        raise
    # converged: stopped because the estimated gradient norm met the tol
    trace.converged = (args["tol"] is not None and bool(trace.rows)
                       and trace.rows[-1].grad_norm <= args["tol"])
    return trace


def _run_modelfree_outer(game, spec, gains, omega, cfg, args):
    use_omega = omega if spec.get("projection") == outer_loop.PROJECTION_WHITENED_SV_CLIP else None
    # no tolerance: the run takes its T steps and does not claim convergence
    _, trace = modelfree.outer_ng_modelfree(game, gains["L0"], cfg, omega=use_omega, **args)
    return trace


def run_solver(game, spec, gains, omega, seed):
    """Run one solver spec on game from its checked gains (_spec_gains)."""
    kind = spec["solver"]
    cfg = _solver_config(spec, seed)
    if kind == "nested":
        return _run_nested(game, gains, cfg, omega)
    if kind in ("ag", "gda"):
        return _run_baseline(game, gains, cfg, kind)
    if kind == "modelfree-inner":
        return _run_modelfree_inner(game, gains, *cfg)
    return _run_modelfree_outer(game, spec, gains, omega, *cfg)


def _write_plots(out_dir, name, trace, summary):
    """Render the three standard plots of a trace and its summary dict."""
    ts = [r.t for r in trace.rows]
    oracle_value = summary.get("oracle_value")
    svgplot.line_plot(
        os.path.join(out_dir, f"{name}_cost.svg"),
        (name, ts, [r.cost for r in trace.rows]),
        title="Expected cost per outer iteration", xlabel="iteration t",
        ylabel="cost", hline=oracle_value, hline_label="oracle value")
    svgplot.line_plot(
        os.path.join(out_dir, f"{name}_gradmap.svg"),
        (name, ts, [r.grad_map_norm for r in trace.rows]),
        title="Gradient-mapping norm", xlabel="iteration t",
        ylabel="mapping norm", logy=True)
    zeta = summary.get("zeta")
    svgplot.line_plot(
        os.path.join(out_dir, f"{name}_qtilde.svg"),
        (name, ts, [r.lambda_min_qtilde for r in trace.rows]),
        title="Constraint margin along the run", xlabel="iteration t",
        ylabel="min eig(Q - L' Rv L)", hline=zeta,
        hline_label="zeta" if zeta is not None else None)


def run_experiment(cfg, out_dir=None, seed=None):
    """Run every solver in cfg and write artifacts. Returns the aggregate
    summary dict; solver errors are recorded there rather than raised."""
    out_dir = out_dir or cfg.out
    if seed is not None:
        _check_count("run_experiment.seed", seed, least=0)
    base_seed = cfg.seed if seed is None else seed
    gm = load_game(cfg.game)
    gains = [_spec_gains(gm, spec) for spec in cfg.solvers]  # before any solve or write
    nash = game_mod.solve_gare(gm)
    report = game_mod.check_assumptions(gm, nash)
    omega = outer_loop.OmegaSet.for_game(gm, zeta=cfg.zeta, nash=nash)
    os.makedirs(out_dir, exist_ok=True)

    nu = float(linalg.eigvalsh(outer_loop.w_matrix(gm, nash.Pstar))[0])

    solvers = {}
    failing = []
    for spec, spec_gains in zip(cfg.solvers, gains):
        name = solver_name(spec)
        try:
            trace = run_solver(gm, spec, spec_gains, omega, base_seed)
            trace.meta.setdefault("zeta", float(omega.zeta))
            trace.meta.setdefault("nu", nu)
            trace.write_csv(os.path.join(out_dir, f"{name}.csv"))
            solvers[name] = trace.write_summary(os.path.join(out_dir, f"{name}.json"),
                                                oracle_value=nash.value)
            _write_plots(out_dir, name, trace, solvers[name])
        except LqGamesError as e:
            solvers[name] = {"error": f"{type(e).__name__}: {e}", "converged": False}
            partial = getattr(e, "trace", None)
            if partial is not None:
                partial.write_csv(os.path.join(out_dir, f"{name}.csv"))
                solvers[name]["partial_rows"] = len(partial.rows)
        # failing: raised, or missed a tolerance it was given (a model-free
        # run has one only when its spec sets tol)
        has_tol = spec["solver"] not in _MODELFREE_ARGS or spec.get("tol") is not None
        if "error" in solvers[name] or (has_tol and not solvers[name]["converged"]):
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
