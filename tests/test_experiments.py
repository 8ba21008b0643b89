"""Experiment runner, artifact files, and the command-line interface."""

import json
import math
import os

import numpy as np
import pytest

import lqgames as lq
from lqgames import cli, experiments, svgplot
from lqgames.trace import CSV_HEADER, OuterTrace, TraceRow

from conftest import no_saddle_game


def _write_config(path, d):
    with open(path, "w") as fh:
        json.dump(d, fh)
    return str(path)


def _read_trace_csv(path):
    """The rows of a trace CSV as TraceRows; the package only writes them."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == CSV_HEADER
    rows = []
    for line in lines[1:]:
        t, cost, gmap, grad, qmin, rho, active = line.split(",")
        rows.append(TraceRow(t=int(t), cost=float(cost), grad_map_norm=float(gmap),
                             grad_norm=float(grad), lambda_min_qtilde=float(qmin),
                             rho=float(rho), proj_active=bool(int(active))))
    return OuterTrace(rows=rows)


NESTED_GN = {"solver": "nested", "variant": "GaussNewtonNG", "tol": 1e-7}
GDA_NONMONO = {"solver": "gda", "flavor": "GaussNewton", "eta": 0.5, "tol": 1e-6}


# -- config validation (all rejected before any solver runs) ------------------

def test_config_rejects_unknown_keys():
    with pytest.raises(lq.ConfigError):
        experiments.ExperimentConfig.from_dict(
            {"game": "case1", "solvers": [NESTED_GN], "bogus": 1})
    # a key the solver kind does not read is rejected, not silently ignored
    for spec in ({"solver": "nested", "tolerance": 1e-9},
                 {"solver": "nested", "inner": {"tol_": 1e-9}},
                 {"solver": "nested", "inner": 1e-9},
                 {"solver": "ag", "etaa": 0.1},
                 {"solver": "gda", "stpes": 10},
                 {"solver": "gda", "variant": "NG"},
                 {"solver": "modelfree-inner", "stpes": 10},
                 {"solver": "modelfree-outer", "max_iter": 10},
                 {"solver": "modelfree-inner", "x0_dist": "gaussian"}):  # a removed option
        with pytest.raises(lq.ConfigError):
            experiments.ExperimentConfig.from_dict({"game": "case1", "solvers": [spec]})


def test_config_rejects_unknown_projection(tmp_path, capsys):
    # a misspelled mode must not run unprojected
    for kind in ("nested", "modelfree-outer"):
        spec = {"solver": kind, "projection": "WhitenedSVClip"}
        with pytest.raises(lq.ConfigError, match="projection"):
            experiments.ExperimentConfig.from_dict({"game": "case2", "solvers": [spec]})
    cfg = _write_config(tmp_path / "cfg.json", {
        "game": "case2",
        "solvers": [{"solver": "modelfree-outer", "projection": "WhitenedSVClip"}]})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "projection" in capsys.readouterr().err
    assert not out.exists()


def test_config_rejects_bad_modelfree_arguments(tmp_path, capsys):
    # one case per key of the model-free runners; each is a ConfigError
    # before any solver runs
    bad = [("modelfree-inner", "steps", 2.5), ("modelfree-inner", "steps", True),
           ("modelfree-outer", "T", 1.7), ("modelfree-outer", "inner_steps", -1),
           ("modelfree-inner", "alpha", -0.1), ("modelfree-outer", "eta", float("nan")),
           ("modelfree-outer", "inner_alpha", float("inf")), ("modelfree-inner", "tol", "1e-6"),
           ("modelfree-inner", "flavor", "GaussNewton"), ("modelfree-outer", "flavor", "PG"),
           ("modelfree-outer", "inner_flavor", "NaturalNG")]
    for kind, key, value in bad:
        spec = {"solver": kind, key: value}
        with pytest.raises(lq.ConfigError, match=key):
            experiments.ExperimentConfig.from_dict({"game": "case1", "solvers": [spec]})
    cfg = _write_config(tmp_path / "cfg.json", {
        "game": "case1", "solvers": [NESTED_GN, {"solver": "modelfree-inner", "alpha": -0.1}]})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "alpha" in capsys.readouterr().err
    assert not out.exists()
    # whole-number floats are step counts; the defaults fill the rest
    args = experiments._modelfree_args({"solver": "modelfree-outer", "T": 3.0, "eta": 1})
    assert args["T"] == 3 and type(args["T"]) is int and type(args["eta"]) is float
    assert args["inner_steps"] == 10 and args["inner_flavor"] == lq.NATURAL_PG


def test_config_rejects_spec_gains_of_the_wrong_shape(tmp_path, capsys, monkeypatch):
    # gains are checked against the game's shapes right after it loads:
    # exit 2 before the oracle is solved or the output directory is made
    monkeypatch.setattr(experiments.game_mod, "solve_gare", None)
    for spec, key in (({"solver": "nested", "L0": [[1, 2]]}, "L0"),
                      ({"solver": "ag", "K0": [[1, 2, 3], [4, 5, 6]]}, "K0"),
                      ({"solver": "gda", "L0": "zero"}, "L0"),
                      ({"solver": "modelfree-inner", "L": [[0, 0, 0, 0]]}, "L"),
                      ({"solver": "modelfree-outer", "L0": [[0], [0], [0]]}, "L0")):
        cfg = _write_config(tmp_path / "cfg.json", {"game": "case1",
                                                    "solvers": [NESTED_GN, spec]})
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"solver '{experiments.solver_name(spec)}': {key}: must be a" in err
        assert not out.exists()


def test_run_experiment_lets_foreign_errors_propagate(tmp_path, monkeypatch):
    # only the package's own errors are recorded as solver failures; a bare
    # numpy error is a defect and must fail loudly
    def broken(*args):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(experiments.outer_loop, "solve_nested", broken)
    cfg = experiments.ExperimentConfig.from_dict({"game": "case1", "solvers": [NESTED_GN]})
    with pytest.raises(np.linalg.LinAlgError):
        experiments.run_experiment(cfg, out_dir=str(tmp_path))


def test_modelfree_runs_report_convergence_truthfully(tmp_path):
    # modelfree-inner converges only on a tol it was given and met;
    # modelfree-outer has no tol, so it never claims convergence and fails
    # only by raising
    inner = {"solver": "modelfree-inner", "m": 64, "R": 30, "r": 0.05, "steps": 3,
             "alpha": 0.01, "flavor": "PG"}
    cfg = experiments.ExperimentConfig.from_dict({"game": "case2", "solvers": [
        dict(inner, name="no-tol"),
        dict(inner, name="tiny-tol", tol=1e-30),
        dict(inner, name="huge-tol", tol=1e30),
        {"solver": "modelfree-outer", "m": 8, "R": 20, "r": 0.02, "T": 1, "eta": 1e-4,
         "inner_steps": 1, "inner_alpha": 1e-3, "inner_flavor": "PG"}]})
    summary = experiments.run_experiment(cfg, out_dir=str(tmp_path))
    s = summary["solvers"]
    assert "error" not in s["modelfree-outer"]
    assert [s[n]["converged"] for n in ("no-tol", "tiny-tol", "huge-tol")] == [False, False, True]
    assert s["huge-tol"]["iters"] == 0 and s["tiny-tol"]["iters"] == 3
    assert not s["modelfree-outer"]["converged"]
    assert summary["failing"] == ["tiny-tol"]


def test_config_rejects_bad_solver_lists():
    with pytest.raises(lq.ConfigError):
        experiments.ExperimentConfig.from_dict({"game": "case1", "solvers": []})
    with pytest.raises(lq.ConfigError):
        experiments.ExperimentConfig.from_dict(
            {"game": "case1", "solvers": [{"variant": "NG"}]})
    with pytest.raises(lq.ConfigError):
        experiments.ExperimentConfig.from_dict(
            {"game": "case1", "solvers": [{"solver": "newton"}]})
    with pytest.raises(lq.ConfigError):
        experiments.ExperimentConfig.from_dict(
            {"game": "case1", "solvers": [NESTED_GN, dict(NESTED_GN)]})


def test_config_rejects_missing_or_broken_files(tmp_path):
    with pytest.raises(lq.ConfigError):
        experiments.ExperimentConfig.from_dict(
            {"game": str(tmp_path / "missing_game.json"), "solvers": [NESTED_GN]})
    with pytest.raises(lq.ConfigError):
        experiments.ExperimentConfig.load(str(tmp_path / "no_such_config.json"))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(lq.ConfigError):
        experiments.ExperimentConfig.load(str(broken))
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(lq.ConfigError):
        experiments.ExperimentConfig.load(str(listy))


def test_a_directly_built_config_is_checked_like_a_loaded_one():
    for solvers, match in (([NESTED_GN, dict(NESTED_GN)], "duplicate solver name"),
                           ([{"solver": "nested", "tolerance": 1e-9}], "unknown keys"),
                           ([{"solver": "newton"}], "'solver'"),
                           ([{"variant": "NG"}], "'solver'")):
        with pytest.raises(lq.ConfigError, match=match):
            experiments.ExperimentConfig(solvers=solvers)


_CASE1_DOC = lq.case1().to_json_dict()
MALFORMED_GAME_FILES = {
    "not-utf8": "\udcff",
    "not-json": "{not json",
    "missing-B": json.dumps({k: v for k, v in _CASE1_DOC.items() if k != "B"}),
    "top-level-list": json.dumps([_CASE1_DOC]),
    "strings": json.dumps(dict(_CASE1_DOC, B=[["a"], ["b"], ["c"]])),
    "ragged": json.dumps(dict(_CASE1_DOC, A=[[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]])),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GAME_FILES))
def test_cli_rejects_a_malformed_game_file_as_a_config_error(tmp_path, capsys, case):
    game = tmp_path / "game.json"
    game.write_text(MALFORMED_GAME_FILES[case], errors="surrogateescape")
    cfg = _write_config(tmp_path / "cfg.json", {"game": str(game), "solvers": [NESTED_GN]})
    out = tmp_path / "out"
    for cmd in ("run", "compare", "oracle"):
        argv = [cmd, "--config", cfg] + ([] if cmd == "oracle" else ["--out", str(out)])
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ExperimentConfig.game:") and str(game) in err
    assert not out.exists()


def test_cli_reports_a_failed_oracle_without_a_traceback(tmp_path, capsys):
    game = tmp_path / "game.json"
    no_saddle_game().save(game)  # the oracle fails
    cfg = _write_config(tmp_path / "cfg.json", {"game": str(game), "solvers": [NESTED_GN]})
    out = tmp_path / "out"
    for cmd in ("run", "compare", "oracle"):
        argv = [cmd, "--config", cfg] + ([] if cmd == "oracle" else ["--out", str(out)])
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ConvergenceError: riccati_doubling")
    assert not out.exists()


def test_config_reads_dataclass_defaults_and_coerces_numbers():
    spec = {"solver": "nested", "tol": 1, "max_iter": 5.0, "inner": {"max_iter": 7.0}}
    cfg = experiments._config(lq.OuterConfig(), spec,
                              inner=experiments._config(lq.OuterConfig().inner, spec["inner"]))
    assert cfg.tol == 1.0 and type(cfg.tol) is float
    assert cfg.max_iter == 5 and type(cfg.max_iter) is int
    assert cfg.inner == lq.InnerConfig(method=lq.RICCATI, tol=1e-8, max_iter=7)
    assert cfg.variant == lq.GAUSS_NEWTON_NG and cfg.eta is None


def _readme_block(lang):
    """The first fenced block of the README in the given language."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    return text.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_config_runs(tmp_path):
    cfg = experiments.ExperimentConfig.from_dict(json.loads(_readme_block("json")))
    summary = experiments.run_experiment(cfg, out_dir=str(tmp_path))
    assert summary["failing"] == []


def test_readme_quickstart_runs(capsys):
    # it ends on a sampled estimate at R = 300, which is not a power of two
    scope = {}
    exec(compile(_readme_block("python"), "README.md", "exec"), scope)
    assert scope["trace"].converged
    grad, Sigma = scope["grad"], scope["Sigma"]
    assert grad.shape == (1, 3) and np.all(np.isfinite(grad))
    assert np.array_equal(Sigma, Sigma.T) and np.linalg.eigvalsh(Sigma)[0] > 0.0


def test_solver_names_are_derived_and_sanitized():
    assert experiments.solver_name({"solver": "nested", "variant": "NG"}) == "nested-NG"
    assert experiments.solver_name({"solver": "gda", "flavor": "GaussNewton"}) == "gda-GaussNewton"
    assert experiments.solver_name({"solver": "ag", "name": "my run/2"}) == "my-run-2"


# -- artifacts ----------------------------------------------------------------

@pytest.fixture(scope="module")
def case2_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("case2_artifacts")
    cfg = experiments.ExperimentConfig.from_dict(
        {"game": "case2", "solvers": [NESTED_GN, GDA_NONMONO], "seed": 0})
    summary = experiments.run_experiment(cfg, out_dir=str(out))
    return str(out), summary


def test_aggregate_summary_schema(case2_run):
    out, summary = case2_run
    assert set(summary) == {"game", "zeta", "oracle", "solvers", "failing"}
    assert summary["game"] == "case2"
    assert summary["failing"] == []
    assert abs(summary["oracle"]["value"] - 0.34347) <= 1e-3
    assert summary["oracle"]["ql_margin"] < 0  # case2 sits outside Omega-bar
    assert summary["oracle"]["rv_margin"] > 0
    with open(os.path.join(out, "summary.json")) as fh:
        on_disk = json.load(fh)
    assert on_disk == summary


def test_nested_solver_reaches_oracle(case2_run):
    _, summary = case2_run
    s = summary["solvers"]["nested-GaussNewtonNG"]
    assert s["converged"]
    assert abs(s["gap_to_oracle"]) <= 1e-5
    assert s["monotone_cost"]


def test_gda_converges_without_monotonicity(case2_run):
    _, summary = case2_run
    s = summary["solvers"]["gda-GaussNewton"]
    assert s["converged"]
    assert abs(s["gap_to_oracle"]) <= 1e-5
    assert not s["monotone_cost"]


def test_per_solver_artifacts_exist(case2_run):
    out, summary = case2_run
    for name in summary["solvers"]:
        for suffix in (".csv", ".json", "_cost.svg", "_gradmap.svg", "_qtilde.svg"):
            assert os.path.exists(os.path.join(out, name + suffix)), name + suffix


def test_trace_csv_round_trip(case2_run):
    out, summary = case2_run
    path = os.path.join(out, "nested-GaussNewtonNG.csv")
    trace = _read_trace_csv(path)
    assert len(trace.rows) == summary["solvers"]["nested-GaussNewtonNG"]["iters"] + 1
    # repr-formatted floats reparse to the same doubles, so a rewrite is exact
    with open(path) as fh:
        original = fh.read()
    assert trace.to_csv() == original


def _assert_plots_match_reparsed_artifacts(out, names, tmp_path):
    # the runner plots from memory; the CSV and JSON it wrote must give the
    # same bytes, so no numpy scalar or unrounded value reaches the SVGs
    for name in names:
        with open(os.path.join(out, f"{name}.json")) as fh:
            summary = json.load(fh)
        again = tmp_path / name
        again.mkdir(parents=True)
        experiments._write_plots(str(again), name,
                                 _read_trace_csv(os.path.join(out, f"{name}.csv")), summary)
        for suffix in ("_cost.svg", "_gradmap.svg", "_qtilde.svg"):
            with open(os.path.join(out, name + suffix), "rb") as fh:
                assert fh.read() == (again / (name + suffix)).read_bytes(), name + suffix


def test_plots_match_the_reparsed_artifacts(case2_run, tmp_path):
    out, summary = case2_run
    _assert_plots_match_reparsed_artifacts(out, summary["solvers"], tmp_path / "case2")
    cfg = experiments.ExperimentConfig.from_dict({"game": "case1", "seed": 3, "solvers": [
        {"solver": "ag", "flavor": "NaturalPG", "eta": 0.05},
        {"solver": "modelfree-inner", "m": 200, "R": 40, "r": 0.05, "steps": 3,
         "alpha": 0.01, "flavor": "PG"},
        {"solver": "modelfree-outer", "m": 4, "R": 40, "r": 0.05, "T": 2, "eta": 1e-3,
         "inner_steps": 1, "inner_alpha": 1e-3, "inner_flavor": "PG",
         "projection": "WhitenedSvClip"}]})
    out1 = tmp_path / "case1"
    summary = experiments.run_experiment(cfg, out_dir=str(out1))
    assert all("error" not in s for s in summary["solvers"].values())
    _assert_plots_match_reparsed_artifacts(str(out1), summary["solvers"], tmp_path / "again")


def test_line_plot_draws_the_one_series_it_is_given(tmp_path):
    path = tmp_path / "plot.svg"
    svgplot.line_plot(str(path), ("run", [0, 1, 2, 3], [1.0, math.nan, -1.0, 0.01]),
                      logy=True)
    text = path.read_text()
    assert text.count("<polyline") == 1 and text.count(">run</text>") == 1
    # the NaN and the non-positive value have no place on a log axis
    points = text.split('points="')[1].split('"')[0].split()
    assert len(points) == 2


def _trace_of(costs, map_norms):
    return OuterTrace(rows=[TraceRow(t=t, cost=c, grad_map_norm=g, grad_norm=g,
                                     lambda_min_qtilde=1.0, rho=0.5, proj_active=False)
                            for t, (c, g) in enumerate(zip(costs, map_norms))])


def test_fitted_rate_leaves_out_gaps_at_roundoff():
    # the gap to the oracle halves for 15 steps, then sits at roundoff (1e-16
    # and 2e-16, below the floor of 64 eps max(1, |oracle|)): the fit sees
    # only the halving
    oracle = 0.25
    gaps = [0.5 ** t for t in range(15)] + [1e-16, 2e-16] * 5
    maps = [0.9 ** t for t in range(25)]
    summary = _trace_of([oracle + g for g in gaps], maps).summary(oracle_value=oracle)
    assert summary["fitted_local_rate"] == pytest.approx(math.log(0.5), rel=1e-9)
    # with fewer than two gaps above the floor the map norms give the rate
    summary = _trace_of([oracle + 0.5, oracle] + [oracle + 1e-16] * 5, maps[:7]).summary(
        oracle_value=oracle)
    assert summary["fitted_local_rate"] == pytest.approx(math.log(0.9), rel=1e-9)


@pytest.mark.parametrize("variant", [lq.NG, lq.NATURAL_NG])
def test_projected_runs_that_end_on_the_boundary_fit_their_mapping_norms(variant):
    # on case2 Omega excludes L*, so the gap to the oracle tends to a constant
    # (NG's rate fitted from it read -4.4e-11); on case1 the last row is
    # inside Omega and the rate still comes from the oracle gap
    for game, on_boundary in ((lq.case2(), True), (lq.case1(), False)):
        nash = lq.solve_gare(game)
        cfg = lq.OuterConfig(variant=variant, tol=1e-7,
                             projection=lq.PROJECTION_WHITENED_SV_CLIP)
        _, trace = lq.solve_nested(game, np.zeros((1, 3)),
                                   cfg, lq.OmegaSet.for_game(game, nash=nash))
        assert trace.rows[-1].proj_active == on_boundary
        rate = trace.summary(oracle_value=nash.value)["fitted_local_rate"]
        map_rate = lq.fit_log_slope(trace.map_norms())
        assert rate < 0.0 and (rate == map_rate) == on_boundary


def test_failed_modelfree_runs_leave_their_partial_traces(tmp_path):
    # at r = 0.75 a perturbed gain destabilizes the third inner iterate; at
    # eta = 0.1 the outer run's fourth L is one that the warm-started inner
    # gains no longer stabilize
    cfg = experiments.ExperimentConfig.from_dict({"game": "case1", "seed": 1, "solvers": [
        {"solver": "modelfree-inner", "m": 200, "R": 20, "r": 0.75, "steps": 6,
         "alpha": 0.05, "flavor": "PG"},
        {"solver": "modelfree-outer", "m": 8, "R": 20, "r": 0.05, "T": 3, "eta": 0.1,
         "inner_steps": 1, "inner_alpha": 1e-3, "inner_flavor": "PG"}]})
    summary = experiments.run_experiment(cfg, out_dir=str(tmp_path))
    assert sorted(summary["failing"]) == ["modelfree-inner-PG", "modelfree-outer"]
    for name, rows in (("modelfree-inner-PG", 2), ("modelfree-outer", 3)):
        entry = summary["solvers"][name]
        assert entry["error"].startswith("SampleError: inner step")
        assert entry["partial_rows"] == rows
        trace = _read_trace_csv(tmp_path / f"{name}.csv")
        assert [r.t for r in trace.rows] == list(range(rows))
        assert not (tmp_path / f"{name}.json").exists()


def test_reruns_are_byte_identical(case2_run, tmp_path):
    out_a, _ = case2_run
    cfg = experiments.ExperimentConfig.from_dict(
        {"game": "case2", "solvers": [NESTED_GN, GDA_NONMONO], "seed": 0})
    out_b = tmp_path / "again"
    experiments.run_experiment(cfg, out_dir=str(out_b))
    names_a = sorted(os.listdir(out_a))
    assert names_a == sorted(os.listdir(out_b))
    for name in names_a:
        with open(os.path.join(out_a, name), "rb") as fh:
            a = fh.read()
        with open(os.path.join(out_b, name), "rb") as fh:
            b = fh.read()
        assert a == b, f"{name} differs between reruns"


# -- command-line interface ----------------------------------------------------

def test_cli_oracle_text_and_json(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", {"game": "case1"})
    assert cli.main(["oracle", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "value tr(P* Sigma0) = 1.297" in text
    assert "holds" in text

    assert cli.main(["oracle", "--config", cfg, "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert set(rep) >= {"P", "K", "L", "value", "ql_margin", "rv_margin"}
    assert abs(rep["value"] - 1.29723) <= 1e-4


def test_cli_run_success_and_json(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json",
                        {"game": "case2", "solvers": [NESTED_GN]})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert "converged" in capsys.readouterr().out
    assert (out / "summary.json").exists()

    assert cli.main(["run", "--config", cfg, "--out", str(out), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["failing"] == []


def test_cli_flags_failing_solver(tmp_path, capsys):
    # iteration cap too small to converge: runner records the miss, exits 1
    cfg = _write_config(tmp_path / "cfg.json", {
        "game": "case2",
        "solvers": [{"solver": "nested", "variant": "NG", "eta": 0.1,
                     "tol": 1e-6, "max_iter": 3}]})
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "failing solvers" in captured.err


def test_cli_config_error_exit_code(tmp_path, capsys):
    rc = cli.main(["run", "--config", str(tmp_path / "absent.json")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "config error" in captured.err

    bad = _write_config(tmp_path / "bad.json", {"game": "case1", "solvers": []})
    assert cli.main(["compare", "--config", bad]) == 2


def test_cli_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_cli_compare_prints_table(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json",
                        {"game": "case2", "solvers": [NESTED_GN, GDA_NONMONO]})
    assert cli.main(["compare", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    text = capsys.readouterr().out
    assert "solver" in text and "status" in text and "gap" in text
    assert "nested-GaussNewtonNG" in text and "gda-GaussNewton" in text
    assert "converged" in text


def test_cli_seed_override_touches_only_sampled_solvers(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", {
        "game": "case2",
        "solvers": [
            NESTED_GN,
            {"solver": "modelfree-inner", "m": 64, "R": 30, "r": 0.05,
             "steps": 3, "alpha": 0.01},
        ]})
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli.main(["run", "--config", cfg, "--out", str(out1), "--seed", "1"]) == 0
    assert cli.main(["run", "--config", cfg, "--out", str(out2), "--seed", "2"]) == 0

    def read(d, name):
        with open(os.path.join(d, name), "rb") as fh:
            return fh.read()

    assert read(out1, "nested-GaussNewtonNG.csv") == read(out2, "nested-GaussNewtonNG.csv")
    assert read(out1, "modelfree-inner.csv") != read(out2, "modelfree-inner.csv")
