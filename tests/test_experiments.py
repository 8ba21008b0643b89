"""Experiment runner, artifact files, and the command-line interface."""

import json
import os

import pytest

import lqgames as lq
from lqgames import cli, experiments
from lqgames.trace import OuterTrace


def _write_config(path, d):
    with open(path, "w") as fh:
        json.dump(d, fh)
    return str(path)


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
                 {"solver": "modelfree-outer", "max_iter": 10}):
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


def test_config_reads_dataclass_defaults_and_coerces_numbers():
    spec = {"solver": "nested", "tol": 1, "max_iter": 5.0, "inner": {"max_iter": 7.0}}
    cfg = experiments._config(lq.OuterConfig(), spec,
                              inner=experiments._config(lq.OuterConfig().inner, spec["inner"]))
    assert cfg.tol == 1.0 and type(cfg.tol) is float
    assert cfg.max_iter == 5 and type(cfg.max_iter) is int
    assert cfg.inner == lq.InnerConfig(method=lq.RICCATI, tol=1e-8, max_iter=7)
    assert cfg.variant == lq.GAUSS_NEWTON_NG and cfg.eta is None


def test_readme_config_runs(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = text.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = experiments.ExperimentConfig.from_dict(json.loads(block))
    summary = experiments.run_experiment(cfg, out_dir=str(tmp_path))
    assert summary["failing"] == []


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
    trace = OuterTrace.read_csv(path)
    assert len(trace.rows) == summary["solvers"]["nested-GaussNewtonNG"]["iters"] + 1
    # repr-formatted floats reparse to the same doubles, so a rewrite is exact
    with open(path) as fh:
        original = fh.read()
    assert trace.to_csv() == original


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
