"""Every config field and scalar entry-point argument rejects bad values with
an error that is both an LqGamesError and a ValueError and names the field."""

import json

import numpy as np
import pytest

import lqgames as lq
from lqgames import cli, experiments, outer_loop

NAN, INF = float("nan"), float("inf")
# bad values by the kind of field
POSITIVE = (NAN, INF, -INF, 0.0, -1.0, True, "1e-6")
NONNEGATIVE = (NAN, INF, -1.0, True, "0")
COUNT = (0, -1, 2.5, True, "5", NAN, None)  # counts that must be >= 1
COUNT0 = (-1, 2.5, True, "5", NAN, None)  # counts that may be 0

G = lq.case1()
L = np.zeros((1, 3))
K0 = lq.solve_inner_riccati(G, L).K
EST = lq.EstimatorConfig(m=8, R=10, r=0.05)


def _inner_mf(**kw):
    args = {"steps": 1, "alpha": 1e-3, "flavor": lq.PG, **kw}
    return lq.inner_ng_modelfree(G, L, K0, EST, **args)


def _outer_mf(**kw):
    args = {"T": 1, "eta": 1e-3, "inner_steps": 1, "inner_alpha": 1e-3, "inner_flavor": lq.PG,
            "K0": K0, **kw}
    return lq.outer_ng_modelfree(G, L, EST, **args)


def _estimate_inner(**kw):
    return lq.RolloutEngine(G, 0).estimate_inner(K0, L, **{"m": 8, "R": 10, "r": 0.05, **kw})


def _estimate_outer(**kw):
    args = {"m": 4, "R": 10, "r": 0.02, "inner_steps": 1, "inner_alpha": 1e-3,
            "inner_flavor": lq.PG, **kw}
    return lq.RolloutEngine(G, 0).estimate_outer(L, K0, **args)


# (owner as messages name it, a call taking the field as a keyword, {field: bad values})
TABLE = [
    ("InnerConfig", lq.InnerConfig, {
        "method": ("Newton", None), "alpha": POSITIVE + (0.6,), "tol": POSITIVE,
        "max_iter": COUNT}),
    ("OuterConfig", lq.OuterConfig, {
        "variant": ("GN", None), "eta": POSITIVE, "tol": POSITIVE, "max_iter": COUNT,
        "inner": ({"tol": 1e-9}, None), "projection": ("WhitenedSVClip", None)}),
    ("BaselineConfig", lq.BaselineConfig, {
        "flavor": (lq.RICCATI, None), "eta": POSITIVE,
        "inner_iters": COUNT, "max_outer": COUNT, "tol": POSITIVE, "inner_alpha": POSITIVE,
        "inner_tol": NONNEGATIVE}),
    ("EstimatorConfig", lq.EstimatorConfig, {
        "m": COUNT, "R": COUNT, "r": POSITIVE, "seed": COUNT0}),
    ("OmegaSet", lambda **kw: lq.OmegaSet(**{"zeta": 0.1, "M": 0.9 * np.eye(3), **kw}), {
        "zeta": POSITIVE, "M": (np.full((3, 3), NAN),)}),
    ("OmegaSet", lambda **kw: lq.OmegaSet.for_game(G, **kw), {"zeta": POSITIVE}),
    ("ExperimentConfig", experiments.ExperimentConfig, {
        "game": (5, "no_such_game.json"), "zeta": POSITIVE, "seed": COUNT0, "out": (5, None)}),
    ("solve_gare", lambda **kw: lq.solve_gare(G, **kw), {"tol": POSITIVE, "max_iter": COUNT}),
    ("solve_inner_riccati", lambda **kw: lq.solve_inner_riccati(G, L, **kw), {
        "tol": POSITIVE, "max_iter": COUNT}),
    ("check_stationary", lambda **kw: lq.check_stationary(
        G, lq.PolicyPair(K=K0, L=L), **{"tol": 1e-6, **kw}), {"tol": NONNEGATIVE}),
    ("RolloutEngine.estimate_inner", _estimate_inner, {"m": COUNT, "R": COUNT, "r": POSITIVE}),
    ("RolloutEngine.estimate_outer", _estimate_outer, {
        "m": COUNT, "R": COUNT, "r": POSITIVE, "inner_steps": COUNT0,
        "inner_alpha": POSITIVE, "inner_flavor": (lq.GAUSS_NEWTON, "NaturalNG")}),
    ("inner_ng_modelfree", _inner_mf, {
        "steps": COUNT0, "alpha": POSITIVE, "flavor": (lq.GAUSS_NEWTON, lq.RICCATI),
        "tol": POSITIVE}),
    ("outer_ng_modelfree", _outer_mf, {
        "T": COUNT0, "eta": POSITIVE, "flavor": (lq.PG, lq.GAUSS_NEWTON_NG),
        "inner_steps": COUNT0, "inner_alpha": POSITIVE, "inner_flavor": (lq.GAUSS_NEWTON,)}),
]
CASES = [pytest.param(owner, call, field, value, id=f"{owner}.{field}={value!r}"[:60])
         for owner, call, fields in TABLE
         for field, values in fields.items() for value in values]


@pytest.mark.parametrize("owner, call, field, value", CASES)
def test_bad_value_is_rejected_naming_the_field(owner, call, field, value):
    with pytest.raises(lq.LqGamesError) as exc:
        call(**{field: value})
    assert isinstance(exc.value, ValueError)
    assert f"{owner}.{field}" in str(exc.value)


@pytest.mark.parametrize("owner, call, _", TABLE, ids=[f"{t[0]}-{i}" for i, t in
                                                       enumerate(TABLE)])
def test_the_table_calls_accept_their_defaults(owner, call, _):
    # so each rejection above comes from the field's value, not the call around it
    call()


def test_solver_entry_points_name_their_bad_arguments(g1, nash1):
    om = lq.OmegaSet.for_game(g1, nash=nash1)
    pi0 = lq.PolicyPair(K=K0, L=L)
    bad = [
        (lambda: lq.OmegaSet.for_game(g1, zeta=0.9, nash=nash1), "OmegaSet.zeta"),
        (lambda: lq.solve_nested(g1, L, lq.OuterConfig(projection="WhitenedSvClip")),
         "solve_nested.omega"),
        (lambda: lq.solve_nested(g1, [[5.0, 0.0, 0.0]],
                                 lq.OuterConfig(projection="WhitenedSvClip"), om),
         "solve_nested.L0"),
        (lambda: experiments.run_experiment(experiments.ExperimentConfig(), seed=1.5),
         "run_experiment.seed"),
    ]
    for call, name in bad:
        with pytest.raises(lq.LqGamesError, match=name) as exc:
            call()
        assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("spec, field", [
    ({"max_iter": 2.5}, "OuterConfig.max_iter"),
    ({"max_iter": True}, "OuterConfig.max_iter"),
    ({"tol": "1e-6"}, "OuterConfig.tol"),
    ({"inner": {"max_iter": 7.5}}, "InnerConfig.max_iter"),
])
def test_cli_rejects_a_bad_nested_value_before_any_solver_runs(tmp_path, capsys, monkeypatch,
                                                               spec, field):
    ran = []
    monkeypatch.setattr(outer_loop, "solve_nested", lambda *a: ran.append(a))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"game": "case1", "solvers": [dict(spec, solver="nested")]}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert not ran and not out.exists()


def test_json_values_are_coerced_only_when_that_changes_no_value():
    for kind, spec, field in (("ag", {"max_outer": 2.5}, "BaselineConfig.max_outer"),
                              ("gda", {"eta": "0.1"}, "BaselineConfig.eta"),
                              ("modelfree-inner", {"m": 20.5}, "EstimatorConfig.m"),
                              ("modelfree-inner", {"seed": 1.5}, "EstimatorConfig.seed")):
        with pytest.raises(lq.ConfigError, match=field):
            experiments.ExperimentConfig.from_dict(
                {"game": "case1", "solvers": [dict(spec, solver=kind)]})
    for key, value in (("seed", 2.5), ("seed", "3"), ("zeta", "0.1")):
        with pytest.raises(lq.ConfigError, match=f"ExperimentConfig.{key}"):
            experiments.ExperimentConfig.from_dict({"game": "case1", key: value},
                                                   require_solvers=False)
    cfg = experiments.ExperimentConfig.from_dict({"seed": 3.0, "zeta": 1},
                                                 require_solvers=False)
    assert cfg.seed == 3 and type(cfg.seed) is int and type(cfg.zeta) is float
    # an integer too large for a float stays as it is, not an OverflowError
    huge = json.loads('{"solver": "gda", "tol": 1' + "0" * 400 + "}")
    cfg = experiments.ExperimentConfig.from_dict({"game": "case1", "solvers": [huge]})
    assert experiments._solver_config(cfg.solvers[0], cfg.seed).tol == 10 ** 400
