"""Tests for the benchmark's own helpers: percentiles, latency summary,
interval union, and the layer tracer's self time and counters.

    python3 -m pytest perfbench
"""

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import benchstats  # noqa: E402
import run  # noqa: E402


def test_tail_leaves_ten_samples_beyond():
    xs = list(range(1, 26))  # 25 samples
    value, pct, n = benchstats.tail(reversed(xs))
    assert (value, n) == (15, 25)
    assert sum(x > value for x in xs) == benchstats.TAIL_BEYOND
    assert pct == pytest.approx(60.0)


def test_tail_of_small_sample_is_the_maximum():
    assert benchstats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        benchstats.tail([])


def test_latency_summary_is_robust_to_the_input_mix():
    # two inputs 100x apart; percentiles of the pooled sample would depend on
    # how many ops of each ran, the summary does not
    few = {"fast": [1.0] * 3, "slow": [100.0] * 20}
    many = {"fast": [1.0] * 20, "slow": [100.0] * 3}
    for samples in (few, many):
        s = benchstats.latency_summary(samples)
        assert s["p50"] == pytest.approx(10.0)
        assert s["tail"] == pytest.approx(10.0)
        assert s["n"] == 23 and s["inputs"] == 2


def test_latency_summary_tail_scales_with_jitter():
    samples = {"a": [1.0] * 35 + [2.0] * 5, "b": [5.0] * 35 + [10.0] * 5}
    s = benchstats.latency_summary(samples)
    assert s["p50"] == pytest.approx(5.0 ** 0.5)
    assert s["tail"] == pytest.approx(s["p50"])  # exactly ten ratios above 1
    samples["a"].append(2.0)
    assert benchstats.latency_summary(samples)["tail"] == pytest.approx(2 * 5.0 ** 0.5)


def test_union_length():
    assert benchstats.union_length([]) == 0.0
    assert benchstats.union_length([(0, 1), (2, 3)]) == 2
    assert benchstats.union_length([(0, 2), (1, 3)]) == 3
    assert benchstats.union_length([(0, 4), (1, 2), (3, 5)]) == 5


def test_quartile_spread():
    assert benchstats.quartile_spread([10.0] * 10) == 0.0
    assert benchstats.quartile_spread([1, 2, 3, 4, 5, 6, 7]) == pytest.approx(4 / 4)


def _traced(fn):
    import lqgames as lq
    from layertrace import LayerTracer
    tracer = LayerTracer(lq)
    originals = (lq.solve_gare, lq.game.solve_gare, lq.RolloutEngine.estimate_inner)
    tracer.install()
    try:
        tracer.op_begin()
        t0 = time.perf_counter()
        out = fn(lq)
        wall = time.perf_counter() - t0
        tracer.op_end("only")
    finally:
        tracer.uninstall()
    assert (lq.solve_gare, lq.game.solve_gare, lq.RolloutEngine.estimate_inner) == originals
    return tracer, out, wall


def test_self_times_add_up_to_the_root_span():
    import numpy as np

    def solve(lq):
        g = lq.case1()
        nash = lq.solve_gare(g)  # the re-export, not lqgames.game.solve_gare
        omega = lq.OmegaSet.for_game(g, nash=nash)
        cfg = lq.OuterConfig(projection=lq.PROJECTION_WHITENED_SV_CLIP)
        return nash, lq.solve_nested(g, np.zeros((1, 3)), cfg, omega)

    tracer, (nash, (_, trace)), wall = _traced(solve)
    st = tracer.stats
    assert st["game.solve_gare"].calls == 1
    assert st["game.solve_gare"].count == nash.iterations
    assert st["outer_loop.solve_nested"].count == len(trace.rows)
    assert st["policy.evaluate"].calls > 0
    assert st["linalg.solve_dlyap_transpose"].calls >= 2 * st["policy.evaluate"].calls
    total_self = sum(s.self_s for s in st.values())
    assert 0.5 * wall < total_self <= wall
    assert all(s.self_s >= 0.0 for s in st.values())
    assert tracer.warm_calls > 0 and tracer.warm_misses == 0
    metrics = tracer.metrics()
    assert metrics["inner_loop.warm_hit_frac"] == (1.0, "ratio")
    assert metrics["game.solve_gare.iterations"] == (nash.iterations, "count/op")
    assert metrics["modelfree.sample_error_frac"] == (0.0, "ratio")


def test_worker_thread_spans_are_children_of_the_runner(tmp_path):
    from lqgames import cli
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"game": "case1", "solvers": [
        {"solver": "nested", "variant": "GaussNewtonNG", "tol": 1e-7},
        {"solver": "gda", "flavor": "GaussNewton", "eta": 0.2}]}))
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
    tracer, rc, wall = _traced(lambda lq: cli.main(argv))
    assert rc == 0
    st = tracer.stats
    assert st["experiments.run_experiment"].calls == 1
    assert st["svgplot.line_plot"].calls == 6
    assert st["trace.write_csv"].calls == 2
    # the solvers' time is not counted as the runner's own
    assert st["experiments.run_experiment"].self_s < 0.5 * wall


def test_benchmark_json_matches_the_metric_lists():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    import workloads
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_layer_metrics_average_over_input_groups():
    import lqgames as lq
    from layertrace import LayerTracer
    tracer = LayerTracer(lq)
    evaluate = tracer.stats["policy.evaluate"]
    for group, calls in (("cheap", 10), ("cheap", 10), ("cheap", 10), ("dear", 1)):
        tracer.op_begin()
        evaluate.calls += calls
        tracer.op_end(group)
    # 10 calls per cheap op and 1 per dear op, however often each one ran
    assert tracer.metrics()["policy.evaluate.calls"] == (5.5, "count/op")
