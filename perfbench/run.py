"""lqgames benchmark: one closed-loop client process per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ./src. The
workload's inputs are made from --seed; the package sees only those inputs.
Each run does one whole pass over the workload's inputs, then further
passes until --seconds have elapsed (the last one cut short), checks every op's result outside the timed region, and prints one
line per metric (name, value, unit) followed, as the last line, by a JSON
object {"correct", "attempted", "failed", "metrics"}. Set-up time is the
median over this process and SETUP_REPEATS - 1 fresh ones (--setup-only),
each timed from the start of this script to the end of its warm-up op,
less the time the workload takes to make and verify its inputs (printed
separately as input_gen_s): it measures the package's import and first
calls, not the benchmark's own generator.

--trace 0 reports the end-to-end metrics (END_TO_END). --trace 1 runs every
op twice, untraced and traced, and reports the per-layer metrics (PER_LAYER)
from the traced ops, plus the tracing overhead from the pairs.
BLAS runs single-threaded, so results do not depend on the core count.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402  (after the thread settings above)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# setup is timed this many times per run (this process plus fresh children)
SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
)

PER_LAYER = (
    ("linalg.solve_dlyap_transpose.calls", "count/op"),
    ("linalg.solve_dlyap_transpose.self_s", "s/op"),
    ("linalg.min_eigenvalue_sym.calls", "count/op"),
    ("linalg.min_eigenvalue_sym.self_s", "s/op"),
    ("linalg.spectral_radius.calls", "count/op"),
    ("linalg.spectral_radius.self_s", "s/op"),
    ("policy.evaluate.calls", "count/op"),
    ("policy.evaluate.self_s", "s/op"),
    ("game.solve_gare.calls", "count/op"),
    ("game.solve_gare.iterations", "count/op"),
    ("game.solve_gare.self_s", "s/op"),
    ("inner_loop.solve_inner_riccati.calls", "count/op"),
    ("inner_loop.solve_inner_riccati.iterations", "count/op"),
    ("inner_loop.solve_inner_riccati.self_s", "s/op"),
    ("inner_loop.warm_hit_frac", "ratio"),
    ("outer_loop.solve_nested.outer_iters", "count/op"),
    ("outer_loop.solve_nested.self_s", "s/op"),
    ("outer_loop.project_omega.calls", "count/op"),
    ("outer_loop.project_omega.self_s", "s/op"),
    ("baselines.run_ag.self_s", "s/op"),
    ("baselines.run_gda.self_s", "s/op"),
    ("modelfree.estimate_inner.calls", "count/op"),
    ("modelfree.estimate_inner.samples", "count/op"),
    ("modelfree.estimate_inner.self_s", "s/op"),
    ("modelfree.estimate_outer.calls", "count/op"),
    ("modelfree.estimate_outer.self_s", "s/op"),
    ("modelfree.sample_error_frac", "ratio"),
    ("experiments.run_experiment.self_s", "s/op"),
    ("trace.write_csv.self_s", "s/op"),
    ("trace.write_summary.self_s", "s/op"),
    ("svgplot.line_plot.calls", "count/op"),
    ("svgplot.line_plot.self_s", "s/op"),
    ("tracing_overhead_frac", "ratio"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time; BENCHMARK.json fixes it as run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up, print the set-up time, exit")
    return p.parse_args(argv)


def machine_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout differs across numpy versions
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": git_commit(),
    }


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def child_setup_s(args):
    """(setup_s, input_gen_s) of a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed: {done.stderr.strip()[-500:]}")
    found = json.loads(done.stdout.strip().split("\n")[-1])
    return found["setup_s"], found["input_gen_s"]


class Loop:
    """Closed-loop client: one op at a time, results checked after each op.

    A pass visits the workload's inputs in a seeded order and repeats each
    input until SLICE_S has gone by (at least once), so cheap inputs get
    many samples and a burst of machine noise does not own any input's
    median.
    """

    SLICE_S = 0.25

    def __init__(self, wl, seed):
        self.wl = wl
        self.rng = np.random.default_rng([seed, 1])
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def op(self, key, samples):
        """Run, time and check one op; its seconds go to samples[group]."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.wl.run(key)
        except Exception as e:  # any op failure counts; the run goes on
            problem = f"{type(e).__name__}: {e}"
        else:
            dt = time.perf_counter() - t0
            problem = self.wl.check(key, out)
        if problem is None:
            samples[self.wl.group(key)].append(dt)
        else:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{key}: {problem}")

    def run_pass(self, samples, tracer=None, traced=None, deadline=math.inf):
        """One pass over the inputs, cut short between inputs at deadline.
        With a tracer, every op runs twice, untraced into samples and traced
        into traced, first one way round and then the other, so that machine
        drift hits both alike."""
        flip = False
        for key in self.wl.order(self.rng):
            t_slice = time.perf_counter()
            if t_slice >= deadline:
                return
            while True:
                if tracer is None:
                    self.op(key, samples)
                else:
                    for with_tracer in ((True, False) if flip else (False, True)):
                        if not with_tracer:
                            self.op(key, samples)
                            continue
                        tracer.install()
                        try:
                            tracer.op_begin()
                            self.op(key, traced)
                            tracer.op_end(self.wl.group(key))
                        finally:
                            tracer.uninstall()
                    flip = not flip
                if time.perf_counter() - t_slice >= self.SLICE_S:
                    break


def measure(loop, seconds):
    """Untraced passes until `seconds` have elapsed; end-to-end metrics."""
    import benchstats
    samples = defaultdict(list)
    deadline = time.perf_counter() + seconds
    loop.run_pass(samples)  # every input at least once
    while time.perf_counter() < deadline:
        loop.run_pass(samples, deadline=deadline)
    if not samples:
        raise RuntimeError("no op succeeded: " + "; ".join(loop.errors[:3]))
    lat = benchstats.latency_summary(samples)
    return {
        "ops_per_s": lat["ops_per_s"],
        "op_ms.p50": 1e3 * lat["p50"],
        "op_ms.tail": 1e3 * lat["tail"],
    }, lat, samples


def measure_traced(loop, seconds, lq):
    """Passes of paired untraced and traced ops; per-layer metrics."""
    import benchstats
    from layertrace import LayerTracer
    tracer = LayerTracer(lq)
    plain, traced = defaultdict(list), defaultdict(list)
    deadline = time.perf_counter() + seconds
    loop.run_pass(plain, tracer, traced)  # every input at least once
    while time.perf_counter() < deadline:
        loop.run_pass(plain, tracer, traced, deadline)
    if not plain or not traced:
        raise RuntimeError("no op succeeded: " + "; ".join(loop.errors[:3]))
    metrics = tracer.metrics()
    slowdown = (benchstats.latency_summary(plain)["ops_per_s"]
                / benchstats.latency_summary(traced)["ops_per_s"])
    metrics["tracing_overhead_frac"] = (slowdown - 1.0, "ratio")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lqgames", "__init__.py")):
        print(f"lqgames sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import lqgames as lq
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        t_gen = time.perf_counter()
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        gen_s = time.perf_counter() - t_gen
        loop = Loop(wl, args.seed)
        loop.op(wl.keys[0], defaultdict(list))  # warm-up: lazy imports, first calls
        setup_s = time.perf_counter() - _T0 - gen_s
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "input_gen_s": gen_s}))
            return 0

        timed = [(setup_s, gen_s)] + [child_setup_s(args) for _ in range(SETUP_REPEATS - 1)]
        setups = [s for s, _ in timed]
        info = {"machine": machine_info(), "workload": args.workload, "seed": args.seed,
                "setup_samples_s": setups,
                "input_gen_s": statistics.median(g for _, g in timed)}
        if getattr(wl, "rejected", None) is not None:
            info["rejected_draws"] = wl.rejected

        if args.trace:
            found = measure_traced(loop, args.seconds, lq)
            metrics = {name: found[name] for name, _ in PER_LAYER}
        else:
            found, lat, samples = measure(loop, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            found.update(setup_s=statistics.median(setups), peak_rss_mb=rss_mb)
            metrics = {name: (found[name], unit) for name, unit in END_TO_END}
            info["op_ms.tail_percentile"] = lat["tail_pct"]
            info["op_ms.samples"] = lat["n"]
            info["op_ms.groups"] = lat["inputs"]
            if hasattr(wl, "extra_metrics"):
                for name, (value, unit) in wl.extra_metrics(samples).items():
                    print(f"{name} = {value:.6g} {unit}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in loop.errors:
        print(f"FAILED {err}", file=sys.stderr)
    info["fail_frac"] = loop.failed / max(loop.attempted, 1)
    print(json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0 and loop.attempted > 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
