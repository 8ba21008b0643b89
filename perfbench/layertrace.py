"""Outside-in layer tracer for the lqgames benchmark.

install() replaces selected public functions of the package with timing
wrappers: on the module that defines each one, on every `lqgames.*`
re-export bound to the same object (`from .game import solve_gare` binds at
import time, so wrapping only the module would miss direct calls), and on
the classes for methods. uninstall() puts the originals back. Nothing is
wrapped unless install() is called, so untraced runs pay nothing.

Each call opens a span on a per-thread stack. A span's self time is its
duration minus the union of its children's intervals. A span opened on a
worker thread with an empty stack is adopted by the innermost open span of
the installing thread, so a thread pool's work counts as the child of the
call that started it rather than as idle self time of that call.

Counts come from arguments and public return values only:
NashSolution.iterations, InnerResult.iterations, len(OuterTrace.rows), and
the trajectory count m of estimate_inner.
"""

import importlib
import threading
import time
from collections import defaultdict

import numpy as np

from benchstats import union_length


def _iterations(args, kwargs, out):
    return out.iterations  # NashSolution / InnerResult


def _outer_iters(args, kwargs, out):
    return len(out[1].rows)  # (pair, OuterTrace)


def _samples(args, kwargs, out):
    # estimate_inner(self, K, L, m, R, r)
    return int(kwargs["m"] if "m" in kwargs else args[3])


# (layer name, owner path under lqgames, attribute, counter name, extractor)
TARGETS = (
    ("linalg.solve_dlyap_transpose", "linalg", "solve_dlyap_transpose", None, None),
    ("linalg.min_eigenvalue_sym", "linalg", "min_eigenvalue_sym", None, None),
    ("linalg.spectral_radius", "linalg", "spectral_radius", None, None),
    ("policy.evaluate", "policy", "evaluate", None, None),
    ("game.solve_gare", "game", "solve_gare", "iterations", _iterations),
    ("inner_loop.solve_inner_riccati", "inner_loop", "solve_inner_riccati",
     "iterations", _iterations),
    ("outer_loop.solve_nested", "outer_loop", "solve_nested", "outer_iters", _outer_iters),
    ("outer_loop.project_omega", "outer_loop", "project_omega", None, None),
    ("baselines.run_ag", "baselines", "run_ag", None, None),
    ("baselines.run_gda", "baselines", "run_gda", None, None),
    ("modelfree.estimate_inner", "modelfree.RolloutEngine", "estimate_inner",
     "samples", _samples),
    ("modelfree.estimate_outer", "modelfree.RolloutEngine", "estimate_outer", None, None),
    ("experiments.run_experiment", "experiments", "run_experiment", None, None),
    ("trace.write_csv", "trace.OuterTrace", "write_csv", None, None),
    ("trace.write_summary", "trace.OuterTrace", "write_summary", None, None),
    ("svgplot.line_plot", "svgplot", "line_plot", None, None),
)


class LayerStats:
    def __init__(self, counter):
        self.calls = 0
        self.self_s = 0.0
        self.errors = defaultdict(int)  # exception type name -> count
        self.counter = counter  # name of the extra count, or None
        self.count = 0


class LayerTracer:
    def __init__(self, lq):
        self.lq = lq
        self.stats = {name: LayerStats(counter) for name, _, _, counter, _ in TARGETS}
        self.warm_calls = 0
        self.warm_misses = 0
        self._lock = threading.Lock()  # worker threads update the same stats
        self._local = threading.local()
        self._owner_stack = None
        self._saved = []
        self._groups = {}  # input group -> totals charged to its traced ops
        self._before = None

    # -- installation -------------------------------------------------------

    def _owner(self, path):
        module, _, cls = path.partition(".")
        obj = importlib.import_module(f"{self.lq.__name__}.{module}")
        return getattr(obj, cls) if cls else obj

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._owner_stack = self._stack()
        for name, path, attr, _, extract in TARGETS:
            owner = self._owner(path)
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, extract)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, wrapper)
            for export, value in list(vars(self.lq).items()):
                if value is orig:
                    self._saved.append((self.lq, export, orig))
                    setattr(self.lq, export, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []

    # -- spans --------------------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, name, fn, extract):
        stats = self.stats[name]
        warm_track = name == "inner_loop.solve_inner_riccati"

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._owner_stack and stack is not self._owner_stack:
                parent = self._owner_stack[-1]
            else:
                parent = None
            if warm_track:
                self._before_inner(args, kwargs)
            children = []
            stack.append(children)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                self._close_span(stats, stack, parent, t0)
                with self._lock:
                    stats.errors[type(e).__name__] += 1
                if warm_track:
                    self._after_inner(args, kwargs, failed=True)
                raise
            self._close_span(stats, stack, parent, t0)
            if extract is not None:
                n = extract(args, kwargs, out)
                with self._lock:
                    stats.count += n
            if warm_track:
                self._after_inner(args, kwargs, failed=False)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _close_span(self, stats, stack, parent, t0):
        t1 = time.perf_counter()
        children = stack.pop()
        own = (t1 - t0) - union_length(children)
        with self._lock:
            stats.calls += 1
            stats.self_s += own
        if parent is not None:
            parent.append((t0, t1))

    # -- warm-start bookkeeping for solve_inner_riccati(game, L, ..., P0=None) --

    @staticmethod
    def _inner_args(args, kwargs):
        L = kwargs["L"] if "L" in kwargs else args[1]
        P0 = kwargs.get("P0", args[4] if len(args) > 4 else None)
        return np.asarray(L, dtype=float), P0

    def _before_inner(self, args, kwargs):
        L, P0 = self._inner_args(args, kwargs)
        last = getattr(self._local, "last_warm", None)
        self._local.last_warm = None
        if P0 is None and last is not None and not last[1]:
            # a cold solve at the same L right after a warm one: the warm
            # start fell back
            if last[0].shape == L.shape and np.array_equal(last[0], L):
                with self._lock:
                    self.warm_misses += 1

    def _after_inner(self, args, kwargs, failed):
        L, P0 = self._inner_args(args, kwargs)
        if P0 is None:
            return
        with self._lock:
            self.warm_calls += 1
            self.warm_misses += failed
        # (L, already counted as a miss)
        self._local.last_warm = (L.copy(), failed)

    # -- results ------------------------------------------------------------

    def totals(self):
        """Running totals as a flat dict, e.g. {"policy.evaluate.calls": 12}."""
        out = {"warm_calls": self.warm_calls, "warm_misses": self.warm_misses}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
            out[f"{name}.sample_errors"] = st.errors.get("SampleError", 0)
            if st.counter is not None:
                out[f"{name}.{st.counter}"] = st.count
        return out

    def op_begin(self):
        self._before = self.totals()

    def op_end(self, group):
        """Charge the totals since op_begin() to one op of the input group."""
        acc = self._groups.setdefault(group, defaultdict(float))
        for key, value in self.totals().items():
            acc[key] += value - self._before[key]
        acc["ops"] += 1

    def metrics(self):
        """Per-op layer metrics {name: (value, unit)}: each group's totals
        per op, averaged over groups. Like ops_per_s, this describes a pass
        running each input group once, so counts do not depend on how many
        times timing let a cheap input repeat."""
        if not self._groups:
            raise ValueError("no traced ops")
        per_op = defaultdict(float)
        for acc in self._groups.values():
            for key, value in acc.items():
                per_op[key] += value / acc["ops"] / len(self._groups)
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = (per_op[f"{name}.calls"], "count/op")
            out[f"{name}.self_s"] = (per_op[f"{name}.self_s"], "s/op")
            if st.counter is not None:
                out[f"{name}.{st.counter}"] = (per_op[f"{name}.{st.counter}"], "count/op")
        warm = per_op["warm_calls"]
        out["inner_loop.warm_hit_frac"] = (
            (warm - per_op["warm_misses"]) / warm if warm else 0.0, "ratio")
        est = ("modelfree.estimate_inner", "modelfree.estimate_outer")
        calls = sum(per_op[f"{n}.calls"] for n in est)
        errors = sum(per_op[f"{n}.sample_errors"] for n in est)
        out["modelfree.sample_error_frac"] = (errors / calls if calls else 0.0, "ratio")
        return out
