"""Per-iteration traces of the solvers, written out as CSV and JSON.

One schema serves the nested methods, the inner loop, the AG/GDA baselines,
and the model-free runs so downstream tooling (plots, comparisons) stays
uniform; every row is built by trace_row.
CSV columns are fixed; floats are written with repr so a rerun with the
same inputs produces byte-identical files.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .game import qtilde_min
from .linalg import fro

CSV_HEADER = "t,cost,grad_map_norm,grad_norm,lambda_min_qtilde,rho,proj_active"

RATE_FIT_WINDOW = 20
MONOTONE_SLACK = 1e-9
# Oracle gaps at or below GAP_FLOOR_EPS * eps * max(1, |oracle value|) are
# roundoff and stay out of the rate fit.
GAP_FLOOR_EPS = 64


@dataclass
class TraceRow:
    t: int
    cost: float
    grad_map_norm: float
    grad_norm: float
    lambda_min_qtilde: float
    rho: float
    proj_active: bool
    # in-memory extras, not serialized to CSV
    K: np.ndarray | None = None
    L: np.ndarray | None = None
    grad_k_norm: float | None = None


def trace_row(game, t, L, cost, grad, rho, grad_map_norm=None, proj_active=False,
              K=None, gradK=None, margin=None):
    """The row for iterate t at the gains (K, L).

    grad is the gradient of the player being updated. grad_map_norm defaults
    to ||grad||/2, the mapping norm of an unprojected plain-gradient step.
    margin is lambda_min(Q - L^T Rv L); loops over a fixed L pass it in
    rather than recompute it per row.
    """
    grad_norm = fro(grad)
    return TraceRow(
        t=t, cost=cost,
        grad_map_norm=0.5 * grad_norm if grad_map_norm is None else grad_map_norm,
        grad_norm=grad_norm,
        lambda_min_qtilde=qtilde_min(game, L) if margin is None else margin,
        rho=rho, proj_active=proj_active,
        K=None if K is None else K.copy(), L=L.copy(),
        grad_k_norm=None if gradK is None else fro(gradK))


def _f(x):
    # plain-float repr: shortest round-trippable decimal, numpy scalars unwrapped
    return repr(float(x))


@dataclass
class OuterTrace:
    rows: list[TraceRow] = field(default_factory=list)
    converged: bool = False
    meta: dict = field(default_factory=dict)

    def append(self, row):
        self.rows.append(row)

    def map_norms(self):
        return [r.grad_map_norm for r in self.rows]

    def to_csv(self):
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(",".join([
                str(r.t), _f(r.cost), _f(r.grad_map_norm), _f(r.grad_norm),
                _f(r.lambda_min_qtilde), _f(r.rho), str(int(r.proj_active)),
            ]))
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_csv())

    def monotone_cost(self, slack=MONOTONE_SLACK):
        """True if cost never drops by more than slack across unprojected steps."""
        for a, b in zip(self.rows, self.rows[1:]):
            if not a.proj_active and b.cost < a.cost - slack:
                return False
        return True

    def cesaro_constant(self):
        """sup_t of t x (running mean of squared mapping norms).

        t x mean over the first t rows equals the partial sum of squares, so
        the supremum is the full sum; it stays bounded exactly when the
        mapping norms are square-summable (the O(1/t) Cesaro property).
        """
        return float(sum(r.grad_map_norm ** 2 for r in self.rows))

    def summary(self, oracle_value=None):
        last = self.rows[-1] if self.rows else None
        gap = None
        rate = None
        if last is not None:
            if oracle_value is not None:
                gap = last.cost - float(oracle_value)
            # a run that ends on the boundary of Omega stops at its projected
            # fixed point, so its gap to the oracle tends to a constant: the
            # mapping norms give its rate
            if oracle_value is not None and not last.proj_active:
                # gaps at roundoff measure noise, not the rate: leave them out
                floor = GAP_FLOOR_EPS * np.finfo(float).eps * max(1.0, abs(float(oracle_value)))
                gaps = [abs(float(oracle_value) - r.cost) for r in self.rows]
                rate = fit_log_slope([v if v > floor else None for v in gaps])
            if rate is None:
                rate = fit_log_slope(self.map_norms())
        out = {
            "converged": bool(self.converged),
            "iters": int(last.t) if last is not None else 0,
            "final_cost": float(last.cost) if last is not None else None,
            "gap_to_oracle": gap,
            "fitted_local_rate": rate,
            "final_grad_map_norm": float(last.grad_map_norm) if last is not None else None,
            "monotone_cost": self.monotone_cost(),
            "cesaro_constant": self.cesaro_constant(),
        }
        if oracle_value is not None:
            out["oracle_value"] = float(oracle_value)
        for k, v in self.meta.items():
            out.setdefault(k, v)
        return out

    def write_summary(self, path, oracle_value=None):
        """Write summary(oracle_value) as JSON to path and return it."""
        out = self.summary(oracle_value=oracle_value)
        with open(path, "w") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return out


def fit_log_slope(values, window=RATE_FIT_WINDOW):
    """Least-squares slope of log(values) against iteration index over the
    trailing window. Non-positive and non-finite entries are skipped; returns
    None when fewer than two usable points remain."""
    pts = [(i, math.log(v)) for i, v in enumerate(values)
           if v is not None and math.isfinite(v) and v > 0.0]
    pts = pts[-window:]
    if len(pts) < 2:
        return None
    xs = np.array([p[0] for p in pts], dtype=float)
    ys = np.array([p[1] for p in pts], dtype=float)
    xs -= xs.mean()
    denom = float(xs @ xs)
    if denom == 0.0:
        return None
    return float(xs @ (ys - ys.mean()) / denom)
