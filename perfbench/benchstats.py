"""Summary statistics for the benchmark: medians, tail percentiles, and the
interval arithmetic behind per-layer self time. Standard library only."""

import math
import statistics

# a tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, n). The value is the (n - TAIL_BEYOND)-th
    smallest sample, so exactly TAIL_BEYOND samples lie above it. With
    n <= TAIL_BEYOND no percentile qualifies and the maximum is returned as
    percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    k = n - TAIL_BEYOND
    return xs[k - 1], 100.0 * k / n, n


def geomean(values):
    values = list(values)
    if not values or min(values) <= 0.0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def latency_summary(samples):
    """Mixture-robust latency summary of ops grouped by input.

    samples maps each input group to its list of op latencies. A workload
    cycles inputs whose costs differ by orders of magnitude, so percentiles of
    the pooled latencies would jump between inputs as the op count changes.
    Instead:
      p50       = geometric mean over groups of each group's median latency;
      tail      = p50 times the tail percentile of latency / own-group
                  median, pooled over all ops (the slow-down at the tail);
      ops_per_s = throughput of a pass running each group once, each op
                  taking its group's median latency.
    Returns dict(p50, tail, tail_pct, n, inputs, ops_per_s).
    """
    medians = {k: statistics.median(v) for k, v in samples.items() if v}
    ratios = [x / medians[k] for k, v in samples.items() for x in v]
    p50 = geomean(medians.values())
    ratio, pct, n = tail(ratios)
    return {"p50": p50, "tail": p50 * ratio, "tail_pct": pct, "n": n,
            "inputs": len(medians), "ops_per_s": len(medians) / sum(medians.values())}


def union_length(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def quartile_spread(values):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
