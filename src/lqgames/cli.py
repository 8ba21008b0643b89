"""Command-line interface.

Subcommands:
  oracle   solve the game's generalized Riccati equation and print the
           equilibrium gains, value, and assumption margins
  run      run the solvers listed in a config file and write traces,
           summaries, and SVG plots
  compare  run the solvers and print a side-by-side result table

All subcommands read a JSON config via --config. Exit codes: 0 success,
1 when any requested solver failed or missed its tolerance, or when the
package raised outside any solver (the GARE oracle, say), 2 for config
errors, a game file that cannot be loaded included.
"""

import argparse
import functools
import json
import sys

import numpy as np

from . import experiments
from .errors import ConfigError, LqGamesError


def _u64(text):
    v = int(text)
    if not 0 <= v < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return v


@functools.cache  # one parser per process, shared by every main() call
def build_parser():
    parser = argparse.ArgumentParser(
        prog="lqgames",
        description="Zero-sum linear-quadratic games by policy optimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_oracle = sub.add_parser("oracle", help="print the Riccati equilibrium and margins")
    p_oracle.add_argument("--config", required=True, help="experiment config (JSON)")
    p_oracle.add_argument("--json", action="store_true", help="machine-readable output")

    for name, help_text in (("run", "run configured solvers and write artifacts"),
                            ("compare", "run configured solvers and print a table")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=_u64, default=None, help="base seed (overrides config)")
        p.add_argument("--json", action="store_true", help="print the aggregate summary as JSON")

    return parser


def _mat(M):
    return np.array2string(np.asarray(M), precision=6, suppress_small=False,
                           separator=", ")


def cmd_oracle(args):
    cfg = experiments.ExperimentConfig.load(args.config, require_solvers=False)
    rep = experiments.oracle_report(cfg)
    if args.json:
        print(json.dumps(rep, indent=2, sort_keys=True))
        return 0
    print(f"game: {cfg.game}")
    print(f"P* =\n{_mat(rep['P'])}")
    print(f"K* = {_mat(rep['K'])}")
    print(f"L* = {_mat(rep['L'])}")
    print(f"value tr(P* Sigma0) = {rep['value']:.6f}")
    print(f"Riccati iterations = {rep['iterations']}, residual = {rep['residual']:.3e}")
    part_i = "holds" if rep["assumption_part_i"] else "violated"
    part_ii = "holds" if rep["assumption_part_ii"] else "violated"
    print(f"rv margin (min eig Rv - C'P*C) = {rep['rv_margin']:.6f}  [{part_i}]")
    print(f"ql margin (min eig Q - L*'Rv L*) = {rep['ql_margin']:.6f}  [{part_ii}]")
    return 0


def _fmt_cell(v):
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.3e}"
    return str(v)


def cmd_run(args, table=False):
    cfg = experiments.ExperimentConfig.load(args.config)
    summary = experiments.run_experiment(cfg, out_dir=args.out, seed=args.seed)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    elif table:
        headers = ("solver", "status", "iters", "final cost", "gap", "local rate")
        rows = [headers]
        for name, s in summary["solvers"].items():
            if "error" in s:
                rows.append((name, "ERROR", "-", "-", "-", "-"))
                continue
            status = "converged" if s.get("converged") else "cap hit"
            rows.append((name, status, str(s.get("iters")),
                         _fmt_cell(s.get("final_cost")), _fmt_cell(s.get("gap_to_oracle")),
                         _fmt_cell(s.get("fitted_local_rate"))))
        widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
        print(f"game {summary['game']}: oracle value {summary['oracle']['value']:.6f}")
        for i, row in enumerate(rows):
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
            if i == 0:
                print("  ".join("-" * w for w in widths))
    else:
        print(f"game {summary['game']}: oracle value {summary['oracle']['value']:.6f} "
              f"(ql margin {summary['oracle']['ql_margin']:.4f})")
        for name, s in summary["solvers"].items():
            if "error" in s:
                print(f"  {name}: FAILED ({s['error']})")
            else:
                status = "converged" if s.get("converged") else "iteration cap"
                print(f"  {name}: {status} after {s.get('iters')} iterations, "
                      f"final cost {_fmt_cell(s.get('final_cost'))}, "
                      f"gap {_fmt_cell(s.get('gap_to_oracle'))}")
        out_dir = args.out or cfg.out
        print(f"artifacts written to {out_dir}")
    if summary["failing"]:
        print(f"failing solvers: {', '.join(summary['failing'])}", file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "oracle":
            return cmd_oracle(args)
        if args.command == "run":
            return cmd_run(args)
        return cmd_run(args, table=True)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except LqGamesError as e:  # outside any solver: run_experiment records theirs
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
