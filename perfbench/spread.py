"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 0-9]

Runs perfbench/run.py once per seed, one run at a time and each for
BENCHMARK.json's run_seconds, and prints for each end-to-end metric its
median, its quartile spread (Q3 - Q1) / median and its bound. A benchmark is steady when every spread except
that of setup_s stays well below its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from benchstats import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    values = {}
    failed = []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(done.stdout.strip().split("\n")[-1])
        failed.append(result["failed"])
        line = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.5g}")
        print(f"seed {seed}: correct={result['correct']} " + " ".join(line), flush=True)
    print(f"failed per run: {failed}")
    for m in bench["end_to_end"]:
        xs = values[m["name"]]
        spread = quartile_spread(xs) if len(xs) > 1 else 0.0
        print(f"{m['name']:>12}: median {statistics.median(xs):.5g} {m['unit']}, "
              f"spread {spread:.4f}, bound {m['bound']}")


if __name__ == "__main__":
    main()
