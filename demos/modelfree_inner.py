"""Sampled-data best response: drive K toward the Riccati answer from rollouts.

No model matrices reach the update. Each step draws m gains perturbed on a
Frobenius sphere of radius r, rolls every one out for R steps from sampled
initial states, and averages the costs into a smoothed gradient estimate.
The iterate error floors at the smoothing bias (about 4 r^2) plus sampling
noise, so with this budget expect to land near 0.1, not at zero; rerunning
with the same seed reproduces the numbers exactly.
"""
import argparse

import numpy as np

import lqgames as lq


def main():
    ap = argparse.ArgumentParser(description="zeroth-order inner solve on case 1")
    ap.add_argument("--m", type=int, default=20_000, help="rollouts per estimate")
    ap.add_argument("--steps", type=int, default=30)
    ap.add_argument("--alpha", type=float, default=0.06)
    ap.add_argument("--radius", type=float, default=0.1, help="smoothing radius r")
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()

    game = lq.case1()
    L = np.zeros((1, 3))
    K_star = lq.solve_inner_riccati(game, L).K
    K0 = K_star + np.array([[0.25, -0.2, 0.15]])
    print(f"target K* = {np.array2string(K_star, precision=4)}")
    print(f"start err = {np.linalg.norm(K0 - K_star):.4f}, "
          f"budget m={args.m} R=100 r={args.radius} alpha={args.alpha} seed={args.seed}")

    cfg = lq.EstimatorConfig(m=args.m, R=100, r=args.radius, seed=args.seed)

    def progress(j, K, est):
        if j % 5 == 0:
            print(f"  step {j:3d}: err {np.linalg.norm(K - K_star):.4f}, "
                  f"sampled cost {est.cost_mean:.4f}")

    K_T = lq.inner_ng_modelfree(game, L, K0, cfg, args.steps, args.alpha,
                                flavor=lq.PG, record=progress)
    print(f"final err = {np.linalg.norm(K_T - K_star):.4f} after {args.steps} steps")


if __name__ == "__main__":
    main()
