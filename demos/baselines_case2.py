"""Alternating-gradient and descent-ascent runs on the second benchmark.

Case 2 has a slightly negative constraint margin at the equilibrium, so it
sits outside the set the convergence guarantees cover. All methods still land
on the saddle point. The point of interest is the cost path: with a large
stepsize the simultaneous GDA update overshoots on the way in and the cost is
not monotone, while nested Gauss-Newton descends cleanly.
"""
import numpy as np

import lqgames as lq


def gains_error(pair, nash):
    return max(np.linalg.norm(pair.K - nash.Kstar), np.linalg.norm(pair.L - nash.Lstar))


def main():
    game = lq.case2()
    nash = lq.solve_gare(game)
    report = lq.check_assumptions(game, nash)
    print(f"oracle value {nash.value:.6f}, equilibrium margin {report.ql_margin:+.4f}")

    K0 = lq.solve_inner_riccati(game, np.zeros((1, 3))).K
    pi0 = lq.PolicyPair(K0, np.zeros((1, 3)))

    cfg = lq.OuterConfig(variant=lq.GAUSS_NEWTON_NG, tol=1e-7,
                         inner=lq.InnerConfig(method=lq.RICCATI, tol=1e-9))
    pair, trace = lq.solve_nested(game, np.zeros((1, 3)), cfg)
    print(f"nested GaussNewton : {trace.rows[-1].t} iterations, "
          f"gains error {gains_error(pair, nash):.2e}, monotone {trace.monotone_cost()}")

    ag = lq.BaselineConfig(flavor=lq.NATURAL_PG, eta=0.05,
                           inner_iters=5, tol=1e-7)
    pair, trace = lq.run_ag(game, pi0, ag)
    print(f"AG NaturalPG       : {trace.rows[-1].t} iterations, "
          f"gains error {gains_error(pair, nash):.2e}, monotone {trace.monotone_cost()}")

    for eta in (0.2, 0.5):
        gda = lq.BaselineConfig(flavor=lq.GAUSS_NEWTON, eta=eta, tol=1e-7)
        pair, trace = lq.run_gda(game, pi0, gda)
        print(f"GDA GaussNewton {eta}: {trace.rows[-1].t} iterations, "
              f"gains error {gains_error(pair, nash):.2e}, monotone {trace.monotone_cost()}")
        head = ", ".join(f"{r.cost:.6f}" for r in trace.rows[:6])
        print(f"    cost path head: {head}")


if __name__ == "__main__":
    main()
