"""Equilibrium solver against published benchmark values and closed forms."""

import numpy as np
import pytest
import scipy.linalg

import lqgames as lq

from conftest import no_saddle_game

# Benchmark equilibrium matrices for the two built-in cases (external oracle,
# frozen before the solver existed).
P1_EXPECTED = np.array([
    [23.7658, 16.8959, 0.0937],
    [16.8959, 18.4645, 0.1014],
    [0.0937, 0.1014, 1.0107],
])
P2_EXPECTED = np.array([
    [6.0173, 5.6702, -0.0071],
    [5.6702, 5.4213, -0.0067],
    [-0.0071, -0.0067, 0.0102],
])


def test_case1_equilibrium_regression(g1, nash1):
    assert np.max(np.abs(nash1.Pstar - P1_EXPECTED)) <= 5e-4
    assert nash1.value == pytest.approx(float(np.trace(nash1.Pstar @ g1.Sigma0)))
    assert nash1.residual <= 1e-9


def test_case2_equilibrium_regression(g2, nash2):
    assert np.max(np.abs(nash2.Pstar - P2_EXPECTED)) <= 5e-4
    assert nash2.residual <= 1e-9


def test_assumption_margins(g1, nash1, g2, nash2):
    rep1 = lq.check_assumptions(g1, nash1)
    rep2 = lq.check_assumptions(g2, nash2)
    assert rep1.ql_margin == pytest.approx(0.8739, abs=1e-3)
    assert rep2.ql_margin == pytest.approx(-0.0011, abs=5e-4)
    assert rep1.rv_margin > 0 and rep2.rv_margin > 0
    assert rep1.part_i_holds and rep1.part_ii_holds
    assert rep2.part_i_holds and not rep2.part_ii_holds


def test_equilibrium_is_stationary(g1, nash1):
    ev = lq.evaluate(g1, lq.PolicyPair(K=nash1.Kstar, L=nash1.Lstar))
    assert np.linalg.norm(ev.gradK, "fro") <= 1e-8
    assert np.linalg.norm(ev.gradL, "fro") <= 1e-8
    assert ev.rho < 1.0
    assert ev.cost == pytest.approx(nash1.value, abs=1e-10)


def test_zero_dynamics_closed_form():
    # with A = 0 the fixed point is P* = Q and both gains vanish
    g = lq.LqGame(
        A=np.zeros((3, 3)), B=[[1.0], [0.0], [0.0]], C=[[0.0], [1.0], [0.0]],
        Q=np.diag([2.0, 3.0, 1.0]), Ru=[[1.0]], Rv=[[4.0]],
        Sigma0=0.1 * np.eye(3))
    sol = lq.solve_gare(g)
    assert np.allclose(sol.Pstar, g.Q, atol=1e-12)
    assert np.allclose(sol.Kstar, 0.0, atol=1e-12)
    assert np.allclose(sol.Lstar, 0.0, atol=1e-12)


def test_tightening_tol_moves_solution_less_than_tol(g1):
    tol = 1e-8
    P_a = lq.solve_gare(g1, tol=tol).Pstar
    P_b = lq.solve_gare(g1, tol=tol / 10).Pstar
    assert np.linalg.norm(P_a - P_b, "fro") < tol


def random_game(rng, d, m1, m2):
    """Open-loop spectral radius 1.02 and a weak disturbance channel."""
    A = rng.standard_normal((d, d))
    A *= 1.02 / np.abs(np.linalg.eigvals(A)).max()
    return lq.LqGame(A=A, B=rng.standard_normal((d, m1)),
                     C=0.1 * rng.standard_normal((d, m2)) / np.sqrt(d),
                     Q=np.eye(d), Ru=np.eye(m1), Rv=np.eye(m2), Sigma0=np.eye(d))


def _rel(P, P_ref):
    return np.linalg.norm(P - P_ref, "fro") / np.linalg.norm(P_ref, "fro")


@pytest.mark.parametrize("d", [3, 10, 24, 40])
def test_riccati_solvers_match_scipy_on_random_games(d):
    # the GARE is a DARE with stacked input [B C] and weight diag(Ru, -Rv); the
    # inner equation is the DARE in (A - CL, B, Q - L'RvL, Ru)
    solved = 0
    for m1 in (1, 2, 3):
        for m2 in (1, 2, 3):
            game = random_game(np.random.default_rng([d, m1, m2]), d, m1, m2)
            try:
                P_ref = scipy.linalg.solve_discrete_are(
                    game.A, np.hstack([game.B, game.C]), game.Q,
                    scipy.linalg.block_diag(game.Ru, -game.Rv))
            except (ValueError, np.linalg.LinAlgError):
                # no stabilizing solution: the oracle must fail with a typed error
                with pytest.raises(lq.ConvergenceError):
                    lq.solve_gare(game)
                continue
            nash = lq.solve_gare(game)
            assert _rel(nash.Pstar, P_ref) <= 1e-10
            # a maximizer gain with Q - L'RvL >= I/2, pointing along L*
            L = nash.Lstar * min(0.5, 1.0 / (2.0 * max(np.linalg.norm(nash.Lstar, 2), 1e-12)))
            res = lq.solve_inner_riccati(game, L)
            P_in = scipy.linalg.solve_discrete_are(
                game.A - game.C @ L, game.B, game.Q - L.T @ game.Rv @ L, game.Ru)
            assert _rel(res.P, P_in) <= 1e-10
            solved += 1
    assert solved >= 7


def test_inner_riccati_solves_indefinite_qt_when_a_stabilizing_solution_exists():
    # Q - L'RvL has min eigenvalue about -20 at L = L*/2 on this draw; value
    # iteration from Qt failed here with DefinitenessError, doubling reaches
    # the stabilizing solution
    game = random_game(np.random.default_rng([24, 1, 3]), 24, 1, 3)
    L = 0.5 * lq.solve_gare(game).Lstar
    assert lq.game.qtilde_min(game, L) < -10.0
    res = lq.solve_inner_riccati(game, L)
    P_ref = scipy.linalg.solve_discrete_are(
        game.A - game.C @ L, game.B, game.Q - L.T @ game.Rv @ L, game.Ru)
    assert _rel(res.P, P_ref) <= 1e-10


def test_inner_riccati_takes_few_steps_where_fixed_point_steps_contract_slowly():
    # fixed-point steps of the inner map contract at about 0.85 per step on
    # this draw and took 56 (L*/2) and 89 (L*) iterations after the
    # doublings; Newton steps converge quadratically
    game = random_game(np.random.default_rng([24, 1, 3]), 24, 1, 3)
    Lstar = lq.solve_gare(game).Lstar
    for L in (0.5 * Lstar, Lstar):
        res = lq.solve_inner_riccati(game, L)
        assert res.iterations <= 12
        assert res.final_grad_norm <= 1e-9


def test_gare_on_a_near_marginal_game_matches_scipy():
    # an uncontrollable mode at 1 - 1e-6 gives ||P*|| ~ 5.7e5, and fixed-point
    # steps of the game map contract at about that rate
    game = lq.LqGame(A=[[1 - 1e-6, 0.0, 0.0], [0.3, 1.2, 0.1], [0.2, 0.0, 0.5]],
                     B=[[0.0], [1.0], [0.3]], C=[[0.0], [0.05], [0.1]],
                     Q=np.eye(3), Ru=np.eye(1), Rv=np.eye(1), Sigma0=np.eye(3))
    nash = lq.solve_gare(game)
    P_ref = scipy.linalg.solve_discrete_are(
        game.A, np.hstack([game.B, game.C]), game.Q, np.diag([1.0, -1.0]))
    assert nash.iterations <= 40
    assert _rel(nash.Pstar, P_ref) <= 1e-9


def test_json_round_trip(tmp_path, g1):
    path = tmp_path / "game.json"
    g1.save(path)
    g = lq.LqGame.load(path)
    for name in ("A", "B", "C", "Q", "Ru", "Rv", "Sigma0"):
        assert np.array_equal(getattr(g, name), getattr(g1, name))


def test_validation_rejects_bad_input():
    with pytest.raises(lq.NotSymmetricError):
        lq.LqGame(A=np.zeros((2, 2)), B=np.eye(2), C=np.eye(2),
                  Q=[[1.0, 0.5], [0.0, 1.0]], Ru=np.eye(2), Rv=np.eye(2),
                  Sigma0=np.eye(2))
    with pytest.raises(lq.DimensionError):
        lq.LqGame(A=np.zeros((2, 3)), B=np.eye(2), C=np.eye(2),
                  Q=np.eye(2), Ru=np.eye(2), Rv=np.eye(2), Sigma0=np.eye(2))
    with pytest.raises(ValueError):
        lq.LqGame(A=np.zeros((2, 2)), B=np.eye(2), C=np.eye(2),
                  Q=-np.eye(2), Ru=np.eye(2), Rv=np.eye(2), Sigma0=np.eye(2))


@pytest.mark.parametrize("case", ["nan_gain", "L0_shape", "P0_asymmetric", "Q_not_pd",
                                  "P0_nonfinite", "pair_shape"])
def test_public_boundaries_reject_bad_input(g1, case):
    # the kernels behind these entry points no longer check their arrays
    L = np.zeros((1, 3))
    calls = {
        "nan_gain": (ValueError, lambda: lq.PolicyPair(K=[[np.nan, 0.0, 0.0]], L=L)),
        "L0_shape": (lq.DimensionError,
                     lambda: lq.solve_nested(g1, np.zeros((2, 3)), lq.OuterConfig())),
        "P0_asymmetric": (lq.NotSymmetricError,
                          lambda: lq.solve_inner_riccati(g1, L, P0=np.triu(np.ones((3, 3))))),
        "Q_not_pd": (ValueError, lambda: lq.LqGame(A=g1.A, B=g1.B, C=g1.C, Q=-np.eye(3),
                                                   Ru=g1.Ru, Rv=g1.Rv, Sigma0=g1.Sigma0)),
        "P0_nonfinite": (ValueError,
                         lambda: lq.solve_inner_riccati(g1, L, P0=np.full((3, 3), np.nan))),
        "pair_shape": (lq.DimensionError,
                       lambda: lq.evaluate(g1, lq.PolicyPair(K=np.zeros((2, 3)), L=L))),
    }
    error, call = calls[case]
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("case", ["evaluate", "solve_inner_riccati", "solve_nested",
                                  "estimate_inner", "Ru_not_pd"])
def test_bad_input_values_raise_a_typed_value_error(g1, case):
    # InputError is an LqGamesError, and a ValueError for callers that catch that
    nan = np.array([[np.nan, 0.0, 0.0]])
    calls = {
        "evaluate": lambda: lq.evaluate(g1, lq.PolicyPair(K=nan, L=np.zeros((1, 3)))),
        "solve_inner_riccati": lambda: lq.solve_inner_riccati(g1, nan),
        "solve_nested": lambda: lq.solve_nested(g1, nan, lq.OuterConfig()),
        "estimate_inner": lambda: lq.RolloutEngine(g1, 0).estimate_inner(
            nan, np.zeros((1, 3)), 10, 10, 0.05),
        "Ru_not_pd": lambda: lq.LqGame(A=g1.A, B=g1.B, C=g1.C, Q=g1.Q, Ru=-g1.Ru,
                                       Rv=g1.Rv, Sigma0=g1.Sigma0),
    }
    with pytest.raises(lq.InputError) as exc:
        calls[case]()
    assert isinstance(exc.value, lq.LqGamesError) and isinstance(exc.value, ValueError)


def test_unchecked_pair_constructor_stays_private():
    # PolicyPair._trusted skips the boundary checks, for the package's own gains
    assert not any("trusted" in name for name in lq.__all__ + dir(lq))
    assert len(lq.__all__) == 54  # 53 names, then InputError


def test_open_loop_case1_is_unstable(g1):
    # the drift alone is unstable; stabilizing starts must come from a solve
    assert np.max(np.abs(np.linalg.eigvals(g1.A))) > 1.0


def test_game_data_is_immutable(g1):
    with pytest.raises(ValueError):
        g1.A[0, 0] = 0.0


def test_gare_without_a_saddle_point_raises_a_typed_error_and_no_warning():
    # pytest turns RuntimeWarnings into errors (pyproject.toml): an overflow
    # warning on the way would surface instead of the typed failure
    with pytest.raises(lq.ConvergenceError, match="non-finite iterate"):
        lq.solve_gare(no_saddle_game())


def test_gare_with_a_singular_m_raises_definiteness_error(monkeypatch):
    # at P = 2, M(P) = [[Ru + P, P], [P, -Rv + P]] = [[4, 2], [2, 1]] is singular
    game = lq.LqGame(A=[[0.5]], B=[[1.0]], C=[[1.0]], Q=[[1.0]], Ru=[[2.0]], Rv=[[1.0]],
                     Sigma0=[[1.0]])
    monkeypatch.setattr(lq.linalg, "solve_dare", lambda *a, **kw: (np.array([[2.0]]), 1))
    with pytest.raises(lq.DefinitenessError, match="M\\(P\\*\\) is singular"):
        lq.solve_gare(game)


def test_game_documents_name_what_they_lack():
    doc = lq.case1().to_json_dict()
    with pytest.raises(lq.InputError, match="got a list"):
        lq.LqGame.from_json_dict([doc])
    del doc["B"], doc["Sigma0"]
    with pytest.raises(lq.InputError, match=r"missing \['B', 'Sigma0'\]"):
        lq.LqGame.from_json_dict(doc)
