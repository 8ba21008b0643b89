"""Zero-sum linear-quadratic dynamic games by policy optimization.

Solves for the Nash equilibrium of

    x_{t+1} = A x_t + B u_t + C v_t,
    cost    = sum_t x_t' Q x_t + u_t' Ru u_t - v_t' Rv v_t,

over stationary feedback policies u = -Kx (minimizer) and v = -Lx
(maximizer), both by a generalized Riccati fixed point and by projected
nested-gradient policy optimization, with model-free (rollout-sampled)
variants and alternating-gradient / descent-ascent baselines.
"""

from .baselines import AG, GDA, BaselineConfig, run_ag, run_gda
from .errors import (ConfigError, ConvergenceError, DefinitenessError,
                     DimensionError, InputError, LqGamesError, NotSymmetricError,
                     SampleError, UnstableError)
from .game import (AssumptionReport, LqGame, NashSolution, case1, case2,
                   check_assumptions, solve_gare)
from .inner_loop import (GAUSS_NEWTON, NATURAL_PG, PG, RICCATI, InnerConfig,
                         InnerResult, solve_inner, solve_inner_riccati)
from .modelfree import (EstimatorConfig, GradEstimate, RolloutEngine,
                        estimate_grad_sigma, inner_ng_modelfree,
                        outer_ng_modelfree)
from .outer_loop import (GAUSS_NEWTON_NG, NATURAL_NG, NG, PROJECTION_OFF,
                         PROJECTION_WHITENED_SV_CLIP, OmegaSet,
                         OuterConfig, project_omega, solve_nested, w_matrix)
from .policy import (PolicyEval, PolicyPair, StationarityReport,
                     check_stationary, evaluate)
from .trace import OuterTrace, TraceRow, fit_log_slope

__version__ = "0.1.0"

__all__ = [
    "AG", "GDA", "BaselineConfig", "run_ag", "run_gda",
    "ConfigError", "ConvergenceError", "DefinitenessError", "DimensionError",
    "InputError", "LqGamesError", "NotSymmetricError", "SampleError", "UnstableError",
    "AssumptionReport", "LqGame", "NashSolution", "case1", "case2",
    "check_assumptions", "solve_gare",
    "GAUSS_NEWTON", "NATURAL_PG", "PG", "RICCATI", "InnerConfig",
    "InnerResult", "solve_inner", "solve_inner_riccati",
    "EstimatorConfig", "GradEstimate", "RolloutEngine", "estimate_grad_sigma",
    "inner_ng_modelfree", "outer_ng_modelfree",
    "GAUSS_NEWTON_NG", "NATURAL_NG", "NG", "OmegaSet", "OuterConfig",
    "PROJECTION_OFF", "PROJECTION_WHITENED_SV_CLIP",
    "project_omega", "solve_nested", "w_matrix",
    "PolicyEval", "PolicyPair", "StationarityReport", "check_stationary", "evaluate",
    "OuterTrace", "TraceRow", "fit_log_slope",
    "__version__",
]
