"""Satisficing paths to Nash equilibrium in finite normal-form games.

The package models finite n-player games over mixed strategies, computes
deviation gaps and satisfaction reports, finds Nash equilibria of small
games by support enumeration, constructs and verifies satisficing paths
(profile sequences along which best-responding players never move), and
simulates win-stay lose-shift dynamics.
"""

from .errors import (
    GameFormatError,
    GameInputError,
    SolverIncompleteError,
    WorseSearchIncompleteError,
)
from .games import (
    DEFAULT_EPSILON,
    Game,
    MixedStrategy,
    SatisfactionReport,
    StrategyProfile,
    deviation_gap,
    expected_reward,
    is_eps_best_response,
    pure_action_payoffs,
    random_profile,
    satisfaction_report,
)
from .solver import (
    SolverConfig,
    SupportProfile,
    enumerate_supports,
    find_nash,
    find_subgame_nash,
    solve_on_support,
    verify_nash,
)
from .paths import (
    PathStep,
    PathVerification,
    SatisficingPath,
    WorseSearchConfig,
    build_w_xi,
    build_z_lambda,
    construct_path,
    find_worse_candidate,
    in_nob,
    in_worse,
    indifference_poly,
    is_accessible,
    verify_path,
    zero_poly_check,
)
from .dynamics import (
    DYNAMICS_EPSILON,
    ExplorerPolicy,
    Trajectory,
    batch_experiment,
    run_dynamics,
    satisficing_step,
)
from .gameio import (
    ParsedTrace,
    emit_path,
    game_document,
    generate_random_game,
    load_game,
    parse_game_document,
    read_trace,
    save_game,
)

__all__ = [
    "DEFAULT_EPSILON",
    "DYNAMICS_EPSILON",
    "ExplorerPolicy",
    "Game",
    "GameFormatError",
    "GameInputError",
    "MixedStrategy",
    "ParsedTrace",
    "PathStep",
    "PathVerification",
    "SatisfactionReport",
    "SatisficingPath",
    "SolverConfig",
    "SolverIncompleteError",
    "StrategyProfile",
    "SupportProfile",
    "Trajectory",
    "WorseSearchConfig",
    "WorseSearchIncompleteError",
    "batch_experiment",
    "build_w_xi",
    "build_z_lambda",
    "construct_path",
    "deviation_gap",
    "emit_path",
    "enumerate_supports",
    "expected_reward",
    "find_nash",
    "find_subgame_nash",
    "find_worse_candidate",
    "game_document",
    "generate_random_game",
    "in_nob",
    "in_worse",
    "indifference_poly",
    "is_accessible",
    "is_eps_best_response",
    "load_game",
    "parse_game_document",
    "pure_action_payoffs",
    "random_profile",
    "read_trace",
    "run_dynamics",
    "satisfaction_report",
    "satisficing_step",
    "save_game",
    "solve_on_support",
    "verify_nash",
    "verify_path",
    "zero_poly_check",
]
