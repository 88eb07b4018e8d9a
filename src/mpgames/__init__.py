"""Oracle-driven solvers for zero-sum long-run average games.

Two backends: turn-based stochastic mean-payoff games, driven through one
abstract interface (an order-preserving, additively homogeneous operator
queried through an approximate oracle), and matrix-multiplicative
Despot/Tribune/People games, certified by exact integer sub/super
eigenvectors of their multiplicative operator.  Generic procedures decide
winners, approximate state-independent values with machine-checkable
certificates, and extract the set of states of maximal value.
"""

from .cex import (
    CexInstance,
    branch_weights,
    build_cex_game,
    companion_matrix,
    flip_horizon,
    positive_root,
    threshold_horizon,
)
from .dominion import (
    DecideOutcome,
    Dominion,
    SepParams,
    decide_constant_value,
    extend,
    top_class,
    top_class_call_budget,
)
from .entropy import (
    BlockResult,
    EntropyGame,
    EntropySolution,
    RankProfile,
    brute_force_entropy_values,
    check_entropy_certificate,
    entropy_to_json,
    induced_entropy_subgame,
    make_entropy_game,
    multiplicative_eval,
    pair_values,
    pair_values_by_ids,
    parse_entropy,
    random_entropy_game,
    rank_profile,
    solve_entropy_game,
    subgraph_on,
    value_bounds,
)
from .iteration import (
    SUB,
    SUPER,
    Certificate,
    ConstantValueResult,
    Exhausted,
    IterationCapExceeded,
    WinnerVerdict,
    approximate_constant_mean_payoff,
    build_certificates,
    value_iteration,
)
from .numeric import (
    NEG_INF,
    NOT_FOUND,
    NOT_UNIQUE,
    RationalInterval,
    bottom,
    hilbert_seminorm,
    rational_in_interval,
    top,
    vec,
    zeros,
)
from .oracle import (
    FunctionOracle,
    RestrictedOracle,
    ShapleyOracle,
    is_dominion,
    restrict,
)
from .perron import BracketingFailure, char_poly, eval_poly, perron_root
from .stochastic import (
    BruteForceResult,
    ExactOracle,
    GameFormatError,
    GameSolution,
    GameStats,
    RoundingOracle,
    StochasticGame,
    StrategyPair,
    bias_norm_bound,
    brute_force_values,
    check_certificate,
    frozen_pair_values,
    game_to_json,
    induced_subgame,
    make_game,
    parse_smpg,
    random_smpg,
    recession_eval,
    separation_bound,
    shapley_eval,
    solve_constant_value,
    solve_game,
    winner,
    winner_iteration_bound,
)

__version__ = "0.1.0"
