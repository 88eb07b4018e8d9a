"""Oracle-driven solvers for zero-sum long-run average games.

Two backends: turn-based stochastic mean-payoff games, driven through one
abstract interface (an order-preserving, additively homogeneous operator
queried through an approximate oracle), and matrix-multiplicative
Despot/Tribune/People games, certified by exact integer sub/super
eigenvectors of their multiplicative operator.  Generic procedures decide
winners, approximate state-independent values with machine-checkable
certificates, and extract the set of states of maximal value.

Importing the package loads none of its modules: each exported name is
looked up in its defining module on access (PEP 562), and the module is
imported then.  Compiling the imported source is much of a short
command's run time when no bytecode cache is written, so a command that
reads one game kind loads only that kind's modules, and a solve and a
certificate check load only `cli`, `graphs`, `numeric` and the modules of
the solve path: `stochastic`, `_smpgfast` and `linalg`, or `entropy` and
`linalg`.  The reference and fallback code of each kind (`dominion`, with
`iteration` and `oracle`, for stochastic games, and `perron` for entropy
games) is imported when a command or a fallback runs it, and so are the
bodies of the commands other than `solve` and `certify` (`_tools`).  No
module imports `dataclasses`: records are `typing.NamedTuple`s, whose
classes cost a fraction of a dataclass's to create.  The lookup is not
cached here, so a name always resolves to the module's current attribute,
a patched or restored one included.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining module -> the names the package exports from it
_EXPORTS = {
    "cex": (
        "CexInstance", "branch_weights", "build_cex_game", "companion_matrix",
        "flip_horizon", "positive_root", "threshold_horizon",
    ),
    "dominion": (
        "BruteForceResult", "DecideOutcome", "Dominion", "ExactOracle",
        "RoundingOracle", "SepParams", "bias_norm_bound",
        "brute_force_values", "decide_constant_value", "extend",
        "frozen_pair_values", "random_smpg", "recession_eval",
        "separation_bound", "top_class", "top_class_call_budget", "winner",
        "winner_iteration_bound",
    ),
    "entropy": (
        "BlockResult", "EntropyGame", "EntropySolution",
        "check_entropy_certificate", "entropy_to_json",
        "induced_entropy_subgame", "make_entropy_game", "multiplicative_eval",
        "parse_entropy", "solve_entropy_game", "value_bounds",
    ),
    "graphs": ("GameFormatError",),
    "iteration": (
        "ConstantValueResult", "Exhausted", "WinnerVerdict",
        "approximate_constant_mean_payoff", "bottom", "build_certificates",
        "hilbert_seminorm", "top", "value_iteration", "vec", "zeros",
    ),
    "numeric": (
        "NEG_INF", "NOT_FOUND", "NOT_UNIQUE", "SUB", "SUPER", "Certificate",
        "IterationCapExceeded", "RationalInterval", "rational_in_interval",
    ),
    "oracle": (
        "FunctionOracle", "RestrictedOracle", "ShapleyOracle", "is_dominion",
        "restrict",
    ),
    "perron": (
        "BracketingFailure", "RankProfile", "brute_force_entropy_values",
        "char_poly", "eval_poly", "pair_values", "pair_values_by_ids",
        "perron_root", "random_entropy_game", "rank_profile",
    ),
    "stochastic": (
        "GameSolution", "GameStats", "StochasticGame", "StrategyPair",
        "check_certificate", "game_to_json", "induced_subgame", "make_game",
        "parse_smpg", "shapley_eval", "solve_constant_value", "solve_game",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = sorted(_MODULE_OF)
# submodules that `mpgames.<name>` reaches without an import statement
_SUBMODULES = frozenset(_EXPORTS) | {"_smpgfast", "linalg"}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(import_module(f".{module}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
