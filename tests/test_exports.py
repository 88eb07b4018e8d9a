"""The package's exports: each name resolves on first access to its defining
module's attribute, so `import mpgames` loads none of the modules."""

import importlib
import inspect
import os
import subprocess
import sys

import pytest

import mpgames as mg

# every name the package exports
EXPORTED = """
    BlockResult BracketingFailure BruteForceResult Certificate CexInstance
    ConstantValueResult DecideOutcome Dominion EntropyGame EntropySolution
    ExactOracle Exhausted FunctionOracle GameFormatError GameSolution
    GameStats IterationCapExceeded NEG_INF NOT_FOUND NOT_UNIQUE RankProfile
    RationalInterval RestrictedOracle RoundingOracle SUB SUPER SepParams
    ShapleyOracle StochasticGame StrategyPair WinnerVerdict
    approximate_constant_mean_payoff bias_norm_bound bottom branch_weights
    brute_force_entropy_values brute_force_values build_certificates
    build_cex_game char_poly check_certificate check_entropy_certificate
    companion_matrix decide_constant_value entropy_to_json eval_poly extend
    flip_horizon frozen_pair_values game_to_json hilbert_seminorm
    induced_entropy_subgame induced_subgame is_dominion make_entropy_game
    make_game multiplicative_eval pair_values pair_values_by_ids
    parse_entropy parse_smpg perron_root positive_root random_entropy_game
    random_smpg rank_profile rational_in_interval recession_eval restrict
    separation_bound shapley_eval solve_constant_value solve_entropy_game
    solve_game threshold_horizon top top_class
    top_class_call_budget value_bounds value_iteration vec winner
    winner_iteration_bound zeros
""".split()


def test_table_holds_the_exported_names():
    assert sorted(mg._MODULE_OF) == sorted(EXPORTED)
    assert mg.__all__ == sorted(EXPORTED)


@pytest.mark.parametrize("name", EXPORTED)
def test_name_is_its_defining_module_attribute(name):
    module = importlib.import_module(f"mpgames.{mg._MODULE_OF[name]}")
    value = getattr(mg, name)
    assert value is getattr(module, name)
    if inspect.isfunction(value) or inspect.isclass(value):
        assert value.__module__ == module.__name__


def test_dir_version_and_unknown_names():
    assert set(EXPORTED) <= set(dir(mg))
    assert {"stochastic", "entropy", "graphs"} <= set(dir(mg))
    assert mg.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        mg.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from mpgames import no_such_name  # noqa: F401


def test_star_import_binds_every_export():
    namespace = {}
    exec("from mpgames import *", namespace)
    assert set(EXPORTED) <= set(namespace)


def test_submodules_are_attributes():
    """`import mpgames` alone reaches a module as an attribute, and loads
    it on that first access."""
    script = ("import sys, mpgames\n"
              "assert 'mpgames.linalg' not in sys.modules\n"
              "print(mpgames.linalg.__name__, mpgames.stochastic.KEYS[0])\n")
    src = os.path.dirname(os.path.dirname(mg.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["mpgames.linalg", "min_states"]

