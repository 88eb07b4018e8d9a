"""Constant-value decision, dominion extension, top-class extraction."""

import itertools
import random
from fractions import Fraction

import pytest

import mpgames as mg
from mpgames import (
    FunctionOracle,
    SepParams,
    decide_constant_value,
    extend,
    is_dominion,
    top_class,
    top_class_call_budget,
)

from conftest import absorbing_game, chain3_game, three_value_game

F = Fraction


def params(delta, r):
    return SepParams(delta=F(delta), R=F(r))


def self_loops(*rewards):
    """Min state i -> Max state i -> Nature state i -> Min state i, with
    reward rewards[i] on the Max edge: chi = rewards."""
    n = len(rewards)
    return mg.make_game(
        [f"m{i}" for i in range(n)], [f"x{i}" for i in range(n)],
        [f"n{i}" for i in range(n)],
        [[(i, 0)] for i in range(n)],
        [[(i, b)] for i, b in enumerate(rewards)],
        [[(i, 1)] for i in range(n)],
        1,
    )


def permute_min_states(game, order):
    """The same game with Min state order[i] moved to index i."""
    index = {j: i for i, j in enumerate(order)}
    return mg.make_game(
        [game.min_ids[j] for j in order], game.max_ids, game.nat_ids,
        [game.min_edges[j] for j in order], game.max_edges,
        [[(index[l], p) for l, p in row] for row in game.nat_edges],
        game.M,
    )


class TestSepParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SepParams(delta=F(0), R=F(1))
        with pytest.raises(ValueError):
            SepParams(delta=F(1), R=F(-1))

    def test_cap(self):
        assert params(1, 1).cap == 9
        assert params(F(1, 2), 2).cap == 33


class TestDecideConstantValue:
    def test_single_state_empty(self):
        orc = FunctionOracle(1, lambda x: (x[0] + 1,))
        out = decide_constant_value(orc, params(1, 1))
        assert out.low_set is None

    def test_absorbing_low_set(self):
        orc = mg.exact_oracle(absorbing_game())
        out = decide_constant_value(orc, params(F(1, 4), 40))
        assert out.low_set == frozenset({1})

    def test_constant_two_state_empty(self):
        orc = FunctionOracle(2, lambda x: (x[1] + 3, x[0] - 1))
        out = decide_constant_value(orc, params(F(1, 2), 2))
        assert out.low_set is None

    def test_tie_order_invariance(self):
        """The returned set is the full argmin set, whatever the order of
        the states: solving a game with its Min states permuted returns the
        permuted set."""
        for game, low in ((three_value_game(), {2}),
                          (self_loops(-1, 2, -1), {0, 2})):
            for order in itertools.permutations(range(3)):
                out = decide_constant_value(
                    mg.exact_oracle(permute_min_states(game, order)),
                    params(F(1, 9), 24))
                assert {order[i] for i in out.low_set} == low


class TestExtend:
    def test_seed_everything(self):
        orc = mg.exact_oracle(absorbing_game())
        result, _ = extend(orc, {0, 1}, {0, 1})
        assert result == {0, 1}

    def test_chain_propagation(self):
        orc = mg.exact_oracle(chain3_game())
        result, _ = extend(orc, {0, 1, 2}, {0, 1})
        assert result == {0, 1, 2}

    def test_disjoint_subdominion_stays_disjoint(self):
        orc = mg.exact_oracle(absorbing_game())
        result, _ = extend(orc, {0, 1}, {0})
        assert result == {0}
        assert is_dominion(orc, {1})  # the untouched complement

    def test_complement_is_dominion_or_empty(self):
        rng = random.Random(21)
        for _ in range(25):
            game = mg.random_smpg(rng)
            orc = mg.exact_oracle(game)
            n = orc.n
            seed = {rng.randrange(n)}
            result, _ = extend(orc, set(range(n)), seed)
            rest = set(range(n)) - result
            assert seed <= result
            if rest:
                assert is_dominion(orc, rest)

    def test_empty_seed_rejected(self):
        orc = mg.exact_oracle(absorbing_game())
        with pytest.raises(ValueError):
            extend(orc, {0, 1}, set())


class TestTopClass:
    def test_constant_game_full_set(self):
        orc = FunctionOracle(2, lambda x: (x[1] + 3, x[0] - 1))
        dom, _ = top_class(orc, params(F(1, 2), 2))
        assert dom.states == frozenset({0, 1})

    def test_absorbing_game(self):
        orc = mg.exact_oracle(absorbing_game())
        dom, _ = top_class(orc, params(F(1, 4), 40))
        assert dom.states == frozenset({0})

    def test_three_values(self):
        orc = mg.exact_oracle(three_value_game())
        dom, _ = top_class(orc, params(F(1, 9), 24))
        assert dom.states == frozenset({0, 1})

    def test_result_is_dominion(self):
        orc = mg.exact_oracle(three_value_game())
        dom, _ = top_class(orc, params(F(1, 9), 24))
        assert is_dominion(mg.exact_oracle(three_value_game()), dom.states)

    def test_call_budget(self):
        p = params(F(1, 9), 24)
        orc = mg.exact_oracle(three_value_game())
        _, calls = top_class(orc, p)
        assert calls <= top_class_call_budget(3, p)

    def test_dominion_chain_contains_top_class(self):
        """Each removal step keeps a dominion containing the brute-force
        argmax set."""
        rng = random.Random(31)
        for _ in range(20):
            game = mg.random_smpg(rng)
            stats = game.stats()
            bf = mg.brute_force_values(game)
            mx = max(bf.chi)
            d_max = {j for j, v in enumerate(bf.chi) if v == mx}
            sol = mg.solve_top_class(game)
            assert sol.indices == frozenset(d_max)


class TestCallBudget:
    def test_formula(self):
        assert top_class_call_budget(1, params(1, 1)) == 9
        assert top_class_call_budget(2, params(F(1, 2), 2)) == 68
        assert top_class_call_budget(3, params(F(1, 16), 8)) == 3081
