"""Operator-oracle contract: restriction and dominion detection."""

from fractions import Fraction

import pytest

import mpgames as mg
from mpgames import NEG_INF, FunctionOracle, is_dominion, restrict
from mpgames.iteration import vec, zeros
from mpgames.oracle import RestrictedOracle

from conftest import absorbing_game, drain_game

F = Fraction


def swap_inc():
    return FunctionOracle(2, lambda x: (x[1] + 1, x[0] + 1))


def max_keep():
    return FunctionOracle(2, lambda x: (max(x[0], x[1]), x[1]))


class TestRestrict:
    def test_identity_restriction(self):
        orc = swap_inc()
        assert restrict(orc, [0, 1]) is orc

    def test_padded_coordinate_propagates(self):
        sub = restrict(swap_inc(), [0])
        assert sub.eval(zeros(1), F(1)) == (NEG_INF,)

    def test_max_ignores_padding(self):
        sub = restrict(max_keep(), [0])
        assert sub.eval(zeros(1), F(1)) == (F(0),)

    def test_restriction_equals_pad_project(self):
        orc = swap_inc()
        sub = RestrictedOracle(orc, [1])
        full = orc.eval((NEG_INF, F(5)), F(1))
        assert sub.eval((F(5),), F(1)) == (full[1],)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            restrict(swap_inc(), [])
        with pytest.raises(ValueError):
            RestrictedOracle(swap_inc(), [2])

    def test_restriction_monotone_in_subset(self):
        """(F^S1)^l(0) <= (F^S2)^l(0) on S1 for S1 within S2."""
        import random

        rng = random.Random(4)
        for _ in range(20):
            game = mg.random_smpg(rng)
            orc = mg.ExactOracle(game)
            n = orc.n
            if n < 2:
                continue
            s2 = sorted(rng.sample(range(n), rng.randint(2, n)))
            s1 = sorted(rng.sample(s2, rng.randint(1, len(s2) - 1)))
            a = restrict(orc, s1)
            b = restrict(orc, s2)
            pos = [s2.index(i) for i in s1]
            xa = zeros(a.n)
            xb = zeros(b.n)
            for _ in range(5):
                xa = a.eval(xa, F(1))
                xb = b.eval(xb, F(1))
                for i, j in enumerate(pos):
                    assert xa[i] <= xb[j]


class TestIsDominion:
    def test_full_set(self):
        assert is_dominion(swap_inc(), [0, 1])

    def test_absorbing_singleton(self):
        orc = mg.ExactOracle(absorbing_game())
        assert is_dominion(orc, [0])
        assert is_dominion(orc, [1])

    def test_draining_singleton_is_not(self):
        orc = mg.ExactOracle(drain_game())
        assert is_dominion(orc, [0])
        assert not is_dominion(orc, [1])

    def test_matches_graph_characterization(self):
        import itertools
        import random

        rng = random.Random(11)
        for _ in range(30):
            game = mg.random_smpg(rng)
            orc = mg.ExactOracle(game)
            n = orc.n
            for size in range(1, n + 1):
                for sub in itertools.combinations(range(n), size):
                    assert is_dominion(orc, sub) == (
                        mg.induced_subgame(game, sub) is not None)


class TestOracleContract:
    def test_eval_length_check(self):
        with pytest.raises(ValueError):
            swap_inc().eval(zeros(3), F(1))

    def test_call_counting(self):
        orc = swap_inc()
        orc.eval(zeros(2), F(1))
        orc.eval(zeros(2), F(1))
        assert orc.calls == 2

    def test_rounding_oracle_contract(self):
        """Approximation within eps and exact -inf support on random input."""
        import random

        rng = random.Random(3)
        for _ in range(25):
            game = mg.random_smpg(rng)
            n = len(game.min_ids)
            orc = mg.RoundingOracle(game, 64)
            x = vec(
                [
                    NEG_INF
                    if rng.random() < 0.2
                    else F(rng.randint(-30, 30), rng.randint(1, 9))
                    for _ in range(n)
                ]
            )
            exact = mg.shapley_eval(game, x)
            approx = orc.eval(x, F(1, 128))
            for e, a in zip(exact, approx):
                if e is NEG_INF:
                    assert a is NEG_INF
                else:
                    assert abs(e - a) <= F(1, 128)

    def test_repeat_eval_deterministic(self):
        game = absorbing_game()
        orc = mg.RoundingOracle(game, 16)
        x = vec([F(1, 3), F(-2, 7)])
        assert orc.eval(x, F(1, 8)) == orc.eval(x, F(1, 8))
