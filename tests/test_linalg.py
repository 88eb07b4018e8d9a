"""Exact integer linear algebra."""

import random
from fractions import Fraction

import pytest

from mpgames.linalg import (
    integer_rank,
    integer_solve,
    integer_solve_numerators,
)

F = Fraction


class TestIntegerSolve:
    def test_random_systems_solve_exactly(self):
        """A x = b exactly on random nonsingular integer systems up to
        12 x 12, sparse and dense, with integer and rational b."""
        rng = random.Random(14)
        solved = 0
        while solved < 400:
            n = rng.randint(1, 12)
            fill = rng.choice((0.3, 0.7, 1.0))
            a = [[rng.randint(-9, 9) if rng.random() < fill else 0
                  for _ in range(n)] for _ in range(n)]
            if integer_rank(a) < n:
                continue
            b = [F(rng.randint(-99, 99), rng.choice((1, 1, 2, 3, 7)))
                 for _ in range(n)]
            x = integer_solve(a, b)
            assert all(sum(v * w for v, w in zip(row, x)) == c
                       for row, c in zip(a, b))
            solved += 1

    def test_numerators_are_the_solution(self):
        """integer_solve_numerators gives integer_solve's solution as
        numerators over a positive denominator, and integer_solve is its
        core's, on systems with integer and with rational b."""
        rng = random.Random(15)
        solved = 0
        while solved < 200:
            n = rng.randint(1, 8)
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if integer_rank(a) < n:
                continue
            b = [rng.randint(-99, 99) for _ in range(n)]
            m, d = integer_solve_numerators(a, b)
            assert d > 0 and integer_solve(a, b) == [F(x, d) for x in m]
            assert all(sum(v * w for v, w in zip(row, m)) == c * d
                       for row, c in zip(a, b))
            q = rng.randint(1, 9)
            m, d = integer_solve_numerators(a, [c * q for c in b])
            assert integer_solve(a, [F(c, 1) * q for c in b]) == [
                F(x, d) for x in m]
            solved += 1

    def test_row_swap(self):
        """A zero leading entry needs the pivot from a later row."""
        a = [[0, 2, 1], [3, 0, 0], [1, 1, 0]]
        assert integer_solve(a, [5, 6, F(7, 2)]) == [2, F(3, 2), 2]

    def test_one_by_one(self):
        assert integer_solve([[-4]], [F(2, 3)]) == [F(-1, 6)]

    @pytest.mark.parametrize("a", [
        [[0]],
        [[1, 2], [2, 4]],
        [[1, 0, 1], [0, 1, 1], [1, 1, 2]],
    ])
    def test_singular_raises(self, a):
        with pytest.raises(ValueError, match="singular"):
            integer_solve(a, [1] * len(a))
