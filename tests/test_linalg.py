"""Exact integer linear algebra."""

import random
from fractions import Fraction

import pytest

from mpgames.linalg import integer_rank, integer_solve_numerators

F = Fraction


class TestIntegerSolve:
    def test_random_systems_solve_exactly(self):
        """A x = b exactly, x = m/d, on random nonsingular integer systems
        up to 12 x 12, sparse and dense."""
        rng = random.Random(14)
        solved = 0
        while solved < 400:
            n = rng.randint(1, 12)
            fill = rng.choice((0.3, 0.7, 1.0))
            a = [[rng.randint(-9, 9) if rng.random() < fill else 0
                  for _ in range(n)] for _ in range(n)]
            if integer_rank(a) < n:
                continue
            b = [rng.randint(-99, 99) * rng.choice((1, 1, 2, 3, 7))
                 for _ in range(n)]
            m, d = integer_solve_numerators(a, b)
            x = [F(v, d) for v in m]
            assert all(sum(v * w for v, w in zip(row, x)) == c
                       for row, c in zip(a, b))
            solved += 1

    def test_numerators_are_the_solution(self):
        """integer_solve_numerators gives the solution as numerators m over
        a positive denominator d, A m = d b, and scaling b by q scales the
        solution by q."""
        rng = random.Random(15)
        solved = 0
        while solved < 200:
            n = rng.randint(1, 8)
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if integer_rank(a) < n:
                continue
            b = [rng.randint(-99, 99) for _ in range(n)]
            m, d = integer_solve_numerators(a, b)
            assert d > 0
            assert all(sum(v * w for v, w in zip(row, m)) == c * d
                       for row, c in zip(a, b))
            q = rng.randint(1, 9)
            m2, d2 = integer_solve_numerators(a, [c * q for c in b])
            assert [F(x, d2) for x in m2] == [F(x * q, d) for x in m]
            solved += 1

    def test_row_swap(self):
        """A zero leading entry needs the pivot from a later row."""
        a = [[0, 2, 1], [3, 0, 0], [1, 1, 0]]
        m, d = integer_solve_numerators(a, [10, 12, 7])
        assert d > 0 and [F(x, d) for x in m] == [4, 3, 4]

    def test_one_by_one(self):
        """A negative pivot gives a positive denominator."""
        m, d = integer_solve_numerators([[-4]], [2])
        assert d > 0 and F(m[0], d) == F(-1, 2)

    @pytest.mark.parametrize("a", [
        [[0]],
        [[1, 2], [2, 4]],
        [[1, 0, 1], [0, 1, 1], [1, 1, 2]],
    ])
    def test_singular_raises(self, a):
        with pytest.raises(ValueError, match="singular"):
            integer_solve_numerators(a, [1] * len(a))
