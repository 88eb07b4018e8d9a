"""Certified spectral-growth brackets for nonnegative integer matrices."""

import random
from fractions import Fraction
from math import gcd

import pytest

from mpgames import BracketingFailure, char_poly, eval_poly, perron_root
from mpgames.numeric import RationalInterval

F = Fraction
TOL = F(1, 10**9)


class TestPerronRoot:
    def test_scalar(self):
        iv = perron_root([[2]], TOL)
        assert iv.lo == iv.hi == 2

    def test_ones_eigenvector_collapses(self):
        iv = perron_root([[1, 1], [1, 1]], TOL)
        assert iv.lo <= 2 <= iv.hi
        assert iv.width <= TOL

    def test_companion_quadratic(self):
        # x^2 - 10x - 10 has positive root 5 + sqrt(35)
        iv = perron_root([[10, 10], [1, 0]], TOL)
        lo, hi = iv.lo - 5, iv.hi - 5
        assert lo * lo <= 35 <= hi * hi
        assert iv.width <= TOL

    def test_periodic_matrix(self):
        # 2-cycle with weights 4 and 1: rho = 2, imprimitive
        iv = perron_root([[0, 4], [1, 0]], TOL)
        assert iv.lo <= 2 <= iv.hi
        assert iv.width <= TOL

    def test_zero_matrix(self):
        assert perron_root([[0]], TOL).hi == 0
        with pytest.raises(BracketingFailure):
            perron_root([[0, 0], [0, 0]], TOL)

    def test_reducible_raises(self):
        with pytest.raises(BracketingFailure):
            perron_root([[3, 1], [0, 2]], TOL, max_iter=3000)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            perron_root([], TOL)
        with pytest.raises(ValueError):
            perron_root([[-1]], TOL)
        with pytest.raises(ValueError):
            perron_root([[1]], F(0))


def fraction_power_iteration(matrix, tol):
    """Test oracle: Collatz-Wielandt power iteration on A + I with a
    `Fraction` for every ratio, the best brackets compared as `Fraction`s."""
    n = len(matrix)
    b = [[v + (i == j) for j, v in enumerate(row)]
         for i, row in enumerate(matrix)]
    x = [1] * n
    best_lo = best_hi = None
    for it in range(10**5):
        y = [sum(b[i][j] * x[j] for j in range(n)) for i in range(n)]
        ratios = [F(y[i], x[i]) for i in range(n)]
        if best_lo is None or min(ratios) > best_lo:
            best_lo = min(ratios)
        if best_hi is None or max(ratios) < best_hi:
            best_hi = max(ratios)
        if best_hi - best_lo <= tol:
            return RationalInterval(best_lo - 1, best_hi - 1)
        x = y
        if it % 32 == 31:
            g = gcd(*x)
            x = [v // g for v in x]
    raise AssertionError("oracle brackets did not close")


def random_irreducible(rng):
    """A weighted n-cycle (periodic for n > 1, a positive 1x1 for n = 1),
    with random extra entries half of the time.  Bare cycles stop at n = 3:
    longer ones converge slowly enough to dominate the test's time."""
    dense = rng.random() < 0.5
    n = rng.randint(1, 5 if dense else 3)
    m = [[rng.choice((0, 0, 1, 2, 3, 7)) if dense else 0 for _ in range(n)]
         for _ in range(n)]
    for i in range(n):
        m[i][(i + 1) % n] = max(m[i][(i + 1) % n], rng.randint(1, 6))
    return m


class TestIntegerBrackets:
    """perron_root returns exactly the interval of the Fraction iteration."""

    FIXED = ([[0, 1], [2, 0]], [[0, 4], [1, 0]], [[5]], [[1]],
             [[0, 1, 0], [0, 0, 3], [2, 0, 0]], [[10, 10], [1, 0]])

    @pytest.mark.parametrize("tol", [F(1, 2**30), F(1, 10**60)])
    def test_identical_to_fraction_iteration(self, tol):
        rng = random.Random(11)
        matrices = list(self.FIXED) + [random_irreducible(rng)
                                       for _ in range(200)]
        assert sum(len(m) == 1 for m in matrices) >= 20
        for m in matrices:
            iv = perron_root(m, tol)
            assert iv == fraction_power_iteration(m, tol)
            assert type(iv.lo) is type(iv.hi) is Fraction
            assert iv.width <= tol


class TestCharPoly:
    def test_scalar(self):
        assert char_poly([[3]]) == [F(-3), F(1)]

    def test_two_by_two(self):
        # det(xI - [[10,10],[1,0]]) = x^2 - 10x - 10
        assert char_poly([[10, 10], [1, 0]]) == [F(-10), F(-10), F(1)]

    def test_eval(self):
        cp = char_poly([[10, 10], [1, 0]])
        assert eval_poly(cp, F(12)) == 144 - 120 - 10

    def test_root_certified_by_sign_change(self):
        rng = random.Random(2)
        for _ in range(40):
            n = rng.randint(1, 5)
            m = [
                [rng.randint(0, 6) for _ in range(n)]
                for _ in range(n)
            ]
            for i in range(n):  # force irreducibility with a cycle
                m[i][(i + 1) % n] = max(m[i][(i + 1) % n], 1)
            iv = perron_root(m, TOL)
            cp = char_poly(m)
            assert eval_poly(cp, iv.lo) <= 0 <= eval_poly(cp, iv.hi)

    def test_determinant_consistency(self):
        # constant coefficient = det(-A) = (-1)^n det A
        m = [[2, 1, 0], [0, 1, 3], [1, 0, 1]]
        cp = char_poly(m)
        det = (2 * (1 * 1 - 3 * 0) - 1 * (0 * 1 - 3 * 1)
               + 0 * (0 * 0 - 1 * 1))
        assert cp[0] == (-1) ** 3 * det
