"""Extended arithmetic, seminorms, and unique-rational reconstruction."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpgames import (
    NEG_INF,
    NOT_FOUND,
    NOT_UNIQUE,
    RationalInterval,
    bottom,
    hilbert_seminorm,
    rational_in_interval,
    top,
    vec,
)
from mpgames.numeric import (
    _simplest_between,
    vec_add_scalar,
    vec_inf,
    vec_sup,
    zeros,
)
from mpgames.perron import exp_bracket, ln_bracket

F = Fraction


class TestNegInf:
    def test_ordering(self):
        assert NEG_INF < F(-10**9)
        assert NEG_INF <= NEG_INF
        assert not NEG_INF < NEG_INF
        assert NEG_INF == NEG_INF
        assert F(0) > NEG_INF
        assert not NEG_INF >= F(0)

    def test_absorbing_addition(self):
        assert NEG_INF + F(5) is NEG_INF
        assert F(5) + NEG_INF is NEG_INF
        assert NEG_INF + NEG_INF is NEG_INF
        assert NEG_INF - F(3) is NEG_INF

    def test_multiplication_convention(self):
        assert NEG_INF * F(0) == F(0)
        assert F(0) * NEG_INF == F(0)
        assert NEG_INF * F(2) is NEG_INF
        with pytest.raises(ArithmeticError):
            NEG_INF * F(-1)
        with pytest.raises(ArithmeticError):
            -NEG_INF
        with pytest.raises(ArithmeticError):
            NEG_INF - NEG_INF

    def test_singleton(self):
        assert type(NEG_INF)() is NEG_INF


class TestVectors:
    def test_top_bottom(self):
        x = vec([1, -2, 5])
        assert top(x) == 5 and bottom(x) == -2
        assert bottom(vec([0, NEG_INF])) is NEG_INF
        with pytest.raises(ValueError):
            top(())

    def test_seminorm(self):
        assert hilbert_seminorm(vec([3, -1, 2])) == 4
        assert hilbert_seminorm(zeros(4)) == 0
        with pytest.raises(ValueError):
            hilbert_seminorm(vec([0, NEG_INF]))

    @given(
        st.lists(st.fractions(min_value=-50, max_value=50), min_size=1,
                 max_size=6),
        st.fractions(min_value=-20, max_value=20),
    )
    def test_seminorm_shift_invariant(self, entries, c):
        x = vec(entries)
        assert hilbert_seminorm(vec_add_scalar(c, x)) == hilbert_seminorm(x)

    def test_lattice_ops(self):
        x = vec([1, NEG_INF])
        y = vec([0, 3])
        assert vec_sup(x, y) == vec([1, 3])
        assert vec_inf(x, y) == (F(0), NEG_INF)
        assert all(a <= b for a, b in zip(vec_inf(x, y), x))
        assert all(a <= b for a, b in zip(x, vec_sup(x, y)))


class TestRationalInterval:
    def test_basic(self):
        iv = RationalInterval(F(1, 3), F(1, 2))
        assert iv.width == F(1, 6)
        assert iv.contains(F(2, 5))
        assert iv.mid == F(5, 12)
        with pytest.raises(ValueError):
            RationalInterval(F(1), F(0))


class TestRationalReconstruction:
    def test_unique_small_denominator(self):
        # 1/3 is the only denominator-<=3 rational in [3/10, 7/20]
        iv = RationalInterval(F(3, 10), F(7, 20))
        assert rational_in_interval(iv, 3) == F(1, 3)

    def test_unique_sevenths(self):
        iv = RationalInterval(F(28, 100), F(29, 100))
        assert rational_in_interval(iv, 7) == F(2, 7)

    def test_not_unique(self):
        iv = RationalInterval(F(0), F(1))
        assert rational_in_interval(iv, 2) is NOT_UNIQUE

    def test_not_found(self):
        iv = RationalInterval(F(2, 7), F(3, 10))
        assert rational_in_interval(iv, 3) is NOT_FOUND

    def test_qmax_validation(self):
        with pytest.raises(ValueError):
            rational_in_interval(RationalInterval(0, 1), 0)

    def test_exhaustive_small(self):
        # against direct enumeration for every interval on a small grid
        grid = [F(a, 12) for a in range(-6, 19)]
        for lo in grid:
            for hi in grid:
                if lo > hi:
                    continue
                iv = RationalInterval(lo, hi)
                inside = {
                    F(p, q)
                    for q in range(1, 5)
                    for p in range(-4 * q, 7 * q + 1)
                    if lo <= F(p, q) <= hi
                }
                got = rational_in_interval(iv, 4)
                if not inside:
                    assert got is NOT_FOUND
                elif len(inside) > 1:
                    assert got is NOT_UNIQUE
                else:
                    assert got == inside.pop()

    @given(
        st.integers(min_value=-200, max_value=200),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=300)
    def test_round_trip(self, p, q, qmax):
        """Any p/q with q <= qmax is recovered from an interval of width
        < 1/qmax^2 around it."""
        if q > qmax:
            q = qmax
        target = F(p, q)
        half = F(1, 2 * qmax * qmax + 1)
        iv = RationalInterval(target - half, target + half)
        assert rational_in_interval(iv, qmax) == target

    def test_simplest_between(self):
        assert _simplest_between(F(3, 10), F(7, 20)) == F(1, 3)
        assert _simplest_between(F(-1, 2), F(1, 3)) == 0
        assert _simplest_between(F(5, 7), F(5, 7)) == F(5, 7)
        assert _simplest_between(F(-7, 20), F(-3, 10)) == F(-1, 3)


def _reference(f, x) -> Fraction:
    """f(x) to 50 significant digits, from mpmath."""
    with mpmath.workdps(50):
        v = f(mpmath.mpf(x.numerator) / x.denominator)
        return F(mpmath.nstr(v, 50))


LN_ARGS = (
    F(1), F(1, 3), F(2, 3), F(1) + F(1, 10**20), F(1) - F(1, 10**20),
    F(2), F(8), F(1, 4), F(2**100), F(1, 10**30), F(10**30), F(7, 5),
)
LN2_30 = F(693147180559945309417232121458, 10**30)  # ln 2 to 30 digits
EXP_ARGS = (
    F(0), F(1), F(-1), F(1, 3), F(-5, 7), F(1) + F(1, 10**20), F(100),
    F(-100), F(1, 10**30), F(-1, 10**30), LN2_30, -3 * LN2_30,
)


class TestLnExpBrackets:
    @pytest.mark.parametrize("bits", [1, 10, 53, 100])
    @pytest.mark.parametrize("x", LN_ARGS, ids=str)
    def test_ln(self, x, bits):
        lo, hi = ln_bracket(x, bits)
        assert lo <= _reference(mpmath.log, x) <= hi
        assert hi - lo <= F(1, 2**bits)

    def test_ln_exact_at_one(self):
        assert ln_bracket(F(1), 80) == (0, 0)

    @pytest.mark.parametrize("x", [F(0), F(-1), F(-1, 10**30)], ids=str)
    def test_ln_rejects_non_positive(self, x):
        with pytest.raises(ValueError):
            ln_bracket(x, 53)

    @pytest.mark.parametrize("bits", [1, 10, 53, 100])
    @pytest.mark.parametrize("x", EXP_ARGS, ids=str)
    def test_exp(self, x, bits):
        lo, hi = exp_bracket(x, bits)
        assert 0 < lo <= _reference(mpmath.exp, x) <= hi
        assert hi - lo <= lo * F(1, 2**bits)

    @given(st.integers(1, 10**12), st.integers(1, 10**12),
           st.integers(1, 200))
    @settings(max_examples=200, deadline=None)
    def test_exp_inverts_ln(self, p, q, bits):
        """e^lo <= x <= e^hi for the ln bracket (lo, hi) of x = p/q."""
        x = F(p, q)
        lo, hi = ln_bracket(x, bits)
        assert exp_bracket(lo, bits)[0] <= x <= exp_bracket(hi, bits)[1]
