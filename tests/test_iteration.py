"""Generic winner decision, constant-value approximation, certificates."""

from fractions import Fraction

import pytest

from mpgames import (
    SUB,
    SUPER,
    Certificate,
    Exhausted,
    FunctionOracle,
    IterationCapExceeded,
    WinnerVerdict,
    approximate_constant_mean_payoff,
    build_certificates,
    value_iteration,
)
from mpgames.numeric import hilbert_seminorm, vec, zeros

F = Fraction


def shift(c):
    c = F(c)
    return FunctionOracle(1, lambda x: (x[0] + c,))


def swap_shift():
    """F(x0, x1) = (x1 + 3, x0 - 1): constant value 1, bias (2, 0)."""
    return FunctionOracle(2, lambda x: (x[1] + 3, x[0] - 1))


class AdversarialOracle(FunctionOracle):
    """Exact map perturbed by -eps on every call (worst case allowed by the
    approximation contract)."""

    def _eval(self, x, eps):
        return tuple(v - eps for v in self.f(x))


class TestValueIteration:
    def test_positive_shift(self):
        res = value_iteration(shift(1), 10)
        assert res == WinnerVerdict("MaxWinsAll", 1, (F(1),))

    def test_negative_shift(self):
        res = value_iteration(shift(-1), 10)
        assert res == WinnerVerdict("MinWinsAll", 1, (F(-1),))

    def test_swap_increment(self):
        orc = FunctionOracle(2, lambda x: (x[1] + 1, x[0] + 1))
        res = value_iteration(orc, 10)
        assert res.outcome == "MaxWinsAll"
        assert res.iterations == 1
        assert res.witness == vec([1, 1])

    def test_identity_certifies_min(self):
        # top(u) = 0 <= 0 holds immediately: the weak-inequality stop
        res = value_iteration(FunctionOracle(1, lambda x: x), 7)
        assert res.outcome == "MinWinsAll"

    def test_exhausted_on_split_drift(self):
        orc = FunctionOracle(2, lambda x: (x[0] + 1, x[1] - 1))
        res = value_iteration(orc, 7)
        assert isinstance(res, Exhausted)
        assert res.iterations == 7
        assert res.witness == vec([7, -7])

    def test_termination_bound_from_sub_certificate(self):
        """With a positive Sub certificate (lam, v), iteration count stays
        within ceil(seminorm(v)/lam)."""
        orc = swap_shift()
        res = value_iteration(orc, 100)
        assert res.outcome == "MaxWinsAll"
        lam, v = F(1), vec([2, 0])
        bound = -(-hilbert_seminorm(v) // lam)
        assert res.iterations <= bound


class TestApproximateConstantMeanPayoff:
    def test_pure_shift_one_iteration(self):
        res = approximate_constant_mean_payoff(shift(F(5, 7)), F(1, 10), 100)
        assert res.iterations == 1
        assert res.interval.contains(F(5, 7))
        assert res.interval.width <= F(1, 10)

    def test_swap_shift_interval_and_iteration_bound(self):
        delta = F(1, 2)
        res = approximate_constant_mean_payoff(swap_shift(), delta, 33)
        assert res.interval.contains(F(1))
        assert res.interval.width <= delta
        # bias (2,0) gives R <= 2, so the gap loop ends within ceil(8R/delta)
        assert res.iterations <= 32

    def test_certificates_verify_exactly(self):
        orc = swap_shift()
        res = approximate_constant_mean_payoff(orc, F(1, 2), 100)
        f = orc.f
        fx = f(res.sub.vec)
        fy = f(res.sup.vec)
        assert all(res.sub.lam + v <= w for v, w in zip(res.sub.vec, fx))
        assert all(res.sup.lam + v >= w for v, w in zip(res.sup.vec, fy))
        assert res.sub.lam == res.interval.lo
        assert res.sup.lam == res.interval.hi

    def test_streamed_replay_matches_stored_orbit(self):
        """Without a replay hook the certificates are built while replaying
        the orbit; they equal build_certificates over the stored orbit."""
        orc = AdversarialOracle(
            2, lambda x: ((x[0] + 2 * x[1]) / 3 + 1, (x[0] + x[1]) / 2 - 1))
        delta = F(1, 16)
        eps = delta / 8
        res = approximate_constant_mean_payoff(orc, delta, 1000)
        ell = res.iterations
        assert ell > 10
        orbit = [zeros(2)]
        for _ in range(ell):
            orbit.append(orc.eval(orbit[-1], eps))
        u = orbit.pop()
        kappa, lam = min(u) / ell, max(u) / ell
        assert (res.sub, res.sup) == build_certificates(orbit, kappa, lam, eps)

    def test_cap_exceeded(self):
        # distinct per-state drifts never satisfy the gap condition
        orc = FunctionOracle(2, lambda x: (x[0] + 1, x[1] - 1))
        with pytest.raises(IterationCapExceeded):
            approximate_constant_mean_payoff(orc, F(1, 4), 20)

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            approximate_constant_mean_payoff(shift(0), F(0), 5)


class TestBuildCertificates:
    def test_singleton_orbit(self):
        sub, sup = build_certificates([zeros(2)], F(1), F(2), F(1, 8))
        assert sub == Certificate(F(7, 8), zeros(2), SUB)
        assert sup == Certificate(F(17, 8), zeros(2), SUPER)

    def test_pure_shift_keeps_zero_witness(self):
        orbit = [vec([i]) for i in range(5)]  # orbit of F(x) = x + 1
        sub, sup = build_certificates(orbit, F(1), F(1), F(0))
        assert sub.vec == zeros(1) and sup.vec == zeros(1)
        assert sub.lam == F(1) and sup.lam == F(1)

    def test_hand_computed_sup_inf(self):
        orbit = [vec([0, 0]), vec([3, -1])]
        sub, sup = build_certificates(orbit, F(1), F(1), F(1, 8))
        assert sub.vec == vec([2, 0])  # sup(0, -1 + orbit[1])
        assert sup.vec == vec([0, -2])  # inf(0, -1 + orbit[1])

    def test_direct_substitution_example(self):
        """Sub certificate (1, (2, 0)) for F(x0,x1) = (x1+3, x0-1)."""
        v = vec([2, 0])
        fx = (v[1] + 3, v[0] - 1)
        assert all(1 + a <= b for a, b in zip(v, fx))

    def test_empty_orbit_rejected(self):
        with pytest.raises(ValueError):
            build_certificates([], F(0), F(0), F(0))
