"""The integer Shapley step, and the iteration loops of the stochastic-game
rounding oracle.

The rounding oracle keeps every iterate on the grid (1/q) Z^n, so the whole
first loop of the constant-value procedures, and the certificate replay,
run on integer numerators with exact comparisons.  `_int_step` is the
Shapley step on Python ints, which cannot overflow;
`stochastic.shapley_eval` is the exact reference it agrees with.  The step
chains the three stages of `smpgcheck` (`_nature_stage`, `_max_stage`,
`_min_stage`), the one coding of the operator, which the certificate check
runs on their own, to check certificates and strategies from one
evaluation, and the solver's greedy pair reads its argmax and argmin off.

`Kernel.gap_loop` and `Kernel.replay_loop` are one driver each over that
step.  Both implement exactly the recurrence of the generic Fraction-based
loops: the same half-to-even rounding and the same exact stopping test.
`gap_loop` can resume from an iterate, so a caller may run one loop in
segments (the early-certificate probe of `stochastic` stops at
checkpoints).
"""

from __future__ import annotations

from .smpgcheck import _max_stage, _min_stage, _nature_stage


def _round_div_half_even(n, d):
    # nearest integer to n/d (d > 0), ties to even
    q0 = n // d
    r = n - q0 * d
    twice = 2 * r
    if twice < d:
        return q0
    if twice > d:
        return q0 + 1
    if q0 % 2 == 0:
        return q0
    return q0 + 1


def _int_step(game, u, c):
    """The Shapley operator on Python-int numerators: the numerators over c
    of F(x), for the vector x with numerators u over c/M.  Exact, since
    every Nature row has denominator M.  Its three stages each form one
    value per state; run on rows cut to one edge per state, they give F
    with that player's strategy fixed."""
    nat = _nature_stage(game.nat_edges, u)
    return _min_stage(game.min_edges, _max_stage(game.max_edges, nat, c), c)


class Kernel:
    """Gap/replay loops of one stochastic game on Python-int numerators."""

    def __init__(self, game):
        self.game = game
        self.M = game.M
        self.n_min = len(game.min_ids)

    def _rounded_step(self, q):
        """The rounded step u -> round(F(u)) at the grid 1/q."""
        game, M = self.game, self.M
        c = q * M
        if M == 1:
            return lambda u: _int_step(game, u, c)
        return lambda u: [_round_div_half_even(v, M)
                          for v in _int_step(game, u, c)]

    def gap_loop(self, q, delta_num, delta_den, cap, u=None, ell=0):
        """Iterate u <- round(F(u)) until (top - bottom)/q <=
        (3/4)*delta*ell, delta = delta_num/delta_den, or ell == cap.  The
        loop starts from 0, or resumes from the iterate `u` (numerators over
        q) of length `ell`.  Returns (u, ell, hit)."""
        step = self._rounded_step(q)
        u = [0] * self.n_min if u is None else list(u)
        lhs, rhs = 4 * delta_den, 3 * delta_num * q
        hit = False
        while ell < cap:
            u = step(u)
            ell += 1
            if lhs * (max(u) - min(u)) <= rhs * ell:
                hit = True
                break
        return u, ell, hit

    def replay_loop(self, q, ell, b_num, t_num):
        """Second certificate pass: with kappa = b_num/(q*ell) and
        lam = t_num/(q*ell), build x = sup_i(-i*kappa + u^i) and
        y = inf_i(-i*lam + u^i) over i = 0..ell-1, scaled by q*ell."""
        step = self._rounded_step(q)
        u = [0] * self.n_min
        x, y = u[:], u[:]
        for i in range(1, ell):
            u = step(u)
            bi, ti = i * b_num, i * t_num
            for j, v in enumerate(u):
                s = v * ell
                if s - bi > x[j]:
                    x[j] = s - bi
                if s - ti < y[j]:
                    y[j] = s - ti
        return x, y
