"""Integer iteration kernels for the stochastic-game rounding oracle.

The rounding oracle keeps every iterate on the grid (1/q) Z^n, so the whole
first loop of the constant-value procedures, and the certificate replay,
run on integer numerators with exact comparisons.  The Shapley step is
written once per representation:

* `_int_step`, on Python ints (no overflow): it serves the gap and replay
  loops on small games and on large magnitudes;
* `_int64_step`, vectorised over numpy int64 arrays: it serves the gap and
  replay loops on games with at least NUMPY_MIN_PAIRS (Min edge, Max edge)
  pairs per step whose magnitude bound at the loop's end length fits in
  int64.

`Kernel.gap_loop` and `Kernel.replay_loop` are one driver each over
whichever step `Kernel` selects.  Both implement exactly the recurrence of
the generic Fraction-based loops: the same half-to-even rounding and the
same exact stopping test.  `gap_loop` can resume from an iterate, so a
caller may run one loop in segments (the early-certificate probe of
`stochastic` stops at checkpoints) and each segment chooses its step by
the length at which it ends.
"""

from __future__ import annotations

import numpy as np

# (Min edge, Max edge) pairs per step from which the numpy step is used.
# Measured per step inside the loops on a 2-vCPU Intel Xeon (Python 3.11,
# numpy 2.4): the Python step costs about 3 us plus 0.4 us per pair, the
# numpy step 8-16 us at M = 1 and 15-25 us at M >= 2 (the rounding) whatever
# the size, plus 20-40 us to set up each loop.  They cross at 15-50 pairs;
# 128 keeps the Python step wherever numpy would win by less than about 2x,
# as on random default games (at most ~25 pairs) and the 24-pair M = 3 game
# that takes 874,801 steps.
NUMPY_MIN_PAIRS = 128


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
    every Nature row has denominator M.  Nature sums, Max maxima and Min
    minima are each formed once per state."""
    nat = []
    for row in game.nat_edges:
        s = 0
        for l, num in row:
            s += num * u[l]
        nat.append(s)
    best = []
    for row in game.max_edges:
        first = True
        for k, b in row:
            v = b * c + nat[k]
            if first or v > m:
                m = v
                first = False
        best.append(m)
    out = []
    for row in game.min_edges:
        first = True
        for i, a in row:
            v = best[i] - a * c
            if first or v < m:
                m = v
                first = False
        out.append(m)
    return out


def _int64_step(arrays, q, M):
    """The step of `_int_step` on int64 arrays at the grid 1/q: sums over the
    Nature rows, maxima over the Max rows, minima over the Min rows, each
    one `reduceat` over the CSR segments (every state has an edge, so no
    segment is empty).  Returns a function u -> rounded F(u)."""
    (min_start, edge_a, edge_max, max_start, medge_b, medge_nat, nat_start,
     nat_col, nat_num) = arrays
    a = -edge_a * (q * M)
    b = medge_b * (q * M)

    def step(u):
        nat = np.add.reduceat(nat_num * u[nat_col], nat_start)
        best2 = np.maximum.reduceat(b + nat[medge_nat], max_start)
        best1 = np.minimum.reduceat(a + best2[edge_max], min_start)
        if M == 1:
            return best1
        # half-to-even rounding of best1 / M, as _round_div_half_even
        q0, r = np.divmod(best1, M)
        twice = 2 * r
        q0 += (twice > M) | ((twice == M) & ((q0 & 1) == 1))
        return q0

    return step


def _csr(rows):
    """Segment starts, targets and weights of adjacency rows of
    (target, weight) pairs."""
    starts, cols, vals = [], [], []
    for row in rows:
        starts.append(len(cols))
        for col, val in row:
            cols.append(col)
            vals.append(val)
    return starts, cols, vals


class Kernel:
    """Gap/replay loops of one stochastic game on integer numerators.  Runs
    the numpy int64 step on games with at least NUMPY_MIN_PAIRS (Min edge,
    Max edge) pairs whose magnitudes fit int64, and the Python-int step (no
    overflow) otherwise."""

    def __init__(self, game):
        self.game = game
        self.M = game.M
        self.n_min = len(game.min_ids)
        amax = max((abs(a) for row in game.min_edges for _, a in row),
                   default=0)
        bmax = max((abs(b) for row in game.max_edges for _, b in row),
                   default=0)
        self.step_bound = amax + bmax + 1
        self.pairs = sum(len(game.max_edges[i])
                         for row in game.min_edges for i, _ in row)
        self._np = None

    def _fits_int64(self, q, cap, second=False):
        # |u numerator| <= cap * step_bound * q; intermediates multiply by M
        # and (for the replay pass) by ell <= cap.
        u_bound = cap * self.step_bound * q
        worst = u_bound * self.M * (cap if second else 1) * 8
        return worst < 2**62

    def _numpy_step(self, q, cap, second=False):
        """The numpy step at the grid 1/q for loops of at most `cap` steps,
        or None where the Python-int step runs."""
        if self.pairs < NUMPY_MIN_PAIRS or not self._fits_int64(q, cap,
                                                                second):
            return None
        if self._np is None:
            game = self.game
            min_start, edge_max, edge_a = _csr(game.min_edges)
            max_start, medge_nat, medge_b = _csr(game.max_edges)
            nat_start, nat_col, nat_num = _csr(game.nat_edges)
            self._np = tuple(
                np.asarray(arr, dtype=np.int64)
                for arr in (min_start, edge_a, edge_max, max_start, medge_b,
                            medge_nat, nat_start, nat_col, nat_num)
            )
        return _int64_step(self._np, q, self.M)

    def _search_step(self, q, cap, second=False):
        """The rounded step u -> round(F(u)) at the grid 1/q for loops that
        end by step `cap`, and the type of its iterates: an int64 array for
        the numpy step, a list for the Python-int step."""
        numpy_step = self._numpy_step(q, cap, second)
        if numpy_step is not None:
            return numpy_step, lambda u: np.asarray(u, dtype=np.int64)
        game, M = self.game, self.M
        c = q * M

        def step(u):
            out = _int_step(game, u, c)
            if M == 1:
                return out
            return [_round_div_half_even(v, M) for v in out]

        return step, list

    def gap_loop(self, q, delta_num, delta_den, cap, u=None, ell=0):
        """Iterate u <- round(F(u)) until (top - bottom)/q <=
        (3/4)*delta*ell, delta = delta_num/delta_den, or ell == cap.  The
        loop starts from 0, or resumes from the iterate `u` (numerators over
        q) of length `ell`; the step is chosen for a loop that ends by
        `cap`.  Returns (u, ell, hit), u as a list of Python ints."""
        step, start = self._search_step(q, cap)
        u = start([0] * self.n_min if u is None else u)
        # on int64 arrays the methods beat the builtins (2.2 against 2.7 us
        # for both on 12-16 entries, numpy 2.4)
        top, bottom = ((max, min) if isinstance(u, list)
                       else (np.ndarray.max, np.ndarray.min))
        lhs, rhs = 4 * delta_den, 3 * delta_num * q
        hit = False
        while ell < cap:
            u = step(u)
            ell += 1
            # on Python ints: numpy scalar arithmetic would wrap silently
            if lhs * (int(top(u)) - int(bottom(u))) <= rhs * ell:
                hit = True
                break
        return [int(v) for v in u], ell, hit

    def replay_loop(self, q, ell, b_num, t_num):
        """Second certificate pass: with kappa = b_num/(q*ell) and
        lam = t_num/(q*ell), build x = sup_i(-i*kappa + u^i) and
        y = inf_i(-i*lam + u^i) over i = 0..ell-1, scaled by q*ell."""
        step, start = self._search_step(q, ell, second=True)
        u = start([0] * self.n_min)
        vectorised = not isinstance(u, list)
        x, y = u.copy(), u.copy()
        for i in range(1, ell):
            u = step(u)
            if vectorised:
                s = u * ell
                np.maximum(x, s - i * b_num, out=x)
                np.minimum(y, s - i * t_num, out=y)
            else:
                bi, ti = i * b_num, i * t_num
                for j, v in enumerate(u):
                    s = v * ell
                    if s - bi > x[j]:
                        x[j] = s - bi
                    if s - ti < y[j]:
                        y[j] = s - ti
        return [int(v) for v in x], [int(v) for v in y]
