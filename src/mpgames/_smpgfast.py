"""Integer iteration kernels for the stochastic-game rounding oracle.

The rounding oracle keeps every iterate on the grid (1/q) Z^n, so the whole
first loop of the constant-value procedures, and the certificate replay,
run on integer numerators with exact comparisons.  The loops below implement
exactly the same recurrence as the generic Fraction-based loops (same
half-to-even rounding, same exact stopping test) with one of two Shapley
steps, chosen per game:

* a vectorised numpy int64 step, when the game has at least
  NUMPY_MIN_PAIRS (Min edge, Max edge) pairs per step and the precomputed
  magnitude bound fits in int64;
* a pure-Python step on Python ints otherwise: the fast path for small
  games, and the bigint path (no overflow) for large magnitudes.
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


def _step(u, out, q, M, n_min, min_ptr, edge_a, edge_max, max_ptr, medge_b,
          medge_nat, nat_ptr, nat_col, nat_num):
    # one rounded evaluation of the Shapley operator on the 1/q grid
    qM = q * M
    for j in range(n_min):
        first = True
        best1 = 0
        for e in range(min_ptr[j], min_ptr[j + 1]):
            i = edge_max[e]
            first2 = True
            best2 = 0
            for f in range(max_ptr[i], max_ptr[i + 1]):
                k = medge_nat[f]
                s = medge_b[f] * qM
                for g in range(nat_ptr[k], nat_ptr[k + 1]):
                    s += nat_num[g] * u[nat_col[g]]
                if first2 or s > best2:
                    best2 = s
                    first2 = False
            val = -edge_a[e] * qM + best2
            if first or val < best1:
                best1 = val
                first = False
        out[j] = _round_div_half_even(best1, M)


def _gap_loop(u, q, M, delta_num, delta_den, cap, n_min, min_ptr, edge_a,
              edge_max, max_ptr, medge_b, medge_nat, nat_ptr, nat_col,
              nat_num):
    """Iterate u <- round(F(u)) until top-bottom <= (3/4)*delta*ell (in exact
    rational arithmetic) or ell == cap.  Returns (ell, hit)."""
    out = u.copy()
    ell = 0
    while ell < cap:
        _step(u, out, q, M, n_min, min_ptr, edge_a, edge_max, max_ptr,
              medge_b, medge_nat, nat_ptr, nat_col, nat_num)
        for j in range(n_min):
            u[j] = out[j]
        ell += 1
        hi = u[0]
        lo = u[0]
        for j in range(1, n_min):
            if u[j] > hi:
                hi = u[j]
            if u[j] < lo:
                lo = u[j]
        # (hi - lo)/q <= (3/4) * (dn/dd) * ell
        if 4 * delta_den * (hi - lo) <= 3 * delta_num * q * ell:
            return ell, True
    return ell, False


def _replay_loop(u, x, y, q, M, ell, b_num, t_num, n_min, min_ptr, edge_a,
                 edge_max, max_ptr, medge_b, medge_nat, nat_ptr, nat_col,
                 nat_num):
    """Second certificate pass: with kappa = b_num/(q*ell) and
    lam = t_num/(q*ell), build x = sup_i(-i*kappa + u^i) and
    y = inf_i(-i*lam + u^i) over i = 0..ell-1, scaled by q*ell."""
    out = u.copy()
    for j in range(n_min):
        u[j] = 0
        x[j] = 0
        y[j] = 0
    for i in range(1, ell):
        _step(u, out, q, M, n_min, min_ptr, edge_a, edge_max, max_ptr,
              medge_b, medge_nat, nat_ptr, nat_col, nat_num)
        for j in range(n_min):
            u[j] = out[j]
            cand_x = u[j] * ell - i * b_num
            if cand_x > x[j]:
                x[j] = cand_x
            cand_y = u[j] * ell - i * t_num
            if cand_y < y[j]:
                y[j] = cand_y


def _int64_step(arrays, q, M):
    """The step of `_step` on int64 arrays at the grid 1/q: sums over the
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


class Kernel:
    """CSR-style integer encoding of one stochastic game, with gap/replay
    loops.  Runs the numpy int64 step on games with at least
    NUMPY_MIN_PAIRS (Min edge, Max edge) pairs whose magnitudes fit int64,
    and the pure-Python step on Python ints (no overflow) otherwise."""

    def __init__(self, game):
        self.M = game.M
        n_min = len(game.min_ids)
        self.n_min = n_min
        min_ptr = [0]
        edge_a = []
        edge_max = []
        for j in range(n_min):
            for (i, a) in game.min_edges[j]:
                edge_a.append(a)
                edge_max.append(i)
            min_ptr.append(len(edge_a))
        max_ptr = [0]
        medge_b = []
        medge_nat = []
        for i in range(len(game.max_ids)):
            for (k, b) in game.max_edges[i]:
                medge_b.append(b)
                medge_nat.append(k)
            max_ptr.append(len(medge_b))
        nat_ptr = [0]
        nat_col = []
        nat_num = []
        for k in range(len(game.nat_ids)):
            for (l, num) in game.nat_edges[k]:
                nat_col.append(l)
                nat_num.append(num)
            nat_ptr.append(len(nat_col))
        self._py = (n_min, min_ptr, edge_a, edge_max, max_ptr, medge_b,
                    medge_nat, nat_ptr, nat_col, nat_num)
        amax = max((abs(a) for a in edge_a), default=0)
        bmax = max((abs(b) for b in medge_b), default=0)
        self.step_bound = amax + bmax + 1
        self.pairs = sum(max_ptr[i + 1] - max_ptr[i] for i in edge_max)
        self._np = None

    def _fits_int64(self, q, cap, second=False):
        # |u numerator| <= cap * step_bound * q; intermediates multiply by M
        # and (for the replay pass) by ell <= cap.
        u_bound = cap * self.step_bound * q
        worst = u_bound * self.M * (cap if second else 1) * 8
        return worst < 2**62

    def _numpy_step(self, q, cap, second=False):
        """The numpy step at the grid 1/q for loops of at most `cap` steps,
        or None where the Python-int loop runs."""
        if self.pairs < NUMPY_MIN_PAIRS or not self._fits_int64(q, cap,
                                                                second):
            return None
        if self._np is None:
            (_, min_ptr, edge_a, edge_max, max_ptr, medge_b, medge_nat,
             nat_ptr, nat_col, nat_num) = self._py
            self._np = tuple(
                np.asarray(arr, dtype=np.int64)
                for arr in (min_ptr[:-1], edge_a, edge_max, max_ptr[:-1],
                            medge_b, medge_nat, nat_ptr[:-1], nat_col,
                            nat_num)
            )
        return _int64_step(self._np, q, self.M)

    def gap_loop(self, q, delta_num, delta_den, cap):
        step = self._numpy_step(q, cap)
        if step is None:
            u = [0] * self.n_min
            ell, hit = _gap_loop(u, q, self.M, delta_num, delta_den, cap,
                                 *self._py)
            return u, ell, hit
        u = np.zeros(self.n_min, dtype=np.int64)
        lhs, rhs = 4 * delta_den, 3 * delta_num * q
        ell = 0
        while ell < cap:
            u = step(u)
            ell += 1
            # the exact stopping test of _gap_loop, on Python ints: numpy
            # scalar arithmetic would wrap silently
            if lhs * (int(u.max()) - int(u.min())) <= rhs * ell:
                return u.tolist(), ell, True
        return u.tolist(), ell, False

    def replay_loop(self, q, ell, b_num, t_num):
        step = self._numpy_step(q, ell, second=True)
        if step is None:
            u = [0] * self.n_min
            x = [0] * self.n_min
            y = [0] * self.n_min
            _replay_loop(u, x, y, q, self.M, ell, b_num, t_num, *self._py)
            return x, y
        u = np.zeros(self.n_min, dtype=np.int64)
        x = np.zeros(self.n_min, dtype=np.int64)
        y = np.zeros(self.n_min, dtype=np.int64)
        for i in range(1, ell):
            u = step(u)
            s = u * ell
            np.maximum(x, s - i * b_num, out=x)
            np.minimum(y, s - i * t_num, out=y)
        return x.tolist(), y.tolist()
