"""A family of games where greedy finite-horizon play misleads for a long
time.

The core object is the n x n companion-style matrix C_n(W) with first row
all W and a unit subdiagonal; its characteristic polynomial is
x^n - W(x^(n-1) + ... + 1), with a unique positive root lambda_n in (W, W+1]
(equal to W when n = 1).  A two-branch game offers a maximizer the choice
between a branch growing like lambda_n and a branch growing like
lambda_(n-1) but boosted by a constant factor 8: the boosted slower branch
dominates every horizon k up to a threshold k*, yet the asymptotic value is
governed by the faster branch, so horizon-based play flips only after k*.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import floor
from typing import NamedTuple

from .entropycheck import EntropyGame, make_entropy_game
from .numeric import IterationCapExceeded, RationalInterval
from .perron import ln_bracket


def companion_matrix(n: int, w: int):
    """First row all w, unit subdiagonal."""
    if n < 1 or w < 1:
        raise ValueError("n and w must be positive")
    mat = [[0] * n for _ in range(n)]
    for j in range(n):
        mat[0][j] = w
    for i in range(1, n):
        mat[i][i - 1] = 1
    return mat


def _poly_eval(n: int, w: int, x: Fraction) -> Fraction:
    """x^n - w * (x^(n-1) + ... + 1), exactly."""
    acc = Fraction(0)
    for _ in range(n):
        acc = acc * x - w
    return acc + x**n


def positive_root(n: int, w: int, tol) -> RationalInterval:
    """Bracket of width <= tol around the unique positive root of
    x^n - w(x^(n-1)+...+1); the root lies in (w, w+1] and equals w for
    n = 1."""
    tol = Fraction(tol)
    if n == 1:
        return RationalInterval(Fraction(w), Fraction(w))
    lo, hi = Fraction(w), Fraction(w + 1)
    if not (_poly_eval(n, w, lo) < 0 and _poly_eval(n, w, hi) > 0):
        raise AssertionError("root bracket assumptions violated")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if _poly_eval(n, w, mid) < 0:
            lo = mid
        else:
            hi = mid
    return RationalInterval(lo, hi)


def horizon_weights(n: int, w: int):
    """The branch weights (left, right) = (ones^T C_n^k ones,
    8 * ones^T C_(n-1)^k ones) for k = 0, 1, 2, ...: each horizon advances
    both branch vectors C^k ones by one exact matrix-vector product."""
    if n < 2:
        raise ValueError("the two-branch construction needs n >= 2")
    left, right = [1] * n, [1] * (n - 1)
    while True:
        yield sum(left), 8 * sum(right)
        # C v for C = C_m(w): w * sum(v) on top, v shifted down by one
        left = [w * sum(left), *left[:-1]]
        right = [w * sum(right), *right[:-1]]


def branch_weights(n: int, w: int, k: int):
    """(left, right) = (ones^T C_n^k ones, 8 * ones^T C_(n-1)^k ones)."""
    return next(islice(horizon_weights(n, w), k, None))


def flip_horizon(n: int, w: int, k_limit: int = 10**4) -> int:
    """Smallest k with left > right (the slow boosted branch wins ties);
    IterationCapExceeded when no k <= k_limit has one."""
    for k, (left, right) in zip(range(k_limit + 1), horizon_weights(n, w)):
        if left > right:
            return k
    raise IterationCapExceeded(f"no flip within {k_limit} horizons")


def threshold_horizon(n: int, w: int) -> RationalInterval:
    """Bracket of k* = log(8(n-1)/(4n)) / log(lambda_n / lambda_(n-1)); the
    boosted slower branch dominates every horizon k <= k*."""
    if n < 2:
        raise ValueError("threshold needs n >= 2")
    q = Fraction(8 * (n - 1), 4 * n)
    num_lo, num_hi = ln_bracket(q, 160)
    tol = Fraction(1, 10**6)
    for _ in range(60):
        big = positive_root(n, w, tol)
        small = positive_root(n - 1, w, tol)
        if big.lo <= small.hi:
            tol /= 16
            continue
        den_lo = ln_bracket(big.lo / small.hi, 160)[0]
        den_hi = ln_bracket(big.hi / small.lo, 160)[1]
        if den_lo <= 0:
            tol /= 16
            continue
        k_lo = num_lo / den_hi
        k_hi = num_hi / den_lo
        if k_hi - k_lo <= Fraction(1, 10**5) and (
            floor(k_lo) == floor(k_hi) or num_hi == 0
        ):
            return RationalInterval(k_lo, k_hi)
        tol /= 16
    raise RuntimeError("threshold bracket failed to stabilize")


class CexInstance(NamedTuple):
    game: EntropyGame
    n: int
    w: int
    k_star: RationalInterval
    significant_people: int  # People states with >= 2 distinct successors
    expansion_factor: int  # per-step state blow-up of the gadget chains


def build_cex_game(n: int, w: int) -> CexInstance:
    """The two-branch game: a root Despot d* feeds a single Tribune t* that
    chooses between People pl (spreading with unit weights into the C_n
    chain) and pr (spreading with weight 8 into the C_(n-1) chain).  Each
    chain simulates its matrix with one Despot/Tribune/People triple per row;
    the horizon-(k+1) value at d* is max(ones^T C_n^k ones,
    8 ones^T C_(n-1)^k ones)."""
    if n < 2 or w < 1:
        raise ValueError("need n >= 2 and w >= 1")
    big = companion_matrix(n, w)
    small = companion_matrix(n - 1, w)
    d_ids = ["d*"]
    t_ids = ["t*"]
    p_ids = ["pl", "pr"]
    d_edges = [[0]]  # d* -> t*
    t_edges = [[0, 1]]  # t* -> {pl, pr}
    p_edges = [[], []]
    for side, mat, count in (("l", big, n), ("r", small, n - 1)):
        base_d = len(d_ids)
        base_t = len(t_ids)
        base_p = len(p_ids)
        for i in range(count):
            d_ids.append(f"d{side}{i}")
            t_ids.append(f"t{side}{i}")
            p_ids.append(f"v{side}{i}")
            d_edges.append([base_t + i])
            t_edges.append([base_p + i])
            p_edges.append(
                [(base_d + j, mat[i][j]) for j in range(count) if mat[i][j]]
            )
        src = 0 if side == "l" else 1
        weight = 1 if side == "l" else 8
        p_edges[src] = [(base_d + j, weight) for j in range(count)]
    game = make_entropy_game(d_ids, t_ids, p_ids, d_edges, t_edges, p_edges)
    significant = sum(1 for row in game.p_edges if len(row) >= 2)
    return CexInstance(
        game=game,
        n=n,
        w=w,
        k_star=threshold_horizon(n, w),
        significant_people=significant,
        expansion_factor=1,
    )
