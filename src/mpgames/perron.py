"""Certified Perron-root brackets for nonnegative integer matrices, and the
entropy games' reference path built on them.

Power iteration with Collatz-Wielandt bracketing in exact integer
arithmetic: for a positive vector x, min_i (Ax)_i/x_i <= rho(A) <= max_i
(Ax)_i/x_i.  Iteration runs on A + I (primitive whenever A is irreducible,
so the brackets close even for periodic matrices) and the shift is removed
from the reported interval.

The iterates are positive integer vectors, so each ratio y_i/x_i is kept as
the integer pair (y_i, x_i).  The best lower and upper ratios so far are
such pairs, compared by cross-multiplication, and the stopping test
hi - lo <= tol is one integer inequality.  The two endpoints become
`Fraction`s only on return.

The rest of the module is what an entropy solve never runs: the per-state
growth rates of pair matrices (their rows from `entropy._people_rows`),
brute force by strategy enumeration with the game's rank and separation
profile, rational ln and exp brackets, and random instances.  A solve never
imports this module; `brute`, `gen-random` and `gen-cex` do.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul
from typing import NamedTuple

from .entropy import (
    _nu_value,
    _people_rows,
    _separation,
    check_pair_budget,
)
from .entropycheck import (
    EntropyGame,
    make_entropy_game,
)
from .graphs import tarjan_scc
from .linalg import integer_rank
from .numeric import RationalInterval


class BracketingFailure(RuntimeError):
    """Raised when the Collatz-Wielandt brackets refuse to close (zero or
    reducible input)."""


def char_poly(matrix):
    """Characteristic polynomial det(xI - A), exact rational coefficients in
    increasing degree order (Faddeev-LeVerrier)."""
    n = len(matrix)
    a = [[Fraction(v) for v in row] for row in matrix]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = [[Fraction(0)] * n for _ in range(n)]
    c = Fraction(1)
    for k in range(1, n + 1):
        # M_k = A * M_{k-1} + c_{k-1} I
        for i in range(n):
            m[i][i] += c
        m = [
            [sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c = -sum(m[i][i] for i in range(n)) / k
        coeffs[n - k] = c
    return coeffs


def eval_poly(coeffs, x):
    """Horner evaluation.  Test oracle: a sign change of the characteristic
    polynomial certifies a Perron bracket (`TestSpectralEngine`)."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def perron_root(matrix, tol, max_iter: int | None = None) -> RationalInterval:
    """Bracket rho(A) for a nonnegative irreducible integer matrix to width
    <= tol.  Raises BracketingFailure on the zero matrix or when the
    brackets fail to close (reducible input)."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if all(v == 0 for row in matrix for v in row):
        if n == 1:
            return RationalInterval(Fraction(0), Fraction(0))
        raise BracketingFailure("zero matrix")
    for row in matrix:
        if any(v < 0 for v in row):
            raise ValueError("matrix must be nonnegative")
    tn, td = tol.numerator, tol.denominator
    # iterate on B = A + I
    b = [[int(v) + (1 if i == j else 0) for j, v in enumerate(row)]
         for i, row in enumerate(matrix)]
    x = [1] * n
    # best lower and upper ratios so far as (numerator, denominator) pairs,
    # starting from the trivial brackets 0/1 and 1/0 (+inf); the entries of
    # x stay positive, so the first ratios replace both
    bln, bld, bhn, bhd = 0, 1, 1, 0
    if max_iter is None:
        bits = max(1, (td // max(tn, 1)).bit_length())
        max_iter = 5000 + 200 * n * bits
    for it in range(max_iter):
        y = [sum(map(mul, row, x)) for row in b]
        ln = hn = y[0]
        ld = hd = x[0]
        for yi, xi in zip(y, x):
            if yi * ld < ln * xi:
                ln, ld = yi, xi
            elif yi * hd > hn * xi:
                hn, hd = yi, xi
        if ln * bld > bln * ld:
            bln, bld = ln, ld
        if hn * bhd < bhn * hd:
            bhn, bhd = hn, hd
        # bhn/bhd - bln/bld <= tn/td
        if (bhn * bld - bln * bhd) * td <= tn * bhd * bld:
            return RationalInterval(Fraction(bln - bld, bld),
                                    Fraction(bhn - bhd, bhd))
        x = y
        if it % 32 == 31:
            g = 0
            for v in x:
                g = gcd(g, v)
            if g > 1:
                x = [v // g for v in x]
    raise BracketingFailure(
        "Collatz-Wielandt brackets did not close; matrix is likely reducible"
    )


# ---------------------------------------------------------------------------
# pair matrices and their growth rates


def pair_matrix(game: EntropyGame, sigma, tau):
    """Nonnegative matrix of the chain fixed by positional strategies: row k
    is the People row chosen at Despot k via sigma (Despot idx -> Tribune
    idx) and tau (Tribune idx -> People idx)."""
    return _people_rows(game, [tau[t] for t in sigma])


def matrix_values(matrix, tol):
    """Per-state growth rates of a nonnegative integer matrix, as rational
    brackets of width <= tol: the maximum Perron root over strongly connected
    components reachable from the state."""
    n = len(matrix)
    adj = [[j for j, v in enumerate(row) if v] for row in matrix]
    comps = [sorted(c) for c in tarjan_scc(adj)]
    comp_of = [0] * n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    vals = []
    for ci, comp in enumerate(comps):
        if len(comp) == 1:
            # the Perron root of a 1x1 block is its entry (0 when acyclic)
            lo = hi = Fraction(matrix[comp[0]][comp[0]])
        else:
            sub = [[matrix[i][j] for j in comp] for i in comp]
            rho = perron_root(sub, tol)
            lo, hi = rho.lo, rho.hi
        # components are listed successors-first, so reachable values are done
        for v in comp:
            for w in adj[v]:
                cw = comp_of[w]
                if cw != ci:
                    lo = max(lo, vals[cw].lo)
                    hi = max(hi, vals[cw].hi)
        vals.append(RationalInterval(lo, hi))
    return [vals[comp_of[i]] for i in range(n)]


def pair_values(game: EntropyGame, sigma, tau, tol):
    return matrix_values(pair_matrix(game, sigma, tau), tol)


def pair_values_by_ids(game: EntropyGame, sigma_ids, tau_ids, tol):
    """Pair values for id-based strategies (Despot id -> Tribune id,
    Tribune id -> People id).  Test oracle: the stitched strategies are
    optimal (`test_stitched_strategies_reproduce_values`)."""
    t_index = {s: j for j, s in enumerate(game.t_ids)}
    p_index = {s: j for j, s in enumerate(game.p_ids)}
    sigma = [t_index[sigma_ids[s]] for s in game.d_ids]
    tau = [p_index[tau_ids[s]] for s in game.t_ids]
    return pair_values(game, sigma, tau, tol)


def value_bounds(game: EntropyGame) -> RationalInterval:
    """Every per-state value lies in [1, n*W]: each People row has at least
    one unit entry, and row sums are at most n*W."""
    stats = game.stats()
    return RationalInterval(Fraction(1), Fraction(stats.n * stats.W))


def recession_eval(game: EntropyGame, x):
    """Recession operator in the log domain: multiplicities collapse to their
    support, sums collapse to maxima, so F^hat_d = min_t max_p max_l x_l.
    Test oracle: the value vector is its fixed point (`TestRecessionEval`).
    NEG_INF orders below every rational, so min and max take it as -inf."""
    pmax = [max(x[l] for l, _ in row) for row in game.p_edges]
    tmax = [max(pmax[p] for p in row) for row in game.t_edges]
    return tuple(min(tmax[t] for t in row) for row in game.d_edges)


# ---------------------------------------------------------------------------
# separation profile


class RankProfile(NamedTuple):
    rank: int  # the game's rank: the maximal rank of its pair matrices
    selections: int  # the distinct pair matrices ranked
    nu: Fraction  # multiplicative separation factor for distinct pair values
    nu_hat: Fraction  # log-domain separation denominator (n * W * nu)


def rank_profile(game: EntropyGame, matrices) -> RankProfile:
    """The rank r of the game, the maximal rank of the given pair matrices
    (the ambiguity matrices of its strategy pairs, the paper's rank), and
    the separation factors nu(n, W, r) derived from it.

    Every value brute force compares is a per-state rate of a pair matrix,
    a Perron root of one of its principal submatrices.  A principal
    submatrix has rank at most that of the matrix, so every such root is an
    eigenvalue of an integer matrix of rank at most r, and nu(n, W, r)
    separates any two distinct ones."""
    n, w = game.stats()
    r = max([1] + [integer_rank(m) for m in matrices])
    sep = _separation(n, w, r)
    return RankProfile(rank=r, selections=len(matrices),
                       nu=_nu_value(n, w, r),
                       nu_hat=Fraction(sep.num, sep.den))


# ---------------------------------------------------------------------------
# brute force (bracketed, with on-demand refinement)


class _ValueRegistry:
    """Per-state growth-rate brackets for ambiguity matrices, deduplicated by
    matrix content and lazily refined (a tolerance never increases)."""

    def __init__(self):
        self._store = {}

    def add(self, matrix):
        """Register a matrix and return its stored key: equal matrices share
        one key tuple."""
        key = tuple(tuple(row) for row in matrix)
        # [tol, per-state intervals, the stored key]
        return self._store.setdefault(key, [None, None, key])[2]

    def keys(self):
        return list(self._store)

    def values(self, key, tol):
        """The per-state brackets of `key` at width <= tol.  The stored
        brackets are recomputed only when tol is finer than their own
        tolerance, so a bracket refined by `compare` serves every later
        lookup at a coarser tolerance: `chi` reads the brackets `compare`
        refined through coarse reads."""
        ent = self._store[key]
        stored = ent[0]
        if stored is not tol and (stored is None or stored > tol):
            ent[1] = matrix_values([list(row) for row in key], tol)
            ent[0] = tol
        return ent[1]

    def compare(self, c1, c2, coarse, fine):
        """Order the algebraic values behind two (key, state) references:
        -1/0/1.  Overlapping brackets are refined to `fine` before being
        declared equal, which is decisive below the separation bound."""
        if c1 == c2:
            return 0
        for tol in (coarse, fine):
            a = self.values(c1[0], tol)[c1[1]]
            b = self.values(c2[0], tol)[c2[1]]
            if a.hi < b.lo:
                return -1
            if b.hi < a.lo:
                return 1
        return 0


class BruteEntropyResult(NamedTuple):
    chi: tuple  # per Despot index, RationalInterval around the exact value
    candidates: tuple  # (matrix key, state) reference of each winning bracket
    registry: _ValueRegistry
    coarse_tol: Fraction
    fine_tol: Fraction
    pair_count: int
    profile: RankProfile  # sets fine_tol

    def refine(self, state: int, tol) -> RationalInterval:
        key, st = self.candidates[state]
        return self.registry.values(key, tol)[st]


def brute_force_entropy_values(
    game: EntropyGame, budget: int = 10**6
) -> BruteEntropyResult:
    """chi_d = min over Despot strategies of max over Tribune strategies of
    the pair growth rate, componentwise (positional uniformly optimal
    strategies exist).  One pass over the strategy pairs registers every pair
    matrix; the game's rank, and with it the separation profile, is read from
    the distinct ones.  Brackets start at width 2^-30 and are refined to
    1/(4*nu_hat) only when a comparison is ambiguous; equal-looking brackets
    at that width are genuinely equal by the separation bound.  A pair count
    over the budget raises ValueError before any pair matrix is built."""
    count = check_pair_budget(game, budget)
    reg = _ValueRegistry()
    taus = list(itertools.product(*game.t_edges))
    grid = [
        [reg.add(pair_matrix(game, sigma, tau)) for tau in taus]
        for sigma in itertools.product(*game.d_edges)
    ]
    profile = rank_profile(game, reg.keys())
    coarse = Fraction(1, 2**30)
    fine = min(coarse, Fraction(1, 4) / profile.nu_hat)
    chi_cand = None
    for keys in grid:
        best = [(keys[0], d) for d in range(len(game.d_ids))]
        for key in keys[1:]:
            best = [
                b if reg.compare(b, (key, d), coarse, fine) >= 0 else (key, d)
                for d, b in enumerate(best)
            ]
        if chi_cand is None:
            chi_cand = best
        else:
            chi_cand = [
                a if reg.compare(a, b, coarse, fine) <= 0 else b
                for a, b in zip(chi_cand, best)
            ]
    chi = tuple(reg.values(k, coarse)[s] for k, s in chi_cand)
    return BruteEntropyResult(
        chi=chi,
        candidates=tuple(chi_cand),
        registry=reg,
        coarse_tol=coarse,
        fine_tol=fine,
        pair_count=count,
        profile=profile,
    )


# ---------------------------------------------------------------------------
# rational ln and exp brackets


def _div(u: int, v: int, up: bool) -> int:
    """u / v for v > 0, rounded down (or up when `up`)."""
    return -(-u // v) if up else u // v


def _atanh_fixed(a: int, b: int, p: int, up: bool) -> int:
    """2^p atanh(a/b) for 0 <= a/b <= 1/3, rounded down (or up when `up`):
    the series sum_i z^(2i+1)/(2i+1) on integers, every power and term
    rounded the same way.  Each power is at most z^2 <= 1/9 times the last,
    so the terms from a power t on sum to at most 9t/8 < 2t."""
    a2, b2 = a * a, b * b
    t = _div(a << p, b, up)
    total, k = 0, 1
    while t > (1 if up else 0):
        total += _div(t, k, up)
        t = _div(t * a2, b2, up)
        k += 2
    return total + 2 * t if up else total


@lru_cache(maxsize=64)
def _ln2_fixed(p: int, up: bool) -> int:
    """2^p ln 2 = 2^p 2 atanh(1/3), rounded down (or up when `up`);
    memoised, as every bracket at precision p needs both roundings."""
    return 2 * _atanh_fixed(1, 3, p, up)


def _exp_fixed(n: int, p: int, up: bool) -> int:
    """2^p e^r for r = n/2^p >= 0, rounded down (or up when `up`): the
    Taylor series on integers.  The upper sum stops at a term
    t >= 2^p r^i/i! with t <= 1.  As ((i + 1)/2)^i >= i!, that forces
    r <= (i + 1)/2, so each later term is at most half the one before and
    together they are at most t."""
    total = t = 1 << p
    i = 1
    while t > (1 if up else 0):
        t = _div(t * n, i << p, up)
        total += t
        i += 1
    return total + t if up else total


def ln_bracket(x, bits: int):
    """Rational (lo, hi) with lo <= ln x <= hi and hi - lo <= 2^-bits, for
    a rational x > 0.  With x = 2^k y and y in [1, 2),
    ln x = k ln 2 + 2 atanh((y - 1)/(y + 1)), the atanh argument at most
    1/3.  Exact at x = 1."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("ln requires a positive argument")
    num, den = x.numerator, x.denominator
    k = num.bit_length() - den.bit_length()
    n, d = num << max(-k, 0), den << max(k, 0)  # y = n/d lies in (1/2, 2)
    if n < d:
        k, n = k - 1, 2 * n
    # guard bits for the O(p) rounded series terms and the k-fold ln 2 error
    p = bits + abs(k).bit_length() + bits.bit_length() + 8
    l2lo, l2hi = _ln2_fixed(p, False), _ln2_fixed(p, True)
    if k < 0:
        l2lo, l2hi = l2hi, l2lo
    lo = k * l2lo + 2 * _atanh_fixed(n - d, n + d, p, False)
    hi = k * l2hi + 2 * _atanh_fixed(n - d, n + d, p, True)
    return Fraction(lo, 1 << p), Fraction(hi, 1 << p)


def exp_bracket(x, bits: int):
    """Rational (lo, hi) with lo <= e^x <= hi and hi - lo <= lo 2^-bits,
    for a rational x.  With k = floor(x / ln 2), taken against the ln 2
    bound that keeps r >= 0, e^x = 2^k e^r for r = x - k ln 2 in about
    [0, ln 2]."""
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    # guard bits as in ln_bracket, with |k| <= 2 |floor(x)| + 2
    p = bits + (2 * abs(num // den) + 2).bit_length() + bits.bit_length() + 8
    l2lo, l2hi = _ln2_fixed(p, False), _ln2_fixed(p, True)
    x_lo, x_hi = _div(num << p, den, False), _div(num << p, den, True)
    k = x_lo // (l2hi if x_lo >= 0 else l2lo)
    shifts = (k * l2lo, k * l2hi)
    scale = Fraction(2) ** (k - p)
    return (_exp_fixed(x_lo - max(shifts), p, False) * scale,
            _exp_fixed(x_hi - min(shifts), p, True) * scale)


# Kept only because perfbench/spans.py wraps this name; no solver calls it.
def exp_bounds(x, rel_bits: int = 80):
    """Rational (lower, upper) enclosure of e^x with relative width at most
    2^-rel_bits."""
    return exp_bracket(x, rel_bits)


# Kept only because perfbench/spans.py wraps this name; no solver calls it.
def certified_log_sum_exp(terms, eps) -> Fraction:
    """A rational within eps of log(sum_i m_i * e^(x_i)) for integer weights
    m_i >= 1 and rational x_i.  Fast float64 path with a conservative static
    error envelope; exact rational ln/exp brackets otherwise.  Deterministic
    for fixed (terms, eps)."""
    if not terms:
        raise ValueError("empty term list")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    xs = [Fraction(x) for _, x in terms]
    try:
        xf = [float(v) for v in xs]
        shift = max(xf)
        s = 0.0
        for (m, _), v in zip(terms, xf):
            s += m * math.exp(v - shift)
        res = shift + math.log(s)
        xmax_abs = max(abs(v) for v in xf)
        err = (
            Fraction(2.0 * xmax_abs + 2.0 + abs(res)) * Fraction(1, 2**48)
            + Fraction(len(terms) + 8, 2**48)
        )
        if err <= eps:
            return Fraction(res)
    except (OverflowError, ValueError):
        pass
    # Relative width 2^-bits for the sum, and 2^-bits for each ln end, give
    # a bracket of width at most 3 * 2^-bits < eps.
    bits = (eps.denominator // eps.numerator).bit_length() + 2
    shift_fr = max(xs)
    lo = hi = Fraction(0)
    for (m, _), v in zip(terms, xs):
        e_lo, e_hi = exp_bracket(v - shift_fr, bits)
        lo += m * e_lo
        hi += m * e_hi
    return shift_fr + (ln_bracket(lo, bits)[0] + ln_bracket(hi, bits)[1]) / 2


# ---------------------------------------------------------------------------
# random instances


def random_entropy_game(
    rng: random.Random,
    max_d: int = 3,
    max_t: int = 3,
    max_p: int = 3,
    w_max: int = 3,
) -> EntropyGame:
    n_d = rng.randint(1, max_d)
    n_t = rng.randint(1, max_t)
    n_p = rng.randint(1, max_p)
    d_edges = [
        rng.sample(range(n_t), rng.randint(1, n_t)) for _ in range(n_d)
    ]
    t_edges = [
        rng.sample(range(n_p), rng.randint(1, n_p)) for _ in range(n_t)
    ]
    p_edges = []
    for _ in range(n_p):
        targets = rng.sample(range(n_d), rng.randint(1, n_d))
        p_edges.append([(l, rng.randint(1, w_max)) for l in targets])
    return make_entropy_game(
        tuple(f"d{j}" for j in range(n_d)),
        tuple(f"t{j}" for j in range(n_t)),
        tuple(f"p{j}" for j in range(n_p)),
        d_edges,
        t_edges,
        p_edges,
    )
