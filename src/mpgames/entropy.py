"""Matrix-multiplicative games with three alternating roles.

A Despot state picks one of its Tribune successors (minimizing), a Tribune
picks one of its People successors (maximizing), and a People state spreads
into Despot states with integer multiplicities.  In the multiplicative
domain the one-step operator on positive vectors indexed by Despot states is

    T_d(x) = min_(d,t) max_(t,p) sum_(p,l) m_pl * x_l,

and the per-state value is the growth rate lim T^k(1)_d^(1/k), a Perron root
of an induced nonnegative matrix.  The solver peels top classes, searching
approximately and certifying exactly, with no strategy enumeration: a
damped iteration u <- T(u) + u on integer vectors guesses the top class D of
the residual game from its growth ratios, and an integer vector on the
subgame D induces is accepted as both the sub and the super eigenvector of
the block once its Collatz-Wielandt levels are closer than the separation
bound nu of the rank of D's People rows.  That rank bounds the rank of
every pair matrix restricted to D, so the levels hold one growth rate, the
block's value, and the strategies greedy at the vector are exactly
optimal.  A super witness on the rest of the game, below the block's
level, shows that D is the whole top class.  All checks are exact rational
arithmetic.

The iteration takes logarithmic steps: while the pair greedy at the
iterate stays the same, the damped step is the matrix A + I of that pair,
which is squared, so that a geometric tail of k steps costs about log2(k)
squarings.  A Jordan-type block, whose levels close only as 1/k, has an
integer value whenever that value is rational; its vector comes from one
exact solve of (mu I - A) y = 1 just above that integer.

A block whose search runs past its budget of work falls back to strategy
enumeration, the reference path: enumeration finds the top class, brackets
its value, and compares brackets exactly by the separation bound of the
game's rank (the maximal rank of its pair matrices, read off the same
enumeration); damped witnesses then sit a slack outside the value bracket,
half an exact rational lower bound of the log-gap between the top value and
the nearest distinct growth rate of a pair matrix restricted to the block.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from functools import lru_cache
from fractions import Fraction
from math import gcd

from .graphs import (
    GameFormatError,
    check_adjacency,
    game_file,
    read_game_file,
    spanning_subgraph,
    state_indices,
    tarjan_scc,
)
from .iteration import SUB, SUPER, Certificate, IterationCapExceeded
from .linalg import integer_rank, integer_solve
from .numeric import NEG_INF, RationalInterval, exp_bracket, ln_bracket
from .perron import perron_root


# ---------------------------------------------------------------------------
# game structure

# the game file's state-list keys, and (name, edge field, default) per kind
KEYS = ("d_states", "t_states", "p_states")
_LABELS = (("despot", None, None), ("tribune", None, None),
           ("people", "m", 1))


@dataclass(frozen=True)
class EntropyGame:
    d_ids: tuple  # Despot state ids
    t_ids: tuple  # Tribune state ids
    p_ids: tuple  # People state ids
    d_edges: tuple  # per Despot: (tribune_idx, ...)
    t_edges: tuple  # per Tribune: (people_idx, ...)
    p_edges: tuple  # per People: ((despot_idx, multiplicity), ...)

    @property
    def ids(self):
        return self.d_ids, self.t_ids, self.p_ids

    @property
    def edges(self):
        return self.d_edges, self.t_edges, self.p_edges

    def validate(self):
        check_adjacency(_LABELS, self.ids, self.edges)
        for sid, row in zip(self.p_ids, self.p_edges):
            for _, m in row:
                if not isinstance(m, int) or m < 1:
                    raise GameFormatError(
                        f"multiplicity at state {sid!r} must be a positive integer"
                    )
        return self

    def stats(self):
        w = max(m for row in self.p_edges for _, m in row)
        return EntropyStats(n=len(self.d_ids), W=w)


@dataclass(frozen=True)
class EntropyStats:
    n: int
    W: int


def make_entropy_game(d_ids, t_ids, p_ids, d_edges, t_edges, p_edges):
    game = EntropyGame(
        tuple(d_ids),
        tuple(t_ids),
        tuple(p_ids),
        tuple(tuple(sorted(row)) for row in d_edges),
        tuple(tuple(sorted(row)) for row in t_edges),
        tuple(tuple(sorted(row)) for row in p_edges),
    )
    return game.validate()


def value_bounds(game: EntropyGame) -> RationalInterval:
    """Every per-state value lies in [1, n*W]: each People row has at least
    one unit entry, and row sums are at most n*W."""
    stats = game.stats()
    return RationalInterval(Fraction(1), Fraction(stats.n * stats.W))


# ---------------------------------------------------------------------------
# exact multiplicative evaluation


def multiplicative_eval(game: EntropyGame, x):
    """One exact application of T to a vector of nonnegative rationals (or
    integers).  A zero entry plays the role of -inf in the log domain: People
    sums ignore nothing (zero terms contribute zero), Tribunes maximize,
    Despots minimize."""
    if len(x) != len(game.d_ids):
        raise ValueError("vector length does not match Despot state count")
    if any(v < 0 for v in x):
        raise ValueError("multiplicative evaluation requires nonnegative entries")
    pvals = [
        sum(m * x[l] for l, m in row) for row in game.p_edges
    ]
    tvals = [max(pvals[p] for p in row) for row in game.t_edges]
    return tuple(min(tvals[t] for t in row) for row in game.d_edges)


def recession_eval(game: EntropyGame, x):
    """Recession operator in the log domain: multiplicities collapse to their
    support, sums collapse to maxima, so F^hat_d = min_t max_p max_l x_l.
    Test oracle: the value vector is its fixed point (`TestRecessionEval`)."""
    out = []
    for row in game.d_edges:
        best = None
        for t in row:
            inner = NEG_INF
            for p in game.t_edges[t]:
                for l, _ in game.p_edges[p]:
                    v = x[l]
                    if v is NEG_INF:
                        continue
                    if inner is NEG_INF or v > inner:
                        inner = v
            if best is None:
                best = inner
            elif inner is NEG_INF or (best is not NEG_INF and inner < best):
                best = inner
        out.append(best)
    return tuple(out)


# ---------------------------------------------------------------------------
# certified logarithmic arithmetic


_E_UPPER = Fraction(27182818285, 10**10)  # rational upper bound of e


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
# dominions and restrictions


def induced_entropy_subgame(game: EntropyGame, d_subset):
    """The subgame induced by a dominion D of Despot states: People keep
    their edges into D (surviving iff at least one remains), Tribunes keep
    their surviving People, and every Despot move must land on a surviving
    Tribune.  Returns None when the subset is not a dominion."""
    d_set = set(d_subset)
    d_sel = sorted(d_set)
    v_p = {
        p
        for p, row in enumerate(game.p_edges)
        if any(l in d_set for l, _ in row)
    }
    t_sel = sorted({t for d in d_sel for t in game.d_edges[d]})
    if not all(any(p in v_p for p in game.t_edges[t]) for t in t_sel):
        return None
    p_sel = sorted({p for t in t_sel for p in game.t_edges[t] if p in v_p})
    return _spanned(game, (d_sel, t_sel, p_sel))


def subgraph_on(game: EntropyGame, d_ids, t_ids, p_ids) -> EntropyGame:
    """The subgraph of `game` spanned by the given state ids (edges with both
    endpoints inside survive).  Raises GameFormatError when some kept state
    loses all its moves."""
    return _spanned(game, [state_indices(ids, chosen) for ids, chosen
                           in zip(game.ids, (d_ids, t_ids, p_ids))])


def _spanned(game, keep):
    ids, edges = spanning_subgraph(_LABELS, game.ids, game.edges, keep)
    return make_entropy_game(*ids, *edges)


# ---------------------------------------------------------------------------
# pair matrices and their growth rates


def pair_matrix(game: EntropyGame, sigma, tau):
    """Nonnegative matrix of the chain fixed by positional strategies: row k
    is the People row chosen at Despot k via sigma (Despot idx -> Tribune
    idx) and tau (Tribune idx -> People idx)."""
    n = len(game.d_ids)
    rows = []
    for k in range(n):
        p = tau[sigma[k]]
        row = [0] * n
        for l, m in game.p_edges[p]:
            row[l] = m
        rows.append(row)
    return rows


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


# ---------------------------------------------------------------------------
# separation profile


@dataclass(frozen=True)
class RankProfile:
    rank: int  # the game's rank: the maximal rank of its pair matrices
    selections: int  # the distinct pair matrices ranked
    nu: Fraction  # multiplicative separation factor for distinct pair values
    nu_hat: Fraction  # log-domain separation denominator (n * W * nu)


@lru_cache(maxsize=None)
def _nu_value(n: int, w: int, r: int) -> Fraction:
    nu = Fraction(2) ** r * Fraction(r + 1) ** (8 * r)
    expo = 2 * r * r - r - 1
    if expo > 0:
        nu = nu / Fraction(r) ** expo
    nu *= (Fraction(n) * _E_UPPER) ** (4 * r * r)
    nu *= max(Fraction(1), Fraction(w, 2)) ** (4 * r * r)
    return nu


def rank_profile(game: EntropyGame, matrices) -> RankProfile:
    """The rank r of the game, the maximal rank of the given pair matrices
    (the ambiguity matrices of its strategy pairs, the paper's rank), and
    the separation factors nu(n, W, r) derived from it.

    Every value the solver compares is a Perron root of a principal
    submatrix of a pair matrix of the game: the per-state rates of the pair
    matrices themselves, and those of their restrictions to the top class in
    `_top_slack`.  A principal submatrix has rank at most that of the
    matrix, so every such root is an eigenvalue of an integer matrix of rank
    at most r, and nu(n, W, r) separates any two distinct ones."""
    stats = game.stats()
    r = max([1] + [integer_rank(m) for m in matrices])
    return RankProfile(rank=r, selections=len(matrices),
                       nu=_nu_value(stats.n, stats.W, r),
                       nu_hat=_nu_hat(stats, r))


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
        lookup at a coarser tolerance: `_top_slack` relies on that to see
        fine brackets through its coarse reads."""
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


@dataclass
class BruteEntropyResult:
    chi: tuple  # per Despot index, RationalInterval around the exact value
    candidates: tuple  # (matrix key, state) reference of each winning bracket
    registry: _ValueRegistry
    coarse_tol: Fraction
    fine_tol: Fraction
    pair_count: int
    profile: RankProfile  # sets fine_tol and the slack floor of the solver

    def refine(self, state: int, tol) -> RationalInterval:
        key, st = self.candidates[state]
        return self.registry.values(key, tol)[st]


def pair_count(game: EntropyGame) -> int:
    """The number of positional strategy pairs of the game."""
    count = 1
    for row in game.d_edges + game.t_edges:
        count *= len(row)
    return count


def check_pair_budget(game: EntropyGame, budget: int) -> int:
    """The game's strategy-pair count; ValueError when it exceeds `budget`."""
    count = pair_count(game)
    if count > budget:
        raise ValueError(f"strategy-pair count {count} exceeds budget {budget}")
    return count


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
# certificates


def check_entropy_certificate(game: EntropyGame, cert: Certificate) -> bool:
    """Exact verification of lam * v <= T(v) (sub) or >= (super) for a
    multiplicative certificate with positive rational entries."""
    return check_entropy_certificates(game, (cert,))


def check_entropy_certificates(game: EntropyGame, certs) -> bool:
    """`check_entropy_certificate` for every certificate, evaluating T once
    per distinct vector.  T is positively homogeneous, so each vector is
    scaled to integers by the lcm of its denominators and T runs on ints;
    lam = p/q is then compared by cross-multiplication, p * v against
    q * T(v)."""
    images = {}
    for cert in certs:
        if not cert.multiplicative:
            raise ValueError("entropy certificates are multiplicative")
        if any(v <= 0 for v in cert.vec):
            return False
        image = images.get(cert.vec)
        if image is None:
            den = math.lcm(*(v.denominator for v in cert.vec))
            ints = [v.numerator * (den // v.denominator) for v in cert.vec]
            image = images[cert.vec] = ints, multiplicative_eval(game, ints)
        p, q = cert.lam.numerator, cert.lam.denominator
        if cert.direction == SUB:
            holds = all(p * v <= q * w for v, w in zip(*image))
        else:
            holds = all(p * v >= q * w for v, w in zip(*image))
        if not holds:
            return False
    return True


# ---------------------------------------------------------------------------
# solver


SEPARATION = "separation"
ENUMERATION = "enumeration"

# a block's separation search may spend max(4 * pairs, _SEARCH_FLOOR) units
# of work (evaluations of T, squarings, exact solves), pairs being the
# strategy-pair count of the residual game, before that block falls back to
# enumeration
_SEARCH_FLOOR = 64
# bits kept beyond those of nu_hat when a search iterate or a power of its
# step matrix is trimmed
_MARGIN_BITS = 64


@dataclass(frozen=True)
class BlockResult:
    d_ids: tuple  # Despots of this block (top class of the residual game)
    t_ids: tuple  # Tribunes assigned to the block
    p_ids: tuple  # People assigned to the block
    subgame: EntropyGame  # certificates verify against this restriction
    interval: RationalInterval  # multiplicative value bracket
    sub: Certificate
    sup: Certificate
    # log-domain separation behind the levels.  Decided by separation:
    # 1/nu_hat at r = rank, the a priori log-gap between distinct rates, which
    # the log-width of the levels stays below.  Decided by enumeration: half
    # an exact lower bound of the log-gap between the block's value and the
    # nearest distinct per-state rate of a pair matrix restricted to the
    # block, in [1/nu_hat, 1/8]; the witness levels sit delta/4 outside a
    # value bracket of width delta/64
    delta: Fraction
    # decided by separation: the units of work of its search (evaluations
    # of T, squarings, exact solves); by enumeration: the damped witness
    # steps
    iterations: int
    decided_by: str  # SEPARATION or ENUMERATION
    # r of nu(n, W, r): r_D, the rank of the subgame's People rows, or the
    # residual game's rank read off its enumeration
    rank: int


@dataclass(frozen=True)
class EntropySolution:
    values: dict  # Despot id -> RationalInterval (multiplicative)
    sigma: dict  # Despot id -> Tribune id
    tau: dict  # Tribune id -> People id
    blocks: tuple


def _top_slack(brute: BruteEntropyResult, best: int, top) -> Fraction:
    """A certified log-domain slack for the witnesses of the top class D =
    `top`, whose value v is that of state `best`: half an exact rational
    lower bound (`ln_bracket` at 20 bits) of the smallest verified log-gap
    between v and a distinct per-state growth rate of the D-principal
    submatrix of an achievable pair matrix, floored at the a priori bound
    1/nu_hat and capped at 1/8.

    Only these rates matter.  The witnesses x, y > 0 on D satisfy
    T(x) >= lam_lo * x and T(y) <= lam_hi * y on the block, at levels within
    a log-distance delta/2 of v.  A Tribune strategy greedy at x gives
    A_DD x >= lam_lo * x for every Despot strategy, and a Despot strategy
    greedy at y gives A_DD y <= lam_hi * y for every Tribune strategy, where
    A_DD is the D-principal submatrix of the pair matrix.  Iterating these
    inequalities bounds every per-state rate of A_DD below by lam_lo and
    above by lam_hi respectively.  No rate other than v lies that close to
    v, so both greedy strategies are exactly optimal on D.

    Each comparison goes to `compare`, which refines overlapping brackets to
    the fine tolerance, and both brackets are read after it.  The registry
    serves the stored fine bracket to a coarse lookup, so two distinct
    values closer than the coarse width still give a ratio big.lo / small.hi
    above 1.  Read before `compare`, such a pair would give a ratio of at
    most 1 and drop delta to the floor: still sound, as any brackets bound
    the ratio from below, but too small a slack for the witness search."""
    reg, coarse, fine = brute.registry, brute.coarse_tol, brute.fine_tol
    v = brute.candidates[best]
    least = None  # the smallest verified ratio big.lo / small.hi
    for key in reg.keys():
        sub = reg.add([[key[i][j] for j in top] for i in top])
        for s in range(len(top)):
            c = reg.compare(v, (sub, s), coarse, fine)
            if c == 0:
                continue
            a = reg.values(v[0], coarse)[v[1]]
            b = reg.values(sub, coarse)[s]
            small, big = (a, b) if c < 0 else (b, a)
            if small.hi > 0 and (least is None or big.lo / small.hi < least):
                least = big.lo / small.hi
    half_gap = (ln_bracket(least, 20)[0] / 2 if least is not None
                else Fraction(1, 8))
    return min(Fraction(1, 8),
               max(half_gap, Fraction(1) / brute.profile.nu_hat))


def _witness_certificates(subgame, v_interval, slack, cap=30000):
    """Exact multiplicative sub/super certificates at the levels
    v.lo - slack and v.hi + slack: run the damped iteration u <- T(u) + u on
    integer vectors from 1 and keep the first iterates satisfying the sub and
    the super inequality.  The minimum normalized ratio min_d T(u)_d/u_d is
    nondecreasing along the damped orbit, so the search is monotone.  Returns
    (sub, sup, steps), steps counting the evaluations of T; raises
    IterationCapExceeded after `cap` of them."""
    lam_lo = v_interval.lo - slack
    lam_hi = v_interval.hi + slack
    u = [1] * len(subgame.d_ids)
    sub = sup = None
    for steps in range(1, cap + 1):
        tu = multiplicative_eval(subgame, u)
        if sub is None and all(tv >= lam_lo * uv for tv, uv in zip(tu, u)):
            sub = Certificate(lam_lo, tuple(u), SUB, multiplicative=True)
        if sup is None and all(tv <= lam_hi * uv for tv, uv in zip(tu, u)):
            sup = Certificate(lam_hi, tuple(u), SUPER, multiplicative=True)
        if sub is not None and sup is not None:
            return sub, sup, steps
        u = [a + b for a, b in zip(tu, u)]
        if steps % 32 == 0:
            g = gcd(*u)
            if g > 1:
                u = [v // g for v in u]
    raise IterationCapExceeded(
        f"damped iteration found no eigenvector witnesses within {cap} steps"
    )


def _finish_block(game, dmax, subgame, sub, sup, **fields):
    """The block of the Despots `dmax` of `game`, whose subgame carries the
    witnesses sub and sup, with the strategies greedy at them:
    (block, sigma, tau).  `fields` are the block's remaining fields."""
    bounds = value_bounds(game)
    interval = RationalInterval(max(sub.lam, bounds.lo),
                                min(sup.lam, bounds.hi))
    # the witnesses extended by zero off the block: a People sum is positive
    # iff the People has an edge into the block, a Tribune maximum iff the
    # Tribune has such a People; these People and Tribunes join the block
    nd = len(game.d_ids)
    x = [0] * nd
    y = [0] * nd
    for i, d in enumerate(dmax):
        x[d] = sub.vec[i]
        y[d] = sup.vec[i]
    p_sub = [sum(m * x[l] for l, m in row) for row in game.p_edges]
    p_sup = [sum(m * y[l] for l, m in row) for row in game.p_edges]
    t_sup = [max(p_sup[p] for p in row) for row in game.t_edges]
    v_p = [p for p, s in enumerate(p_sup) if s]
    v_t = [t for t, s in enumerate(t_sup) if s]
    # exact strategies, ties to the smallest index: each Tribune takes the
    # People of largest sum at the sub witness, each Despot the Tribune of
    # smallest maximum at the super witness
    tau = {
        game.t_ids[t]: game.p_ids[max(game.t_edges[t], key=p_sub.__getitem__)]
        for t in v_t
    }
    sigma = {
        game.d_ids[d]: game.t_ids[min(game.d_edges[d], key=t_sup.__getitem__)]
        for d in dmax
    }
    block = BlockResult(
        d_ids=tuple(game.d_ids[d] for d in dmax),
        t_ids=tuple(game.t_ids[t] for t in v_t),
        p_ids=tuple(game.p_ids[p] for p in v_p),
        subgame=subgame,
        interval=interval,
        sub=sub,
        sup=sup,
        **fields,
    )
    return block, sigma, tau


def _enumerated_block(game: EntropyGame, budget: int):
    """The top class of `game` by strategy enumeration, certified by damped
    witnesses at a slack from `_top_slack`: (block, sigma, tau, residual)."""
    brute = brute_force_entropy_values(game, budget)
    reg, cands = brute.registry, brute.candidates
    coarse, fine = brute.coarse_tol, brute.fine_tol
    nd = len(game.d_ids)
    best = 0
    for d in range(1, nd):
        if reg.compare(cands[d], cands[best], coarse, fine) > 0:
            best = d
    dmax = [
        d
        for d in range(nd)
        if reg.compare(cands[d], cands[best], coarse, fine) == 0
    ]
    subgame = induced_entropy_subgame(game, dmax)
    if subgame is None:
        raise RuntimeError("top class candidate is not a dominion")
    delta = _top_slack(brute, best, dmax)
    v_int = brute.refine(best, delta / 64)
    # delta is at most half the smallest log-gap between v and a distinct
    # rate on the block, so levels delta/4 outside v_int still separate them
    sub, sup, steps = _witness_certificates(subgame, v_int, delta / 4)
    if not check_entropy_certificates(subgame, (sub, sup)):
        raise AssertionError("internal error: certificate failed verification")
    block, sigma, tau = _finish_block(
        game, dmax, subgame, sub, sup, delta=delta, iterations=steps,
        decided_by=ENUMERATION, rank=brute.profile.rank)
    return block, sigma, tau, _remove_block(game, block)


def _greedy_eval(game: EntropyGame, x):
    """T(x) and the People row each Despot takes under the pair greedy at
    x, ties to the smallest index: T(x) = A x for the pair matrix A of
    those rows."""
    pvals = [sum(m * x[l] for l, m in row) for row in game.p_edges]
    best = [max(row, key=pvals.__getitem__) for row in game.t_edges]
    rows = tuple(best[min(row, key=lambda t: pvals[best[t]])]
                 for row in game.d_edges)
    return tuple(pvals[p] for p in rows), rows


def _shifted(rows, shift):
    """The rows of nonnegative integers divided by 2^shift, rounded up: a
    positive entry stays positive."""
    if shift <= 0:
        return rows
    return [[-(-v >> shift) for v in row] for row in rows]


class _DampedIterate:
    """The damped iteration u <- T(u) + u on integer vectors from 1 (or
    from `start`), in logarithmic steps.  A damped step is u <- B u with B = A + I, A the pair
    matrix greedy at u.  While the next iterate has the same greedy pair, B
    is squared instead, so that j squarings take 2^j steps at once.

    The iterate keeps bits = bits(nu_hat) + `_MARGIN_BITS` bits on its
    least entry, and the power of B twice that on its largest; the exact
    checks accept any positive vector, so trimming costs precision, not
    soundness.  Squaring stops while the iterate's entries span more than
    `bits` bits: on a game of several classes that spread grows with the
    steps taken, and a power would round the lower classes away.  nu_hat
    may be set after construction, but before the first advance."""

    def __init__(self, game: EntropyGame, nu_hat=None, start=None):
        self.game = game
        self.nu_hat = nu_hat
        self.vec = start or [1] * len(game.d_ids)
        self.steps = 0  # the damped steps behind the iterate
        self._rows = self._power = None  # the rows of A, and B^exponent
        self._exponent = 0

    @property
    def bits(self) -> int:
        return _log2_ceil(self.nu_hat) + _MARGIN_BITS

    def advance(self, tx, rows) -> int:
        """Move past the iterate, whose image is tx under the pair greedy at
        it with People rows `rows`; returns the squarings spent (0 or 1)."""
        bits = self.bits
        low, high = min(self.vec).bit_length(), max(self.vec).bit_length()
        if rows == self._rows and high - low <= bits:
            p = self._power
            cols = list(zip(*p))
            p = [[sum(map(int.__mul__, row, col)) for col in cols]
                 for row in p]
            self._power = _shifted(
                p, max(map(max, p)).bit_length() - 2 * bits)
            self._exponent *= 2
            nxt = [sum(map(int.__mul__, row, self.vec))
                   for row in self._power]
            squarings = 1
        else:
            n = len(self.vec)
            power = [[0] * n for _ in range(n)]
            for d, p in enumerate(rows):
                power[d][d] = 1
                for l, m in self.game.p_edges[p]:
                    power[d][l] += m
            self._rows, self._power, self._exponent = rows, power, 1
            nxt = [a + b for a, b in zip(tx, self.vec)]
            squarings = 0
        self.steps += self._exponent
        (self.vec,) = _shifted([nxt], min(nxt).bit_length() - bits)
        return squarings


def _growth_top(u, tu, k):
    """The top class guessed at cut k: the Despots whose growth ratio
    T(u)_d / u_d is at least 1 - 1/k times the largest (every Despot at
    k = 1), compared by cross-multiplication."""
    best = 0
    for d in range(1, len(u)):
        if tu[d] * u[best] > tu[best] * u[d]:
            best = d
    a, b = (k - 1) * tu[best], k * u[best]
    return tuple(d for d in range(len(u)) if b * tu[d] >= a * u[d])


def _level_states(v, tv):
    """The Despots of least and largest ratio T(v)_d / v_d, compared as
    integer pairs by cross-multiplication."""
    lo = hi = 0
    for d in range(1, len(v)):
        if tv[d] * v[lo] < tv[lo] * v[d]:
            lo = d
        if tv[d] * v[hi] > tv[hi] * v[d]:
            hi = d
    return lo, hi


def _separated_levels(v, tv, nu_hat):
    """The Collatz-Wielandt levels (min, max of T(v)_d / v_d) of the
    positive vector v, or None unless max/min < 1 + 1/nu_hat.  Only the two
    levels become Fractions."""
    lo, hi = _level_states(v, tv)
    # max/min - 1 = (tv_hi v_lo - tv_lo v_hi) / (tv_lo v_hi) < 1/nu_hat
    gap = tv[hi] * v[lo] - tv[lo] * v[hi]
    if gap * nu_hat.numerator >= tv[lo] * v[hi] * nu_hat.denominator:
        return None
    return Fraction(tv[lo], v[lo]), Fraction(tv[hi], v[hi])


def _single_integer(v, tv):
    """The one integer between the Collatz-Wielandt levels of v, or None
    when they hold none or several."""
    lo, hi = _level_states(v, tv)
    rho = -(-tv[lo] // v[lo])
    return rho if rho * v[hi] <= tv[hi] < (rho + 1) * v[hi] else None


def _integer_value_witness(subgame: EntropyGame, rows, rho, nu_hat):
    """The candidate witness of a block whose value is the integer rho: y
    with (mu I - A) y = 1 at mu = rho (1 + 2^-b), 2^-b <= 1/(2 nu_hat), A
    the pair matrix of the People `rows`, scaled to integers.  None unless
    rho is an eigenvalue of A (rho I - A singular, a cheap test on small
    integers) and y is positive.  If rho is A's Perron root, then A y =
    mu y - 1 gives levels in [rho, mu) even on a Jordan block, which has no
    positive eigenvector.  The power of two keeps mu, and so y, far shorter
    than nu_hat's own numerator and denominator."""
    n = len(rows)
    shifted = [[rho * (d == l) for l in range(n)] for d in range(n)]
    for d, p in enumerate(rows):
        for l, m in subgame.p_edges[p]:
            shifted[d][l] -= m
    if integer_rank(shifted) == n:
        return None
    # 2^b (mu I - A) = 2^b (rho I - A) + rho I
    b = _log2_ceil(2 * nu_hat)
    a = [[(x << b) + rho * (d == l) for l, x in enumerate(row)]
         for d, row in enumerate(shifted)]
    try:
        y = integer_solve(a, [1 << b] * n)
    except ValueError:
        return None
    if any(v <= 0 for v in y):
        return None
    den = math.lcm(*(v.denominator for v in y))
    return [v.numerator * (den // v.denominator) for v in y]


def _people_rank(subgame: EntropyGame) -> int:
    """The rank of the subgame's People rows, as vectors over its Despots."""
    rows = []
    for row in subgame.p_edges:
        vec = [0] * len(subgame.d_ids)
        for l, m in row:
            vec[l] = m
        rows.append(vec)
    return integer_rank(rows)


def _nu_hat(stats: EntropyStats, rank: int) -> Fraction:
    """The log-domain separation denominator n * W * nu(n, W, rank)."""
    return stats.n * stats.W * _nu_value(stats.n, stats.W, rank)


def _log2_ceil(x: Fraction) -> int:
    """The least b with 2^b >= x, for x >= 1."""
    b = x.numerator.bit_length() - x.denominator.bit_length()
    return b if x <= 1 << b else b + 1


def _separated_block(game: EntropyGame):
    """The top class of `game` certified by the rank separation, with no
    enumeration: (block, sigma, tau, residual), or None once the search has
    spent max(4 * pairs, `_SEARCH_FLOOR`) units of work, pairs being the
    strategy-pair count of `game`.  A unit is an evaluation of T, a
    squaring of a step matrix or an exact solve, and the block's
    `iterations` counts them.

    Search approximately: the damped iteration u <- T(u) + u runs on the
    game from 1 in logarithmic steps (`_DampedIterate`).  After m damped
    steps `_growth_top` guesses the top class D at the cut 1 - 1/k, k =
    isqrt(m) + 1: the ratios of a Jordan chain in D trail the largest by
    O(1/m), those of a lower class by a constant factor, so D keeps the
    first and drops the second once m is large enough.  Certify exactly: a
    guess is accepted only when
    - D induces a subgame;
    - a witness v on that subgame has Collatz-Wielandt levels lo <= hi with
      hi/lo < 1 + 1/nu_hat, where nu_hat = n * W * nu(n, W, r_D), n and W
      are the game's, and r_D is the rank of the subgame's People rows
      (`_people_rank`).  Every pair matrix restricted to D takes its rows
      from those rows (or is zero there), so its rank is at most r_D, and
      two of its distinct rates, all at most n * W, lie a log-distance of
      at least 1/nu_hat apart.  So [lo, hi] holds exactly one such rate,
      the block's value, and v is both the sub and the super witness.  The
      strategies greedy at v are then exactly optimal on D by `_top_slack`'s
      argument, with 1/nu_hat in place of the enumerated gap;
    - `_remove_block` leaves a well-formed residual game (or none), and the
      search iterate restricted to it is a super witness at a level below
      lo: every Despot left has a lower value, so D is the whole top class.
    The witnesses offered are the iterates of a second damped iteration on
    the subgame, which starts from the search iterate restricted to D (when
    D is every Despot, the search iterate itself).  Their levels close
    geometrically on most blocks, but only as 1/m on a Jordan-type block.
    A rational Perron root of an integer matrix is an integer, so when the
    levels hold a single integer rho, `_integer_value_witness` for the pair
    greedy at the iterate is offered as well, once per (rho, pair)."""
    nd = len(game.d_ids)
    stats = game.stats()
    limit = max(4 * pair_count(game), _SEARCH_FLOOR)
    search = _DampedIterate(game)
    guess = None
    work = 0
    while work < limit:
        u = search.vec
        tu, u_rows = _greedy_eval(game, u)
        work += 1
        top = _growth_top(u, tu, math.isqrt(search.steps) + 1)
        if top != guess:
            # a new guess: its subgame, separation bound and iterate
            guess, found = top, None
            subgame = induced_entropy_subgame(game, top)
            if subgame is not None:
                rank = _people_rank(subgame)
                nu_hat = _nu_hat(stats, rank)
                if len(top) == nd:
                    # the first guess (the cut k = 1 keeps every Despot):
                    # its rank bounds that of every pair matrix of the game
                    search.nu_hat, inner = nu_hat, search
                else:
                    inner = _DampedIterate(subgame, nu_hat,
                                           [u[d] for d in top])
                tried = set()
        if subgame is not None and found is None:
            v = inner.vec
            if inner is search:
                tv, v_rows = tu, u_rows
            else:
                tv, v_rows = _greedy_eval(subgame, v)
                work += 1
            levels = _separated_levels(v, tv, nu_hat)
            rho = None if levels else _single_integer(v, tv)
            if rho is not None and (rho, v_rows) not in tried:
                # one exact solve per integer and greedy pair of the guess
                tried.add((rho, v_rows))
                y = _integer_value_witness(inner.game, v_rows, rho, nu_hat)
                work += 1
                if y is not None:
                    levels = _separated_levels(
                        y, multiplicative_eval(inner.game, y), nu_hat)
                    work += 1
                    if levels is not None:
                        v = y
            if levels is None:
                if inner is not search:
                    work += inner.advance(tv, v_rows)
            else:
                lo, hi = levels
                found = _finish_block(
                    game, top, subgame,
                    Certificate(lo, tuple(v), SUB, multiplicative=True),
                    Certificate(hi, tuple(v), SUPER, multiplicative=True),
                    delta=1 / nu_hat, iterations=0, decided_by=SEPARATION,
                    rank=rank)
                try:
                    residual = _remove_block(game, found[0])
                except RuntimeError:
                    subgame = None  # some Despot outside D must enter it
        if subgame is not None and found is not None:
            if residual is not None:
                rest = [d for d in range(nd) if d not in top]
                w = [u[d] for d in rest]
                tw = multiplicative_eval(residual, w)
                work += 1
            if residual is None or all(
                    a * lo.denominator < lo.numerator * b
                    for a, b in zip(tw, w)):
                block, sigma, tau = found
                block = replace(block, iterations=work)
                return block, sigma, tau, residual
        work += search.advance(tu, u_rows)
    return None


def _remove_block(game: EntropyGame, block: BlockResult):
    """Residual game after peeling a block: drop its Despots, its Tribunes
    (every Tribune with a People successor feeding the block) and its People
    (every People with an edge into the block).  None when no Despot is
    left; RuntimeError when a Tribune or People is orphaned or a state left
    loses every move."""
    d_keep = [s for s in game.d_ids if s not in set(block.d_ids)]
    t_keep = [s for s in game.t_ids if s not in set(block.t_ids)]
    p_keep = [s for s in game.p_ids if s not in set(block.p_ids)]
    if not d_keep:
        if t_keep or p_keep:
            raise RuntimeError(
                "decomposition left orphan Tribune/People states"
            )
        return None
    try:
        return subgraph_on(game, d_keep, t_keep, p_keep)
    except GameFormatError as exc:
        raise RuntimeError(f"residual game is malformed: {exc}") from exc


def solve_entropy_game(game: EntropyGame, budget: int = 10**6) -> EntropySolution:
    """Per-state value brackets, uniformly optimal positional strategies, and
    exactly verified multiplicative certificates, by peeling top classes:
    certify the top class of the current residual game as a constant-value
    block, remove it together with the Tribunes and People attached to it,
    and recurse.  Each block is certified by the rank separation
    (`_separated_block`); a block whose search runs out of evaluations
    falls back to strategy enumeration (`_enumerated_block`).  A game whose
    strategy-pair count exceeds `budget` is refused before any other work,
    so every fallback fits the budget."""
    game.validate()
    check_pair_budget(game, budget)
    current = game
    blocks = []
    values = {}
    sigma = {}
    tau = {}
    for _ in range(len(game.d_ids) + 1):
        block, blk_sigma, blk_tau, current = (
            _separated_block(current) or _enumerated_block(current, budget))
        blocks.append(block)
        for did in block.d_ids:
            values[did] = block.interval
        sigma.update(blk_sigma)
        tau.update(blk_tau)
        if current is None:
            break
    else:
        raise RuntimeError("decomposition failed to terminate")
    if set(values) != set(game.d_ids):
        raise RuntimeError("decomposition did not cover every Despot state")
    return EntropySolution(
        values=values, sigma=sigma, tau=tau, blocks=tuple(blocks)
    )


# ---------------------------------------------------------------------------
# file format and random instances


def parse_entropy(obj) -> EntropyGame:
    ids, edges = read_game_file(obj, "entropy", KEYS, _LABELS)
    return make_entropy_game(*ids, *edges)


def entropy_to_json(game: EntropyGame) -> dict:
    return game_file("entropy", KEYS, _LABELS, game.ids, game.edges)


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
