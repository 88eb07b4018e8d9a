"""Matrix-multiplicative games with three alternating roles.

A Despot state picks one of its Tribune successors (minimizing), a Tribune
picks one of its People successors (maximizing), and a People state spreads
into Despot states with integer multiplicities.  In the multiplicative
domain the one-step operator on positive vectors indexed by Despot states is

    T_d(x) = min_(d,t) max_(t,p) sum_(p,l) m_pl * x_l,

and the per-state value is the growth rate lim T^k(1)_d^(1/k), a Perron root
of an induced nonnegative matrix.  The solver peels top classes: strategy
enumeration finds the top class of the residual game and brackets its value,
comparing brackets exactly by the separation bound of the game's rank (the
maximal rank of its pair matrices, read off the same enumeration), and a
damped iteration of T on integer vectors finds exact sub/super
eigenvectors of the block, which serve as its certificates (checked in exact
rational arithmetic) and give both players' strategies.  The witness levels
sit a slack outside the value bracket; the slack is half the log-gap between
the top value and the nearest distinct growth rate of a pair matrix
restricted to the block, so the strategies greedy at the witnesses are
exactly optimal.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .graphs import (
    GameFormatError,
    edge_records,
    is_state_id,
    json_int,
    json_list,
    state_ids_error,
    tarjan_scc,
)
from .iteration import SUB, SUPER, Certificate, IterationCapExceeded
from .linalg import integer_rank
from .numeric import NEG_INF, RationalInterval, exp_bracket, ln_bracket
from .perron import perron_root


# ---------------------------------------------------------------------------
# game structure


@dataclass(frozen=True)
class EntropyGame:
    d_ids: tuple  # Despot state ids
    t_ids: tuple  # Tribune state ids
    p_ids: tuple  # People state ids
    d_edges: tuple  # per Despot: (tribune_idx, ...)
    t_edges: tuple  # per Tribune: (people_idx, ...)
    p_edges: tuple  # per People: ((despot_idx, multiplicity), ...)

    def validate(self):
        for name, ids, edges in (
            ("despot", self.d_ids, self.d_edges),
            ("tribune", self.t_ids, self.t_edges),
            ("people", self.p_ids, self.p_edges),
        ):
            if len(ids) != len(edges):
                raise GameFormatError(f"{name} adjacency length mismatch")
            for sid, out in zip(ids, edges):
                if not out:
                    raise GameFormatError(f"state {sid!r} has no outgoing edge")
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
    support, sums collapse to maxima, so F^hat_d = min_t max_p max_l x_l."""
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


_LN2_LO = Fraction(693147180, 10**9)  # rational lower bound of ln 2
_E_UPPER = Fraction(27182818285, 10**10)  # rational upper bound of e


def _is_pow2(v: int) -> bool:
    return v > 0 and v & (v - 1) == 0


def log2_lower(x) -> Fraction:
    """Rational lower bound of log2(x) for a positive rational x; exact when
    x is a power of two."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log2 requires a positive argument")
    num, den = x.numerator, x.denominator
    if _is_pow2(num) and _is_pow2(den):
        return Fraction(num.bit_length() - den.bit_length())
    val = math.log2(num) - math.log2(den)
    return Fraction(math.floor(val * 2**20) - 2, 2**20)


def ln_lower(x) -> Fraction:
    """Rational lower bound of ln(x) for rational x >= 1 (clamped at 0)."""
    l2 = log2_lower(x)
    if l2 <= 0:
        return Fraction(0)
    return l2 * _LN2_LO


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


@dataclass(frozen=True)
class InducedEntropy:
    game: EntropyGame
    d_sel: tuple  # original Despot indices (sorted)
    t_sel: tuple  # original Tribune indices kept
    p_sel: tuple  # original People indices kept


def induced_entropy_subgame(game: EntropyGame, d_subset):
    """The subgame induced by a dominion D of Despot states: People keep
    their edges into D (surviving iff at least one remains), Tribunes keep
    their surviving People, and every Despot move must land on a surviving
    Tribune.  Returns None when the subset is not a dominion."""
    d_sel = sorted(set(d_subset))
    d_set = set(d_sel)
    v_p = {
        p
        for p in range(len(game.p_ids))
        if any(l in d_set for l, _ in game.p_edges[p])
    }
    v_t = {
        t
        for t in range(len(game.t_ids))
        if any(p in v_p for p in game.t_edges[t])
    }
    for d in d_sel:
        for t in game.d_edges[d]:
            if t not in v_t:
                return None
    t_sel = sorted({t for d in d_sel for t in game.d_edges[d]})
    p_sel = sorted({p for t in t_sel for p in game.t_edges[t] if p in v_p})
    d_index = {j: i for i, j in enumerate(d_sel)}
    t_index = {j: i for i, j in enumerate(t_sel)}
    p_index = {j: i for i, j in enumerate(p_sel)}
    sub = make_entropy_game(
        tuple(game.d_ids[j] for j in d_sel),
        tuple(game.t_ids[j] for j in t_sel),
        tuple(game.p_ids[j] for j in p_sel),
        tuple(tuple(t_index[t] for t in game.d_edges[j]) for j in d_sel),
        tuple(
            tuple(p_index[p] for p in game.t_edges[j] if p in p_index)
            for j in t_sel
        ),
        tuple(
            tuple((d_index[l], m) for l, m in game.p_edges[j] if l in d_set)
            for j in p_sel
        ),
    )
    return InducedEntropy(sub, tuple(d_sel), tuple(t_sel), tuple(p_sel))


def entropy_dominion_by_graph(game: EntropyGame, d_subset) -> bool:
    return induced_entropy_subgame(game, d_subset) is not None


def subgraph_on(game: EntropyGame, d_ids, t_ids, p_ids) -> EntropyGame:
    """The subgraph of `game` spanned by the given state ids (edges with both
    endpoints inside survive).  Raises GameFormatError when some kept state
    loses all its moves."""
    d_index = {s: j for j, s in enumerate(game.d_ids)}
    t_index = {s: j for j, s in enumerate(game.t_ids)}
    p_index = {s: j for j, s in enumerate(game.p_ids)}
    try:
        d_sel = [d_index[s] for s in d_ids]
        t_sel = [t_index[s] for s in t_ids]
        p_sel = [p_index[s] for s in p_ids]
    except KeyError as exc:
        raise GameFormatError(f"unknown state id {exc}") from exc
    d_new = {j: i for i, j in enumerate(d_sel)}
    t_new = {j: i for i, j in enumerate(t_sel)}
    p_new = {j: i for i, j in enumerate(p_sel)}
    return make_entropy_game(
        tuple(game.d_ids[j] for j in d_sel),
        tuple(game.t_ids[j] for j in t_sel),
        tuple(game.p_ids[j] for j in p_sel),
        tuple(
            tuple(t_new[t] for t in game.d_edges[j] if t in t_new)
            for j in d_sel
        ),
        tuple(
            tuple(p_new[p] for p in game.t_edges[j] if p in p_new)
            for j in t_sel
        ),
        tuple(
            tuple((d_new[l], m) for l, m in game.p_edges[j] if l in d_new)
            for j in p_sel
        ),
    )


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
    Tribune id -> People id); used to confirm stitched strategies."""
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
    nu = _nu_value(stats.n, stats.W, r)
    return RankProfile(rank=r, selections=len(matrices), nu=nu,
                       nu_hat=stats.n * stats.W * nu)


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
    count = 1
    for row in game.d_edges + game.t_edges:
        count *= len(row)
    if count > budget:
        raise ValueError(f"strategy-pair count {count} exceeds budget {budget}")
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
    per distinct vector."""
    images = {}
    for cert in certs:
        if not cert.multiplicative:
            raise ValueError("entropy certificates are multiplicative")
        if any(v <= 0 for v in cert.vec):
            return False
        y = images.get(cert.vec)
        if y is None:
            y = images[cert.vec] = multiplicative_eval(
                game, [Fraction(v) for v in cert.vec])
        if cert.direction == SUB:
            holds = all(cert.lam * v <= w for v, w in zip(cert.vec, y))
        else:
            holds = all(cert.lam * v >= w for v, w in zip(cert.vec, y))
        if not holds:
            return False
    return True


# ---------------------------------------------------------------------------
# solver


@dataclass(frozen=True)
class BlockResult:
    d_ids: tuple  # Despots of this block (top class of the residual game)
    t_ids: tuple  # Tribunes assigned to the block
    p_ids: tuple  # People assigned to the block
    subgame: EntropyGame  # certificates verify against this restriction
    interval: RationalInterval  # multiplicative value bracket
    sub: Certificate
    sup: Certificate
    # log-domain slack: half the log-gap between the block's value and the
    # nearest distinct per-state rate of a pair matrix restricted to the
    # block, in [1/nu_hat, 1/8]; the witness levels sit delta/4 outside a
    # value bracket of width delta/64
    delta: Fraction
    iterations: int  # damped witness steps


@dataclass(frozen=True)
class EntropySolution:
    values: dict  # Despot id -> RationalInterval (multiplicative)
    sigma: dict  # Despot id -> Tribune id
    tau: dict  # Tribune id -> People id
    blocks: tuple


def _top_slack(brute: BruteEntropyResult, best: int, top) -> Fraction:
    """A certified log-domain slack for the witnesses of the top class D =
    `top`, whose value v is that of state `best`: half the smallest verified
    log-gap between v and a distinct per-state growth rate of the
    D-principal submatrix of an achievable pair matrix, floored at the a
    priori bound 1/nu_hat and capped at 1/8.

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
    half_gap = ln_lower(least) / 2 if least is not None else Fraction(1, 8)
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


def _solve_block(game: EntropyGame, budget: int):
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
    ind = induced_entropy_subgame(game, dmax)
    if ind is None:
        raise RuntimeError("top class candidate is not a dominion")
    delta = _top_slack(brute, best, dmax)
    v_int = brute.refine(best, delta / 64)
    # delta is at most half the smallest log-gap between v and a distinct
    # rate on the block, so levels delta/4 outside v_int still separate them
    sub, sup, steps = _witness_certificates(ind.game, v_int, delta / 4)
    if not (check_entropy_certificate(ind.game, sub)
            and check_entropy_certificate(ind.game, sup)):
        raise AssertionError("internal error: certificate failed verification")
    stats = game.stats()
    interval = RationalInterval(max(sub.lam, 1),
                                min(sup.lam, stats.n * stats.W))

    # the witnesses extended by zero off the block: a People sum is positive
    # iff the People has an edge into the block, a Tribune maximum iff the
    # Tribune has such a People; these People and Tribunes join the block
    x = [0] * nd
    y = [0] * nd
    for i, d in enumerate(ind.d_sel):
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
        for d in ind.d_sel
    }
    block = BlockResult(
        d_ids=tuple(game.d_ids[d] for d in ind.d_sel),
        t_ids=tuple(game.t_ids[t] for t in v_t),
        p_ids=tuple(game.p_ids[p] for p in v_p),
        subgame=ind.game,
        interval=interval,
        sub=sub,
        sup=sup,
        delta=delta,
        iterations=steps,
    )
    return block, sigma, tau


def _remove_block(game: EntropyGame, block: BlockResult):
    """Residual game after peeling a block: drop its Despots, its Tribunes
    (every Tribune with a People successor feeding the block) and its People
    (every People with an edge into the block)."""
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
    solve the top class of the current residual game as a constant-value
    block, remove it together with the Tribunes and People attached to it,
    and recurse."""
    game.validate()
    current = game
    blocks = []
    values = {}
    sigma = {}
    tau = {}
    for _ in range(len(game.d_ids) + 1):
        block, blk_sigma, blk_tau = _solve_block(current, budget)
        blocks.append(block)
        for did in block.d_ids:
            values[did] = block.interval
        sigma.update(blk_sigma)
        tau.update(blk_tau)
        current = _remove_block(current, block)
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
    if not isinstance(obj, dict) or obj.get("type") != "entropy":
        raise GameFormatError('expected an object with "type": "entropy"')
    try:
        d_ids, t_ids, p_ids = (
            tuple(json_list(obj[key], f'"{key}"'))
            for key in ("d_states", "t_states", "p_states")
        )
        records = edge_records(obj["edges"])
    except KeyError as exc:
        raise GameFormatError(f"missing key {exc}") from exc
    all_ids = list(d_ids) + list(t_ids) + list(p_ids)
    bad_ids = state_ids_error(all_ids)
    if bad_ids:
        raise GameFormatError(bad_ids)
    if len(set(all_ids)) != len(all_ids):
        raise GameFormatError("state identifiers must be unique across kinds")
    d_index = {s: j for j, s in enumerate(d_ids)}
    t_index = {s: j for j, s in enumerate(t_ids)}
    p_index = {s: j for j, s in enumerate(p_ids)}
    d_edges = [[] for _ in d_ids]
    t_edges = [[] for _ in t_ids]
    p_edges = [[] for _ in p_ids]
    seen = set()
    for rec in records:
        src, dst = rec.get("from"), rec.get("to")
        if not (is_state_id(src) and is_state_id(dst)):
            raise GameFormatError(f"edge record {rec!r} violates alternation")
        if (src, dst) in seen:
            raise GameFormatError(f"duplicate edge {src!r} -> {dst!r}")
        seen.add((src, dst))
        if src in d_index and dst in t_index:
            if "m" in rec:
                raise GameFormatError(
                    "multiplicities belong on People edges only"
                )
            d_edges[d_index[src]].append(t_index[dst])
        elif src in t_index and dst in p_index:
            if "m" in rec:
                raise GameFormatError(
                    "multiplicities belong on People edges only"
                )
            t_edges[t_index[src]].append(p_index[dst])
        elif src in p_index and dst in d_index:
            m = json_int(rec.get("m", 1), f'"m" of edge {src!r} -> {dst!r}')
            p_edges[p_index[src]].append((d_index[dst], m))
        else:
            raise GameFormatError(f"edge record {rec!r} violates alternation")
    return make_entropy_game(d_ids, t_ids, p_ids, d_edges, t_edges, p_edges)


def entropy_to_json(game: EntropyGame) -> dict:
    edges = []
    for j, row in enumerate(game.d_edges):
        for t in row:
            edges.append({"from": game.d_ids[j], "to": game.t_ids[t]})
    for j, row in enumerate(game.t_edges):
        for p in row:
            edges.append({"from": game.t_ids[j], "to": game.p_ids[p]})
    for j, row in enumerate(game.p_edges):
        for l, m in row:
            edges.append({"from": game.p_ids[j], "to": game.d_ids[l], "m": m})
    return {
        "type": "entropy",
        "d_states": list(game.d_ids),
        "t_states": list(game.t_ids),
        "p_states": list(game.p_ids),
        "edges": edges,
    }


def load_entropy(path) -> EntropyGame:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_entropy(json.load(fh))


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
