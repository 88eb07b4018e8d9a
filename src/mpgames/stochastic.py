"""Turn-based stochastic mean-payoff games.

States alternate Min -> Max -> Nature -> Min.  Min pays A on its move, Max
receives B on its move, Nature moves according to rational rows with common
denominator M.  The per-turn reward of a path through edges (j,i), (i,k) is
B_ik - A_ij; the value of a state is the long-run average reward under
optimal play.

Solving searches approximately and certifies exactly.  `solve_game`,
`solve_top_class` and `solve_constant_value` first run the rounded value
iteration of the paper's first constancy decision (grid 1/q, q = 4 mu^2) and
stop at checkpoints whose lengths about double.  At each checkpoint they take
the strategy pair greedy at the iterate, compute its exact gain chi and bias
h, and check exactly that h + t chi is an invariant half-line of the Shapley
operator F: F(h + t chi) = h + (t + 1) chi for all large t (Hoffman & Karp
1966; Kohlberg 1980).  When the iterate's pair fails, up to three more steps
try the pair greedy at the mean of the last 2, 3 and 4 iterates, which
certifies iterations caught in a short periodic orbit.  When the half-line
holds, chi is the value vector, the top class is argmax chi, and h
restricted to the top class is an exact fixed point F(h) = h + max chi of
the subgame the top class induces: a sub and a super certificate at one
level.  When no checkpoint passes by the decision's own stop (its gap
condition, or the a priori cap 1 + ceil(8R/delta) with delta = 1/mu^2), the
paper's path runs unchanged from 0: `top_class` peels dominions off and
`approximate_constant_mean_payoff` brackets the value within delta.

Both paths iterate on integer numerators with the Python-int Shapley step
of `_smpgfast.Kernel`; `shapley_eval` is the exact step that certificates
are checked with.  Every reported strategy pair comes from one greedy rule,
`_greedy_pair` on integer numerators: at the half-line's witness h, or Max
greedy at the sub witness and Min greedy at the super witness.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from ._smpgfast import Kernel
from .dominion import SepParams, top_class
from .graphs import (
    GameFormatError,
    edge_records,
    is_state_id,
    json_int,
    json_list,
    state_ids_error,
    tarjan_scc,
)
from .iteration import (
    SUB,
    SUPER,
    Certificate,
    approximate_constant_mean_payoff,
    value_iteration,
)
from .linalg import integer_solve
from .numeric import (
    NEG_INF,
    NOT_FOUND,
    NOT_UNIQUE,
    RationalInterval,
    rational_in_interval,
)
from .oracle import ShapleyOracle


@dataclass(frozen=True)
class StochasticGame:
    min_ids: tuple
    max_ids: tuple
    nat_ids: tuple
    # adjacency by index, sorted by target index:
    min_edges: tuple  # per Min state: ((max_idx, A), ...)
    max_edges: tuple  # per Max state: ((nat_idx, B), ...)
    nat_edges: tuple  # per Nat state: ((min_idx, numerator), ...), sum = M
    M: int

    def validate(self):
        if self.M < 1:
            raise GameFormatError("denominator must be >= 1")
        for name, ids, edges in (
            ("min", self.min_ids, self.min_edges),
            ("max", self.max_ids, self.max_edges),
            ("nat", self.nat_ids, self.nat_edges),
        ):
            if len(ids) != len(edges):
                raise GameFormatError(f"{name} adjacency length mismatch")
            for sid, out in zip(ids, edges):
                if not out:
                    raise GameFormatError(f"state {sid!r} has no outgoing edge")
        for sid, row in zip(self.nat_ids, self.nat_edges):
            if any(num <= 0 for _, num in row):
                raise GameFormatError(f"nonpositive numerator at state {sid!r}")
            if sum(num for _, num in row) != self.M:
                raise GameFormatError(
                    f"numerators at state {sid!r} do not sum to denominator"
                )
        return self

    def stats(self):
        n = len(self.min_ids)
        # max |a - b| over the Max edges after a Min edge is at the
        # smallest or the largest b
        b_range = [(min(b for _, b in row), max(b for _, b in row))
                   for row in self.max_edges]
        w = 0
        for row in self.min_edges:
            for i, a in row:
                lo, hi = b_range[i]
                w = max(w, a - lo, hi - a)
        s = sum(1 for row in self.nat_edges if len(row) >= 2)
        m_exp = min(s, n - 1) if n > 1 else 0
        mu = n * self.M**m_exp
        return GameStats(n=n, M=self.M, W=w, s=s, m_exp=m_exp, mu=mu)


@dataclass(frozen=True)
class GameStats:
    n: int
    M: int
    W: int
    s: int
    m_exp: int
    mu: int


@dataclass(frozen=True)
class StrategyPair:
    sigma: dict  # Min id -> Max id
    tau: dict  # Max id -> Nat id


def make_game(min_ids, max_ids, nat_ids, min_edges, max_edges, nat_edges, M):
    """Build and validate a game from index-based adjacency (targets get
    sorted by index for deterministic tie-breaking)."""
    game = StochasticGame(
        tuple(min_ids),
        tuple(max_ids),
        tuple(nat_ids),
        tuple(tuple(sorted(row)) for row in min_edges),
        tuple(tuple(sorted(row)) for row in max_edges),
        tuple(tuple(sorted(row)) for row in nat_edges),
        M,
    )
    return game.validate()


# ---------------------------------------------------------------------------
# operator evaluation


def _nature_sum(row, x, M):
    """sum_l (num_l / M) * x_l with the convention 0 * (-inf) = 0; only
    positive numerators appear in `row`, so any -inf term forces -inf."""
    acc = 0
    for l, num in row:
        v = x[l]
        if v is NEG_INF:
            return NEG_INF
        acc += num * v
    return Fraction(acc, M) if not isinstance(acc, Fraction) else acc / M


def shapley_eval(game: StochasticGame, x):
    """One exact application of the Shapley operator:
    F_j(x) = min_(j,i) [ -A_ij + max_(i,k) ( B_ik + sum_l P_kl x_l ) ].
    Each Nature sum and each Max maximum is computed once per call."""
    if len(x) != len(game.min_ids):
        raise ValueError("vector length does not match Min state count")
    nat = [_nature_sum(row, x, game.M) for row in game.nat_edges]
    maxima = []
    for row in game.max_edges:
        inner = NEG_INF
        for k, b in row:
            val = nat[k]
            if val is NEG_INF:
                continue
            val = b + val
            if inner is NEG_INF or val > inner:
                inner = val
        maxima.append(inner)
    out = []
    for row in game.min_edges:
        best = None
        for i, a in row:
            inner = maxima[i]
            branch = NEG_INF if inner is NEG_INF else -a + inner
            if best is None:
                best = branch
            elif branch is NEG_INF or (best is not NEG_INF and branch < best):
                best = branch
            if best is NEG_INF:
                break
        out.append(best)
    return tuple(out)


def recession_eval(game: StochasticGame, x):
    """Recession operator: same min/max structure with payoffs dropped."""
    stripped = StochasticGame(
        game.min_ids,
        game.max_ids,
        game.nat_ids,
        tuple(tuple((i, 0) for i, _ in row) for row in game.min_edges),
        tuple(tuple((k, 0) for k, _ in row) for row in game.max_edges),
        game.nat_edges,
        game.M,
    )
    return shapley_eval(stripped, x)


class ExactOracle(ShapleyOracle):
    """Exact evaluation; `eps` is ignored (the eps = 0 path)."""

    def __init__(self, game):
        super().__init__(len(game.min_ids))
        self.game = game

    def _eval(self, x, eps):
        return shapley_eval(self.game, x)


def round_to_denominator(v, q: int):
    """Nearest rational with denominator q (ties to even numerator)."""
    if v is NEG_INF:
        return NEG_INF
    return Fraction(round(Fraction(v) * q), q)


class RoundingOracle(ShapleyOracle):
    """Exact evaluation followed by rounding of finite coordinates to the
    1/q grid.  Serves any eps >= 1/(2q).  Provides the integer fast-path
    hooks used by the generic procedures."""

    def __init__(self, game, q: int):
        if q < 1:
            raise ValueError("q must be >= 1")
        super().__init__(len(game.min_ids))
        self.game = game
        self.q = q
        self._kernel = None

    def _eval(self, x, eps):
        if 2 * self.q * eps < 1:
            raise ValueError("requested eps below oracle resolution 1/(2q)")
        y = shapley_eval(self.game, x)
        return tuple(round_to_denominator(v, self.q) for v in y)

    def kernel(self):
        if self._kernel is None:
            self._kernel = Kernel(self.game)
        return self._kernel

    # fast-path hooks ------------------------------------------------------

    def gap_loop(self, eps, delta, cap):
        if 2 * self.q * eps < 1:
            raise ValueError("requested eps below oracle resolution 1/(2q)")
        d = Fraction(delta)
        u_num, ell, hit = self.kernel().gap_loop(
            self.q, d.numerator, d.denominator, cap
        )
        self.calls += ell
        u = tuple(Fraction(v, self.q) for v in u_num)
        return u, ell, hit

    def replay_loop(self, eps, ell, kappa, lam):
        b_num = Fraction(kappa) * self.q * ell
        t_num = Fraction(lam) * self.q * ell
        if b_num.denominator != 1 or t_num.denominator != 1:
            raise ValueError("kappa/lam are not on the oracle grid")
        x_num, y_num = self.kernel().replay_loop(
            self.q, ell, b_num.numerator, t_num.numerator
        )
        self.calls += max(ell - 1, 0)
        scale = self.q * ell
        return (
            tuple(Fraction(v, scale) for v in x_num),
            tuple(Fraction(v, scale) for v in y_num),
        )

    def restrict_native(self, subset):
        sub = induced_subgame(self.game, subset)
        if sub is None:
            return None
        return RoundingOracle(sub, self.q)


def exact_oracle(game):
    return ExactOracle(game)


def rounding_oracle(game, q: int):
    return RoundingOracle(game, q)


def induced_subgame(game: StochasticGame, subset):
    """The subgame induced by a dominion D (a set of Min-state indices):
    Nature states with all mass in D survive, Max moves are restricted to
    surviving Nature states, Min keeps all its moves.  Returns None when the
    subset is not a dominion (some Min move would reach a Max state with no
    surviving choice)."""
    subset = sorted(set(subset))
    sub_set = set(subset)
    nat_keep = [
        k
        for k in range(len(game.nat_ids))
        if all(l in sub_set for l, _ in game.nat_edges[k])
    ]
    nat_keep_set = set(nat_keep)
    kept_max_edges = [
        tuple((k, b) for k, b in row if k in nat_keep_set)
        for row in game.max_edges
    ]
    max_used = []
    for j in subset:
        for i, _ in game.min_edges[j]:
            if not kept_max_edges[i]:
                return None
            max_used.append(i)
    max_used = sorted(set(max_used))
    max_index = {i: t for t, i in enumerate(max_used)}
    nat_used = sorted({k for i in max_used for k, _ in kept_max_edges[i]})
    nat_index = {k: t for t, k in enumerate(nat_used)}
    min_index = {j: t for t, j in enumerate(subset)}
    return make_game(
        tuple(game.min_ids[j] for j in subset),
        tuple(game.max_ids[i] for i in max_used),
        tuple(game.nat_ids[k] for k in nat_used),
        tuple(
            tuple((max_index[i], a) for i, a in game.min_edges[j])
            for j in subset
        ),
        tuple(
            tuple((nat_index[k], b) for k, b in kept_max_edges[i])
            for i in max_used
        ),
        tuple(
            tuple((min_index[l], num) for l, num in game.nat_edges[k])
            for k in nat_used
        ),
        game.M,
    )


def dominion_by_graph(game: StochasticGame, subset) -> bool:
    """Graph characterization of dominions (independent of the operator):
    every Min move from the subset must reach a Max state with at least one
    move into a Nature state whose whole row stays inside."""
    return induced_subgame(game, subset) is not None


# ---------------------------------------------------------------------------
# bounds


def separation_bound(stats: GameStats) -> Fraction:
    return Fraction(1, stats.mu**2)


def bias_norm_bound(stats: GameStats) -> Fraction:
    return Fraction(8 * stats.n * stats.W * stats.M**stats.m_exp)


def winner_iteration_bound(stats: GameStats) -> int:
    return 8 * stats.n**2 * stats.W * stats.M ** (2 * stats.m_exp)


# ---------------------------------------------------------------------------
# winner


def winner(game: StochasticGame):
    """Exact value iteration from 0 with cap 8 n^2 W M^(2 min(s, n-1)) + 1.
    Returns a WinnerVerdict, or Exhausted when the cap is hit (the value may
    be 0 somewhere or non-constant)."""
    cap = winner_iteration_bound(game.stats()) + 1
    return value_iteration(exact_oracle(game), cap)


# ---------------------------------------------------------------------------
# solvers


def check_certificate(game: StochasticGame, cert: Certificate) -> bool:
    """Exact verification of lam + v <= F(v) (sub) or >= (super)."""
    return check_certificates(game, (cert,))


def check_certificates(game: StochasticGame, certs) -> bool:
    """`check_certificate` for every certificate, evaluating F once per
    distinct vector: an early sub/super pair shares its vector h."""
    images = {}
    for cert in certs:
        if cert.multiplicative:
            raise ValueError("stochastic certificates are additive")
        y = images.get(cert.vec)
        if y is None:
            y = images[cert.vec] = shapley_eval(game, cert.vec)
        if any(v is NEG_INF for v in y):
            return False
        if cert.direction == SUB:
            holds = all(cert.lam + v <= w for v, w in zip(cert.vec, y))
        else:
            holds = all(cert.lam + v >= w for v, w in zip(cert.vec, y))
        if not holds:
            return False
    return True


@dataclass(frozen=True)
class ConstantValueSolution:
    value: Fraction
    strategies: StrategyPair
    sub: Certificate
    sup: Certificate
    interval: object
    iterations: int
    oracle_calls: int


@dataclass(frozen=True)
class TopClassSolution:
    states: frozenset  # Min state ids
    indices: frozenset
    oracle_calls: int
    params: SepParams


@dataclass(frozen=True)
class GameSolution:
    """The top class, the subgame it induces, that subgame's constant value,
    and the oracle calls of the whole solve."""

    top: TopClassSolution
    subgame: StochasticGame
    value: ConstantValueSolution
    oracle_calls: int


_NOT_CONSTANT = "value reconstruction failed; the game value is not constant"


def _sep_params(stats: GameStats) -> SepParams:
    delta = separation_bound(stats)
    r = bias_norm_bound(stats)
    if r <= 0:  # degenerate W = 0 games have zero bias; keep params legal
        r = delta
    return SepParams(delta=delta, R=Fraction(r))


# ---------------------------------------------------------------------------
# early certificates: the invariant half-line of a greedy strategy pair


def _greedy_pair(game, u, q):
    """Index-based strategies greedy at x = u/q: tau maximises B + P x at
    each Max state, sigma minimises -A plus that maximum at each Min state,
    ties to the smallest index (rows are sorted by target index)."""
    c = q * game.M
    nat = [sum(num * u[l] for l, num in row) for row in game.nat_edges]
    tau, best = [], []
    for row in game.max_edges:
        k, b = max(row, key=lambda e: e[1] * c + nat[e[0]])
        tau.append(k)
        best.append(b * c + nat[k])
    sigma = [min(row, key=lambda e: best[e[0]] - e[1] * c)[0]
             for row in game.min_edges]
    return sigma, tau


def _numerators(x):
    """Integer numerators of a rational vector over the least common
    denominator, and that denominator."""
    q = math.lcm(*(v.denominator for v in x))
    return [v.numerator * (q // v.denominator) for v in x], q


def _strategies(game, x, y) -> StrategyPair:
    """Max plays greedy at the sub witness x, Min greedy at the super
    witness y (smallest index on ties); one greedy pass when x == y."""
    sigma, tau = _greedy_pair(game, *_numerators(x))
    if y != x:
        sigma = _greedy_pair(game, *_numerators(y))[0]
    return StrategyPair(
        sigma={game.min_ids[j]: game.max_ids[i] for j, i in enumerate(sigma)},
        tau={game.max_ids[i]: game.nat_ids[k] for i, k in enumerate(tau)},
    )


def _half_line_holds(game, chi, h) -> bool:
    """Whether F(h + t chi) = h + (t + 1) chi for all large t.  F runs the
    stages of `shapley_eval` on (slope, offset) pairs, which order as the
    affine functions slope * t + offset do for large t: lexicographically.
    The pairs are integers: chi and h are put over one common denominator
    L, and every stage is scaled by L M, so Nature's rows need no
    division."""
    M = game.M
    num, L = _numerators([*chi, *h])
    c, d = num[:len(chi)], num[len(chi):]
    LM = L * M
    nat = [(sum(p * c[l] for l, p in row), sum(p * d[l] for l, p in row))
           for row in game.nat_edges]
    best = [max((nat[k][0], b * LM + nat[k][1]) for k, b in row)
            for row in game.max_edges]
    out = [min((best[i][0], best[i][1] - a * LM) for i, a in row)
           for row in game.min_edges]
    return all(f == (M * x, M * (y + x)) for f, x, y in zip(out, c, d))


_WINDOW = 4  # iterates averaged when a checkpoint's own greedy pair fails


def _half_line_at(game, v, q, t):
    """(chi, h) of the strategy pair greedy at x = v/q, each closed class
    anchored at the offset v_a/q - t * chi_a, when the half-line holds;
    else None."""
    sigma, tau = _greedy_pair(game, v, q)
    chi, h = markov_gain_bias(
        *_pair_chain(game, sigma, tau), game.M,
        anchor=lambda a, g: Fraction(v[a], q) - t * g,
    )
    return (chi, h) if _half_line_holds(game, chi, h) else None


def _half_line(game, stats, params):
    """Search approximately, certify exactly.  Runs the rounded iteration of
    the first constancy decision (grid 1/q, q = 4 mu^2, stopping on the gap
    condition or at the a priori cap) in segments, the first ending at step
    1 and each later one at twice the steps run so far, the last at its
    final iterate.  At each checkpoint it takes the strategy pair greedy at
    the iterate u and the pair's exact gain chi and bias h, each closed
    class anchored at the iterate's offset u_a/q - ell * chi_a, and checks
    the invariant half-line exactly.  When that fails it runs up to
    _WINDOW - 1 more steps and tries the pair greedy at the mean of the
    last 2, 3, ... iterates: on deterministic games the iterates often
    settle into an orbit of period 2 or 4 around the half-line, at which no
    single iterate's greedy pair is optimal.  When the half-line holds,
    F^k(h) = h + k chi for all large k, so chi is the value vector
    (Kohlberg 1980).
    Returns (chi, h, steps run), chi and h None when no checkpoint
    passes."""
    q = 4 * stats.mu**2
    d = params.delta
    kernel = Kernel(game)
    u, ell, end = None, 0, 1
    while True:
        u, ell, hit = kernel.gap_loop(q, d.numerator, d.denominator,
                                      min(end, params.cap), u, ell)
        found = _half_line_at(game, u, q, ell)
        window = u
        for j in range(2, _WINDOW + 1):
            if found is not None or ell == params.cap:
                break
            u, ell, hit = kernel.gap_loop(q, d.numerator, d.denominator,
                                          ell + 1, u, ell)
            window = [a + b for a, b in zip(window, u)]
            found = _half_line_at(game, window, j * q,
                                  ell - Fraction(j - 1, 2))
        if found is not None:
            return (*found, ell)
        if hit or ell == params.cap:
            return None, None, ell
        end = 2 * ell


def _fixed_point_solution(game, value, h, steps) -> ConstantValueSolution:
    """The solution certified by an exact fixed point F(h) = value + h of
    `game`: h is both the sub and the super witness at level value."""
    if any(w != value + v for v, w in zip(h, shapley_eval(game, h))):
        raise AssertionError("internal error: certificate failed verification")
    sub = Certificate(value, h, SUB)
    sup = Certificate(value, h, SUPER)
    return ConstantValueSolution(
        value=value,
        strategies=_strategies(game, h, h),
        sub=sub,
        sup=sup,
        interval=RationalInterval(value, value),
        iterations=steps,
        oracle_calls=steps,
    )


def _top_class_solution(game, indices, calls, params) -> TopClassSolution:
    return TopClassSolution(
        states=frozenset(game.min_ids[i] for i in indices),
        indices=frozenset(indices),
        oracle_calls=calls,
        params=params,
    )


# ---------------------------------------------------------------------------
# the paper's a priori path (the fallback)


def _decided_constant_value(game, stats, params) -> ConstantValueSolution:
    """Constant value by approximate_constant_mean_payoff from 0 with
    delta = 1/mu^2, which makes the interval isolate a unique rational of
    denominator <= mu."""
    oracle = RoundingOracle(game, 4 * stats.mu**2)
    res = approximate_constant_mean_payoff(oracle, params.delta, params.cap)
    value = rational_in_interval(res.interval, stats.mu)
    if value is NOT_FOUND or value is NOT_UNIQUE:
        raise ValueError(_NOT_CONSTANT)
    if not (check_certificate(game, res.sub) and check_certificate(game, res.sup)):
        raise AssertionError("internal error: certificate failed verification")
    return ConstantValueSolution(
        value=value,
        strategies=_strategies(game, res.sub.vec, res.sup.vec),
        sub=res.sub,
        sup=res.sup,
        interval=res.interval,
        iterations=res.iterations,
        oracle_calls=oracle.calls,
    )


def _decided_top_class(game, stats, params) -> TopClassSolution:
    """Top class by top_class with delta = 1/mu^2 and
    R = 8 n W M^min(s, n-1), oracle precision delta/8."""
    oracle = RoundingOracle(game, 4 * stats.mu**2)
    dom, calls = top_class(oracle, params)
    return _top_class_solution(game, dom.states, calls, params)


# ---------------------------------------------------------------------------
# solvers: the early certificate first, the paper's path when it fails


def solve_constant_value(game: StochasticGame) -> ConstantValueSolution:
    """Exact value + optimal strategies + certificates for a game whose value
    does not depend on the initial state.  A passing half-line gives the
    value as an exact fixed point (or refutes constancy at once); otherwise
    the paper's a priori path decides."""
    stats = game.stats()
    params = _sep_params(stats)
    chi, h, steps = _half_line(game, stats, params)
    if chi is None:
        sol = _decided_constant_value(game, stats, params)
        return replace(sol, oracle_calls=steps + sol.oracle_calls)
    if len(set(chi)) > 1:
        raise ValueError(_NOT_CONSTANT)
    return _fixed_point_solution(game, chi[0], tuple(h), steps)


def _probe_top_class(game):
    """(top class, its value, h) from a passing half-line, or (the paper's
    top class, None, None); the oracle calls count the probe's steps."""
    stats = game.stats()
    params = _sep_params(stats)
    chi, h, steps = _half_line(game, stats, params)
    if chi is None:
        tc = _decided_top_class(game, stats, params)
        return replace(tc, oracle_calls=steps + tc.oracle_calls), None, None
    value = max(chi)
    indices = [j for j, v in enumerate(chi) if v == value]
    return _top_class_solution(game, indices, steps, params), value, h


def solve_top_class(game: StochasticGame) -> TopClassSolution:
    """States of maximal value: argmax chi of a passing half-line, else the
    paper's top_class."""
    return _probe_top_class(game)[0]


def solve_game(game: StochasticGame) -> GameSolution:
    """The top class and the constant value of the subgame it induces, from
    one probe: a passing half-line certifies (max chi, h restricted to the
    top class) as an exact fixed point of that subgame; otherwise the
    paper's top_class, then its constant-value procedure on the subgame."""
    top, value, h = _probe_top_class(game)
    indices = sorted(top.indices)
    sub = induced_subgame(game, indices)
    if sub is None:
        raise RuntimeError("top class is not a dominion")
    if value is None:
        sol = _decided_constant_value(sub, sub.stats(), _sep_params(sub.stats()))
        return GameSolution(top, sub, sol,
                            top.oracle_calls + sol.oracle_calls)
    sol = _fixed_point_solution(sub, value, tuple(h[j] for j in indices),
                                top.oracle_calls)
    return GameSolution(top, sub, sol, top.oracle_calls)


# ---------------------------------------------------------------------------
# brute force


@dataclass(frozen=True)
class BruteForceResult:
    chi: tuple  # per Min state, exact rational value
    pair_gains: tuple  # ((sigma, tau, gains), ...) with index-based maps


def markov_gain_bias(rows, r, M, anchor=None):
    """Per-state long-run average reward (gain) g and bias h of the Markov
    reward chain with transition rows `rows` (lists of (col, numerator),
    denominator M) and per-step rewards r, in exact rationals: g = P g and
    g + h = r + P h.  One pass over the strongly connected components,
    sinks first, solves one system per component, of that component's
    size, on integers: each equation is scaled by M and solved by
    `integer_solve`.  A closed class solves for its gain and its bias with
    h = 0 at its smallest state a; h is then shifted there to anchor(a, g)
    when `anchor` is given.  A transient component solves its absorption
    systems, first for g and then for h, with its successors outside it
    already solved.  Returns (gain, bias)."""
    n = len(rows)
    gain = [None] * n
    bias = [None] * n
    for comp in tarjan_scc([[l for l, _ in row] for row in rows]):
        comp.sort()
        col = {v: t for t, v in enumerate(comp)}
        m = len(comp)
        a = [[0] * m for _ in range(m)]
        if all(l in col for v in comp for l, _ in rows[v]):
            # unknowns: g, then h_v for v in comp[1:] (h = 0 at comp[0]);
            # one equation M g + M h_v - sum_l num_vl h_l = M r_v per state
            for t, v in enumerate(comp):
                a[t][0] = M
                if t:
                    a[t][t] += M
                for l, num in rows[v]:
                    if col[l]:
                        a[t][col[l]] -= num
            sol = integer_solve(a, [M * r[v] for v in comp])
            shift = anchor(comp[0], sol[0]) if anchor else Fraction(0)
            for t, v in enumerate(comp):
                gain[v] = sol[0]
                bias[v] = (sol[t] if t else 0) + shift
            continue
        # M x_v - sum_{l in comp} num_vl x_l = sum_{l outside} num_vl x_l
        # for x = g, and for x = h with M (r_v - g_v) added on the right
        b_gain = [0] * m
        b_bias = [0] * m
        for t, v in enumerate(comp):
            a[t][t] = M
            for l, num in rows[v]:
                if l in col:
                    a[t][col[l]] -= num
                else:
                    b_gain[t] += num * gain[l]
                    b_bias[t] += num * bias[l]
        g = integer_solve(a, b_gain)
        h = integer_solve(a, [b + M * (r[v] - x)
                              for b, v, x in zip(b_bias, comp, g)])
        for t, v in enumerate(comp):
            gain[v] = g[t]
            bias[v] = h[t]
    return gain, bias


def _pair_chain(game: StochasticGame, sigma, tau):
    """Transition rows and per-step rewards of the Markov reward chain on
    the Min states induced by index-based positional strategies sigma
    (Min idx -> Max idx) and tau (Max idx -> Nat idx)."""
    rows = []
    r = []
    for j, i in enumerate(sigma):
        k = tau[i]
        rows.append(game.nat_edges[k])
        # of parallel edges, which make_game allows, the last as sorted
        a = max(a for t, a in game.min_edges[j] if t == i)
        b = max(b for t, b in game.max_edges[i] if t == k)
        r.append(b - a)
    return rows, r


def pair_gain(game: StochasticGame, sigma, tau):
    """Gains of the Markov reward chain induced by index-based positional
    strategies sigma (Min idx -> Max idx) and tau (Max idx -> Nat idx)."""
    return markov_gain_bias(*_pair_chain(game, sigma, tau), game.M)[0]


def brute_force_values(game: StochasticGame, budget: int = 10**6):
    """chi_j = min over sigma of max over tau of gain_j(sigma, tau), by full
    enumeration of positional pairs (uniformly optimal strategies exist, so
    the componentwise min/max is attained)."""
    n_min = len(game.min_ids)
    n_max = len(game.max_ids)
    sigma_choices = [[i for i, _ in game.min_edges[j]] for j in range(n_min)]
    tau_choices = [[k for k, _ in game.max_edges[i]] for i in range(n_max)]
    count = 1
    for c in sigma_choices:
        count *= len(c)
    for c in tau_choices:
        count *= len(c)
    if count > budget:
        raise ValueError(f"strategy-pair count {count} exceeds budget {budget}")
    pair_gains = []
    chi = None
    for sigma in itertools.product(*sigma_choices):
        best_for_max = None
        for tau in itertools.product(*tau_choices):
            gains = tuple(pair_gain(game, sigma, tau))
            pair_gains.append((sigma, tau, gains))
            if best_for_max is None:
                best_for_max = gains
            else:
                best_for_max = tuple(
                    max(a, b) for a, b in zip(best_for_max, gains)
                )
        if chi is None:
            chi = best_for_max
        else:
            chi = tuple(min(a, b) for a, b in zip(chi, best_for_max))
    return BruteForceResult(chi=chi, pair_gains=tuple(pair_gains))


def frozen_pair_values(game: StochasticGame, strategies: StrategyPair):
    """Re-evaluate a strategy pair given by ids; used to confirm optimality
    of extracted strategies."""
    min_index = {s: j for j, s in enumerate(game.min_ids)}
    max_index = {s: i for i, s in enumerate(game.max_ids)}
    nat_index = {s: k for k, s in enumerate(game.nat_ids)}
    sigma = [max_index[strategies.sigma[s]] for s in game.min_ids]
    tau = [nat_index[strategies.tau[s]] for s in game.max_ids]
    return tuple(pair_gain(game, sigma, tau))


# ---------------------------------------------------------------------------
# file format and random instances


def parse_smpg(obj) -> StochasticGame:
    if not isinstance(obj, dict) or obj.get("type") != "smpg":
        raise GameFormatError('expected an object with "type": "smpg"')
    try:
        min_ids, max_ids, nat_ids = (
            tuple(json_list(obj[key], f'"{key}"'))
            for key in ("min_states", "max_states", "nat_states")
        )
        m = json_int(obj["denominator"], '"denominator"')
        records = edge_records(obj["edges"])
    except KeyError as exc:
        raise GameFormatError(f"missing key {exc}") from exc
    all_ids = list(min_ids) + list(max_ids) + list(nat_ids)
    bad_ids = state_ids_error(all_ids)
    if bad_ids:
        raise GameFormatError(bad_ids)
    if len(set(all_ids)) != len(all_ids):
        raise GameFormatError("state identifiers must be unique across kinds")
    min_index = {s: j for j, s in enumerate(min_ids)}
    max_index = {s: i for i, s in enumerate(max_ids)}
    nat_index = {s: k for k, s in enumerate(nat_ids)}
    min_edges = [[] for _ in min_ids]
    max_edges = [[] for _ in max_ids]
    nat_edges = [[] for _ in nat_ids]
    seen = set()
    for rec in records:
        src, dst = rec.get("from"), rec.get("to")
        if not (is_state_id(src) and is_state_id(dst)):
            raise GameFormatError(f"edge record {rec!r} violates alternation")
        if (src, dst) in seen:
            raise GameFormatError(f"duplicate edge {src!r} -> {dst!r}")
        seen.add((src, dst))
        if src in min_index and dst in max_index:
            a = json_int(rec.get("a", 0), f'"a" of edge {src!r} -> {dst!r}')
            min_edges[min_index[src]].append((max_index[dst], a))
        elif src in max_index and dst in nat_index:
            b = json_int(rec.get("b", 0), f'"b" of edge {src!r} -> {dst!r}')
            max_edges[max_index[src]].append((nat_index[dst], b))
        elif src in nat_index and dst in min_index:
            num = rec.get("p_num")
            if num is not None:
                json_int(num, f'"p_num" of edge {src!r} -> {dst!r}')
            nat_edges[nat_index[src]].append((min_index[dst], num))
        else:
            raise GameFormatError(f"edge record {rec!r} violates alternation")
    for k, row in enumerate(nat_edges):
        if len(row) == 1 and row[0][1] is None:
            nat_edges[k] = [(row[0][0], m)]
        elif any(num is None for _, num in row):
            raise GameFormatError(
                f'state {nat_ids[k]!r}: "p_num" required when a Nature state '
                "has several successors"
            )
    return make_game(min_ids, max_ids, nat_ids, min_edges, max_edges, nat_edges, m)


def game_to_json(game: StochasticGame) -> dict:
    edges = []
    for j, row in enumerate(game.min_edges):
        for i, a in row:
            edges.append({"from": game.min_ids[j], "to": game.max_ids[i], "a": a})
    for i, row in enumerate(game.max_edges):
        for k, b in row:
            edges.append({"from": game.max_ids[i], "to": game.nat_ids[k], "b": b})
    for k, row in enumerate(game.nat_edges):
        for l, num in row:
            edges.append(
                {"from": game.nat_ids[k], "to": game.min_ids[l], "p_num": num}
            )
    return {
        "type": "smpg",
        "min_states": list(game.min_ids),
        "max_states": list(game.max_ids),
        "nat_states": list(game.nat_ids),
        "denominator": game.M,
        "edges": edges,
    }


def load_smpg(path) -> StochasticGame:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_smpg(json.load(fh))


def random_smpg(
    rng: random.Random,
    max_min: int = 3,
    max_max: int = 3,
    max_nat: int = 3,
    m_choices=(1, 2, 3),
    payoff_lo: int = -2,
    payoff_hi: int = 2,
) -> StochasticGame:
    """Random instance satisfying the nondegeneracy assumption; regenerated
    until W >= 1 so the complexity bounds are meaningful."""
    while True:
        n_min = rng.randint(1, max_min)
        n_max = rng.randint(1, max_max)
        n_nat = rng.randint(1, max_nat)
        m = rng.choice(list(m_choices))
        min_edges = []
        for _ in range(n_min):
            deg = rng.randint(1, n_max)
            targets = rng.sample(range(n_max), deg)
            min_edges.append(
                [(i, rng.randint(payoff_lo, payoff_hi)) for i in targets]
            )
        max_edges = []
        for _ in range(n_max):
            deg = rng.randint(1, n_nat)
            targets = rng.sample(range(n_nat), deg)
            max_edges.append(
                [(k, rng.randint(payoff_lo, payoff_hi)) for k in targets]
            )
        nat_edges = []
        for _ in range(n_nat):
            deg = rng.randint(1, min(n_min, m))
            targets = rng.sample(range(n_min), deg)
            # random composition of M into deg positive parts
            cuts = sorted(rng.sample(range(1, m), deg - 1)) if deg > 1 else []
            parts = [b - a for a, b in zip([0] + cuts, cuts + [m])]
            nat_edges.append(list(zip(targets, parts)))
        game = make_game(
            tuple(f"m{j}" for j in range(n_min)),
            tuple(f"x{i}" for i in range(n_max)),
            tuple(f"n{k}" for k in range(n_nat)),
            min_edges,
            max_edges,
            nat_edges,
            m,
        )
        if game.stats().W >= 1:
            return game
