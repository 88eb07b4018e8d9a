"""Turn-based stochastic mean-payoff games.

States alternate Min -> Max -> Nature -> Min.  Min receives A on its move
(Max pays it), Max receives B on its move, Nature moves according to
rational rows with common denominator M.  The per-turn reward of a path
through edges (j,i), (i,k) is B_ik - A_ij; the value of a state is the
long-run average reward under optimal play.

Solving searches approximately and certifies exactly.  `solve_game` is the
one solve; `solve_constant_value` and the CLI's value, topclass, full and
bench read its result.  It first runs the rounded value iteration of the
paper's first constancy decision (grid 1/q, q = 4 mu^2, delta = 1/mu^2) and
stops at checkpoints whose lengths about double.  At each checkpoint it
takes the strategy pair greedy at the iterate, computes its exact gain chi
and bias h, and checks exactly that h + t chi is an invariant half-line of
the Shapley operator F: F(h + t chi) = h + (t + 1) chi for all large t
(Hoffman & Karp 1966; Kohlberg 1980).  When the iterate's pair fails, up to
three more steps try the pair greedy at the mean of the last 2, 3 and 4
iterates, which certifies iterations caught in a short periodic orbit.  When
the half-line holds, chi is the value vector, the top class is argmax chi,
and h restricted to the top class is an exact fixed point F(h) = h + max chi
of the subgame the top class induces: a sub and a super certificate at one
level.  When no checkpoint passes, the probe's own stop decides.  On the
gap condition (at most _WINDOW - 1 window steps past it) the value is
constant, and the paper's second pass, replayed up to that first stop,
brackets it within delta.  At the a priori cap 1 + ceil(8R/delta) the
paper's `top_class` runs from 0 and peels dominions off, and the probe runs
once more, on the subgame the top class induces.

This module holds the solve, the certificate check and the file format.
The paper's a priori path (`top_class` and the rounding oracle it
drives), the exact `winner` decision, brute force and the random
instances live in `dominion`, which a solve imports only when its probe
reaches the cap.

The exact half runs on integers too.  Every loop iterates on integer
numerators with the Python-int Shapley step of `_smpgfast`, and the same
step checks certificates, strategies and the half-line: a rational vector
is put over the lcm of its denominators, and levels are compared by
cross-multiplication.  The greedy pair's gain and bias are numerators over
one common denominator, and a transient component of one state is solved
directly.  Every reported strategy pair comes from one greedy rule,
`_greedy_pair` on integer numerators: at the half-line's witness h, or Max
greedy at the sub witness and Min greedy at the super witness.
`shapley_eval` is the exact reference: `winner` and the oracles of
`dominion` run on it, and a vector with -inf entries, which only a
hand-written report carries, is checked with it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from ._smpgfast import (
    Kernel,
    _int_step,
    _max_stage,
    _min_stage,
    _nature_stage,
)
from .graphs import (
    GameFormatError,
    check_adjacency,
    game_file,
    json_int,
    read_game_file,
    spanning_subgraph,
    tarjan_scc,
)
from .linalg import integer_solve
from .numeric import (
    NEG_INF,
    NOT_FOUND,
    NOT_UNIQUE,
    SUB,
    SUPER,
    Certificate,
    IterationCapExceeded,
    RationalInterval,
    rational_in_interval,
)

# the game file's state-list keys, and (name, edge field, default) per kind
KEYS = ("min_states", "max_states", "nat_states")
_LABELS = (("min", "a", 0), ("max", "b", 0), ("nat", "p_num", None))


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

    @property
    def ids(self):
        return self.min_ids, self.max_ids, self.nat_ids

    @property
    def edges(self):
        return self.min_edges, self.max_edges, self.nat_edges

    def validate(self):
        if self.M < 1:
            raise GameFormatError("denominator must be >= 1")
        check_adjacency(_LABELS, self.ids, self.edges)
        for sid, row in zip(self.nat_ids, self.nat_edges):
            if any(num <= 0 for _, num in row):
                raise GameFormatError(f"nonpositive numerator at state {sid!r}")
            if sum(num for _, num in row) != self.M:
                raise GameFormatError(
                    f"numerators at state {sid!r} do not sum to denominator"
                )
        return self

    @functools.cached_property
    def payoff_bound(self) -> int:
        """The largest |A| or |B| of an edge."""
        return max(abs(w) for rows in (self.min_edges, self.max_edges)
                   for row in rows for _, w in row)

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


def induced_subgame(game: StochasticGame, subset):
    """The subgame induced by a dominion D (a set of Min-state indices):
    Nature states with all mass in D survive, Max moves are restricted to
    surviving Nature states, Min keeps all its moves.  Returns None when the
    subset is not a dominion (some Min move would reach a Max state with no
    surviving choice), and the game itself when the subset is every Min
    state."""
    subset = sorted(set(subset))
    if subset == list(range(len(game.min_ids))):
        return game
    sub_set = set(subset)
    nat_keep = {k for k, row in enumerate(game.nat_edges)
                if all(l in sub_set for l, _ in row)}
    max_used = sorted({i for j in subset for i, _ in game.min_edges[j]})
    kept = [{k for k, _ in game.max_edges[i] if k in nat_keep}
            for i in max_used]
    if not all(kept):
        return None
    nat_used = sorted(set().union(*kept))
    ids, edges = spanning_subgraph(_LABELS, game.ids, game.edges,
                                   (subset, max_used, nat_used))
    return make_game(*ids, *edges, game.M)


# ---------------------------------------------------------------------------
# bounds


def separation_bound(stats: GameStats) -> Fraction:
    return Fraction(1, stats.mu**2)


def bias_norm_bound(stats: GameStats) -> Fraction:
    return Fraction(8 * stats.n * stats.W * stats.M**stats.m_exp)


@dataclass(frozen=True)
class SepParams:
    """delta: a priori separation parameter (must be below sep(F));
    R: seminorm bound for sub/super-eigenvectors of the top-class
    restriction."""

    delta: Fraction
    R: Fraction

    def __post_init__(self):
        if self.delta <= 0 or self.R <= 0:
            raise ValueError("delta and R must be positive")

    @property
    def cap(self) -> int:
        return 1 + math.ceil(Fraction(8) * self.R / self.delta)


# ---------------------------------------------------------------------------
# solvers


def check_certificate(game: StochasticGame, cert: Certificate) -> bool:
    """Exact verification of lam + v <= F(v) (sub) or >= (super)."""
    return check_certificates(game, (cert,))


def _step_stages(game, x):
    """One integer Shapley step at a finite rational vector x, kept by
    stage: x = u/L over the lcm L of its denominators, c = L M, and the
    Nature sums and Max maxima at x as numerators over c.  (u, c, nat,
    best); `_min_stage` of best is F(x) over c."""
    u, L = _numerators(x)
    c = L * game.M
    nat = _nature_stage(game.nat_edges, u)
    return u, c, nat, _max_stage(game.max_edges, nat, c)


def _cut(rows, targets):
    """Each row cut to its edges into the state `targets` names for it
    (parallel edges all kept): empty where it names none."""
    return [[e for e in row if e[0] == t] for row, t in zip(rows, targets)]


def check_certificates(game: StochasticGame, certs, sigma=None,
                       tau=None) -> bool:
    """`check_certificate` for every certificate, on integers, evaluating F
    once per distinct vector (an early sub/super pair shares its vector h):
    with x = u/L and F(x) = y/(L M) from `_step_stages`, level lam = p/q
    holds as sub when p L M + q M u_j <= q y_j for every j, and as super
    when >=.
    With index-based positional strategies it also checks them, on the
    same stages: sigma (Min idx -> Max idx) must name an edge at every Min
    state, and F with Min fixed to it be at most lam + y at each super
    vector y; tau (Max idx -> Nat idx) must name an edge at every Max
    state, and F with Max fixed to it be at least lam + x at each sub
    vector x.  Those bound F itself, so they replace the plain checks.
    A vector with -inf entries, which only a hand-written report carries,
    is checked with the reference `shapley_eval` and certifies no
    strategy."""
    n, M = len(game.min_ids), game.M
    min_rows, max_rows = game.min_edges, None
    if sigma is not None:
        min_rows = _cut(game.min_edges, sigma)
        if not all(min_rows):
            return False
    if tau is not None:
        max_rows = _cut(game.max_edges, tau)
        if not all(max_rows):
            return False
    images = {}
    for cert in certs:
        if cert.multiplicative:
            raise ValueError("stochastic certificates are additive")
        if len(cert.vec) != n:
            raise ValueError("vector length does not match Min state count")
        sub = cert.direction == SUB
        image = images.get(cert.vec)
        if any(v is NEG_INF for v in cert.vec):
            if (tau if sub else sigma) is not None:
                return False
            if image is None:
                image = images[cert.vec] = shapley_eval(game, cert.vec)
            if not _reference_holds(cert, image):
                return False
            continue
        if image is None:
            image = images[cert.vec] = _step_stages(game, cert.vec)
        u, c, nat, best = image
        if sub:
            if max_rows is not None:
                best = _max_stage(max_rows, nat, c)
            y = _min_stage(game.min_edges, best, c)
        else:
            y = _min_stage(min_rows, best, c)
        lam = Fraction(cert.lam)
        p, q = lam.numerator, lam.denominator
        pc, qM = p * c, q * M
        if sub:
            holds = all(pc + qM * v <= q * w for v, w in zip(u, y))
        else:
            holds = all(pc + qM * v >= q * w for v, w in zip(u, y))
        if not holds:
            return False
    return True


def _reference_holds(cert, y) -> bool:
    """lam + v <= y (sub) or >= y (super) with y = F(v) from shapley_eval;
    an -inf entry of y fails."""
    if any(v is NEG_INF for v in y):
        return False
    if cert.direction == SUB:
        return all(cert.lam + v <= w for v, w in zip(cert.vec, y))
    return all(cert.lam + v >= w for v, w in zip(cert.vec, y))


@dataclass(frozen=True)
class GameSolution:
    """The subgame the top class induces (the game itself when every Min
    state is in the top class), that subgame's constant value with its
    strategies, certificates and bracket, the iterations that certified it,
    and the oracle calls of the whole solve."""

    subgame: StochasticGame
    value: Fraction
    strategies: StrategyPair
    sub: Certificate
    sup: Certificate
    iterations: int
    oracle_calls: int

    @property
    def interval(self) -> RationalInterval:
        """The certified bracket: the sub and super certificates' levels."""
        return RationalInterval(self.sub.lam, self.sup.lam)

    @property
    def top_class(self) -> frozenset:
        """Min state ids of maximal value: the subgame's Min states."""
        return frozenset(self.subgame.min_ids)


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
    nat = _nature_stage(game.nat_edges, u)
    best = _max_stage(game.max_edges, nat, c)
    tau = [next(k for k, b in row if b * c + nat[k] == m)
           for row, m in zip(game.max_edges, best)]
    out = _min_stage(game.min_edges, best, c)
    sigma = [next(i for i, a in row if best[i] - a * c == m)
             for row, m in zip(game.min_edges, out)]
    return sigma, tau


def _numerators(x):
    """Integer numerators of a rational vector over the least common
    denominator, and that denominator."""
    q = math.lcm(*(v.denominator for v in x))
    return [v.numerator * (q // v.denominator) for v in x], q


def _half_line_holds(game, chi, h) -> bool:
    """Whether F(h + t chi) = h + (t + 1) chi for all large t, by one
    integer step `_int_step` at one t = T.  With chi = c/L and h = d/L over
    one common denominator L, every stage of the step at h + t chi is, for
    large t, an affine function s t + o with integers s and o (scaled by
    L M), the extreme of its edges' functions in the lexicographic order of
    (s, o).  Each |o| in play, the target's too, is at most B = 2 W L M +
    2 M max(|c|, |d|), W the game's `payoff_bound`; slopes that differ
    differ by at least 1, so at T = 2 B + 1 the step picks the same
    functions, and its value S T + O, with |O| < T/2, gives (S, O) back."""
    M = game.M
    num, L = _numerators([*chi, *h])
    c, d = num[:len(chi)], num[len(chi):]
    LM = L * M
    t = 2 * (2 * game.payoff_bound * LM + 2 * M * max(map(abs, num))) + 1
    out = _int_step(game, [t * x + y for x, y in zip(c, d)], LM)
    return all(f == M * (t * x + y + x) for f, x, y in zip(out, c, d))


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
    The probe stops after the window of the checkpoint at which the gap
    condition first held (so up to _WINDOW - 1 steps past it), or at the
    cap.  Returns (chi, h, steps run, stop), chi and h None when no
    checkpoint passes, and stop the integer iterate and length (u, ell) at
    which the gap condition first held, or None.  The first loop of
    decide_constant_value ends there too, with the verdict "constant"."""
    q = 4 * stats.mu**2
    d = params.delta
    kernel = Kernel(game)
    u, ell, end = None, 0, 1
    while True:
        u, ell, hit = kernel.gap_loop(q, d.numerator, d.denominator,
                                      min(end, params.cap), u, ell)
        stop = (u, ell) if hit else None
        found = _half_line_at(game, u, q, ell)
        window = u
        for j in range(2, _WINDOW + 1):
            if found is not None or ell == params.cap:
                break
            u, ell, hit = kernel.gap_loop(q, d.numerator, d.denominator,
                                          ell + 1, u, ell)
            if hit and stop is None:
                stop = (u, ell)
            window = [a + b for a, b in zip(window, u)]
            found = _half_line_at(game, window, j * q,
                                  ell - Fraction(j - 1, 2))
        if found is not None:
            return (*found, ell, stop)
        if stop is not None or ell == params.cap:
            return None, None, ell, stop
        end = 2 * ell


def _solution(game, value, sub, sup, steps, calls) -> GameSolution:
    """The solution of `game` certified by `sub` and `sup`, found in
    `steps` iterations; `calls` counts the whole solve.  Max plays greedy
    at the sub witness and Min greedy at the super witness (smallest index
    on ties; one greedy pass when they are one vector), and the
    certificates and both strategies are checked exactly."""
    sigma, tau = _greedy_pair(game, *_numerators(sub.vec))
    if sup.vec != sub.vec:
        sigma = _greedy_pair(game, *_numerators(sup.vec))[0]
    if not check_certificates(game, (sub, sup), sigma, tau):
        raise AssertionError("internal error: certificate failed verification")
    strategies = StrategyPair(
        sigma={game.min_ids[j]: game.max_ids[i] for j, i in enumerate(sigma)},
        tau={game.max_ids[i]: game.nat_ids[k] for i, k in enumerate(tau)},
    )
    return GameSolution(game, value, strategies, sub, sup, steps, calls)


def _fixed_point_solution(game, value, h, steps, calls) -> GameSolution:
    """An exact fixed point F(h) = value + h of `game`: h is both the sub
    and the super witness at level value, checked with one evaluation."""
    return _solution(game, value, Certificate(value, h, SUB),
                     Certificate(value, h, SUPER), steps, calls)


def _replayed_solution(game, q, delta, u, ell, calls) -> GameSolution:
    """The constant value of `game` from the probe's stop (u, ell), u over
    q: the replay of approximate_constant_mean_payoff's second pass, in
    ell - 1 oracle calls, gives the sub witness at min(u)/(q ell) - delta/8
    and the super witness at max(u)/(q ell) + delta/8.  delta = 1/mu^2
    makes that interval isolate one rational of denominator <= mu."""
    lo, hi = min(u), max(u)
    x, y = Kernel(game).replay_loop(q, ell, lo, hi)
    scale, eps = q * ell, delta / 8
    sub = Certificate(Fraction(lo, scale) - eps,
                      tuple(Fraction(v, scale) for v in x), SUB)
    sup = Certificate(Fraction(hi, scale) + eps,
                      tuple(Fraction(v, scale) for v in y), SUPER)
    value = rational_in_interval(RationalInterval(sub.lam, sup.lam),
                                 game.stats().mu)
    if value is NOT_FOUND or value is NOT_UNIQUE:
        raise ValueError(_NOT_CONSTANT)
    return _solution(game, value, sub, sup, ell, calls + ell - 1)


# ---------------------------------------------------------------------------
# solvers: one probe per (sub)game, the paper's peel when it reaches its cap


def solve_game(game: StochasticGame) -> GameSolution:
    """The top class, the subgame it induces and that subgame's constant
    value.  A probe that passes a half-line gives the top class argmax chi
    and certifies (max chi, h restricted to the top class) as an exact
    fixed point of that subgame.  A probe that stops on the gap condition
    has decided that every Min state is the top class, and the replay from
    its stop brackets the value.  A probe that reaches the a priori cap
    leaves the top class to the paper's top_class, and then the probe runs
    once more, on the subgame the top class induces, with that subgame's
    own mu, delta and cap; if it reaches that cap too, IterationCapExceeded.
    The oracle calls count the whole solve."""
    calls = 0
    for peeled in (False, True):
        stats = game.stats()
        params = _sep_params(stats)
        q = 4 * stats.mu**2
        chi, h, steps, stop = _half_line(game, stats, params)
        calls += steps
        if chi is not None:
            value = max(chi)
            indices = [j for j, v in enumerate(chi) if v == value]
            sub = induced_subgame(game, indices)
            if sub is None:
                raise RuntimeError("top class is not a dominion")
            return _fixed_point_solution(
                sub, value, tuple(h[j] for j in indices), steps, calls)
        if stop is not None:
            return _replayed_solution(game, q, params.delta, *stop, calls)
        if peeled:
            raise IterationCapExceeded(
                f"no convergence within {params.cap} iterations")
        from .dominion import RoundingOracle, top_class

        dom, top_calls = top_class(RoundingOracle(game, q), params)
        calls += top_calls
        game = induced_subgame(game, sorted(dom.states))


def solve_constant_value(game: StochasticGame) -> GameSolution:
    """`solve_game` for a game whose value does not depend on the initial
    state: raises ValueError "not constant" unless every Min state is in
    the top class."""
    sol = solve_game(game)
    if len(sol.top_class) < len(game.min_ids):
        raise ValueError(_NOT_CONSTANT)
    return sol


# ---------------------------------------------------------------------------
# strategy pairs: the Markov reward chain they induce


def markov_gain_bias(rows, r, M, anchor=None):
    """Per-state long-run average reward (gain) g and bias h of the Markov
    reward chain with transition rows `rows` (lists of (col, numerator),
    denominator M) and per-step rewards r, in exact rationals: g = P g and
    g + h = r + P h.  One pass over the strongly connected components,
    sinks first, on integers: every g and h found so far is a numerator
    over one common denominator D, which grows, and every numerator with
    it, only when a component's solution needs it.
    A transient component of one state v solves a x_v = the sum over its
    other successors directly, first for x = g and then for x = h with
    M (r_v - g_v) added, with a = M minus its self-loop numerator.  Every
    other component solves one system of its size, each equation scaled by
    M, by `integer_solve`.  A closed class solves for its gain and its bias
    with h = 0 at its smallest state a; h is then shifted there to
    anchor(a, g) when `anchor` is given.  A transient component solves its
    absorption systems, first for g and then for h, with its successors
    outside it already solved.  Returns (gain, bias) as Fractions."""
    n = len(rows)
    gain = [0] * n
    bias = [0] * n
    # the rewards as numerators r_v R / R, and D a multiple of R
    r_den = den = math.lcm(*(x.denominator for x in r))
    r_num = [x.numerator * (r_den // x.denominator) for x in r]

    def widen(f):
        # multiply D, and every numerator over it, by f
        nonlocal den
        if f != 1:
            den *= f
            for v in range(n):
                gain[v] *= f
                bias[v] *= f
        return f

    def put(comp, g, h):
        # store the rationals g[t], h[t] of comp's states over D
        d = math.lcm(*(x.denominator for x in (*g, *h)))
        widen(d // math.gcd(den, d))
        for v, x, y in zip(comp, g, h):
            gain[v] = x.numerator * (den // x.denominator)
            bias[v] = y.numerator * (den // y.denominator)

    for comp in tarjan_scc([[l for l, _ in row] for row in rows]):
        if len(comp) == 1 and any(l != comp[0] for l, _ in rows[comp[0]]):
            (v,) = comp
            a, s_gain, s_bias = M, 0, 0
            for l, num in rows[v]:
                if l == v:
                    a -= num
                else:
                    s_gain += num * gain[l]
                    s_bias += num * bias[l]
            # g_v = s_gain / (a D)
            f = widen(a // math.gcd(a, s_gain))
            gain[v] = s_gain * f // a
            # h_v = (s_bias + M (r_v D - g_v D)) / (a D)
            t = s_bias * f + M * (r_num[v] * (den // r_den) - gain[v])
            f = widen(a // math.gcd(a, t))
            bias[v] = t * f // a
            continue
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
            put(comp, [sol[0]] * m, [shift] + [x + shift for x in sol[1:]])
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
        g = integer_solve(a, [Fraction(b, den) for b in b_gain])
        h = integer_solve(a, [Fraction(b, den) + M * (r[v] - x)
                              for b, v, x in zip(b_bias, comp, g)])
        put(comp, g, h)
    return ([Fraction(x, den) for x in gain],
            [Fraction(x, den) for x in bias])


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


# ---------------------------------------------------------------------------
# file format


def parse_smpg(obj) -> StochasticGame:
    ids, (min_edges, max_edges, nat_edges) = read_game_file(
        obj, "smpg", KEYS, _LABELS)
    try:
        m = json_int(obj["denominator"], '"denominator"')
    except KeyError as exc:
        raise GameFormatError(f"missing key {exc}") from exc
    for k, row in enumerate(nat_edges):
        if len(row) == 1 and row[0][1] is None:
            nat_edges[k] = [(row[0][0], m)]
        elif any(num is None for _, num in row):
            raise GameFormatError(
                f'state {ids[2][k]!r}: "p_num" required when a Nature state '
                "has several successors"
            )
    return make_game(*ids, min_edges, max_edges, nat_edges, m)


def game_to_json(game: StochasticGame) -> dict:
    return game_file("smpg", KEYS, _LABELS, game.ids, game.edges,
                     denominator=game.M)
