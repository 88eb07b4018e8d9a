"""The stochastic mean-payoff solver; the game, its integer Shapley operator
and the certificate check it accepts its answers with are in `smpgcheck`.

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
once more, on the subgame the top class induces.  That a priori path, the
exact `winner` decision, brute force and the random instances live in
`dominion`, which a solve imports only when its probe reaches the cap.

The exact half runs on integers too, from the greedy pair to the solution.
Every loop iterates on integer numerators with the Python-int Shapley step
of `_smpgfast`, and the same step checks the half-line.
`gain_bias_numerators` solves the greedy pair's chain into numerators of
its gain and bias over one common denominator (a transient component of
one state directly, every other component by
`linalg.integer_solve_numerators`), each closed class anchored at the
iterate's offset computed on integers; the half-line check and the top
class argmax chi read those numerators.  The solution's certificates are
`numeric.Certificate`s on those integers, levels p/q and witnesses u/L,
and `smpgcheck.certificates_hold`, which `certify` runs on the
certificates it reads, checks them and the strategies on the stages of the
greedy passes, levels compared by cross-multiplication.  Only the
solution's value becomes a Fraction.  `dominion.markov_gain_bias` is the
Fraction form of the chain solve.  Every reported strategy pair comes from
one greedy rule, `_greedy_pair`, read off the checker's integer stages:
at the half-line's witness h, or Max greedy at the sub witness and Min
greedy at the super witness.  `shapley_eval`, on Fractions and -inf, is
the exact reference that `winner`, the oracles of `dominion` and the tests
run; no certificate check calls it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import smpgcheck
from ._smpgfast import Kernel, _int_step
from .graphs import tarjan_scc
from .linalg import integer_solve_numerators
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
from .smpgcheck import (
    GameStats,
    StochasticGame,
    _min_stage,
    _step_stages,
    certificates_hold,
    induced_subgame,
)

# the benchmark's tracer looks these up here
check_certificate = smpgcheck.check_certificate
parse_smpg = smpgcheck.parse_smpg


# the exact reference of `winner`, `dominion`'s oracles and the tests
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


class StrategyPair(NamedTuple):
    sigma: dict  # Min id -> Max id
    tau: dict  # Max id -> Nat id


def _bias_bound(stats: GameStats) -> int:
    """The a priori bound 8 n W M^min(s, n - 1) on the bias seminorm."""
    return 8 * stats.n * stats.W * stats.M**stats.m_exp


class GameSolution(NamedTuple):
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


def _probe_cap(stats: GameStats) -> int:
    """The cap of `dominion._sep_params(stats)` on integers: with delta =
    1/mu^2, 1 + ceil(8 R / delta) is 1 + 8 R mu^2, and 9 when R = 0 (R is
    then delta)."""
    r = _bias_bound(stats)
    return 1 + 8 * r * stats.mu**2 if r > 0 else 9


# ---------------------------------------------------------------------------
# early certificates: the invariant half-line of a greedy strategy pair


def _greedy_pair(game, u, q):
    """Index-based strategies greedy at x = u/q: at each Max state (tau)
    and Min state (sigma) the first edge of its sorted row that attains its
    stage's value at x, the smallest index on ties.  Returns (sigma, tau,
    stages), stages those of `_step_stages` at x."""
    stages = c, nat, best = _step_stages(game, (u, q))
    tau = []
    for row, m in zip(game.max_edges, best):
        for k, b in row:
            if b * c + nat[k] == m:
                tau.append(k)
                break
    sigma = []
    for row, m in zip(game.min_edges, _min_stage(game.min_edges, best, c)):
        for i, a in row:
            if best[i] - a * c == m:
                sigma.append(i)
                break
    return sigma, tau, stages


def _half_line_holds(game, chi, h, den) -> bool:
    """Whether F(h + t chi) = h + (t + 1) chi for all large t, for chi and
    h numerators over one common denominator L = `den`, by one integer step
    `_int_step` at one t = T.  Every stage of the step at h + t chi is, for
    large t, an affine function s t + o with integers s and o (scaled by
    L M), the extreme of its edges' functions in the lexicographic order of
    (s, o).  Each |o| in play, the target's too, is at most B = 2 W L M +
    2 M max(|chi|, |h|), W the game's `payoff_bound`; slopes that differ
    differ by at least 1, so at T = 2 B + 1 the step picks the same
    functions, and its value S T + O, with |O| < T/2, gives (S, O) back."""
    M = game.M
    LM = den * M
    big = max(max(map(abs, chi)), max(map(abs, h)))
    t = 2 * (2 * game.payoff_bound * LM + 2 * M * big) + 1
    out = _int_step(game, [t * x + y for x, y in zip(chi, h)], LM)
    return all(f == M * (t * x + y + x) for f, x, y in zip(out, chi, h))


_WINDOW = 4  # iterates averaged when a checkpoint's own greedy pair fails


def _half_line_at(game, v, q, t2):
    """(chi, h, L) of the strategy pair greedy at x = v/q, numerators over
    one common denominator L, each closed class anchored at the offset
    v_a/q - t chi_a with t = t2/2, when the half-line holds; else None."""
    sigma, tau, _ = _greedy_pair(game, v, q)

    def anchor(a, g, den):
        # v_a/q - (t2/2) (g/den)
        return 2 * v[a] * den - t2 * q * g, 2 * q * den

    chi, h, den = gain_bias_numerators(*_pair_chain(game, sigma, tau),
                                       game.M, anchor)
    return (chi, h, den) if _half_line_holds(game, chi, h, den) else None


def _half_line(game, mu2, cap):
    """Search approximately, certify exactly.  Runs the rounded iteration of
    the first constancy decision (grid 1/q, q = 4 mu^2, stopping on the gap
    condition or at the a priori cap) in segments, the first ending at step
    1 and each later one at twice the steps run so far, the last at its
    final iterate.  At each checkpoint it takes the strategy pair greedy at
    the iterate u and the pair's exact gain chi and bias h, numerators over
    one denominator L, each closed class anchored at the iterate's offset
    u_a/q - ell * chi_a, and checks the invariant half-line exactly.  When
    that fails it runs up to _WINDOW - 1 more steps and tries the pair
    greedy at the mean of the last 2, 3, ... iterates: on deterministic
    games the iterates often settle into an orbit of period 2 or 4 around
    the half-line, at which no single iterate's greedy pair is optimal.
    When the half-line holds, F^k(h) = h + k chi for all large k, so chi is
    the value vector (Kohlberg 1980).
    The probe stops after the window of the checkpoint at which the gap
    condition first held (so up to _WINDOW - 1 steps past it), or at the
    cap: both integers, delta = 1/mu^2 with mu2 = mu^2.  Returns (chi, h,
    L, steps run, stop), chi, h and L None when no checkpoint passes, and
    stop the integer iterate and length (u, ell) at which the gap condition
    first held, or None.  The first loop of decide_constant_value ends
    there too, with the verdict "constant"."""
    q = 4 * mu2
    kernel = Kernel(game)
    u, ell, end = None, 0, 1
    while True:
        u, ell, hit = kernel.gap_loop(q, 1, mu2, min(end, cap), u, ell)
        stop = (u, ell) if hit else None
        found = _half_line_at(game, u, q, 2 * ell)
        window = u
        for j in range(2, _WINDOW + 1):
            if found is not None or ell == cap:
                break
            u, ell, hit = kernel.gap_loop(q, 1, mu2, ell + 1, u, ell)
            if hit and stop is None:
                stop = (u, ell)
            window = [a + b for a, b in zip(window, u)]
            # the mean of the last j iterates is offset by
            # ell - (j - 1)/2 steps
            found = _half_line_at(game, window, j * q, 2 * ell - j + 1)
        if found is not None:
            return (*found, ell, stop)
        if stop is not None or ell == cap:
            return None, None, None, ell, stop
        end = 2 * ell


def _solution(game, value, sub, sup, steps, calls) -> GameSolution:
    """The solution of `game` certified by the Certificates `sub` and `sup`,
    found in `steps` iterations; `calls` counts the whole solve.  Max plays
    greedy at the sub witness and Min greedy at the super witness (smallest
    index on ties; one greedy pass when they are one vector), and the
    certificates and both strategies are checked exactly, on integers, on
    the stages of the greedy passes."""
    sigma, tau, stages = _greedy_pair(game, sub.u, sub.L)
    images = [((sub.u, sub.L), stages)]
    if (sup.u, sup.L) != (sub.u, sub.L):
        sigma, _, stages = _greedy_pair(game, sup.u, sup.L)
        images.append(((sup.u, sup.L), stages))
    if not certificates_hold(game, (sub, sup), sigma, tau, images):
        raise AssertionError("internal error: certificate failed verification")
    strategies = StrategyPair(
        sigma={game.min_ids[j]: game.max_ids[i] for j, i in enumerate(sigma)},
        tau={game.max_ids[i]: game.nat_ids[k] for i, k in enumerate(tau)},
    )
    return GameSolution(game, value, strategies, sub, sup, steps, calls)


def _fixed_point_solution(game, top, h, den, steps, calls) -> GameSolution:
    """An exact fixed point F(h) = value + h of `game`, with value = top/den
    and h numerators over den: h is both the sub and the super witness at
    level value, checked with one evaluation."""
    sub = Certificate(top, den, h, den, SUB)
    return _solution(game, Fraction(top, den), sub,
                     sub._replace(direction=SUPER), steps, calls)


def _replayed_solution(game, mu, u, ell, calls) -> GameSolution:
    """The constant value of `game` from the probe's stop (u, ell), u over
    q = 4 mu^2: the replay of approximate_constant_mean_payoff's second
    pass, in ell - 1 oracle calls, gives the sub witness at min(u)/(q ell)
    - delta/8 and the super witness at max(u)/(q ell) + delta/8.  delta =
    1/mu^2 makes that interval isolate one rational of denominator <= mu;
    over s = q ell, delta/8 is ell/(2 s)."""
    q = 4 * mu**2
    lo, hi = min(u), max(u)
    x, y = Kernel(game).replay_loop(q, ell, lo, hi)
    scale = q * ell
    sub = Certificate(2 * lo - ell, 2 * scale, x, scale, SUB)
    sup = Certificate(2 * hi + ell, 2 * scale, y, scale, SUPER)
    value = rational_in_interval(RationalInterval(sub.lam, sup.lam), mu)
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
        mu2 = stats.mu**2
        cap = _probe_cap(stats)
        chi, h, den, steps, stop = _half_line(game, mu2, cap)
        calls += steps
        if chi is not None:
            top = max(chi)
            indices = [j for j, v in enumerate(chi) if v == top]
            sub = induced_subgame(game, indices)
            if sub is None:
                raise RuntimeError("top class is not a dominion")
            return _fixed_point_solution(
                sub, top, [h[j] for j in indices], den, steps, calls)
        if stop is not None:
            return _replayed_solution(game, stats.mu, *stop, calls)
        if peeled:
            raise IterationCapExceeded(
                f"no convergence within {cap} iterations")
        from .dominion import RoundingOracle, _sep_params, top_class

        dom, top_calls = top_class(RoundingOracle(game, 4 * mu2),
                                   _sep_params(stats))
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


def gain_bias_numerators(rows, r, M, anchor=None):
    """`dominion.markov_gain_bias` on integers: the rewards r are ints, and
    anchor(a, g, den), when given, takes the gain g/den of the closed class
    of smallest state a and returns the bias there as (p, q), q > 0.
    Returns (gain, bias, D): numerators over one common denominator D > 0,
    the least one.
    One pass over the strongly connected components, sinks first: every g
    and h found so far is a numerator over D, which grows, and every
    numerator with it, only when a component's solution needs it.
    A component of one state v is solved directly: closed, its gain is r_v;
    transient, it solves a x_v = the sum over its other successors, first
    for x = g and then for x = h with M (r_v - g_v) added, with a = M minus
    its self-loop numerator.  Every other component solves one system of
    its size, each equation scaled by M, by `integer_solve_numerators`.  A
    closed class solves for its gain and its bias with h = 0 at its
    smallest state a; h is then shifted there to anchor(a, g).  A transient
    component solves its absorption systems, first for g and then for h,
    with its successors outside it already solved."""
    n = len(rows)
    gain = [0] * n
    bias = [0] * n
    den = 1

    def widen(f):
        # multiply D, and every numerator over it, by f
        nonlocal den
        if f != 1:
            den *= f
            for v in range(n):
                gain[v] *= f
                bias[v] *= f
        return f

    def put(comp, g, h, d):
        # store comp's gains g and biases h, numerators over d > 0, over D;
        # d over the common gcd is the lcm of their reduced denominators
        e = math.gcd(d, *g, *h)
        d //= e
        widen(d // math.gcd(den, d))
        s = den // d
        for v, x, y in zip(comp, g, h):
            gain[v] = x // e * s
            bias[v] = y // e * s

    for comp in tarjan_scc([[l for l, _ in row] for row in rows]):
        if len(comp) == 1:
            (v,) = comp
            a, s_gain, s_bias = M, 0, 0
            for l, num in rows[v]:
                if l == v:
                    a -= num
                else:
                    s_gain += num * gain[l]
                    s_bias += num * bias[l]
            if not a:
                # a closed class of one state: g_v = r_v, h_v its anchor
                p, q = anchor(v, r[v], 1) if anchor else (0, 1)
                put(comp, [r[v] * q], [p], q)
                continue
            # g_v = s_gain / (a D)
            f = widen(a // math.gcd(a, s_gain))
            gain[v] = s_gain * f // a
            # h_v = (s_bias + M (r_v D - g_v D)) / (a D)
            t = s_bias * f + M * (r[v] * den - gain[v])
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
            sol, d = integer_solve_numerators(a, [M * r[v] for v in comp])
            # the solution is sol/d, and the bias at comp[0] the anchor's
            # p/q: all over d q
            p, q = anchor(comp[0], sol[0], d) if anchor else (0, 1)
            shift = p * d
            put(comp, [sol[0] * q] * m,
                [shift] + [x * q + shift for x in sol[1:]], d * q)
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
        # g = g_num/(d_g D), then h = h_num/(d_h d_g D)
        g_num, d_g = integer_solve_numerators(a, b_gain)
        h_num, d_h = integer_solve_numerators(a, [
            b * d_g + M * (r[v] * den * d_g - x)
            for b, v, x in zip(b_bias, comp, g_num)])
        put(comp, [x * d_h for x in g_num], h_num, d_h * d_g * den)
    e = math.gcd(den, *gain, *bias)
    if e == 1:
        return gain, bias, den
    return [x // e for x in gain], [x // e for x in bias], den // e


def _pair_chain(game: StochasticGame, sigma, tau):
    """Transition rows and per-step rewards of the Markov reward chain on
    the Min states induced by index-based positional strategies sigma
    (Min idx -> Max idx) and tau (Max idx -> Nat idx); a row names each
    target once, so each move carries one payoff."""
    rows = []
    r = []
    for j, i in enumerate(sigma):
        k = tau[i]
        rows.append(game.nat_edges[k])
        r.append(dict(game.max_edges[i])[k] - dict(game.min_edges[j])[i])
    return rows, r
