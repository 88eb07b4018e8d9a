"""The stochastic games' reference and fallback code: the paper's a
priori bounds and separation parameters, its constancy decision, dominion
extension and top-class extraction, the approximate oracles they query,
the exact `winner` decision, brute force by strategy enumeration (with
`markov_gain_bias`, the Fraction form of the chain solve), and random
instances.

`stochastic` holds the solve, and `smpgcheck` the game and the
certificate check; `stochastic` imports this module only when a probe
reaches its a priori cap and `top_class` takes over; `winner`, brute force
and the generator are imported by the commands that run them.  The
paper's procedures use only the oracle interface of `oracle`.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from ._smpgfast import Kernel, _int_step
from .iteration import Exhausted, WinnerVerdict, bottom, gap_iteration, zeros
from .numeric import NEG_INF
from .oracle import ShapleyOracle, restrict
from .smpgcheck import (
    GameStats,
    StochasticGame,
    induced_subgame,
    make_game,
)
from .stochastic import (
    StrategyPair,
    _bias_bound,
    _pair_chain,
    gain_bias_numerators,
    shapley_eval,
)


# ---------------------------------------------------------------------------
# the a priori bounds


def separation_bound(stats: GameStats) -> Fraction:
    return Fraction(1, stats.mu**2)


def bias_norm_bound(stats: GameStats) -> Fraction:
    return Fraction(_bias_bound(stats))


class _SepParams(NamedTuple):
    delta: Fraction
    R: Fraction


class SepParams(_SepParams):
    """delta: a priori separation parameter (must be below sep(F));
    R: seminorm bound for sub/super-eigenvectors of the top-class
    restriction.  The instance dict holds the cached `cap`."""

    def __new__(cls, delta, R):
        if delta <= 0 or R <= 0:
            raise ValueError("delta and R must be positive")
        return tuple.__new__(cls, (delta, R))

    @cached_property
    def cap(self) -> int:
        return 1 + math.ceil(Fraction(8) * self.R / self.delta)


def _sep_params(stats: GameStats) -> SepParams:
    delta = separation_bound(stats)
    r = bias_norm_bound(stats)
    if r <= 0:  # degenerate W = 0 games have zero bias; keep params legal
        r = delta
    return SepParams(delta=delta, R=Fraction(r))


# ---------------------------------------------------------------------------
# operators and oracles


def recession_eval(game: StochasticGame, x):
    """Recession operator: same min/max structure with payoffs dropped.
    Test oracle: the value vector is its fixed point (`TestRecessionEval`)."""
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


# ---------------------------------------------------------------------------
# the paper's top class


class Dominion(NamedTuple):
    states: frozenset


class DecideOutcome(NamedTuple):
    low_set: frozenset | None  # None means Empty: the value is constant
    iterations: int  # oracle calls too: one per iteration


def decide_constant_value(oracle, params: SepParams):
    """Run approximate value iteration (precision delta/8) for at most
    1 + ceil(8R/delta) steps.  If the normalized gap condition
    top(u) - bottom(u) <= (3/4)*delta*l triggers, the value is constant
    (Empty).  Otherwise every argmin state of the final iterate has value
    below the maximum; that set is returned."""
    u, ell, hit = gap_iteration(oracle, params.delta, params.cap)
    if hit:
        return DecideOutcome(None, ell)
    b = bottom(u)
    low = frozenset(i for i in range(oracle.n) if u[i] == b)
    return DecideOutcome(low, ell)


def extend(oracle, dominion_states, seed):
    """Close `seed` under the states forced to leave it: repeatedly add every
    j whose F^D coordinate is -inf at the vector that is -inf on the current
    set and 0 elsewhere.  Returns (extended set, oracle calls).

    The complement (dominion minus result) is again a dominion (or empty),
    and any sub-dominion disjoint from the seed stays disjoint."""
    states = sorted(dominion_states)
    index = {s: i for i, s in enumerate(states)}
    sub = restrict(oracle, states)
    current = set(seed)
    if not current:
        raise ValueError("empty seed")
    if not current <= set(states):
        raise ValueError("seed must lie inside the dominion")
    calls = 0
    one = Fraction(1)
    while True:
        x = tuple(
            NEG_INF if states[i] in current else Fraction(0)
            for i in range(len(states))
        )
        out = sub.eval(x, one)
        calls += 1
        new = {states[i] for i in range(len(states)) if out[i] is NEG_INF}
        if new <= current:
            return current, calls
        current |= new


def top_class(oracle, params: SepParams):
    """The set of states of maximal value.  Repeatedly decide constancy on
    the current dominion; when non-constant, remove the extension of the
    argmin set and continue.  Returns (Dominion, total oracle calls)."""
    n = oracle.n
    d_states = set(range(n))
    calls = 0
    for _ in range(n + 1):
        states = sorted(d_states)
        sub = restrict(oracle, states)
        outcome = decide_constant_value(sub, params)
        calls += outcome.iterations
        if outcome.low_set is None:
            calls += 1
            if any(v is NEG_INF for v in sub.eval(zeros(sub.n), Fraction(1))):
                raise RuntimeError("top_class arrived at a non-dominion")
            return Dominion(frozenset(d_states)), calls
        seed = {states[i] for i in outcome.low_set}
        extended, ext_calls = extend(oracle, d_states, seed)
        calls += ext_calls
        d_states -= extended
        if not d_states:
            raise RuntimeError("top_class removed every state; separation "
                               "parameters are invalid for this operator")
    raise RuntimeError("top_class failed to stabilize within n iterations")


def top_class_call_budget(n: int, params: SepParams) -> int:
    """Guaranteed oracle-call bound for top_class at precision delta/8.
    Test oracle: the paper's bound of order R/sep on oracle calls
    (`TestCallBudget`)."""
    return n * n + n * math.ceil(Fraction(8) * params.R / params.delta)


# ---------------------------------------------------------------------------
# winner


def winner_iteration_bound(stats: GameStats) -> int:
    return 8 * stats.n**2 * stats.W * stats.M ** (2 * stats.m_exp)


def winner(game: StochasticGame):
    """Exact value iteration from 0 with cap 8 n^2 W M^(2 min(s, n-1)) + 1,
    on integer numerators: the k-th iterate is u / M^k, and one `_int_step`
    over c = M^k gives u from the numerators over M^(k-1) (the reference is
    `value_iteration` with an `ExactOracle`).  Returns a WinnerVerdict, or
    Exhausted when the cap is hit (the value may be 0 somewhere or
    non-constant)."""
    cap = winner_iteration_bound(game.stats()) + 1
    u, c = [0] * len(game.min_ids), 1
    for it in range(1, cap + 1):
        c *= game.M
        u = _int_step(game, u, c)
        if max(u) <= 0:
            return WinnerVerdict("MinWinsAll", it,
                                 tuple(Fraction(v, c) for v in u))
        if min(u) >= 0:
            return WinnerVerdict("MaxWinsAll", it,
                                 tuple(Fraction(v, c) for v in u))
    return Exhausted(cap, tuple(Fraction(v, c) for v in u))


# ---------------------------------------------------------------------------
# brute force


class BruteForceResult(NamedTuple):
    chi: tuple  # per Min state, exact rational value
    pair_gains: tuple  # ((sigma, tau, gains), ...) with index-based maps


def markov_gain_bias(rows, r, M, anchor=None):
    """Per-state long-run average reward (gain) g and bias h of the Markov
    reward chain with transition rows `rows` (lists of (col, numerator),
    denominator M) and rational per-step rewards r, as Fractions: g = P g
    and g + h = r + P h, with h at the smallest state a of each closed
    class 0, or anchor(a, g_a) when `anchor` is given.  g and h are linear
    in the rewards and the anchors, so `gain_bias_numerators` solves the
    chain with the rewards scaled by the lcm R of their denominators, and
    the anchors by R too, and the result is divided by R."""
    scale = math.lcm(*(x.denominator for x in r))
    r_num = [x.numerator * (scale // x.denominator) for x in r]
    int_anchor = None
    if anchor is not None:
        def int_anchor(a, g, den):
            shift = anchor(a, Fraction(g, den * scale))
            return shift.numerator * scale, shift.denominator
    gain, bias, den = gain_bias_numerators(rows, r_num, M, int_anchor)
    den *= scale
    return [Fraction(x, den) for x in gain], [Fraction(x, den) for x in bias]


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
    """Re-evaluate a strategy pair given by ids.  Test oracle: the paper's
    exact optimal positional strategies (`test_strategy_optimality_frozen`)."""
    min_index = {s: j for j, s in enumerate(game.min_ids)}
    max_index = {s: i for i, s in enumerate(game.max_ids)}
    nat_index = {s: k for k, s in enumerate(game.nat_ids)}
    sigma = [max_index[strategies.sigma[s]] for s in game.min_ids]
    tau = [nat_index[strategies.tau[s]] for s in game.max_ids]
    return tuple(pair_gain(game, sigma, tau))


# ---------------------------------------------------------------------------
# random instances


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
