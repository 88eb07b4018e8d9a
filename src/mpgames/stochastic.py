"""Turn-based stochastic mean-payoff games.

States alternate Min -> Max -> Nature -> Min.  Min pays A on its move, Max
receives B on its move, Nature moves according to rational rows with common
denominator M.  The per-turn reward of a path through edges (j,i), (i,k) is
B_ik - A_ij; the value of a state is the long-run average reward under
optimal play.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
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
    Certificate,
    approximate_constant_mean_payoff,
    value_iteration,
)
from .linalg import solve_linear
from .numeric import (
    NEG_INF,
    NOT_FOUND,
    NOT_UNIQUE,
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
        w = 0
        for j in range(n):
            for i, a in self.min_edges[j]:
                for _, b in self.max_edges[i]:
                    w = max(w, abs(a - b))
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
    F_j(x) = min_(j,i) [ -A_ij + max_(i,k) ( B_ik + sum_l P_kl x_l ) ]."""
    if len(x) != len(game.min_ids):
        raise ValueError("vector length does not match Min state count")
    out = []
    for j in range(len(game.min_ids)):
        best = None
        for i, a in game.min_edges[j]:
            inner = NEG_INF
            for k, b in game.max_edges[i]:
                val = _nature_sum(game.nat_edges[k], x, game.M)
                if val is NEG_INF:
                    continue
                val = b + val
                if inner is NEG_INF or val > inner:
                    inner = val
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
    if cert.multiplicative:
        raise ValueError("stochastic certificates are additive")
    y = shapley_eval(game, cert.vec)
    if any(v is NEG_INF for v in y):
        return False
    if cert.direction == SUB:
        return all(cert.lam + v <= w for v, w in zip(cert.vec, y))
    return all(cert.lam + v >= w for v, w in zip(cert.vec, y))


@dataclass(frozen=True)
class ConstantValueSolution:
    value: Fraction
    strategies: StrategyPair
    sub: Certificate
    sup: Certificate
    interval: object
    iterations: int
    oracle_calls: int


def _sep_params(stats: GameStats) -> SepParams:
    delta = separation_bound(stats)
    r = bias_norm_bound(stats)
    if r <= 0:  # degenerate W = 0 games have zero bias; keep params legal
        r = delta
    return SepParams(delta=delta, R=Fraction(r))


def _max_score(game, i, x):
    """max over (i,k) of B_ik + sum_l P_kl x_l, plus the argmax Nature state
    (smallest index on ties)."""
    best = None
    best_k = None
    for k, b in game.max_edges[i]:
        val = b + _nature_sum(game.nat_edges[k], x, game.M)
        if best is None or val > best:
            best = val
            best_k = k
    return best, best_k


def solve_constant_value(game: StochasticGame):
    """Exact value + optimal strategies + certificates for a game whose value
    does not depend on the initial state.  delta = 1/mu^2 makes the interval
    isolate a unique rational of denominator <= mu."""
    stats = game.stats()
    params = _sep_params(stats)
    delta = params.delta
    q = 4 * stats.mu**2
    oracle = RoundingOracle(game, q)
    res = approximate_constant_mean_payoff(oracle, delta, params.cap)
    value = rational_in_interval(res.interval, stats.mu)
    if value is NOT_FOUND or value is NOT_UNIQUE:
        raise ValueError(
            "value reconstruction failed; the game value is not constant"
        )
    if not (check_certificate(game, res.sub) and check_certificate(game, res.sup)):
        raise AssertionError("internal error: certificate failed verification")
    x = res.sub.vec
    y = res.sup.vec
    tau = {}
    for i in range(len(game.max_ids)):
        _, best_k = _max_score(game, i, x)
        tau[game.max_ids[i]] = game.nat_ids[best_k]
    sigma = {}
    for j in range(len(game.min_ids)):
        best = None
        best_i = None
        for i, a in game.min_edges[j]:
            inner, _ = _max_score(game, i, y)
            val = -a + inner
            if best is None or val < best:
                best = val
                best_i = i
        sigma[game.min_ids[j]] = game.max_ids[best_i]
    return ConstantValueSolution(
        value=value,
        strategies=StrategyPair(sigma=sigma, tau=tau),
        sub=res.sub,
        sup=res.sup,
        interval=res.interval,
        iterations=res.iterations,
        oracle_calls=oracle.calls,
    )


@dataclass(frozen=True)
class TopClassSolution:
    states: frozenset  # Min state ids
    indices: frozenset
    oracle_calls: int
    params: SepParams


def solve_top_class(game: StochasticGame) -> TopClassSolution:
    """States of maximal value, via top_class with delta = 1/mu^2 and
    R = 8 n W M^min(s, n-1), oracle precision delta/8."""
    stats = game.stats()
    params = _sep_params(stats)
    oracle = RoundingOracle(game, 4 * stats.mu**2)
    dom, calls = top_class(oracle, params)
    return TopClassSolution(
        states=frozenset(game.min_ids[i] for i in dom.states),
        indices=frozenset(dom.states),
        oracle_calls=calls,
        params=params,
    )


# ---------------------------------------------------------------------------
# brute force


@dataclass(frozen=True)
class BruteForceResult:
    chi: tuple  # per Min state, exact rational value
    pair_gains: tuple  # ((sigma, tau, gains), ...) with index-based maps


def markov_gain(rows, r, M):
    """Per-state long-run average reward of the Markov reward chain with
    transition rows `rows` (lists of (col, numerator), denominator M) and
    per-step rewards r.  Exact rationals: stationary distributions on the
    recurrent classes, absorption systems for the transient part."""
    n = len(rows)
    adj = [[l for l, _ in row] for row in rows]
    comps = tarjan_scc(adj)
    comp_of = [0] * n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    recurrent = []
    for ci, comp in enumerate(comps):
        closed = all(comp_of[w] == ci for v in comp for w in adj[v])
        if closed:
            recurrent.append(ci)
    gain = [None] * n
    for ci in recurrent:
        comp = sorted(comps[ci])
        idx = {v: t for t, v in enumerate(comp)}
        m = len(comp)
        # pi (Q - I) = 0 with sum(pi) = 1: solve transposed system
        a = [[Fraction(0)] * m for _ in range(m)]
        for v in comp:
            for l, num in rows[v]:
                a[idx[l]][idx[v]] += Fraction(num, M)
            a[idx[v]][idx[v]] -= 1
        # replace last equation by normalization
        a[m - 1] = [Fraction(1)] * m
        b = [Fraction(0)] * (m - 1) + [Fraction(1)]
        pi = solve_linear(a, b)
        g = sum(p * r[v] for p, v in zip(pi, comp))
        for v in comp:
            gain[v] = g
    transient = [v for v in range(n) if gain[v] is None]
    if transient:
        idx = {v: t for t, v in enumerate(transient)}
        m = len(transient)
        a = [[Fraction(0)] * m for _ in range(m)]
        b = [Fraction(0)] * m
        for v in transient:
            a[idx[v]][idx[v]] = Fraction(1)
            for l, num in rows[v]:
                p = Fraction(num, M)
                if l in idx:
                    a[idx[v]][idx[l]] -= p
                else:
                    b[idx[v]] += p * gain[l]
        sol = solve_linear(a, b)
        for v in transient:
            gain[v] = sol[idx[v]]
    return gain


def pair_gain(game: StochasticGame, sigma, tau):
    """Gains of the Markov reward chain induced by index-based positional
    strategies sigma (Min idx -> Max idx) and tau (Max idx -> Nat idx)."""
    a_of = {
        (j, i): a for j in range(len(game.min_ids)) for i, a in game.min_edges[j]
    }
    b_of = {
        (i, k): b for i in range(len(game.max_ids)) for k, b in game.max_edges[i]
    }
    rows = []
    r = []
    for j in range(len(game.min_ids)):
        i = sigma[j]
        k = tau[i]
        rows.append(list(game.nat_edges[k]))
        r.append(Fraction(b_of[(i, k)] - a_of[(j, i)]))
    return markov_gain(rows, r, game.M)


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
