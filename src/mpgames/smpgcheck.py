"""Turn-based stochastic mean-payoff games: the game record (which
`graphs` builds, checks and restricts by the rule game files follow), its
file format, the Shapley operator, and what makes a solve report true.

States alternate Min -> Max -> Nature -> Min.  Min receives A on its move
(Max pays it), Max receives B on its move, Nature moves according to
rational rows with common denominator M.  The per-turn reward of a path
through edges (j,i), (i,k) is B_ik - A_ij; the value of a state is the
long-run average reward under optimal play.

The Shapley operator is coded once, in three integer stages, which
`_smpgfast._int_step` chains for the solver's loops, the solver's greedy
pair reads its argmax and argmin off, and `certificates_hold`, the check
the solver accepts its answers with, runs once per certificate vector,
-inf entries included.  `verify_report` is `certify`'s check of a report.
Only `graphs` and `numeric` are imported: `certify` compiles no solver code.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .graphs import (
    GameFormatError,
    check_rows,
    game_file,
    game_record,
    json_int,
    read_game_file,
    state_indices,
    subgame,
)
from .numeric import (
    _CERT_FAILED,
    _STATES_FAILED,
    NEG_INF,
    NOT_FOUND,
    NOT_UNIQUE,
    SUB,
    Certificate,
    _approx_holds,
    _cert_pair,
    _cert_records,
    _field,
    _interval_ends,
    _named_subgame,
    _report_ratio,
    _same_interval,
    _strategy,
    rational_between,
    seen_image,
)

# the game file's state-list keys, and (name, edge field, default) per kind
KEYS = ("min_states", "max_states", "nat_states")
_LABELS = (("min", "a", 0), ("max", "b", 0), ("nat", "p_num", None))


class _Game(NamedTuple):
    min_ids: tuple
    max_ids: tuple
    nat_ids: tuple
    # adjacency by index, sorted by target index:
    min_edges: tuple  # per Min state: ((max_idx, A), ...)
    max_edges: tuple  # per Max state: ((nat_idx, B), ...)
    nat_edges: tuple  # per Nat state: ((min_idx, numerator), ...), sum = M
    M: int


class StochasticGame(_Game):
    """A stochastic mean-payoff game.  The instance dict holds the cached
    properties."""

    @property
    def ids(self):
        return self.min_ids, self.max_ids, self.nat_ids

    @property
    def edges(self):
        return self.min_edges, self.max_edges, self.nat_edges

    def validate(self):
        """The game itself; GameFormatError unless it keeps `check_rows` and
        each Nature row's numerators are positive and sum to M >= 1."""
        if json_int(self.M, '"denominator"') < 1:
            raise GameFormatError("denominator must be >= 1")
        check_rows(_LABELS, self.ids, self.edges)
        for sid, row in zip(self.nat_ids, self.nat_edges):
            if any(num <= 0 for _, num in row):
                raise GameFormatError(f"nonpositive numerator at state {sid!r}")
            if sum(num for _, num in row) != self.M:
                raise GameFormatError(
                    f"numerators at state {sid!r} do not sum to denominator"
                )
        return self

    @cached_property
    def payoff_bound(self) -> int:
        """The largest |A| or |B| of an edge."""
        return max(abs(w) for rows in (self.min_edges, self.max_edges)
                   for row in rows for _, w in row)

    def stats(self):
        """The game's size parameters, computed on first use and kept."""
        return self._stats

    @cached_property
    def _stats(self):
        n = len(self.min_ids)
        # max |a - b| over the Max edges after a Min edge is at the
        # smallest or the largest b
        b_range = []
        for row in self.max_edges:
            bs = [b for _, b in row]
            b_range.append((min(bs), max(bs)))
        w = 0
        for row in self.min_edges:
            for i, a in row:
                lo, hi = b_range[i]
                if a - lo > w:
                    w = a - lo
                if hi - a > w:
                    w = hi - a
        s = sum(1 for row in self.nat_edges if len(row) >= 2)
        m_exp = min(s, n - 1) if n > 1 else 0
        mu = n * self.M**m_exp
        return GameStats(n=n, M=self.M, W=w, s=s, m_exp=m_exp, mu=mu)


class GameStats(NamedTuple):
    n: int
    M: int
    W: int
    s: int
    m_exp: int
    mu: int


def make_game(min_ids, max_ids, nat_ids, min_edges, max_edges, nat_edges, M):
    """The validated game on index-based adjacency, each row sorted by
    target (`graphs.game_record`)."""
    return game_record(StochasticGame, _LABELS, (min_ids, max_ids, nat_ids),
                       (min_edges, max_edges, nat_edges), M)


def parse_smpg(obj) -> StochasticGame:
    ids, (min_edges, max_edges, nat_edges) = read_game_file(
        obj, "smpg", KEYS, _LABELS)
    m = _field(obj, "denominator")  # `validate` checks it
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
    return subgame(game, _LABELS,
                   (subset, max_used, sorted(set().union(*kept))))


# ---------------------------------------------------------------------------
# the Shapley operator


def _nature_stage(rows, u):
    """Per Nature state, sum_l num_l u_l: for x with numerators u over c/M,
    the numerator over c of Nature's expectation of x.  An -inf entry
    (NEG_INF) absorbs here and in the other two stages as in F."""
    nat = []
    for row in rows:
        s = 0
        for l, num in row:
            s += num * u[l]
        nat.append(s)
    return nat


def _max_stage(rows, nat, c):
    """Per Max state, the maximum over its edges of B c + nat."""
    best = []
    for row in rows:
        first = True
        for k, b in row:
            v = b * c + nat[k]
            if first or v > m:
                m = v
                first = False
        best.append(m)
    return best


def _min_stage(rows, best, c):
    """Per Min state, the minimum over its edges of best - A c."""
    out = []
    for row in rows:
        first = True
        for i, a in row:
            v = best[i] - a * c
            if first or v < m:
                m = v
                first = False
        out.append(m)
    return out


def _step_stages(game, x):
    """One integer Shapley step at the vector x = (u, L), numerators u over
    L, kept by stage: c = L M, and the Nature sums and Max maxima at u/L as
    numerators over c.  (c, nat, best); `_min_stage` of best is F(u/L) over
    c."""
    u, den = x
    c = den * game.M
    nat = _nature_stage(game.nat_edges, u)
    return c, nat, _max_stage(game.max_edges, nat, c)


def _cut(rows, targets):
    """Each row cut to its edge into the state `targets` names for it:
    empty where it names none."""
    return [[e for e in row if e[0] == t] for row, t in zip(rows, targets)]


# ---------------------------------------------------------------------------
# certificates


def check_certificate(game: StochasticGame, cert: Certificate) -> bool:
    """Exact verification of lam + v <= F(v) (sub) or >= (super)."""
    return certificates_hold(game, (cert,))


def certificates_hold(game: StochasticGame, certs, sigma=None,
                      tau=None, images=None) -> bool:
    """Whether every Certificate of `certs` holds, on integers,
    evaluating F once per distinct vector (an early sub/super pair shares
    its vector h): with x = u/L and F(x) = y/(L M) from `_step_stages`,
    level p/q holds as sub when p L M + q M u_j <= q y_j for every j, and
    as super when >=.  `images`, a list of ((u, L), stages) pairs, holds
    stages a caller has computed already.
    With index-based positional strategies it also checks them, on the
    same stages: sigma (Min idx -> Max idx) must name an edge at every Min
    state, and F with Min fixed to it be at most lam + y at each super
    vector y; tau (Max idx -> Nat idx) must name an edge at every Max
    state, and F with Max fixed to it be at least lam + x at each sub
    vector x.  Those bound F itself, so they replace the plain checks.
    A vector with -inf entries runs through the same stages; any -inf
    entry of its F fails, and it certifies no strategy."""
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
    images = [] if images is None else list(images)
    for cert in certs:
        p, q, u, den, direction, multiplicative = cert
        if multiplicative:
            raise ValueError("stochastic certificates are additive")
        if len(u) != n:
            raise ValueError("vector length does not match Min state count")
        sub = direction == SUB
        x = (u, den)
        image = seen_image(images, x)
        if image is None:
            image = _step_stages(game, x)
            images.append((x, image))
        c, nat, best = image
        if sub:
            if max_rows is not None:
                best = _max_stage(max_rows, nat, c)
            y = _min_stage(game.min_edges, best, c)
        else:
            y = _min_stage(min_rows, best, c)
        if NEG_INF in u and ((tau if sub else sigma) is not None
                             or NEG_INF in y):
            return False
        pc, qM = p * c, q * M
        if sub:
            holds = all(pc + qM * v <= q * w for v, w in zip(u, y))
        else:
            holds = all(pc + qM * v >= q * w for v, w in zip(u, y))
        if not holds:
            return False
    return True


# ---------------------------------------------------------------------------
# reports


def verify_report(game: StochasticGame, report):
    """Why the stochastic solve report fails on `game`, or None: its one
    certificate pair must hold on the subgame it names, the strategies it
    names be optimal at that pair, and its claims follow from the pair's
    levels."""
    records = _cert_records(report)
    if len(records) != 2:
        # its strategies are checked at that one pair
        raise GameFormatError("a stochastic report has one certificate pair")
    states, sub, sup = _cert_pair(*records)
    target = game if states is None else _named_subgame(
        game, states, KEYS, lambda named: induced_subgame(
            game, state_indices(game.min_ids, named)))
    if target is None:
        return _STATES_FAILED
    return (_smpg_failure(report, target, sub, sup)
            or _smpg_claims(report, target, sub[:2], sup[:2]))


def _smpg_failure(report, target, sub, sup):
    """Why the Certificates sub and sup, or the strategies the report
    names, checked at them, fail on `target`, or None."""
    sigma = _strategy(report, "min_strategy", target.min_ids, target.max_ids)
    tau = _strategy(report, "max_strategy", target.max_ids, target.nat_ids)
    if sigma is False:
        return "min_strategy does not name the certified Min states"
    if tau is False:
        return "max_strategy does not name the certified Max states"
    if certificates_hold(target, (sub, sup), sigma, tau):
        return None
    # the failure path only: find which check failed
    if not certificates_hold(target, (sub, sup)):
        return _CERT_FAILED
    if sigma is not None and not certificates_hold(target, (sup,),
                                                   sigma=sigma):
        return "min_strategy fails at the super certificate"
    return "max_strategy fails at the sub certificate"


def _smpg_claims(report, target, lo, hi):
    """Why the top class, interval or value the report claims does not
    follow from the certified levels lo and hi on `target`, or None."""
    if "top_class" in report and report["top_class"] != sorted(target.min_ids):
        return "top_class is not the set of states the certificates hold on"
    ends = None
    if "interval" in report:
        ends = _interval_ends(report["interval"])
        if not _same_interval(ends, lo, hi):
            return "interval is not the certified levels"
    value = None
    for key in ("value", "top_value"):
        if key not in report:
            continue
        p, q = _report_ratio(report[key])
        if value is None:
            value = rational_between(lo, hi, target.stats().mu)
        if (value is NOT_FOUND or value is NOT_UNIQUE
                or p * value[1] != value[0] * q):
            return (f"{key} is not the unique rational of denominator <= mu "
                    "between the certified levels")
    if ends is not None and not _approx_holds(report["interval"], ends):
        return "interval approx is not the decimal enclosure of lo and hi"
    return None
