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
enumeration); the witness is then the first damped iterate whose levels
lie in the value bracket widened by a slack, half an exact rational lower
bound of the log-gap between the top value and the nearest distinct growth
rate of a pair matrix restricted to the block.
That path, brute force and the log-domain arithmetic live in `perron`,
which a solve imports only when a block falls back; this module holds what
a solve certified by the separation and a certificate check run.

On both paths one positive integer vector at integer levels lo <= hi is the
sub and the super certificate of a block (`_finish_block`), and the
strategies are the pair greedy at it (`_greedy`), the rule the search
applies to every iterate.  One evaluation per iterate (`_evaluate`) feeds
the guess, the levels and the strategies; a guess whose subgame keeps every
state uses the game itself; only a block's interval is made of Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from importlib import import_module
from typing import NamedTuple

from .graphs import (
    GameFormatError,
    check_adjacency,
    game_file,
    read_game_file,
    spanning_subgraph,
)
from .linalg import integer_rank, integer_solve_numerators
from .numeric import SUB, SUPER, Certificate, RationalInterval, seen_image


# ---------------------------------------------------------------------------
# game structure

# the game file's state-list keys, and (name, edge field, default) per kind
KEYS = ("d_states", "t_states", "p_states")
_LABELS = (("despot", None, None), ("tribune", None, None),
           ("people", "m", 1))


class _Game(NamedTuple):
    d_ids: tuple  # Despot state ids
    t_ids: tuple  # Tribune state ids
    p_ids: tuple  # People state ids
    d_edges: tuple  # per Despot: (tribune_idx, ...)
    t_edges: tuple  # per Tribune: (people_idx, ...)
    p_edges: tuple  # per People: ((despot_idx, multiplicity), ...)


class EntropyGame(_Game):
    """A matrix-multiplicative game.  The instance dict holds the cached
    validity."""

    @property
    def ids(self):
        return self.d_ids, self.t_ids, self.p_ids

    @property
    def edges(self):
        return self.d_edges, self.t_edges, self.p_edges

    def validate(self):
        """The game itself; GameFormatError when it is malformed.  The
        checks run once per game object: a CLI solve validates the game it
        reads, and the solve validates it again."""
        self._valid
        return self

    @cached_property
    def _valid(self) -> bool:
        ids = self.ids
        check_adjacency(_LABELS, ids, self.edges)
        for k, rows in enumerate(self.edges):
            # a People row's dict keeps one multiplicity per Despot
            distinct = dict if k == 2 else set
            for sid, row in zip(ids[k], rows):
                if len(row) > 1 and len(distinct(row)) < len(row):
                    targets = [e[0] for e in row] if k == 2 else row
                    dup = ids[(k + 1) % 3][max(targets, key=targets.count)]
                    raise GameFormatError(f"duplicate edge {sid!r} -> {dup!r}")
        for sid, row in zip(self.p_ids, self.p_edges):
            for _, m in row:
                if not isinstance(m, int) or m < 1:
                    raise GameFormatError(
                        f"multiplicity at state {sid!r} must be a positive integer"
                    )
        return True

    def stats(self):
        """The game's size parameters, computed on first use and kept."""
        return self._stats

    @cached_property
    def _stats(self):
        w = max(m for row in self.p_edges for _, m in row)
        return EntropyStats(n=len(self.d_ids), W=w)


class EntropyStats(NamedTuple):
    n: int
    W: int


def make_entropy_game(d_ids, t_ids, p_ids, d_edges, t_edges, p_edges):
    return _sorted_game((d_ids, t_ids, p_ids),
                        (d_edges, t_edges, p_edges)).validate()


def _sorted_game(ids, edges):
    """The game on these state ids and edge rows, each row sorted by target:
    the solver's ties go to the first, the smallest, index."""
    return EntropyGame(*map(tuple, ids), *(
        tuple(tuple(sorted(row)) for row in rows) for rows in edges))


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


# ---------------------------------------------------------------------------
# dominions and restrictions


def induced_entropy_subgame(game: EntropyGame, d_subset):
    """The subgame induced by a dominion D of Despot states: People keep
    their edges into D (surviving iff at least one remains), Tribunes keep
    their surviving People, and every Despot move must land on a surviving
    Tribune.  Returns None when the subset is not a dominion, and the game
    itself when the subgame keeps every state."""
    d_set = set(d_subset)
    d_sel = sorted(d_set)
    v_p = {p for p, row in enumerate(game.p_edges) for l, _ in row
           if l in d_set}
    t_sel = sorted({t for d in d_sel for t in game.d_edges[d]})
    if any(v_p.isdisjoint(game.t_edges[t]) for t in t_sel):
        return None
    p_sel = sorted({p for t in t_sel for p in game.t_edges[t] if p in v_p})
    keep = (d_sel, t_sel, p_sel)
    if list(map(len, keep)) == list(map(len, game.ids)):
        return game
    return _spanned(game, keep)


def _spanned(game, keep):
    """The subgraph of the validated `game` on the state indices `keep`: its
    targets stay distinct and its multiplicities positive, so only a state
    left with no move needs a check."""
    ids, edges = spanning_subgraph(_LABELS, game.ids, game.edges, keep)
    check_adjacency(_LABELS, ids, edges)
    return _sorted_game(ids, edges)


# ---------------------------------------------------------------------------
# certificates


def check_entropy_certificate(game: EntropyGame, cert: Certificate) -> bool:
    """Exact verification of lam * v <= T(v) (sub) or >= (super) for a
    multiplicative certificate with positive rational entries."""
    return check_entropy_certificates(game, (cert,))


def check_entropy_certificates(game: EntropyGame, certs) -> bool:
    """`check_entropy_certificate` for every certificate, evaluating T once
    per distinct vector, on integers.  T is positively homogeneous, so T(u/L)
    = T(u)/L, and the level p/q holds as sub when p u_d <= q T(u)_d for
    every Despot d, and as super when >=: T runs on the numerators u and L
    plays no part.  A vector with an -inf entry is not positive, and
    fails."""
    images = []
    for p, q, u, _, direction, multiplicative in certs:
        if not multiplicative:
            raise ValueError("entropy certificates are multiplicative")
        if any(v <= 0 for v in u):
            return False
        image = seen_image(images, u)
        if image is None:
            image = multiplicative_eval(game, u)
            images.append((u, image))
        if direction == SUB:
            holds = all(p * v <= q * w for v, w in zip(u, image))
        else:
            holds = all(p * v >= q * w for v, w in zip(u, image))
        if not holds:
            return False
    return True


# ---------------------------------------------------------------------------
# separation bound and strategy-pair budget


_E_NUM, _E_DEN = 27182818285, 10**10  # a rational upper bound of e


def _nu_terms(n: int, w: int, r: int):
    """nu(n, W, r) = 2^r (r+1)^(8r) (n e)^(4r^2) max(1, W/2)^(4r^2) /
    r^(2r^2-r-1), e rounded up, as (numerator, denominator)."""
    k = 4 * r * r
    num = 2**r * (r + 1)**(8 * r) * (n * _E_NUM)**k
    den = r**(2 * r * r - r - 1) * _E_DEN**k
    if w > 2:
        num, den = num * w**k, den * 2**k
    return num, den


def _nu_value(n: int, w: int, r: int) -> Fraction:
    return Fraction(*_nu_terms(n, w, r))


class _Separation(NamedTuple):
    """The log-domain separation denominator nu_hat = n W nu(n, W, r) =
    num/den in lowest terms, and what a search reads off it."""

    num: int
    den: int
    log2: int  # the least b with 2^b >= nu_hat
    delta: Fraction  # 1/nu_hat, the delta of a block it decides


@lru_cache(maxsize=None)
def _separation(n: int, w: int, r: int) -> _Separation:
    num, den = _nu_terms(n, w, r)
    num *= n * w
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return _Separation(num, den, _log2_ceil(num, den), Fraction(den, num))


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


class BlockResult(NamedTuple):
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


class EntropySolution(NamedTuple):
    values: dict  # Despot id -> RationalInterval (multiplicative)
    sigma: dict  # Despot id -> Tribune id
    tau: dict  # Tribune id -> People id
    blocks: tuple


def _finish_block(game, dmax, subgame, lo, hi, vec, greedy=None, **fields):
    """The block of the Despots `dmax` of `game`, whose subgame carries the
    witness vec at the levels lo <= hi, each (p, q) with q > 0, as both the
    sub and the super certificate, with the strategies greedy at it:
    (block, sigma, tau).  `greedy` is `_greedy` of `game` at vec, which a
    block of every Despot may pass; `fields` are the block's remaining
    fields."""
    vec = tuple(vec)  # one vector, the sub and the super witness
    if greedy is None:
        # the witness extended by zero off the block: a People sum is
        # positive iff the People has an edge into the block, a Tribune's
        # largest sum iff the Tribune has such a People; these People and
        # Tribunes join the block
        x = [0] * len(game.d_ids)
        for d, v in zip(dmax, vec):
            x[d] = v
        greedy = _greedy(game, x)
    # exact strategies, ties to the smallest index: those greedy at it
    psum, tau, sigma = greedy
    v_t = [t for t, p in enumerate(tau) if psum[p]]
    # the bracket: the levels within [1, n W], which holds every value
    (lp, lq), (hp, hq) = lo, hi
    top = len(game.d_ids) * game.stats().W
    block = BlockResult(
        d_ids=tuple(game.d_ids[d] for d in dmax),
        t_ids=tuple(game.t_ids[t] for t in v_t),
        p_ids=tuple(game.p_ids[p] for p, s in enumerate(psum) if s),
        subgame=subgame,
        interval=RationalInterval(
            Fraction(lp, lq) if lp >= lq else Fraction(1),
            Fraction(hp, hq) if hp <= top * hq else Fraction(top)),
        sub=Certificate(lp, lq, vec, 1, SUB, True),
        sup=Certificate(hp, hq, vec, 1, SUPER, True),
        **fields,
    )
    return (block, {game.d_ids[d]: game.t_ids[sigma[d]] for d in dmax},
            {game.t_ids[t]: game.p_ids[tau[t]] for t in v_t})


def _greedy(game: EntropyGame, x):
    """The People sums at x and the pair greedy at x, ties to the smallest
    index: (sums, tau, sigma), tau giving each Tribune's People of largest
    sum and sigma each Despot's Tribune of least such sum."""
    psum = [sum([m * x[l] for l, m in row]) for row in game.p_edges]
    tau = [max(row, key=psum.__getitem__) for row in game.t_edges]
    tsum = [psum[p] for p in tau]
    return psum, tau, [min(row, key=tsum.__getitem__) for row in game.d_edges]


def _evaluate(game: EntropyGame, x):
    """One evaluation of T at the positive vector x, and all that the search
    reads off it: (T(x), rows, greedy, lo, hi).  `greedy` is `_greedy` at
    x, rows the People row each Despot takes under that pair, so that T(x)
    = A x for the pair matrix A of those rows, and lo and hi
    `_level_states` of x."""
    greedy = psum, tau, sigma = _greedy(game, x)
    rows = tuple([tau[t] for t in sigma])
    tx = tuple([psum[p] for p in rows])
    return (tx, rows, greedy, *_level_states(x, tx))


def _people_rows(game: EntropyGame, people):
    """The rows of the People `people` as dense vectors over the Despots."""
    n = len(game.d_ids)
    rows = []
    for p in people:
        row = [0] * n
        for l, m in game.p_edges[p]:
            row[l] = m
        rows.append(row)
    return rows


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

    The iterate keeps `bits` bits, those of nu_hat and `_MARGIN_BITS`, on
    its least entry, and the power of B twice that on its largest; the
    exact checks accept any positive vector, so trimming costs precision,
    not soundness.  Squaring stops while the iterate's entries span more
    than `bits` bits: on a game of several classes that spread grows with
    the steps taken, and a power would round the lower classes away.
    `bits` may be set after construction, but before the first advance."""

    def __init__(self, game: EntropyGame, bits=None, start=None):
        self.game = game
        self.bits = bits
        self.vec = start or [1] * len(game.d_ids)
        self.steps = 0  # the damped steps behind the iterate
        self._rows = self._power = None  # the rows of A, and B^exponent
        self._exponent = 0

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
            power = _people_rows(self.game, rows)
            for d, row in enumerate(power):
                row[d] += 1
            self._rows, self._power, self._exponent = rows, power, 1
            nxt = [a + b for a, b in zip(tx, self.vec)]
            squarings = 0
        self.steps += self._exponent
        (self.vec,) = _shifted([nxt], min(nxt).bit_length() - bits)
        return squarings


def _growth_top(u, tu, best, k):
    """The top class guessed at cut k: the Despots whose growth ratio
    T(u)_d / u_d is at least 1 - 1/k times the largest, that of the Despot
    `best` (every Despot at k = 1), compared by cross-multiplication."""
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


def _separated_levels(v, tv, lo, hi, sep):
    """The Collatz-Wielandt levels (min, max of T(v)_d / v_d, taken at the
    Despots lo and hi) of the positive vector v, each (p, q), or None
    unless max/min < 1 + 1/nu_hat for the `_Separation` sep."""
    # max/min - 1 = (tv_hi v_lo - tv_lo v_hi) / (tv_lo v_hi) < 1/nu_hat
    gap = tv[hi] * v[lo] - tv[lo] * v[hi]
    if gap * sep.num >= tv[lo] * v[hi] * sep.den:
        return None
    return (tv[lo], v[lo]), (tv[hi], v[hi])


def _single_integer(v, tv, lo, hi):
    """The one integer between the Collatz-Wielandt levels of v, taken at
    the Despots lo and hi, or None when they hold none or several."""
    rho = -(-tv[lo] // v[lo])
    return rho if rho * v[hi] <= tv[hi] < (rho + 1) * v[hi] else None


def _integer_value_witness(subgame: EntropyGame, rows, rho, sep):
    """The candidate witness of a block whose value is the integer rho: y
    with (mu I - A) y = 1 at mu = rho (1 + 2^-b), 2^-b <= 1/(2 nu_hat), A
    the pair matrix of the People `rows`, scaled to integers.  None unless
    rho is an eigenvalue of A (rho I - A singular, a cheap test on small
    integers) and y is positive.  If rho is A's Perron root, then A y =
    mu y - 1 gives levels in [rho, mu) even on a Jordan block, which has no
    positive eigenvector.  The power of two keeps mu, and so y, far shorter
    than nu_hat's own numerator and denominator."""
    n = len(rows)
    shifted = [[rho * (d == l) - m for l, m in enumerate(row)]
               for d, row in enumerate(_people_rows(subgame, rows))]
    if integer_rank(shifted) == n:
        return None
    # 2^b (mu I - A) = 2^b (rho I - A) + rho I, with 2^b >= 2 nu_hat
    b = sep.log2 + 1
    a = [[(x << b) + rho * (d == l) for l, x in enumerate(row)]
         for d, row in enumerate(shifted)]
    try:
        m, d = integer_solve_numerators(a, [1 << b] * n)
    except ValueError:
        return None
    if any(v <= 0 for v in m):
        return None
    # y = m/d, d > 0; positive multiples are equal witnesses, and this one
    # is y over the lcm of its reduced denominators
    g = math.gcd(d, *m)
    return [v // g for v in m]


def _people_rank(subgame: EntropyGame) -> int:
    """The rank of the subgame's People rows, as vectors over its Despots."""
    return integer_rank(_people_rows(subgame, range(len(subgame.p_ids))))


def _log2_ceil(num: int, den: int) -> int:
    """The least b with 2^b >= num/den, for num >= den > 0."""
    b = num.bit_length() - den.bit_length()
    return b if num <= den << b else b + 1


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
      strategies greedy at v are then exactly optimal on D by the argument
      of `perron._top_slack`, with 1/nu_hat in place of the enumerated gap;
    - `remove_block` leaves a well-formed residual game (or none), and the
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
        u_eval = tu, u_rows, _, _, u_hi = _evaluate(game, u)
        work += 1
        top = _growth_top(u, tu, u_hi, math.isqrt(search.steps) + 1)
        if top != guess:
            # a new guess: its subgame, separation bound and iterate
            guess, found = top, None
            subgame = induced_entropy_subgame(game, top)
            if subgame is not None:
                rank = _people_rank(subgame)
                sep = _separation(stats.n, stats.W, rank)
                bits = sep.log2 + _MARGIN_BITS
                if len(top) == nd:
                    # the first guess (the cut k = 1 keeps every Despot):
                    # its rank bounds that of every pair matrix of the game
                    search.bits, inner = bits, search
                else:
                    inner = _DampedIterate(subgame, bits,
                                           [u[d] for d in top])
                tried = set()
        if subgame is not None and found is None:
            v = inner.vec
            if inner is search:
                v_eval = u_eval
            else:
                v_eval = _evaluate(subgame, v)
                work += 1
            tv, v_rows, _, v_lo, v_hi = v_eval
            levels = _separated_levels(v, tv, v_lo, v_hi, sep)
            rho = None if levels else _single_integer(v, tv, v_lo, v_hi)
            if rho is not None and (rho, v_rows) not in tried:
                # one exact solve per integer and greedy pair of the guess
                tried.add((rho, v_rows))
                y = _integer_value_witness(inner.game, v_rows, rho, sep)
                work += 1
                if y is not None:
                    y_eval = ty, _, _, y_lo, y_hi = _evaluate(inner.game, y)
                    work += 1
                    levels = _separated_levels(y, ty, y_lo, y_hi, sep)
                    if levels is not None:
                        v, v_eval = y, y_eval
            if levels is None:
                if inner is not search:
                    work += inner.advance(tv, v_rows)
            else:
                lo, hi = levels
                # the search's evaluations are of `game` itself
                found = _finish_block(
                    game, top, subgame, lo, hi, v,
                    v_eval[2] if inner is search else None, delta=sep.delta,
                    iterations=0, decided_by=SEPARATION, rank=rank)
                try:
                    residual = remove_block(game, top)
                except RuntimeError:
                    subgame = None  # some Despot outside D must enter it
        if subgame is not None and found is not None:
            if residual is not None:
                w = [u[d] for d in range(nd) if d not in top]
                tw = multiplicative_eval(residual, w)
                work += 1
            lp, lq = lo
            if residual is None or all(a * lq < lp * b
                                       for a, b in zip(tw, w)):
                block, sigma, tau = found
                block = block._replace(iterations=work)
                return block, sigma, tau, residual
        work += search.advance(tu, u_rows)
    return None


def remove_block(game: EntropyGame, dmax):
    """Residual game after peeling the block of the Despot indices `dmax`:
    drop those Despots, every People with an edge into them and every
    Tribune with such a People (a block's People and Tribunes, those whose
    sums are positive at its witness).  None when no Despot is left, and
    then no People or Tribune either; RuntimeError when a state left loses
    every move."""
    d_out = set(dmax)
    if len(d_out) == len(game.d_ids):
        return None
    p_out = {p for p, row in enumerate(game.p_edges) for l, _ in row
             if l in d_out}
    t_out = {t for t, row in enumerate(game.t_edges)
             if not p_out.isdisjoint(row)}
    try:
        return _spanned(game, [[j for j in range(len(ids)) if j not in out]
                               for ids, out in zip(game.ids,
                                                   (d_out, t_out, p_out))])
    except GameFormatError as exc:
        raise RuntimeError(f"residual game is malformed: {exc}") from exc


def solve_entropy_game(game: EntropyGame, budget: int = 10**6) -> EntropySolution:
    """Per-state value brackets, uniformly optimal positional strategies, and
    exactly verified multiplicative certificates, by peeling top classes:
    certify the top class of the current residual game as a constant-value
    block, remove it together with the Tribunes and People attached to it,
    and recurse.  Each block is certified by the rank separation
    (`_separated_block`); a block whose search runs out of evaluations
    falls back to strategy enumeration (`perron._enumerated_block`, the
    module imported then).  A game whose strategy-pair count exceeds
    `budget` is refused before any other work, so every fallback fits the
    budget."""
    game.validate()
    check_pair_budget(game, budget)
    current = game
    blocks = []
    values = {}
    sigma = {}
    tau = {}
    for _ in range(len(game.d_ids) + 1):
        found = _separated_block(current)
        if found is None:
            from .perron import _enumerated_block

            found = _enumerated_block(current, budget)
        block, blk_sigma, blk_tau, current = found
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
# file format


def parse_entropy(obj) -> EntropyGame:
    ids, edges = read_game_file(obj, "entropy", KEYS, _LABELS)
    return make_entropy_game(*ids, *edges)


def entropy_to_json(game: EntropyGame) -> dict:
    return game_file("entropy", KEYS, _LABELS, game.ids, game.edges)


# ---------------------------------------------------------------------------
# the reference path, in `perron`

# names `perron` defines that perfbench/spans.py looks up in this module:
# resolved there on access (PEP 562), which imports `perron`
_IN_PERRON = frozenset({
    "brute_force_entropy_values", "certified_log_sum_exp", "exp_bounds",
    "matrix_values", "rank_profile",
})


def __getattr__(name):
    if name in _IN_PERRON:
        return getattr(import_module(".perron", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
