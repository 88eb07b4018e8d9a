"""The entropy-game solver: Despot/Tribune/People games, whose record,
file format, operator T and certificate check are in `entropycheck`.

The per-state value is the growth rate lim T^k(1)_d^(1/k), a Perron root
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
squarings.  A Jordan-type block, whose levels close only as 1/k, is
certified by one exact solve of (mu I - A) y = 1 with mu just above the
Perron root of A (`_exact_witness`): at that integer when the levels hold
a single one, or at the search's limit above a Collatz-Wielandt bracket of
the root.  A search that reaches its limit with no block certified raises
IterationCapExceeded; no strategy is ever enumerated.

Brute force, the log-domain arithmetic and random instances live in
`perron`, which a solve never imports; `entropycheck` holds the
certificate check and the one coding of T, `_greedy`.  One positive
integer vector at integer levels lo <= hi is the sub and the super
certificate of a block (`_finish_block`), its interval the levels clamped
as `certify` clamps them (`clamped_levels`), and the strategies are the
pair greedy at it (`_greedy`), the rule the search applies to every
iterate.  One evaluation per iterate (`_evaluate`) feeds
the guess, the levels and the strategies; a guess whose subgame keeps every
state uses the game itself; only a block's interval is made of Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from importlib import import_module
from typing import NamedTuple

from . import entropycheck
from .entropycheck import (
    EntropyGame,
    _greedy,
    clamped_levels,
    induced_entropy_subgame,
    multiplicative_eval,
    remove_block,
)
from .graphs import tarjan_scc
from .linalg import integer_rank, integer_solve_numerators
from .numeric import (SUB, SUPER, Certificate, IterationCapExceeded,
                      RationalInterval)

# the benchmark's tracer looks these up here
check_entropy_certificate = entropycheck.check_entropy_certificate
parse_entropy = entropycheck.parse_entropy


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
    """The game's strategy-pair count; ValueError when it exceeds `budget`:
    the up-front refusal of `solve_entropy_game` and of brute force."""
    count = pair_count(game)
    if count > budget:
        raise ValueError(f"strategy-pair count {count} exceeds budget {budget}")
    return count


# ---------------------------------------------------------------------------
# solver


# a block's separation search may spend max(4 * pairs, _SEARCH_FLOOR) units
# of work (evaluations of T, squarings, exact solves), pairs being the
# strategy-pair count of the residual game, before its one exact solve above
# a bracket of the Perron root
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
    # 1/nu_hat at r = rank: the a priori log-gap between distinct rates,
    # which the log-width of the levels stays below
    delta: Fraction
    # the units of work of its search (evaluations of T, squarings, exact
    # solves)
    iterations: int
    rank: int  # r of nu(n, W, r): r_D, the rank of the subgame's People rows


class EntropySolution(NamedTuple):
    values: dict  # Despot id -> RationalInterval (multiplicative)
    sigma: dict  # Despot id -> Tribune id
    tau: dict  # Tribune id -> People id
    blocks: tuple


def _finish_block(game, dmax, subgame, lo, hi, vec, greedy, sep, rank):
    """The block of the Despots `dmax` of `game`, whose subgame carries the
    witness vec at the levels lo <= hi, each (p, q) with q > 0, as both the
    sub and the super certificate, with the strategies greedy at it:
    (block, sigma, tau).  `greedy` is `_greedy` of `game` at vec, which a
    block of every Despot may pass, or None; the block's separation is that
    of `sep` at r = `rank`, and its `iterations` are set by the caller."""
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
    block = BlockResult(
        d_ids=tuple(game.d_ids[d] for d in dmax),
        t_ids=tuple(game.t_ids[t] for t in v_t),
        p_ids=tuple(game.p_ids[p] for p, s in enumerate(psum) if s),
        subgame=subgame,
        # the levels within [1, n W], which holds every value
        interval=RationalInterval(*(Fraction(*e) for e in
                                    clamped_levels(game, lo, hi))),
        sub=Certificate(*lo, vec, 1, SUB, True),
        sup=Certificate(*hi, vec, 1, SUPER, True),
        delta=sep.delta,
        iterations=0,
        rank=rank,
    )
    return (block, {game.d_ids[d]: game.t_ids[sigma[d]] for d in dmax},
            {game.t_ids[t]: game.p_ids[tau[t]] for t in v_t})


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


def _squared(p, bits):
    """The square of the nonnegative integer matrix p, trimmed to 2 * bits
    bits on its largest entry."""
    cols = list(zip(*p))
    p = [[sum(map(int.__mul__, row, col)) for col in cols] for row in p]
    return _shifted(p, max(map(max, p)).bit_length() - 2 * bits)


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
    the steps taken, and a power would round the lower classes away."""

    def __init__(self, game: EntropyGame, bits: int, start=None):
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
            self._power = _squared(self._power, bits)
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


def _root_bracket(a, bits):
    """Collatz-Wielandt bounds lo <= rho(A) <= hi, each (p, q) with q > 0,
    of the nonnegative integer matrix A with rows `a`, with hi - lo <= lo
    2^-bits unless the squarings run out.  rho(A) is the largest root of
    A's strongly connected components C, where B = A_CC + I is primitive:
    the ratios (B x)_d / x_d at x = B^(2^j) 1 bracket rho(A_CC) + 1 ever
    closer as the power is squared and trimmed.  Any positive x gives valid
    bounds, so trimming costs precision, not soundness."""
    lo = hi = (0, 1)
    for comp in tarjan_scc([[j for j, m in enumerate(row) if m]
                            for row in a]):
        b = [[a[i][j] + (i == j) for j in comp] for i in comp]
        power = b
        for _ in range(bits.bit_length() + 64):
            x = [sum(row) for row in power]
            bx = [sum(map(int.__mul__, row, x)) for row in b]
            l, h = _level_states(x, bx)
            lp, lq, hp, hq = bx[l] - x[l], x[l], bx[h] - x[h], x[h]
            if (hp * lq - lp * hq) << bits <= lp * hq:
                break
            power = _squared(power, bits + _MARGIN_BITS)
        if lp * lo[1] > lo[0] * lq:
            lo = lp, lq
        if hp * hi[1] > hi[0] * hq:
            hi = hp, hq
    return lo, hi


def _exact_witness(subgame: EntropyGame, rows, sep, rho=None):
    """The candidate witness of a block whose pair matrix A is that of the
    People `rows`: y with (mu I - A) y = 1 for mu just above rho(A), scaled
    to integers, or None unless y is positive.  For mu > rho(A) the
    Neumann series sum_k A^k / mu^(k+1) 1 makes y positive, and A y = mu y
    - 1 puts its levels in [mu - 1/min y, mu), close to rho(A) even on a
    Jordan block, which has no positive eigenvector.

    mu is picked in one of two ways.  Given the one integer rho between an
    iterate's levels, mu = rho (1 + 2^-b), 2^-b <= 1/(2 nu_hat), and None
    unless rho is an eigenvalue of A (rho I - A singular, a cheap test on
    small integers): a rational Perron root of an integer matrix is an
    integer.  Given none, at the search's limit, mu is the dyadic rational
    of log2(nu_hat) + 2 bits just above the upper end of a bracket of
    rho(A) of relative width 2^-(log2(nu_hat) + 4) (`_root_bracket`); a
    bracket that closes exactly is an integer rho, and mu is then the
    integer case's.  The powers of two keep mu, and so y, far shorter than
    nu_hat's own numerator and denominator."""
    a = _people_rows(subgame, rows)
    n = len(a)
    if rho is None:
        (lp, lq), (hp, hq) = _root_bracket(a, sep.log2 + 4)
        if lp * hq == hp * lq:
            rho = hp // hq
        else:
            c = sep.log2 + 2
            num, den = -(-(hp << c) // hq), 1 << c
    elif integer_rank([[rho * (d == l) - m for l, m in enumerate(row)]
                       for d, row in enumerate(a)]) == n:
        return None
    if rho is not None:
        b = sep.log2 + 1
        num, den = rho * ((1 << b) + 1), 1 << b
    try:
        m, d = integer_solve_numerators(
            [[num * (i == l) - den * x for l, x in enumerate(row)]
             for i, row in enumerate(a)], [den] * n)
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
    enumeration: (block, sigma, tau, residual).  A unit of the search's work
    is an evaluation of T, a squaring of a step matrix or an exact solve,
    and the block's `iterations` counts them.  Once the search has spent
    max(4 * pairs, `_SEARCH_FLOOR`) units, pairs being the strategy-pair
    count of `game`, it makes one last exact solve (`_exact_witness` above
    a bracket of the root) and raises IterationCapExceeded unless that
    certifies the block.

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
      strategies greedy at v are then exactly optimal on D: the Tribunes'
      gives A_DD v >= lo v for every Despot strategy, and the Despots'
      A_DD v <= hi v for every Tribune strategy, A_DD the D-principal
      submatrix of the pair matrix.  Iterated, these bound every rate of
      A_DD below by lo or above by hi, and no rate but the value lies in
      [lo, hi];
    - `remove_block` leaves a well-formed residual game (or none), and the
      search iterate restricted to it is a super witness at a level below
      lo: every Despot left has a lower value, so D is the whole top class.
    The witnesses offered are the iterates of a second damped iteration on
    the subgame, which starts from the search iterate restricted to D (when
    D is every Despot, the search iterate itself).  Their levels close
    geometrically on most blocks, but only as 1/m on a Jordan-type block.
    A rational Perron root of an integer matrix is an integer, so when the
    levels hold a single integer rho, `_exact_witness` at rho for the pair
    greedy at the iterate is offered as well, once per (rho, pair); at the
    limit, `_exact_witness` above a bracket of that pair's root is."""
    nd = len(game.d_ids)
    stats = game.stats()
    limit = max(4 * pair_count(game), _SEARCH_FLOOR)

    def guessed(top):
        # a guess's subgame, its rank and separation bound, or None
        subgame = induced_entropy_subgame(game, top)
        if subgame is None:
            return None, None, None
        rank = _people_rank(subgame)
        return subgame, rank, _separation(stats.n, stats.W, rank)

    # the first guess: the cut k = 1 keeps every Despot, and the rank of
    # the subgame they induce bounds that of every pair matrix of the game
    guess = tuple(range(nd))
    subgame, rank, sep = guessed(guess)
    search = inner = _DampedIterate(game, sep.log2 + _MARGIN_BITS)
    found, tried = None, set()
    work = 0
    while True:
        last = work >= limit
        u = search.vec
        u_eval = tu, u_rows, _, _, u_hi = _evaluate(game, u)
        work += 1
        top = _growth_top(u, tu, u_hi, math.isqrt(search.steps) + 1)
        if top != guess:
            # a new guess: its subgame, separation bound and iterate
            guess, found = top, None
            subgame, rank, sep = guessed(top)
            if subgame is not None:
                inner = search if len(top) == nd else _DampedIterate(
                    subgame, sep.log2 + _MARGIN_BITS, [u[d] for d in top])
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
            rho = (None if levels or last
                   else _single_integer(v, tv, v_lo, v_hi))
            if (levels is None and last
                    or rho is not None and (rho, v_rows) not in tried):
                # one exact solve per integer and greedy pair of the guess,
                # and one at the limit
                tried.add((rho, v_rows))
                y = _exact_witness(inner.game, v_rows, sep, rho)
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
                    v_eval[2] if inner is search else None, sep, rank)
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
        if last:
            raise IterationCapExceeded(
                f"the entropy search certified no block within {limit} "
                f"units of work, nor did its exact solve at that limit")
        work += search.advance(tu, u_rows)


def solve_entropy_game(game: EntropyGame, budget: int = 10**6) -> EntropySolution:
    """Per-state value brackets, uniformly optimal positional strategies, and
    exactly verified multiplicative certificates, by peeling top classes:
    certify the top class of the current residual game as a constant-value
    block, remove it together with the Tribunes and People attached to it,
    and recurse.  Each block is certified by the rank separation
    (`_separated_block`), which enumerates no strategy; a search that
    reaches its limit uncertified raises IterationCapExceeded.  A game
    whose strategy-pair count exceeds `budget` is refused with ValueError
    before any other work, though the solve itself needs no such bound."""
    game.validate()
    check_pair_budget(game, budget)
    current = game
    blocks = []
    values = {}
    sigma = {}
    tau = {}
    for _ in range(len(game.d_ids) + 1):
        block, blk_sigma, blk_tau, current = _separated_block(current)
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
# brute force and the log-domain arithmetic, in `perron`

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
