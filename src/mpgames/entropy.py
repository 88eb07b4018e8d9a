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
squarings.  A Jordan-type block, whose levels close only as 1/k, has an
integer value whenever that value is rational; its vector comes from one
exact solve of (mu I - A) y = 1 just above that integer.

A block whose search runs past its budget of work falls back to strategy
enumeration, the reference path (`perron._enumerated_block`): enumeration
finds the top class, brackets its value, and compares brackets exactly by
the separation bound of the game's rank (the maximal rank of its pair
matrices, read off the same enumeration); the witness is then the first
damped iterate whose levels lie in the value bracket widened by a slack
(`perron._top_slack`), half an exact rational lower bound of the log-gap
between the top value and the nearest distinct growth rate of a pair
matrix restricted to the block.
That path, brute force and the log-domain arithmetic live in `perron`,
which a solve imports only when a block falls back; this module holds what
a solve certified by the separation runs, and `entropycheck` the
certificate check.

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
from functools import lru_cache
from importlib import import_module
from typing import NamedTuple

from . import entropycheck
from .entropycheck import (
    EntropyGame,
    induced_entropy_subgame,
    multiplicative_eval,
    remove_block,
)
from .linalg import integer_rank, integer_solve_numerators
from .numeric import SUB, SUPER, Certificate, RationalInterval

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
