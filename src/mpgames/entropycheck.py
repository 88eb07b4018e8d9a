"""Matrix-multiplicative games with three alternating roles: the game
record (which `graphs` builds, checks and restricts by the rule game files
follow), its file format, the multiplicative operator, and what makes a
solve report true.

A Despot state picks one of its Tribune successors (minimizing), a Tribune
picks one of its People successors (maximizing), and a People state spreads
into Despot states with integer multiplicities.  In the multiplicative
domain the one-step operator on positive vectors indexed by Despot states is

    T_d(x) = min_(d,t) max_(t,p) sum_(p,l) m_pl * x_l.

`_greedy` is the one coding of T, off which T(x), the certificate and
strategy checks and the solver's greedy rule read.  A solve peels the game
block by block (`remove_block`), each certified by integer sub and super
eigenvectors of T on its subgame, its interval the levels clamped to
[1, n W] (`clamped_levels`).  `verify_report` is `certify`'s check of a
report, strategies included.  Only `graphs` and `numeric` are imported, so
`certify` compiles no solver code.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .graphs import (
    GameFormatError,
    check_rows,
    game_file,
    game_record,
    read_game_file,
    state_indices,
    subgame,
)
from .numeric import (
    _CERT_FAILED,
    _STATES_FAILED,
    SUB,
    Certificate,
    _approx_holds,
    _cert_pair,
    _cert_records,
    _interval_ends,
    _named_subgame,
    _same_interval,
    _strategy,
    seen_image,
)

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
        """The game itself; GameFormatError unless it keeps `check_rows` and
        every multiplicity is at least 1.  The checks run once per game
        object: a CLI solve validates the game it reads, and the solve
        validates it again."""
        self._valid
        return self

    @cached_property
    def _valid(self) -> bool:
        check_rows(_LABELS, self.ids, self.edges)
        for sid, row in zip(self.p_ids, self.p_edges):
            if any(m < 1 for _, m in row):
                raise GameFormatError(
                    f"multiplicity at state {sid!r} must be a positive integer")
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
    """The validated game on index-based adjacency, each row sorted by
    target (`graphs.game_record`)."""
    return game_record(EntropyGame, _LABELS, (d_ids, t_ids, p_ids),
                       (d_edges, t_edges, p_edges))


def parse_entropy(obj) -> EntropyGame:
    ids, edges = read_game_file(obj, "entropy", KEYS, _LABELS)
    return make_entropy_game(*ids, *edges)


def entropy_to_json(game: EntropyGame) -> dict:
    return game_file("entropy", KEYS, _LABELS, game.ids, game.edges)


# ---------------------------------------------------------------------------
# the operator, and the subgames a peel leaves


def _greedy(game: EntropyGame, x):
    """The People sums at x and the pair greedy at x, ties to the smallest
    index: (sums, tau, sigma), tau giving each Tribune's People of largest
    sum and sigma each Despot's Tribune of least such sum.  The one coding
    of T: T(x)_d = sums[tau[sigma[d]]]."""
    psum = [sum([m * x[l] for l, m in row]) for row in game.p_edges]
    tau = [max(row, key=psum.__getitem__) for row in game.t_edges]
    tsum = [psum[p] for p in tau]
    return psum, tau, [min(row, key=tsum.__getitem__) for row in game.d_edges]


def multiplicative_eval(game: EntropyGame, x):
    """One exact application of T to a vector of nonnegative rationals (or
    integers).  A zero entry plays the role of -inf in the log domain: People
    sums ignore nothing (zero terms contribute zero), Tribunes maximize,
    Despots minimize."""
    if len(x) != len(game.d_ids):
        raise ValueError("vector length does not match Despot state count")
    if any(v < 0 for v in x):
        raise ValueError("multiplicative evaluation requires nonnegative entries")
    psum, tau, sigma = _greedy(game, x)
    return tuple([psum[tau[t]] for t in sigma])


def clamped_levels(game: EntropyGame, lo, hi):
    """The levels lo <= hi of a block of `game`, each (p, q) with q > 0,
    clamped to [1, n W]: every value of `game` lies there, so the clamped
    levels bound the block's value too."""
    (lp, lq), (hp, hq) = lo, hi
    top = len(game.d_ids) * game.stats().W
    return (lo if lp >= lq else (1, 1)), (hi if hp <= top * hq else (top, 1))


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
    return subgame(game, _LABELS, keep)


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
    p_out, t_out = _peeled(game, d_out)
    try:
        return subgame(game, _LABELS,
                       [[j for j in range(len(ids)) if j not in out]
                        for ids, out in zip(game.ids, (d_out, t_out, p_out))])
    except GameFormatError as exc:
        raise RuntimeError(f"residual game is malformed: {exc}") from exc


def _peeled(game: EntropyGame, d_out):
    """The People and the Tribunes peeled with the Despot indices `d_out`:
    every People with an edge into them, and every Tribune with such a
    People."""
    p_out = {p for p, row in enumerate(game.p_edges) for l, _ in row
             if l in d_out}
    return p_out, {t for t, row in enumerate(game.t_edges)
                   if not p_out.isdisjoint(row)}


# ---------------------------------------------------------------------------
# certificates


def check_entropy_certificate(game: EntropyGame, cert: Certificate) -> bool:
    """Exact verification of lam * v <= T(v) (sub) or >= (super) for a
    multiplicative certificate with positive rational entries."""
    return check_entropy_certificates(game, (cert,))


def check_entropy_certificates(game: EntropyGame, certs, sigma=None,
                               tau=None) -> bool:
    """`check_entropy_certificate` for every certificate, evaluating T once
    per distinct vector, on integers.  T is positively homogeneous, so T(u/L)
    = T(u)/L, and the level p/q holds as sub when p u_d <= q T(u)_d for
    every Despot d, and as super when >=: T runs on the numerators u and L
    plays no part.  A vector with an -inf entry is not positive, and
    fails.
    With index-based positional strategies it also checks them, on the
    sums of the same evaluation: sigma (Despot idx -> Tribune idx) must
    name an edge at every Despot, and T with the Despots fixed to it be at
    most lam y at each super vector y; tau (Tribune idx -> People idx) must
    name an edge at every Tribune, and T with the Tribunes fixed to it be
    at least lam x at each sub vector x.  Those bound T itself, so they
    replace the plain checks."""
    for choice, rows in ((sigma, game.d_edges), (tau, game.t_edges)):
        if choice is not None and not all(c in row
                                          for c, row in zip(choice, rows)):
            return False
    images = []
    for p, q, u, _, direction, multiplicative in certs:
        if not multiplicative:
            raise ValueError("entropy certificates are multiplicative")
        if len(u) != len(game.d_ids):
            raise ValueError("vector length does not match Despot state count")
        if any(v <= 0 for v in u):
            return False
        image = seen_image(images, u)
        if image is None:
            image = _greedy(game, u)
            images.append((u, image))
        psum, best, least = image
        if direction == SUB:
            if tau is None:
                tu = [psum[best[t]] for t in least]
            else:
                tu = [min([psum[tau[t]] for t in row]) for row in game.d_edges]
            holds = all(p * v <= q * w for v, w in zip(u, tu))
        else:
            tu = [psum[best[t]] for t in (least if sigma is None else sigma)]
            holds = all(p * v >= q * w for v, w in zip(u, tu))
        if not holds:
            return False
    return True


# ---------------------------------------------------------------------------
# reports


def verify_report(game: EntropyGame, report):
    """Why the entropy solve report fails on `game`, or None: each pair
    must hold on the subgame it names in what the pairs before it leave
    (`remove_block`), the strategies the report names be optimal at the
    pair that peels their states, and the claims follow from the pairs'
    levels."""
    records = _cert_records(report)
    pairs = []
    residual = game  # what the pairs checked so far leave of the game
    for sub_rec, sup_rec in zip(records[::2], records[1::2]):
        states, sub, sup = _cert_pair(sub_rec, sup_rec)
        if pairs and residual is not None:
            # the solver's peel: a malformed residual holds no later pair
            try:
                residual = remove_block(residual, state_indices(
                    residual.d_ids, pairs[-1][0].d_ids))
            except RuntimeError:
                residual = None
        target = _cert_target(game, residual, states)
        if target is None:
            return _STATES_FAILED
        failure = _pair_failure(game, report, residual, target, sub, sup)
        if failure is not None:
            return failure
        pairs.append((target, sub[:2], sup[:2],
                      clamped_levels(residual, sub[:2], sup[:2])))
    return _entropy_claims(game, report, pairs)


def _pair_failure(game, report, residual, target, sub, sup):
    """Why the Certificates sub and sup, or the strategies the report names,
    fail on `target`, the subgame of `residual` they hold on, or None.  The
    choices of the Despots and Tribunes of `target` are checked at sub and
    sup, and every Tribune peeled with the pair must choose a People with
    an edge into the pair's Despots."""
    sigma = _strategy(report, "despot_strategy", target.d_ids, target.t_ids,
                      game.d_ids)
    tau = _strategy(report, "tribune_strategy", target.t_ids, target.p_ids,
                    game.t_ids)
    if sigma is False:
        return "despot_strategy does not name every Despot"
    if tau is False:
        return "tribune_strategy does not name every Tribune"
    if not check_entropy_certificates(target, (sub, sup), sigma, tau):
        # the failure path only: find which check failed
        if not check_entropy_certificates(target, (sub, sup)):
            return _CERT_FAILED
        if sigma is not None and not check_entropy_certificates(
                target, (sup,), sigma=sigma):
            return "despot_strategy fails at the super certificate"
        return "tribune_strategy fails at the sub certificate"
    if tau is not None and target is not residual:
        # every Tribune peeled with the pair keeps to its People peeled with
        # it (in `target`, the check above implies it)
        p_out, t_out = _peeled(residual, set(state_indices(residual.d_ids,
                                                           target.d_ids)))
        choice = _strategy(report, "tribune_strategy", residual.t_ids,
                           residual.p_ids, game.t_ids)
        if any(choice[t] not in p_out or choice[t] not in residual.t_edges[t]
               for t in t_out):
            return "tribune_strategy leaves the block that peels a Tribune"
    return None


def _cert_target(game, residual, states):
    """The subgame a certificate pair holds on: `residual`, what the pairs
    before it leave of `game`, when its records name no "states", else the
    subgame their Despots induce in `residual`, or None."""
    if states is None:
        return residual

    def induce(named):
        if residual is None:
            return None
        try:
            dmax = state_indices(residual.d_ids, named)
        except GameFormatError:
            return None  # a Despot no longer in play, or unknown
        return induced_entropy_subgame(residual, dmax)

    return _named_subgame(game, states, KEYS, induce)


def _entropy_claims(game, report, pairs):
    """Why the pairs (target, lo, hi, clamped levels) do not peel the game
    from the top value down, or the blocks or values claimed do not follow,
    or None."""
    # the pairs must peel the whole game from the top value down: a pair's
    # super level bounds its block's value only when every block its People
    # feed comes after it at levels no higher, and its sub level only when
    # every block its Despots can escape to comes before it at levels no
    # lower
    if sum(len(pair[0].d_ids) for pair in pairs) != len(game.d_ids):
        return "the certificate pairs do not cover every Despot"
    for (_, (ap, aq), (bp, bq), _), (_, (cp, cq), (dp, dq), _) in zip(
            pairs, pairs[1:]):
        if cp * aq > ap * cq or dp * bq > bp * dq:
            return "a certificate pair's levels lie above the pair's before it"
    if "blocks" in report and report["blocks"] != [
        sorted(pair[0].d_ids) for pair in pairs
    ]:
        return "blocks are not the Despot sets the certificates hold on"
    values = report.get("values", {})
    if not isinstance(values, dict):
        raise GameFormatError(f'"values" {values!r} is not an object')
    # JSON object keys are strings, and a game's ids are all strings or all
    # integers, so str() names each Despot unambiguously
    levels = {str(d): clamped for target, _, _, clamped in pairs
              for d in target.d_ids}
    read = []
    for d, rec in values.items():
        if d not in levels:
            return f"the value of {d!r} is not its block's levels"
        ends = _interval_ends(rec)
        if not _same_interval(ends, *levels[d]):
            return f"the value of {d!r} is not its block's levels"
        read.append((d, rec, ends))
    for d, rec, ends in read:
        if not _approx_holds(rec, ends):
            return (f"the approx of {d!r} is not the decimal enclosure of "
                    "its lo and hi")
    return None
