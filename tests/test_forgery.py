"""The forgery sweep: every one-leaf mutation of a solve report that
`certify` accepts leaves every claim of the report true by brute force.

Corpus games of both kinds whose brute force fits are solved in `full`
mode, and each report is mutated one leaf at a time:
- each rational's numerator or denominator +-1;
- each state id swapped for every other id of its kind (as a list entry,
  a value or a key), and each strategy choice for every other legal
  successor;
- a list element dropped or repeated, and two certificate pairs swapped;
- a key deleted.

The rule, with no allow-list: `certify` exits 1 on the mutated report, or
every claim in it is true by brute force.  The claims are the values,
intervals, top class, blocks and strategies; the certificates are the
witnesses, and solver counters such as `iterations` and `oracle_calls`
claim nothing.  A strategy claims to be optimal: with it fixed and the
other player's choices free, every state it covers has its brute-force
value, so both strategies together form a pair with those values.

Tier-1 runs a fixed sample of the corpus; with MPGAMES_FORGERY_ALL=1 the
sweep runs every corpus game whose strategy pairs number at most
`BRUTE_PAIRS`, and the strategy probe every draw.
"""

from __future__ import annotations

import copy
import functools
import itertools
import json
import os
import random
from fractions import Fraction

import pytest

import mpgames as mg
from mpgames import dominion, perron, stochastic
from test_corpus import _run, corpus_games

ALL = os.environ.get("MPGAMES_FORGERY_ALL") == "1"
# the strategy pairs brute force may enumerate for one game
BRUTE_PAIRS = 20_000
# the corpus games tier-1 sweeps: small draws of both kinds, a replayed
# bracket, peel games and multi-block entropy games
SAMPLE = ("s0-0", "s3-1", "s7-2", "s11-0", "s23-4", "r1-555-0",
          "peel-14-3", "e3-0", "e8-0", "e14-0", "e31-0", "e57-0")
STRATEGIES = {"min_strategy", "max_strategy", "despot_strategy",
              "tribune_strategy"}


# ---------------------------------------------------------------------------
# the mutations


def _rational(text):
    """(p, q) of a "p/q" or "p" string the report writer prints, else
    None."""
    num, slash, den = text.partition("/")
    if num.removeprefix("-").isdecimal() and (den.isdecimal() or not slash):
        return int(num), int(den) if slash else 1
    return None


def _replaced(report, path, value):
    """A copy of `report` with the node at `path` replaced by `value`."""
    if not path:
        return value
    new = copy.deepcopy(report)
    node = new
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return new


def _node_mutations(node, path, kinds, successors):
    """(path, new node) for every one-leaf mutation at or below `node`."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield path, {k: v for k, v in node.items() if k != key}
            for other in kinds.get(key, ()):
                renamed = {(other if k == key else k): v
                           for k, v in node.items() if k != other}
                yield path, renamed
            yield from _node_mutations(child, (*path, key), kinds, successors)
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield path, node[:i] + node[i + 1:]
            yield path, node[:i + 1] + node[i:]
            yield from _node_mutations(child, (*path, i), kinds, successors)
        if path == ("certificates",):
            pairs = [node[k:k + 2] for k in range(0, len(node), 2)]
            for i, j in itertools.combinations(range(len(pairs)), 2):
                swapped = pairs[:]
                swapped[i], swapped[j] = pairs[j], pairs[i]
                yield path, [rec for pair in swapped for rec in pair]
    elif isinstance(node, str):
        if len(path) == 2 and path[0] in STRATEGIES:
            for other in successors.get(path[1], ()):
                if other != node:
                    yield path, other
        elif node in kinds:
            for other in kinds[node]:
                yield path, other
        elif path[-1] != "approx" and _rational(node) is not None:
            p, q = _rational(node)
            for a, b in ((p + 1, q), (p - 1, q), (p, q + 1), (p, q - 1)):
                if b:
                    yield path, f"{a}/{b}"


def mutations(report, game_obj):
    """Every one-leaf mutation of the solve report `report` of the game
    file object `game_obj`, as mutated copies."""
    keys = [k for k in game_obj if k.endswith("_states")]
    # each id's other ids of its kind, and each state's successors
    kinds = {s: [t for t in game_obj[k] if t != s]
             for k in keys for s in game_obj[k]}
    successors = {}
    for edge in game_obj["edges"]:
        successors.setdefault(str(edge["from"]), []).append(edge["to"])
    for path, value in _node_mutations(report, (), kinds, successors):
        yield _replaced(report, path, value)


# ---------------------------------------------------------------------------
# the claims, by brute force


class _StochasticTruth:
    """Brute-force values of a stochastic game, and the claims of its
    reports checked against them."""

    def __init__(self, game):
        self.game = game
        self.chi = dominion.brute_force_values(game, BRUTE_PAIRS).chi
        self.top = max(self.chi)
        self.top_class = sorted(s for s, v in zip(game.min_ids, self.chi)
                                if v == self.top)
        self.value = dict(zip(game.min_ids, self.chi))

    def false_claims(self, report):
        wrong = []
        if "top_class" in report and report["top_class"] != self.top_class:
            wrong.append("top_class")
        if ("top_value" in report
                and Fraction(report["top_value"]) != self.top):
            wrong.append("top_value")
        if "interval" in report:
            rec = report["interval"]
            if not (Fraction(rec["lo"]) <= self.top
                    <= Fraction(rec["hi"])):
                wrong.append("interval")
        sigma = report.get("min_strategy")
        tau = report.get("max_strategy")
        if sigma is not None or tau is not None:
            # the strategies cover the subgame the certificates hold on
            states = report["certificates"][0].get("states")
            sub = self.game if states is None else stochastic.induced_subgame(
                self.game, [self.game.min_ids.index(s)
                            for s in states["min_states"]])
            if not self._optimal(sub, sigma, tau):
                wrong.append("strategies")
        return wrong

    def _optimal(self, sub, sigma, tau):
        """Whether each strategy given, fixed with the other player free,
        gives every state of `sub` its brute-force value."""
        def fixed(strategy, from_ids, to_ids, rows):
            choices = [[t for t, _ in row] for row in rows]
            if strategy is None:
                return list(itertools.product(*choices))
            index = {s: t for t, s in enumerate(to_ids)}
            pick = [index.get(strategy.get(s)) for s in from_ids]
            if any(p not in c for p, c in zip(pick, choices)):
                return None
            return [tuple(pick)]

        sigmas = fixed(sigma, sub.min_ids, sub.max_ids, sub.min_edges)
        taus = fixed(tau, sub.max_ids, sub.nat_ids, sub.max_edges)
        if sigmas is None or taus is None:
            return False
        want = [self.value[s] for s in sub.min_ids]
        gains = [dominion.pair_gain(sub, s, t) for s in sigmas for t in taus]
        # one strategy fixed, the other player's best response to it
        if sigma is not None and list(map(max, zip(*gains))) != want:
            return False
        return tau is None or list(map(min, zip(*gains))) == want


def _det(rows):
    """The determinant of a square matrix of Fractions."""
    a = [row[:] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            for j in range(k, len(a)):
                a[i][j] -= f * a[k][j]
    return det


def _rho_at_most(b, h, strict):
    """Whether rho(B) <= h (rho(B) < h when `strict`), exactly: the
    Z-matrix h I - B is a (nonsingular) M-matrix, which holds iff all its
    principal minors are >= 0 (its leading ones > 0)."""
    m = len(b)
    z = [[h * (i == j) - b[i][j] for j in range(m)] for i in range(m)]
    if strict:
        return all(_det([row[:k] for row in z[:k]]) > 0
                   for k in range(1, m + 1))
    return all(_det([[z[i][j] for j in s] for i in s]) >= 0
               for k in range(1, m + 1)
               for s in itertools.combinations(range(m), k))


class _EntropyTruth:
    """Brute-force values of an entropy game, and the claims of its reports
    checked against them: values compare exactly by the separation bound,
    and an interval is checked on the M-matrix test of the pair matrix that
    attains the value."""

    def __init__(self, game):
        self.game = game
        self.brute = perron.brute_force_entropy_values(game, BRUTE_PAIRS)
        cmp = functools.cmp_to_key(lambda a, b: -self._compare(
            self.brute.candidates[a], self.brute.candidates[b]))
        order = sorted(range(len(game.d_ids)), key=cmp)
        self.blocks = [sorted(game.d_ids[d] for d in group) for _, group in
                       itertools.groupby(order, key=cmp)]
        self._responses = {}

    def _compare(self, a, b):
        br = self.brute
        return br.registry.compare(a, b, br.coarse_tol, br.fine_tol)

    def _contains(self, d, lo, hi):
        """Whether the value of Despot d lies in [lo, hi]: it is rho of the
        principal submatrix, on the states reachable from its candidate
        state, of the pair matrix that attains it."""
        key, state = self.brute.candidates[d]
        reach, todo = {state}, [state]
        while todo:
            i = todo.pop()
            for j, m in enumerate(key[i]):
                if m and j not in reach:
                    reach.add(j)
                    todo.append(j)
        b = [[Fraction(key[i][j]) for j in sorted(reach)]
             for i in sorted(reach)]
        return _rho_at_most(b, hi, False) and not _rho_at_most(b, lo, True)

    def false_claims(self, report):
        game, wrong = self.game, []
        if "blocks" in report and report["blocks"] != self.blocks:
            wrong.append("blocks")
        for d, rec in report.get("values", {}).items():
            lo, hi = Fraction(rec["lo"]), Fraction(rec["hi"])
            if not self._contains(game.d_ids.index(d), lo, hi):
                wrong.append(f"values {d}")
        for key, player in (("despot_strategy", 0), ("tribune_strategy", 1)):
            if key in report and not self._optimal(report[key], player):
                wrong.append(key)
        return wrong

    def _optimal(self, strategy, player):
        """Whether the Despots' (player 0) or Tribunes' (1) strategy, fixed
        with the other player free, gives every Despot its value."""
        game = self.game
        rows = (game.d_edges, game.t_edges)[player]
        from_ids = (game.d_ids, game.t_ids)[player]
        to_ids = (game.t_ids, game.p_ids)[player]
        index = {s: t for t, s in enumerate(to_ids)}
        pick = tuple(index.get(strategy.get(str(s))) for s in from_ids)
        if any(p not in row for p, row in zip(pick, rows)):
            return False
        if (player, pick) not in self._responses:
            others = itertools.product(*(game.t_edges, game.d_edges)[player])
            reg, best = self.brute.registry, None
            for other in others:
                sigma, tau = (pick, other) if player == 0 else (other, pick)
                key = reg.add(perron.pair_matrix(game, sigma, tau))
                refs = [(key, d) for d in range(len(game.d_ids))]
                # Tribunes maximize against a fixed Despot strategy, and
                # Despots minimize against a fixed Tribune one
                sign = 1 if player == 0 else -1
                best = refs if best is None else [
                    a if sign * self._compare(a, b) >= 0 else b
                    for a, b in zip(best, refs)]
            self._responses[player, pick] = all(
                self._compare(a, b) == 0
                for a, b in zip(best, self.brute.candidates))
        return self._responses[player, pick]


# ---------------------------------------------------------------------------
# the sweep


def _truth(obj):
    """The brute-force claim checker of a game file object, or None when
    its strategy pairs number more than BRUTE_PAIRS."""
    if obj["type"] == "smpg":
        game = mg.parse_smpg(obj)
        count = 1
        for row in (*game.min_edges, *game.max_edges):
            count *= len(row)
        return _StochasticTruth(game) if count <= BRUTE_PAIRS else None
    game = mg.parse_entropy(obj)
    if mg.entropy.pair_count(game) > BRUTE_PAIRS:
        return None
    return _EntropyTruth(game)


def sweep(obj, tmp_path, report_mutations=mutations):
    """The accepted mutations of the `full` report of the game file object
    `obj` whose claims are not all true, as (mutated report, false claims);
    None when brute force does not fit or the solve refuses the game."""
    truth = _truth(obj)
    if truth is None:
        return None
    game_path, report_path = tmp_path / "game.json", tmp_path / "report.json"
    game_path.write_text(json.dumps(obj))
    code, out, err = _run("solve", str(game_path), "--json")
    if code:
        return None
    report = json.loads(out)
    assert not truth.false_claims(report), "the solver's own report"
    forged = []
    for mutated in report_mutations(report, obj):
        report_path.write_text(json.dumps(mutated))
        code, _, err = _run("certify", str(game_path), str(report_path))
        assert code in (0, 1), err
        if code == 0:
            wrong = truth.false_claims(mutated)
            if wrong:
                forged.append((mutated, wrong))
    return forged


def _corpus(ids):
    return [pytest.param(gid, obj, id=gid) for gid, obj in corpus_games()
            if ALL or gid in ids]


@pytest.mark.parametrize("gid, obj", _corpus(SAMPLE))
def test_no_accepted_forgery(gid, obj, tmp_path):
    """Every mutation of the game's `full` report fails `certify` with exit
    1, or leaves every claim true."""
    forged = sweep(obj, tmp_path)
    assert forged is not None or ALL, gid
    assert not forged, (gid, forged[:1])


def strategy_swaps(report, obj):
    """Each strategy choice of the report swapped for every other legal
    successor, one at a time."""
    successors = {}
    for edge in obj["edges"]:
        successors.setdefault(edge["from"], []).append(edge["to"])
    for key in sorted(STRATEGIES & set(report)):
        for state, choice in report[key].items():
            for other in successors[state]:
                if other != choice:
                    yield _replaced(report, (key, state), other)


# the draws of the strategy probe: random_entropy_game(Random(s), 4, 4, 4)
PROBE_SEEDS = range(60) if ALL else (1, 7, 9, 16, 54, 58)


@pytest.mark.parametrize("seed", PROBE_SEEDS)
def test_entropy_strategy_swaps(seed, tmp_path):
    """No single-choice forgery of an entropy report's strategies whose
    pair values differ from brute force's passes `certify` (before the
    strategy check, 79 of the 206 swaps over seeds 0-59 did, the first at
    seed 1 with t0 -> p1)."""
    game = mg.random_entropy_game(random.Random(seed), 4, 4, 4)
    forged = sweep(mg.entropy_to_json(game), tmp_path, strategy_swaps)
    assert forged == []


# ---------------------------------------------------------------------------
# narrowed intervals: a claimed interval must be the certified levels


def _certify(tmp_path, obj, report):
    (tmp_path / "game.json").write_text(json.dumps(obj))
    (tmp_path / "report.json").write_text(json.dumps(report))
    return _run("certify", str(tmp_path / "game.json"),
                str(tmp_path / "report.json"))


def test_narrowed_entropy_interval_fails(tmp_path):
    """Draw 4 of random_entropy_game(Random(5), 4, 4, 4), its block's
    interval narrowed to [lo, lo + (hi - lo)/1000]: the value of both its
    Despots lies above that hi, and certify exits 1."""
    rng = random.Random(5)
    game = [mg.random_entropy_game(rng, 4, 4, 4) for _ in range(5)][4]
    obj = mg.entropy_to_json(game)
    (tmp_path / "game.json").write_text(json.dumps(obj))
    report = json.loads(_run("solve", str(tmp_path / "game.json"),
                             "--json")[1])
    (block,) = report["blocks"]
    rec = report["values"][block[0]]
    lo, hi = Fraction(rec["lo"]), Fraction(rec["hi"])
    narrowed = lo + (hi - lo) / 1000
    assert lo < hi
    for d in block:
        report["values"][d] = {"lo": rec["lo"], "hi": f"{narrowed}"}
    assert _EntropyTruth(game).false_claims(report) == [
        f"values {d}" for d in block]
    code, out, err = _certify(tmp_path, obj, report)
    assert code == 1
    assert err.strip() == ("certificate verification FAILED: the value of "
                           f"{block[0]!r} is not its block's levels")


def test_narrowed_stochastic_interval_fails(tmp_path, monkeypatch):
    """Draw 0 of random_smpg(Random(1)), solved with no checkpoint passing:
    the replayed bracket is [-25/8, -23/8] around the value -3, and a
    claimed hi of -49/16 excludes it; certify exits 1."""
    obj = mg.game_to_json(mg.random_smpg(random.Random(1)))
    (tmp_path / "game.json").write_text(json.dumps(obj))
    monkeypatch.setattr(stochastic, "_half_line_at", lambda *args: None)
    report = json.loads(_run("solve", str(tmp_path / "game.json"),
                             "--json")[1])
    interval = report["interval"]
    assert (interval["lo"], interval["hi"], report["top_value"]) == (
        "-25/8", "-23/8", "-3/1")
    del interval["approx"]
    interval["hi"] = "-49/16"
    code, out, err = _certify(tmp_path, obj, report)
    assert code == 1
    assert err.strip() == ("certificate verification FAILED: interval is "
                           "not the certified levels")
