"""The benchmark's workloads: which games each one solves, with references.

A workload is a list of operations (one game each) run as one pass.  The
seed drives the bulk random draws; the fixed games (draws of fixed seeds,
the pinned ROADMAP games, the peel games and the slow-flip instances) are
the same in every run, and their references are frozen in
`fixtures/references.json`.  Bulk references are computed before timing by
the benchmark's own brute force (`refs.py`).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import gen
import refs

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# Bulk draws are stratified: the seed's draws are taken in order while
# their stratum still has room, with quotas close to the stratum's share of
# 20,000 default draws, 380 stochastic and 216 entropy draws in all (twice
# the counts first tried, which left the seed-to-seed spread of certify_s
# at 5-7%).  A stochastic stratum is mu = n * M^min(s, n-1) and,
# for mu >= 6, the gap class g = min(round(3 l / (4 mu^2)), 5), l being the
# length of the solver's gap loop (gen.smpg_gap_steps): the iteration count
# then varies little from seed to seed.  Two kinds of draws are left out,
# because their cost varies so much that one seed's handful would swing a
# pass: the 0.5% whose value is not constant (12 ms to 4 s on the a priori
# cap; the peel games carry that path at a fixed cost), and the 4.5% with
# mu = 27 (20 to 300 ms, with the edge count as well as the gap class; the
# fixed draws r1-555-3 and r1-555-11 have mu = 27).  An entropy stratum is
# the triple of Despot, Tribune and People counts, each uniform on 1..3 in
# a default draw, so every triple gets the same quota.
SMPG_BULK_QUOTAS = {
    (1, None): 128, (2, None): 70, (3, None): 62, (4, None): 34,
    (6, 0): 6, (6, 1): 14, (6, 2): 14, (6, 3): 10, (6, 4): 6, (6, 5): 2,
    (9, 1): 4, (9, 2): 6, (9, 3): 4, (9, 4): 4, (9, 5): 2,
    (12, 1): 2, (12, 2): 4, (12, 3): 4, (12, 4): 2, (12, 5): 2,
}
ENTROPY_BULK_QUOTAS = {(d, t, p): 8 for d in (1, 2, 3) for t in (1, 2, 3)
                       for p in (1, 2, 3)}
# random_smpg(Random(1), 5, 5, 5): draw 2 is the pinned mu = 405 game
R1_555_DRAWS = 12
PINNED_SMPG = "r1-555-2"
# two deterministic 2-state cycles with mean payoffs (w1, w2)
PEEL_GAMES = ((14, 3), (3, 14), (6, 2), (10, 5))
WIDE_SIZES = (12, 14, 16)
# random_entropy_game(Random(2), n, n, n), draws 0..2; draw 1 is pinned
ENTROPY_SIZES = (6, 7)
ENTROPY_DRAWS = 3
PINNED_ENTROPY = ("r2-666-1", "r2-777-1")
# Default entropy draws on which `solve` fails at the commit that defined
# the benchmark (an uncaught RuntimeError from the witness-bound search),
# found by scanning the bulk of seeds 0-399; "defect-e<seed>-<k>" is draw k
# of random_entropy_game(Random(seed)).  The bulk skips them, since a timed
# workload must run without failures; selfcheck.py solves them as expected
# failures, so a fix of the defect flips that test.
DEFECT_GAMES = ("defect-e11-54", "defect-e86-57", "defect-e239-27")
# Operations of several seconds cannot be timed steadily in a run of
# half a minute on a shared host, so these run only in selfcheck.py, with
# PERFBENCH_SLOW=1
SLOW_GAMES = ("r1-555-2", "r2-666-1", "cex-4-3")
CEX_TIMED = ((2, 2), (3, 2), (3, 4))
CEX_SLOW = ((4, 3),)

# per-operation wall limit; at the commit that defined the benchmark the
# slowest timed operation takes about 1 s, and selfcheck.py keeps the heavy
# ones (the 9 s pinned n = 6 game included) below a quarter of it
OP_LIMIT_S = 60.0


@dataclass
class Game:
    gid: str
    obj: dict
    ref: dict
    bulk: bool = False  # a seed-driven random draw, not a fixed game


@dataclass
class Workload:
    games: list
    warmup: dict
    limit_s: float


def game_hash(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_fixture(gid) -> dict:
    with open(FIXTURES / f"{gid}.json", encoding="utf-8") as fh:
        return json.load(fh)


def fixed_games() -> dict:
    """Every seed-independent game by id, generated or loaded as a fixture
    (the pinned and slow-flip games)."""
    games = {}
    rng = random.Random(1)
    for i in range(R1_555_DRAWS):
        games[f"r1-555-{i}"] = gen.random_smpg_json(rng, 5, 5, 5)
    games[PINNED_SMPG] = load_fixture(PINNED_SMPG)
    for w1, w2 in PEEL_GAMES:
        games[f"peel-{w1}-{w2}"] = gen.peel_smpg_json(w1, w2)
    for n in ENTROPY_SIZES:
        rng = random.Random(2)
        for i in range(ENTROPY_DRAWS):
            games[f"r2-{n}{n}{n}-{i}"] = gen.random_entropy_json(rng, n, n, n)
    for gid in PINNED_ENTROPY:
        games[gid] = load_fixture(gid)
    for n, w in CEX_TIMED + CEX_SLOW:
        gid = f"cex-{n}-{w}"
        games[gid] = load_fixture(gid)
    for gid in DEFECT_GAMES:
        games[gid] = load_fixture(gid)
    return games


def frozen_references() -> dict:
    with open(FIXTURES / "references.json", encoding="utf-8") as fh:
        return json.load(fh)


def _fixed(ids, games, frozen):
    out = []
    for gid in ids:
        entry = frozen[gid]
        if entry["sha256"] != game_hash(games[gid]):
            raise RuntimeError(f"fixed game {gid} no longer matches its "
                               "frozen reference")
        out.append(Game(gid, games[gid], entry["ref"]))
    return out


def build(name: str, seed: int) -> Workload:
    games = fixed_games()
    frozen = frozen_references()
    warm_smpg = gen.random_smpg_json(random.Random(0))
    warm_entropy = gen.random_entropy_json(random.Random(0))
    if name == "smpg-small":
        rng = random.Random(seed)
        room = dict(SMPG_BULK_QUOTAS)
        open_mu = {mu for mu, _ in room}
        bulk = []
        while open_mu:
            obj = gen.random_smpg_json(rng)
            mu = gen.smpg_mu(obj)
            if mu not in open_mu:
                continue
            ref = refs.smpg_reference(obj)
            if len(ref["top_class"]) < len(obj["min_states"]):
                continue
            g = None
            if mu >= 6:
                steps = gen.smpg_gap_steps(obj)
                g = min(round(3 * steps / (4 * mu * mu)), 5)
            if not room.get((mu, g)):
                continue
            room[mu, g] -= 1
            open_mu = {m for (m, _), left in room.items() if left}
            bulk.append(Game(f"bulk-{len(bulk)}", obj, ref, True))
        ids = [f"r1-555-{i}" for i in range(R1_555_DRAWS)]
        ids += [f"peel-{w1}-{w2}" for w1, w2 in PEEL_GAMES]
        ids = [gid for gid in ids if gid not in SLOW_GAMES]
        return Workload(bulk + _fixed(ids, games, frozen), warm_smpg,
                        OP_LIMIT_S)
    if name == "smpg-wide":
        rng = random.Random(seed)
        wide = []
        for n in WIDE_SIZES:
            obj, c, h = gen.wide_smpg_json(rng, n)
            if not refs.check_planted(obj, c, h):
                raise RuntimeError(f"planted solution of wide-{n} is wrong")
            wide.append(Game(f"wide-{n}", obj, refs.planted_reference(obj, c)))
        return Workload(wide, warm_smpg, OP_LIMIT_S)
    if name == "entropy-mixed":
        rng = random.Random(seed)
        room = dict(ENTROPY_BULK_QUOTAS)
        defects = {game_hash(games[gid]) for gid in DEFECT_GAMES}
        bulk = []
        while any(room.values()):
            obj = gen.random_entropy_json(rng)
            key = tuple(len(obj[k]) for k in ("d_states", "t_states",
                                              "p_states"))
            if not room.get(key) or game_hash(obj) in defects:
                continue
            room[key] -= 1
            bulk.append(Game(f"bulk-{len(bulk)}", obj,
                             refs.entropy_reference(obj), True))
        ids = [f"r2-{n}{n}{n}-{i}" for n in ENTROPY_SIZES
               for i in range(ENTROPY_DRAWS)]
        ids += [f"cex-{n}-{w}" for n, w in CEX_TIMED]
        ids = [gid for gid in ids if gid not in SLOW_GAMES]
        return Workload(bulk + _fixed(ids, games, frozen), warm_entropy,
                        OP_LIMIT_S)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("smpg-small", "smpg-wide", "entropy-mixed")
