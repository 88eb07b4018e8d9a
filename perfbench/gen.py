"""Benchmark-owned game generators.

Every game is produced as the JSON object that `mpgames solve` reads, so the
benchmark hands the program nothing but game files.  `random_smpg_json` and
`random_entropy_json` repeat the sampling logic of `mpgames.random_smpg` and
`mpgames.random_entropy_game` call for call, so a given `random.Random`
stream yields the same games as the library at the commit that defined the
benchmark (`selfcheck.py` asserts this).  Keeping a private copy means a
later change to the library's samplers cannot move a workload.
"""

from __future__ import annotations

import random


def _smpg_json(min_edges, max_edges, nat_edges, m):
    """JSON in the layout of `mpgames.game_to_json`: ids m*/x*/n*, edges per
    source in target order."""
    edges = []
    for j, row in enumerate(min_edges):
        for i, a in sorted(row):
            edges.append({"from": f"m{j}", "to": f"x{i}", "a": a})
    for i, row in enumerate(max_edges):
        for k, b in sorted(row):
            edges.append({"from": f"x{i}", "to": f"n{k}", "b": b})
    for k, row in enumerate(nat_edges):
        for j, num in sorted(row):
            edges.append({"from": f"n{k}", "to": f"m{j}", "p_num": num})
    return {
        "type": "smpg",
        "min_states": [f"m{j}" for j in range(len(min_edges))],
        "max_states": [f"x{i}" for i in range(len(max_edges))],
        "nat_states": [f"n{k}" for k in range(len(nat_edges))],
        "denominator": m,
        "edges": edges,
    }


def random_smpg_json(rng: random.Random, max_min=3, max_max=3, max_nat=3,
                     m_choices=(1, 2, 3), payoff_lo=-2, payoff_hi=2) -> dict:
    """One draw of `random_smpg`: redrawn until W = max |A_ji - B_ik| >= 1."""
    while True:
        n_min = rng.randint(1, max_min)
        n_max = rng.randint(1, max_max)
        n_nat = rng.randint(1, max_nat)
        m = rng.choice(list(m_choices))
        min_edges = []
        for _ in range(n_min):
            targets = rng.sample(range(n_max), rng.randint(1, n_max))
            min_edges.append(
                [(i, rng.randint(payoff_lo, payoff_hi)) for i in targets])
        max_edges = []
        for _ in range(n_max):
            targets = rng.sample(range(n_nat), rng.randint(1, n_nat))
            max_edges.append(
                [(k, rng.randint(payoff_lo, payoff_hi)) for k in targets])
        nat_edges = []
        for _ in range(n_nat):
            deg = rng.randint(1, min(n_min, m))
            targets = rng.sample(range(n_min), deg)
            cuts = sorted(rng.sample(range(1, m), deg - 1)) if deg > 1 else []
            parts = [b - a for a, b in zip([0] + cuts, cuts + [m])]
            nat_edges.append(list(zip(targets, parts)))
        w = max(abs(a - b) for row in min_edges for i, a in row
                for _, b in max_edges[i])
        if w >= 1:
            return _smpg_json(min_edges, max_edges, nat_edges, m)


def entropy_json(d_edges, t_edges, p_edges) -> dict:
    """JSON in the layout of `mpgames.entropy_to_json`: ids d*/t*/p*."""
    edges = []
    for j, row in enumerate(d_edges):
        edges.extend({"from": f"d{j}", "to": f"t{t}"} for t in sorted(row))
    for j, row in enumerate(t_edges):
        edges.extend({"from": f"t{j}", "to": f"p{p}"} for p in sorted(row))
    for j, row in enumerate(p_edges):
        edges.extend({"from": f"p{j}", "to": f"d{d}", "m": m}
                     for d, m in sorted(row))
    return {"type": "entropy",
            "d_states": [f"d{j}" for j in range(len(d_edges))],
            "t_states": [f"t{j}" for j in range(len(t_edges))],
            "p_states": [f"p{j}" for j in range(len(p_edges))],
            "edges": edges}


def random_entropy_json(rng: random.Random, max_d=3, max_t=3, max_p=3,
                        w_max=3) -> dict:
    """One draw of `random_entropy_game`."""
    n_d = rng.randint(1, max_d)
    n_t = rng.randint(1, max_t)
    n_p = rng.randint(1, max_p)
    d_edges = [rng.sample(range(n_t), rng.randint(1, n_t)) for _ in range(n_d)]
    t_edges = [rng.sample(range(n_p), rng.randint(1, n_p)) for _ in range(n_t)]
    p_edges = []
    for _ in range(n_p):
        targets = rng.sample(range(n_d), rng.randint(1, n_d))
        p_edges.append([(d, rng.randint(1, w_max)) for d in targets])
    return entropy_json(d_edges, t_edges, p_edges)


def peel_smpg_json(w1: int, w2: int) -> dict:
    """Disjoint union of two deterministic 2-state cycles whose mean payoffs
    differ.  The value is not constant, so the first constancy decision runs
    to its a priori iteration cap and the lower cycle is peeled off as a
    dominion before the top class is found.

    Cycle c (states m{2c}, m{2c+1}) pays A = -w_c on both Min edges and
    B = 0 on both Max edges, so its mean payoff per round is w_c."""
    min_edges = [[(0, -w1)], [(1, -w1)], [(2, -w2)], [(3, -w2)]]
    max_edges = [[(0, 0)], [(1, 0)], [(2, 0)], [(3, 0)]]
    nat_edges = [[(1, 1)], [(0, 1)], [(3, 1)], [(2, 1)]]
    return _smpg_json(min_edges, max_edges, nat_edges, 1)


def smpg_mu(obj) -> int:
    """mu = n * M^min(s, n - 1), s the number of Nature states with two or
    more successors: the denominator bound that sets delta = 1/mu^2."""
    n = len(obj["min_states"])
    fanout = {}
    for e in obj["edges"]:
        if "p_num" in e:
            fanout[e["from"]] = fanout.get(e["from"], 0) + 1
    s = sum(1 for v in fanout.values() if v >= 2)
    return n * obj["denominator"] ** (min(s, n - 1) if n > 1 else 0)


def smpg_gap_steps(obj) -> int:
    """Length l of the first gap loop `solve` runs on a constant-value game:
    iterate U <- round(q F(U / q)) on integers, q = 4 mu^2, rounding half
    to even, until max(U) - min(U) <= 3 l, which is top - bottom <=
    (3/4) delta l with delta = 1/mu^2.  This is the a priori algorithm of
    the commit that defined the benchmark, written out here so that the
    stratum of a draw never depends on the program under test."""
    mu = smpg_mu(obj)
    qm = 4 * mu * mu * obj["denominator"]
    m = obj["denominator"]
    ids = {}
    for kind in ("min_states", "max_states", "nat_states"):
        ids.update((s, i) for i, s in enumerate(obj[kind]))
    n = len(obj["min_states"])
    min_edges = [[] for _ in range(n)]
    max_edges = [[] for _ in obj["max_states"]]
    nat_edges = [[] for _ in obj["nat_states"]]
    for e in obj["edges"]:
        src, dst = ids[e["from"]], ids[e["to"]]
        if "a" in e:
            min_edges[src].append((dst, -e["a"] * qm))
        elif "b" in e:
            max_edges[src].append((dst, e["b"] * qm))
        else:
            nat_edges[src].append((dst, e["p_num"]))
    u = [0] * n
    ell = 0
    while True:
        nat = [sum(num * u[j] for j, num in row) for row in nat_edges]
        inner = [max(b + nat[k] for k, b in row) for row in max_edges]
        u = []
        for row in min_edges:
            q0, r = divmod(min(a + inner[i] for i, a in row), m)
            if 2 * r > m or (2 * r == m and q0 % 2):
                q0 += 1
            u.append(q0)
        ell += 1
        if max(u) - min(u) <= 3 * ell:
            return ell


WIDE_SPAN = 3  # potentials h are drawn from 0..WIDE_SPAN
WIDE_MIN_DEGREE = 3  # Max successors of each Min state
WIDE_FINAL_GAP = 3  # gap class every wide game is drawn to


def wide_smpg_json(rng: random.Random, n: int):
    """A deterministic (M = 1) game with n states per player and a planted
    exact solution.  Every Max state has an edge to every Nature state, so
    the value is the same at every state.  Payoffs are chosen around a
    random integer potential h and value c so that F(h) = h + c holds
    exactly, which makes c the value.  Draws are repeated until the gap
    loop stops at l = 4 n^2 WIDE_FINAL_GAP / 3, so every seed asks the
    solver for the same number of steps at a given n.

    Returns (game JSON, c, h); `refs.check_planted` re-checks F(h) = h + c."""
    while True:
        game = _wide_candidate(rng, n)
        if smpg_gap_steps(game[0]) == -(-4 * n * n * WIDE_FINAL_GAP // 3):
            return game


def _wide_candidate(rng, n):
    h = [rng.randint(0, WIDE_SPAN) for _ in range(n)]
    c = rng.randint(-1, 1)
    perm = list(range(n))
    rng.shuffle(perm)  # Nature state k moves to Min state perm[k]
    # Max state i: best Nature successor k_best[i], value T_i = B + h(next)
    max_edges = []
    t_val = []
    for _ in range(n):
        k_best = rng.randrange(n)
        top = h[perm[k_best]] + rng.randint(-1, 1)
        row = []
        for k in range(n):
            if k == k_best:
                row.append((k, top - h[perm[k]]))
            else:
                row.append((k, top - h[perm[k]] - rng.randint(1, 2)))
        max_edges.append(row)
        t_val.append(top)
    # Min state j: best Max successor attains h_j + c, the others exceed it
    min_edges = []
    for j in range(n):
        targets = rng.sample(range(n), WIDE_MIN_DEGREE)
        row = [(targets[0], t_val[targets[0]] - h[j] - c)]
        for i in targets[1:]:
            row.append((i, t_val[i] - h[j] - c - rng.randint(1, 2)))
        min_edges.append(row)
    nat_edges = [[(perm[k], 1)] for k in range(n)]
    return _smpg_json(min_edges, max_edges, nat_edges, 1), c, h
