"""Exact reference answers, computed without the solver under test.

Stochastic games: per-state values by enumerating positional strategy pairs
and computing each Markov chain's exact gain in rational arithmetic (this
module's own code, not `mpgames.brute_force_values`).  The top class is the
set of Min states of maximal value.

Entropy games: per-Despot values by enumerating positional strategy pairs,
each pair's growth rate being an exact algebraic number (the Perron root of
an irreducible block: the largest real root of its characteristic
polynomial, isolated by Sturm sequences and compared exactly).  Again this
module's own code, not `mpgames.brute_force_entropy_values`.

Wide planted games: the identity F(h) = h + c, checked exactly in integers.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction


def _parse_smpg(obj):
    mins, maxs, nats = obj["min_states"], obj["max_states"], obj["nat_states"]
    mi = {s: j for j, s in enumerate(mins)}
    xi = {s: i for i, s in enumerate(maxs)}
    ni = {s: k for k, s in enumerate(nats)}
    min_edges = [[] for _ in mins]
    max_edges = [[] for _ in maxs]
    nat_edges = [[] for _ in nats]
    for e in obj["edges"]:
        if e["from"] in mi:
            min_edges[mi[e["from"]]].append((xi[e["to"]], e["a"]))
        elif e["from"] in xi:
            max_edges[xi[e["from"]]].append((ni[e["to"]], e["b"]))
        else:
            nat_edges[ni[e["from"]]].append((mi[e["to"]], e["p_num"]))
    return mins, min_edges, max_edges, nat_edges, obj["denominator"]


def _solve(a, b):
    """Exact Gauss-Jordan solve of a x = b (a square, nonsingular)."""
    n = len(a)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        piv = m[c][c]
        m[c] = [v / piv for v in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [v - f * w for v, w in zip(m[r], m[c])]
    return [m[r][n] for r in range(n)]


def _closed_classes(succ):
    """Bottom strongly connected components of a small graph."""
    n = len(succ)
    reach = []
    for s in range(n):
        seen = {s}
        stack = [s]
        while stack:
            for t in succ[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        reach.append(seen)
    classes = []
    for s in range(n):
        if all(s in reach[t] for t in reach[s]):
            cls = frozenset(reach[s])
            if cls not in classes:
                classes.append(cls)
    return classes


def chain_gain(p, r):
    """Exact long-run average reward of every state of a finite Markov
    chain with transition rows `p` (dicts of Fractions) and rewards `r`."""
    n = len(p)
    g = [None] * n
    for cls in _closed_classes([list(row) for row in p]):
        states = sorted(cls)
        # stationary distribution: pi (P - I) = 0 with sum(pi) = 1, the last
        # balance equation replaced by the normalisation
        idx = {s: t for t, s in enumerate(states)}
        k = len(states)
        a = [[Fraction(0)] * k for _ in range(k)]
        for s in states:
            for t, prob in p[s].items():
                a[idx[t]][idx[s]] += prob
        for t in range(k):
            a[t][t] -= 1
        a[k - 1] = [Fraction(1)] * k
        rhs = [Fraction(0)] * (k - 1) + [Fraction(1)]
        pi = _solve(a, rhs)
        gain = sum(w * r[s] for w, s in zip(pi, states))
        for s in states:
            g[s] = gain
    trans = [s for s in range(n) if g[s] is None]
    if trans:
        # g_T = P_TT g_T + P_TR g_R
        idx = {s: t for t, s in enumerate(trans)}
        a = [[Fraction(int(s == t)) for t in trans] for s in trans]
        rhs = [Fraction(0)] * len(trans)
        for s in trans:
            for t, prob in p[s].items():
                if t in idx:
                    a[idx[s]][idx[t]] -= prob
                else:
                    rhs[idx[s]] += prob * g[t]
        for s, v in zip(trans, _solve(a, rhs)):
            g[s] = v
    return g


def smpg_values(obj):
    """Exact value of every Min state: min over Min's positional strategies
    of the componentwise max over Max's of the pair's chain gain."""
    mins, min_edges, max_edges, nat_edges, m = _parse_smpg(obj)
    n = len(mins)
    nat_rows = [{t: Fraction(num, m) for t, num in row} for row in nat_edges]
    values = None
    for sigma in itertools.product(*min_edges):
        best = None
        for tau in itertools.product(*max_edges):
            p, r = [], []
            for i, a in sigma:
                k, b = tau[i]
                p.append(nat_rows[k])
                r.append(Fraction(b - a))
            g = chain_gain(p, r)
            best = g if best is None else [max(u, v) for u, v in zip(best, g)]
        values = best if values is None else [
            min(u, v) for u, v in zip(values, best)]
    return dict(zip(mins, values)), n


def smpg_reference(obj) -> dict:
    values, _ = smpg_values(obj)
    top = max(values.values())
    return {
        "top_class": sorted(s for s, v in values.items() if v == top),
        "top_value": f"{top.numerator}/{top.denominator}",
    }


def check_planted(obj, c: int, h) -> bool:
    """Exact check of F(h) = h + c for a planted wide game."""
    mins, min_edges, max_edges, nat_edges, m = _parse_smpg(obj)
    if m != 1:
        return False
    inner = [max(b + h[nat_edges[k][0][0]] for k, b in row)
             for row in max_edges]
    return all(min(-a + inner[i] for i, a in row) == hj + c
               for row, hj in zip(min_edges, h))


def planted_reference(obj, c: int) -> dict:
    return {"top_class": sorted(obj["min_states"]), "top_value": f"{c}/1"}


def overlap(lo1, hi1, lo2, hi2) -> bool:
    return max(Fraction(lo1), Fraction(lo2)) <= min(Fraction(hi1), Fraction(hi2))


def check_answer(kind, ref, report) -> str | None:
    """None when a `solve --json` report agrees with the reference, else
    why not.  `kind` is the game's "type"."""
    if kind == "smpg":
        if report.get("top_class") != ref["top_class"]:
            return "wrong top class"
        if Fraction(report.get("top_value")) != Fraction(ref["top_value"]):
            return "wrong top value"
        return None
    blocks = report.get("blocks") or [[]]
    if blocks[0] != ref["top_class"]:
        return "wrong top class"
    values = report.get("values", {})
    for d, (lo, hi) in ref["values"].items():
        iv = values.get(d)
        if iv is None or not overlap(iv["lo"], iv["hi"], lo, hi):
            return f"bracket of {d} misses the reference"
    return None


# ---------------------------------------------------------------------------
# entropy games: exact Perron roots


def _trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _divmod(a, b):
    """Quotient and remainder of polynomials (coefficient lists, lowest
    degree first, Fractions)."""
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while len(a) >= len(b) and any(a):
        f = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = f
        for i, c in enumerate(b):
            a[i + k] -= f * c
        a = _trim(a[:-1]) if len(a) > 1 else a
    return _trim(q), _trim(a)


def _gcd(a, b):
    while any(b):
        a, b = b, _divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _horner(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _sturm(p):
    seq = [p, _trim([i * c for i, c in enumerate(p)][1:] or [Fraction(0)])]
    while len(seq[-1]) > 1 or seq[-1][0] != 0:
        r = _divmod(seq[-2], seq[-1])[1]
        if not any(r):
            break
        seq.append([-c for c in r])
    return seq


def _variations(seq, x) -> int:
    signs = [v > 0 for v in (_horner(p, x) for p in seq) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _count(seq, a, b) -> int:
    """Distinct real roots of the squarefree seq[0] in (a, b]."""
    return _variations(seq, a) - _variations(seq, b)


def _charpoly(block):
    """Characteristic polynomial det(x I - B) (Faddeev-LeVerrier)."""
    n = len(block)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(block[i][t] * m[t][j] for t in range(n))
              + (coeffs[n - k + 1] if i == j else 0) for j in range(n)]
             for i in range(n)]
        am = [[sum(block[i][t] * m[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        coeffs[n - k] = -sum(am[i][i] for i in range(n)) / k
    return coeffs


class Root:
    """The Perron root of an irreducible nonnegative integer block: the
    unique root of the squarefree polynomial `seq[0]` in the open interval
    (lo, hi).  `exact` is set when a bisection point hit the root."""

    def __init__(self, seq, lo, hi):
        self.seq, self.lo, self.hi, self.exact = seq, lo, hi, None

    def halve(self):
        if self.exact is not None:
            return
        mid = (self.lo + self.hi) / 2
        if _horner(self.seq[0], mid) == 0:
            self.exact = self.lo = self.hi = mid
        elif _count(self.seq, mid, self.hi) == 1:
            self.lo = mid
        else:
            self.hi = mid

    def bracket(self, width):
        while self.hi - self.lo > width:
            self.halve()
        return self.lo, self.hi


def perron_root(block, memo) -> Root:
    """Perron root of an irreducible block with a cycle, shared through
    `memo` by every block with the same squarefree characteristic
    polynomial (the Perron root is that polynomial's largest real root)."""
    if len(block) == 1:
        p = [Fraction(-block[0][0]), Fraction(1)]
    else:
        p = _charpoly(block)
        p = _divmod(p, _gcd(p, _sturm(p)[1]))[0]
    key = tuple(p)
    if key not in memo:
        seq = _sturm(p)
        lo, hi = Fraction(0), Fraction(max(sum(row) for row in block))
        # hi bounds every root; shrink until (lo, hi] holds the largest only
        while _count(seq, lo, hi) > 1:
            mid = (lo + hi) / 2
            if _count(seq, mid, hi) >= 1:
                lo = mid
            else:
                hi = mid
        root = Root(seq, lo, hi)
        if _horner(p, hi) == 0:
            root.exact = root.lo = hi
        memo[key] = root
    return memo[key]


def compare_roots(a: Root, b: Root) -> int:
    """Exact order of two Perron roots: -1, 0 or 1."""
    while True:
        if a is b or (a.exact is not None and a.exact == b.exact):
            return 0
        if a.hi <= b.lo:
            return -1
        if b.hi <= a.lo:
            return 1
        if a.exact is not None or b.exact is not None:
            x, other = (a.exact, b) if a.exact is not None else (b.exact, a)
            if _horner(other.seq[0], x) == 0:
                return 0
        else:
            g = _gcd(a.seq[0], b.seq[0])
            lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
            if len(g) > 1 and lo < hi and _count(_sturm(g), lo, hi) >= 1:
                return 0
        a.halve()
        b.halve()


def _reach(adj):
    out = []
    for s in range(len(adj)):
        seen, stack = {s}, [s]
        while stack:
            for t in adj[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        out.append(seen)
    return out


def matrix_roots(matrix, memo):
    """Per state, the largest Perron root over the cyclic strongly
    connected components reachable from it, as a list of Roots, some None
    when nothing cyclic is reachable."""
    n = len(matrix)
    reach = _reach([[j for j, v in enumerate(row) if v] for row in matrix])
    comp_root = {}
    for s in range(n):
        comp = tuple(sorted(t for t in reach[s] if s in reach[t]))
        if comp not in comp_root:
            cyclic = len(comp) > 1 or matrix[s][s] > 0
            comp_root[comp] = perron_root(
                [[matrix[i][j] for j in comp] for i in comp], memo
            ) if cyclic else None
    out = []
    for s in range(n):
        best = None
        for comp, root in comp_root.items():
            if root is not None and comp[0] in reach[s] and (
                    best is None or compare_roots(root, best) > 0):
                best = root
        out.append(best)
    return out


def _parse_entropy(obj):
    ds, ts, ps = obj["d_states"], obj["t_states"], obj["p_states"]
    di = {s: j for j, s in enumerate(ds)}
    ti = {s: j for j, s in enumerate(ts)}
    pi = {s: j for j, s in enumerate(ps)}
    d_edges = [[] for _ in ds]
    t_edges = [[] for _ in ts]
    p_rows = [[0] * len(ds) for _ in ps]
    for e in obj["edges"]:
        if e["from"] in di:
            d_edges[di[e["from"]]].append(ti[e["to"]])
        elif e["from"] in ti:
            t_edges[ti[e["from"]]].append(pi[e["to"]])
        else:
            p_rows[pi[e["from"]]][di[e["to"]]] = e.get("m", 1)
    return ds, d_edges, t_edges, p_rows


BRACKET_WIDTH = Fraction(1, 2**30)


def entropy_reference(obj, budget: int = 10**6) -> dict:
    """Per-Despot brackets of width <= 2^-30 around the exact value, and
    the argmax Despot set; or the budget refusal when the strategy-pair
    count (the library's budget measure) exceeds `budget`.

    The value of Despot d is the min over Despot strategies sigma of the
    max over Tribune strategies tau of the pair's growth rate at d.  Only
    the Tribunes that sigma uses matter, so tau ranges over those."""
    ds, d_edges, t_edges, p_rows = _parse_entropy(obj)
    count = 1
    for row in d_edges + t_edges:
        count *= len(row)
    if count > budget:
        return {"refusal": {"exit": 1, "pairs": count}}
    memo = {}
    matrices = {}
    order = functools.cmp_to_key(compare_roots)
    values = None
    for sigma in itertools.product(*d_edges):
        used = sorted(set(sigma))
        best = None
        for choice in itertools.product(*(t_edges[t] for t in used)):
            pick = dict(zip(used, choice))
            key = tuple(pick[t] for t in sigma)  # People row of each Despot
            if key not in matrices:
                matrices[key] = matrix_roots([p_rows[p] for p in key], memo)
            roots = matrices[key]
            best = roots if best is None else [
                max(u, v, key=order) for u, v in zip(best, roots)]
        values = best if values is None else [
            min(u, v, key=order) for u, v in zip(values, best)]
    top = max(values, key=order)
    out = {}
    for d, root in zip(ds, values):
        lo, hi = root.bracket(BRACKET_WIDTH)
        out[d] = [f"{lo.numerator}/{lo.denominator}",
                  f"{hi.numerator}/{hi.denominator}"]
    return {
        "values": out,
        "top_class": sorted(d for d, root in zip(ds, values)
                            if compare_roots(root, top) == 0),
    }
