"""The game graph both game kinds share, and strongly connected components.

A game is a graph of three alternating kinds of state: Min -> Max ->
Nature -> Min, or Despot -> Tribune -> People -> Despot.  Each game module
declares its layout once: `KEYS`, the game file's three state-list keys,
and a labels table of three (name, field, default) entries, one per kind,
naming the kind, the integer field its edges carry (None for none) and
that field's default.  By index, the edges of a kind are one row per
state: (target, field) pairs, or bare targets for a kind without a field.
`read_game_file`, `game_file`, `check_adjacency` and `spanning_subgraph`
read, write, check and re-index these graphs for both kinds.
"""

from __future__ import annotations


class GameFormatError(ValueError):
    """A game file or game description that is malformed."""


def json_int(value, what):
    """`value` if it is a JSON integer (an int, not a bool); a float or a
    numeric string is an error rather than something to truncate."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise GameFormatError(f"{what} must be an integer, got {value!r}")
    return value


def json_list(value, what):
    """`value` if it is a JSON list, else GameFormatError."""
    if not isinstance(value, list):
        raise GameFormatError(f"{what} must be a list, got {value!r}")
    return value


def edge_records(value):
    """The "edges" list of a game file, each record an object."""
    for rec in json_list(value, '"edges"'):
        if not isinstance(rec, dict):
            raise GameFormatError(f"edge record {rec!r} is not an object")
    return value


def is_state_id(value) -> bool:
    """State identifiers in game files are strings or integers (not bool)."""
    return isinstance(value, (str, int)) and not isinstance(value, bool)


# the types of the state ids JSON decodes to; the readers test these inline
# and call is_state_id only for other types (bools, floats, subclasses)
_PLAIN_IDS = (str, int)


def state_ids_error(ids):
    """Why `ids` cannot name the states of one game file, or None.  Reports
    sort the ids, so they are all strings or all integers."""
    for sid in ids:
        if type(sid) not in _PLAIN_IDS and not is_state_id(sid):
            return f"state identifier {sid!r} is not a string or an integer"
    if len({type(sid) for sid in ids}) > 1:
        return "state identifiers mix strings and integers"
    return None


def read_game_file(obj, kind, keys, labels):
    """The state ids and the edges by index of a game file of type `kind`,
    each a triple by kind.  Edges go from one kind to the next, at most
    once; an absent field takes its default.  A field whose default is
    None may also be null, and is left for the caller to resolve."""
    if not isinstance(obj, dict) or obj.get("type") != kind:
        raise GameFormatError(f'expected an object with "type": "{kind}"')
    try:
        ids = tuple(tuple(json_list(obj[key], f'"{key}"')) for key in keys)
        records = edge_records(obj["edges"])
    except KeyError as exc:
        raise GameFormatError(f"missing key {exc}") from exc
    all_ids = [sid for kind_ids in ids for sid in kind_ids]
    bad_ids = state_ids_error(all_ids)
    if bad_ids:
        raise GameFormatError(bad_ids)
    where = {sid: (k, j) for k, kind_ids in enumerate(ids)
             for j, sid in enumerate(kind_ids)}
    if len(where) != len(all_ids):
        raise GameFormatError("state identifiers must be unique across kinds")
    owners = {field: name for name, field, _ in labels if field is not None}
    edges = tuple([[] for _ in kind_ids] for kind_ids in ids)
    seen = set()
    for rec in records:
        src, dst = rec.get("from"), rec.get("to")
        if not ((type(src) in _PLAIN_IDS or is_state_id(src))
                and (type(dst) in _PLAIN_IDS or is_state_id(dst))):
            raise GameFormatError(f"edge record {rec!r} violates alternation")
        if (src, dst) in seen:
            raise GameFormatError(f"duplicate edge {src!r} -> {dst!r}")
        seen.add((src, dst))
        s, t = where.get(src), where.get(dst)
        if s is None or t is None or t[0] != (s[0] + 1) % 3:
            raise GameFormatError(f"edge record {rec!r} violates alternation")
        k, j = s
        _, field, default = labels[k]
        if field is None:
            if len(rec) > 2:
                for other, owner in owners.items():
                    if other in rec:
                        raise GameFormatError(
                            f'"{other}" belongs on {owner} edges only')
            edges[k][j].append(t[1])
            continue
        value = rec.get(field, default)
        # json_int formats its message eagerly: call it only to raise
        if type(value) is not int and (value is not None
                                       or default is not None):
            json_int(value, f'"{field}" of edge {src!r} -> {dst!r}')
        edges[k][j].append((t[1], value))
    return ids, edges


def game_file(kind, keys, labels, ids, edges, **fields):
    """The game file of type `kind` that `read_game_file` reads back;
    `fields` are written between the state lists and the edges."""
    records = []
    for k, (_, field, _) in enumerate(labels):
        rows, dst_ids = zip(ids[k], edges[k]), ids[(k + 1) % 3]
        if field is None:
            records += [{"from": src, "to": dst_ids[t]}
                        for src, row in rows for t in row]
        else:
            records += [{"from": src, "to": dst_ids[t], field: value}
                        for src, row in rows for t, value in row]
    return {"type": kind, **dict(zip(keys, map(list, ids))), **fields,
            "edges": records}


def check_adjacency(labels, ids, edges):
    """GameFormatError unless each kind has one edge row per state and
    every state has an outgoing edge."""
    for (name, _, _), kind_ids, rows in zip(labels, ids, edges):
        if len(kind_ids) != len(rows):
            raise GameFormatError(f"{name} adjacency length mismatch")
        for sid, out in zip(kind_ids, rows):
            if not out:
                raise GameFormatError(f"state {sid!r} has no outgoing edge")


def spanning_subgraph(labels, ids, edges, keep):
    """The state ids and edges by index of the subgraph on the state indices
    `keep` (a list per kind): edges into dropped states are dropped, and
    each kind's kept states are renumbered in the order of `keep`."""
    new = [{old: j for j, old in enumerate(sel)} for sel in keep]
    sub_edges = []
    for k, (_, field, _) in enumerate(labels):
        rows, index = edges[k], new[(k + 1) % 3]
        if field is None:
            sub_edges.append([[index[t] for t in rows[j] if t in index]
                              for j in keep[k]])
        else:
            sub_edges.append([[(index[t], w) for t, w in rows[j] if t in index]
                              for j in keep[k]])
    return (tuple(tuple(kind_ids[j] for j in sel)
                  for kind_ids, sel in zip(ids, keep)), sub_edges)


def state_indices(ids, chosen):
    """The indices in `ids` of the state ids `chosen`."""
    index = {sid: j for j, sid in enumerate(ids)}
    try:
        return [index[sid] for sid in chosen]
    except KeyError as exc:
        raise GameFormatError(f"unknown state id {exc}") from exc


def tarjan_scc(adj):
    """Strongly connected components of adj (list of successor lists),
    iterative Tarjan.  Returns a list of components (lists of vertices) in
    reverse topological order (every edge goes from a later component to an
    earlier one or stays inside)."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(adj[v]):
                w = adj[v][pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comps

