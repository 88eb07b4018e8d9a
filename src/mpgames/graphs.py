"""The game graph both game kinds share, and strongly connected components.

A game is a graph of three alternating kinds of state: Min -> Max ->
Nature -> Min, or Despot -> Tribune -> People -> Despot.  Each game module
declares its layout once: `KEYS`, the game file's three state-list keys,
and a labels table of three (name, field, default) entries, one per kind,
naming the kind, the integer field its edges carry (None for none) and
that field's default.  By index, the edges of a kind are one row per
state: (target, field) pairs, or bare targets for a kind without a field.
`read_game_file`, `game_file`, `game_record` and `subgame` read, write,
build and restrict these games for both kinds, and `check_rows` holds a
record read from a file or built in code to one rule.
"""

from __future__ import annotations

from operator import itemgetter


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
    each a triple by kind.  Edges go from one kind to the next; an absent
    field takes its default.  Fields and repeated edges are left for
    `check_rows` to judge when the caller builds its record, and a field
    whose default is None may also be null, for the caller to resolve."""
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
    for rec in records:
        src, dst = rec.get("from"), rec.get("to")
        if not ((type(src) in _PLAIN_IDS or is_state_id(src))
                and (type(dst) in _PLAIN_IDS or is_state_id(dst))):
            raise GameFormatError(f"edge record {rec!r} violates alternation")
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
        edges[k][j].append((t[1], rec.get(field, default)))
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


def check_rows(labels, ids, edges):
    """GameFormatError, in the game reader's words, unless each state has
    one edge row, no row is empty, names a target twice or one that is no
    state of the next kind, and every edge field is an int, not a bool."""
    for k, ((name, field, _), kind_ids, rows) in enumerate(
            zip(labels, ids, edges)):
        if len(kind_ids) != len(rows):
            raise GameFormatError(f"{name} adjacency length mismatch")
        dst_ids = ids[(k + 1) % 3]
        distinct = set if field is None else dict  # of targets
        for sid, row in zip(kind_ids, rows):
            if not row:
                raise GameFormatError(f"state {sid!r} has no outgoing edge")
            targets = distinct(row)
            if min(targets) < 0 or max(targets) >= len(dst_ids):
                raise GameFormatError(
                    f"an edge of state {sid!r} violates alternation")
            if len(targets) < len(row):
                listed = row if field is None else [t for t, _ in row]
                dup = dst_ids[max(listed, key=listed.count)]
                raise GameFormatError(f"duplicate edge {sid!r} -> {dup!r}")
            for t, value in () if field is None else row:
                if type(value) is not int:  # json_int formats eagerly
                    json_int(value, f'"{field}" of edge {sid!r} -> '
                             f'{dst_ids[t]!r}')


_TARGET = itemgetter(0)


def game_record(cls, labels, ids, edges, *fields):
    """The validated record `cls` on these state ids and edge rows, each row
    sorted by target so that ties go to the smallest index."""
    return cls(*map(tuple, ids), *(
        tuple(tuple(sorted(row, key=None if field is None else _TARGET))
              for row in rows)
        for (_, field, _), rows in zip(labels, edges)), *fields).validate()


def subgame(game, labels, keep):
    """The subgame of the valid record `game` on the state indices `keep`, a
    sorted list per kind: edges into dropped states are dropped, kept states
    are renumbered in order, and the fields after the ids and rows are kept.
    Its rows stay sorted and distinct, so only a state left with no move is
    checked."""
    new = [{old: j for j, old in enumerate(sel)} for sel in keep]
    ids = [tuple([kind_ids[j] for j in sel])
           for kind_ids, sel in zip(game.ids, keep)]
    edges = []
    for k, (_, field, _) in enumerate(labels):
        rows, index = game.edges[k], new[(k + 1) % 3]
        if field is None:
            sub = tuple(tuple([index[t] for t in rows[j] if t in index])
                        for j in keep[k])
        else:
            sub = tuple(tuple([(index[t], w) for t, w in rows[j]
                               if t in index]) for j in keep[k])
        for sid, row in zip(ids[k], sub):
            if not row:
                raise GameFormatError(f"state {sid!r} has no outgoing edge")
        edges.append(sub)
    return type(game)(*ids, *edges, *game[6:])


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

