"""Small graph helpers: strongly connected components, reachability, and
the node labels and field types game files may use."""

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


def state_ids_error(ids):
    """Why `ids` cannot name the states of one game file, or None.  Reports
    sort the ids, so they are all strings or all integers."""
    for sid in ids:
        if not is_state_id(sid):
            return f"state identifier {sid!r} is not a string or an integer"
    if len({type(sid) for sid in ids}) > 1:
        return "state identifiers mix strings and integers"
    return None


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

