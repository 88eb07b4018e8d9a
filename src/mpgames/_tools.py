"""The bodies of the `brute`, `gen-random`, `gen-cex` and `bench` commands,
and argparse's reading of the command lines that `cli` does not read.

`cli` declares every command and its arguments, and imports this module
the first time one of these four runs, or a command line goes to argparse:
help, a usage error, `bench`, or any other line `cli` does not read.  A
`solve` or a `certify` as the benchmark writes them compiles neither this
module nor argparse.  Each body returns its exit code and raises on error,
as `cli`'s own do.
"""

from __future__ import annotations

import csv
import itertools
import json
import random
import time
from importlib import import_module

from .cli import (
    EXIT_OK,
    _echo,
    _emit,
    _frac_str,
    _interval_record,
    _kind_module,
    _load_game,
)
from .graphs import GameFormatError


def _write_out(path, write):
    """Open `path` for writing and hand the file to `write`.  A path that
    cannot be written (a missing directory, a directory) is malformed
    input: "cannot write" and the reason."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    except OSError as exc:
        raise GameFormatError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# argparse


def parse_args(command, prog, args):
    """The keyword arguments of `command`'s body, read from `args` by
    argparse; a usage error, or --help, exits as argparse does.  The parser
    holds no stream: argparse writes to sys.stderr and sys.stdout as they
    are when it writes."""
    import argparse

    parser = argparse.ArgumentParser(prog=f"{prog} {command.name}",
                                     description=command.help,
                                     allow_abbrev=False)
    for flags, kwargs in command._arguments:
        parser.add_argument(*flags, **kwargs)
    if command._intermixed:
        return vars(parser.parse_intermixed_args(args))
    return vars(parser.parse_args(args))


def exit_usage(group, prog, args):
    """Exit as argparse does when the first of `args` names no command of
    `group`: the top-level help exits 0, anything else is a usage error."""
    import argparse

    parser = argparse.ArgumentParser(prog=prog, description=group.help,
                                     allow_abbrev=False)
    names = parser.add_subparsers(title="commands", metavar="COMMAND",
                                  required=True)
    for name, command in sorted(group.commands.items()):
        names.add_parser(name, help=command.help.split(".")[0],
                         add_help=False)
    parser.parse_args(args[:1])


# ---------------------------------------------------------------------------
# brute


def brute(input_path, budget, pairs_path, as_json):
    """Reference values by strategy enumeration (exact for stochastic games,
    certified brackets for matrix-multiplicative ones)."""
    kind, _, game = _load_game(input_path)
    if kind == "smpg":
        from .dominion import brute_force_values

        res = brute_force_values(game, budget=budget)
        report = {
            "values": {
                s: _frac_str(v) for s, v in zip(game.min_ids, res.chi)
            },
            "pairs": len(res.pair_gains),
        }
        header = ["min_strategy", "max_strategy", "state", "value"]
        rows = (
            [" ".join(map(str, sigma)), " ".join(map(str, tau)), s,
             _frac_str(v)]
            for sigma, tau, gains in res.pair_gains
            for s, v in zip(game.min_ids, gains)
        )
    else:
        from .perron import brute_force_entropy_values

        res = brute_force_entropy_values(game, budget=budget)
        report = {
            "values": {
                s: _interval_record(iv)
                for s, iv in zip(game.d_ids, res.chi)
            },
            "pairs": res.pair_count,
            "rank": res.profile.rank,
        }
        header = ["pair_matrix", "state", "lo", "hi"]
        rows = (
            [";".join(" ".join(map(str, row)) for row in key), s,
             _frac_str(iv.lo), _frac_str(iv.hi)]
            for key in res.registry.keys()
            for s, iv in zip(game.d_ids,
                             res.registry.values(key, res.fine_tol))
        )
    if pairs_path:
        _write_out(pairs_path, lambda fh: csv.writer(fh).writerows(
            itertools.chain([header], rows)))
    _emit(report, as_json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# generators


def gen_random(kind, seed, out):
    """Emit a random small game instance as JSON."""
    rng = random.Random(seed)
    mod = _kind_module(kind)
    if kind == "smpg":
        from .dominion import random_smpg

        obj = mod.game_to_json(random_smpg(rng))
    else:
        from .perron import random_entropy_game

        obj = mod.entropy_to_json(random_entropy_game(rng))
    text = json.dumps(obj, indent=2)
    if out:
        _write_out(out, lambda fh: fh.write(text + "\n"))
    else:
        _echo(text)
    return EXIT_OK


def gen_cex(n, w, out, flip_max, flip_out, as_json):
    """Emit the two-branch slow-flip instance and its metadata."""
    from . import cex as cexmod
    from .entropycheck import entropy_to_json

    inst = cexmod.build_cex_game(n, w)
    obj = entropy_to_json(inst.game)
    text = json.dumps(obj, indent=2)
    if out:
        _write_out(out, lambda fh: fh.write(text + "\n"))
    meta = {
        "n": inst.n,
        "w": inst.w,
        "k_star": _interval_record(inst.k_star),
        "flip_horizon": cexmod.flip_horizon(n, w),
        "significant_people": inst.significant_people,
        "expansion_factor": inst.expansion_factor,
    }
    if not out:
        meta["game"] = obj
    if flip_max is not None:
        rows = [[k, left, right, "left" if left > right else "right"]
                for k, (left, right) in zip(range(flip_max + 1),
                                            cexmod.horizon_weights(n, w))]
        if flip_out:
            _write_out(flip_out, lambda fh: csv.writer(fh).writerows(
                [["k", "left", "right", "winner"], *rows]))
        else:
            _echo("k,left,right,winner")
            for row in rows:
                _echo(",".join(map(str, row)))
    _emit(meta, as_json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def _bench_one(path, budget):
    """One bench row; `steps` counts the oracle calls of `solve_game` for a
    stochastic file and the block iterations of `solve_entropy_game` for
    an entropy file."""
    start = time.perf_counter()
    kind, _, game = _load_game(path)
    solver = _kind_module(kind, solver=True)
    if kind == "smpg":
        steps = solver.solve_game(game).oracle_calls
        n = len(game.min_ids)
    else:
        sol = solver.solve_entropy_game(game, budget=budget)
        steps = sum(b.iterations for b in sol.blocks)
        n = len(game.d_ids)
    return {
        "path": path,
        "kind": kind,
        "states": n,
        "steps": steps,
        "seconds": round(time.perf_counter() - start, 6),
    }


def bench(inputs, budget, trace):
    """Time the solver on one or more game files, one after another."""
    # import every module a row may run first, the stochastic fallback's
    # too, so that no row's time includes compiling one
    for module in ("stochastic", "dominion", "entropy"):
        import_module(f".{module}", __package__)
    rows = [_bench_one(path, budget) for path in inputs]
    if trace:
        _write_out(trace, lambda fh: csv.writer(fh).writerows(
            [list(rows[0]), *(row.values() for row in rows)]))
    else:
        for row in rows:
            _echo(
                f"{row['path']}: kind={row['kind']} states={row['states']} "
                f"steps={row['steps']} seconds={row['seconds']}"
            )
    return EXIT_OK
