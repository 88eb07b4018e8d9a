"""Command-line interface.

Exit codes: 0 success, 1 malformed input (a missing or unreadable file
included), an unwritable output path, a strategy-pair count over
`--budget` or another violated precondition, 2 winner iteration budget
exhausted without a verdict or a usage error, 3 iteration cap exceeded (a
`gen-cex` pair with no flip within 10^4 horizons included).  Each command
body returns its exit code and raises on error; `_Group.main` holds the
one exit policy that maps both to the process exit.

Arguments are parsed by the standard library's argparse, so the package
needs no third-party module to run.  Each command's parser is built the
first time the command runs in a process and kept: a caller that runs
many commands in-process parses each with a ready parser.

Each command imports the game-kind module it needs when it runs: the
module of the file's "type" (`_load_game`), of `--kind` (`gen-random`), or
`cex` (`gen-cex`).  Most games are certified within the first oracle
call, so one command's time is mostly interpreter start-up, much of it
compiling the imported source: a stochastic file never loads the entropy
solver, nor an entropy file the stochastic one.  The reference and
fallback modules of a kind load only with the commands that run them:
`dominion` (with `iteration` and `oracle`) for `--mode winner`, `brute`
and `gen-random` of a stochastic game, `perron` for `brute` of an entropy
game, and either when a solve falls back to it.  `csv` loads only with
the commands that write CSV: `brute`, `gen-cex` and `bench`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
import time
from fractions import Fraction
from importlib import import_module

from .graphs import GameFormatError, json_list, state_ids_error, state_indices
from .numeric import (
    NEG_INF,
    SUB,
    SUPER,
    Certificate,
    IterationCapExceeded,
    RationalInterval,
    rational_in_interval,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_EXHAUSTED = 2
EXIT_CAP = 3


def _frac_str(v) -> str:
    if v is NEG_INF:
        return "-inf"
    v = Fraction(v)
    try:
        return f"{v.numerator}/{v.denominator}"
    except ValueError:
        # past the interpreter's int/str digit limit, which Decimal's own
        # conversion does not have
        from decimal import Decimal

        return "/".join(format(Decimal(x), "f")
                        for x in (v.numerator, v.denominator))


def _report_frac(value) -> Fraction:
    """A rational written in a report: a "p/q" string or an integer, of any
    size."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise GameFormatError(f"{value!r} is not a rational")
    try:
        return Fraction(value)
    except ZeroDivisionError as exc:
        raise GameFormatError(f"{value!r} is not a rational") from exc
    except ValueError:
        # past the interpreter's int/str digit limit: "p/q" or "p" as
        # `_frac_str` writes them, read through Decimal; anything else
        # keeps Fraction's error
        num, slash, den = value.partition("/")
        if not (num.removeprefix("-").isdecimal()
                and (den.isdecimal() or not slash)):
            raise
        from decimal import Decimal

        den = int(Decimal(den)) if slash else 1
        if not den:
            raise GameFormatError(f"{value!r} is not a rational") from None
        return Fraction(int(Decimal(num)), den)


def _parse_frac(s):
    if s == "-inf":
        return NEG_INF
    return _report_frac(s)


# game kind (a game file's "type") -> its module and that module's reader
_KINDS = {"smpg": ("stochastic", "parse_smpg"),
          "entropy": ("entropy", "parse_entropy")}


def _kind_module(kind):
    """The module of game kind `kind`, imported on first use."""
    return import_module(f".{_KINDS[kind][0]}", __package__)


def _read_json(path):
    """The JSON value in file `path`.  A file that cannot be opened, decoded
    or parsed is malformed input: "cannot read" and the reason."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise GameFormatError(f"cannot read {path}: {exc}") from exc


def _load_game(path):
    """(kind, the kind's module, the game) of a game file."""
    obj = _read_json(path)
    kind = obj.get("type") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in _KINDS:
        raise GameFormatError(f'unsupported or missing "type" in {path}')
    mod = _kind_module(kind)
    return kind, mod, getattr(mod, _KINDS[kind][1])(obj)


def _write_out(path, write):
    """Open `path` for writing and hand the file to `write`.  A path that
    cannot be written (a missing directory, a directory) is malformed
    input: "cannot write" and the reason."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    except OSError as exc:
        raise GameFormatError(f"cannot write {path}: {exc}") from exc


def _cert_record(cert: Certificate, states=None) -> dict:
    rec = {
        "lam": _frac_str(cert.lam),
        "vec": [_frac_str(v) for v in cert.vec],
        "direction": cert.direction,
        "multiplicative": cert.multiplicative,
    }
    if states is not None:
        rec["states"] = states
    return rec


def _field(record, key):
    """record[key]; a missing key is a GameFormatError worded as the game
    reader words it."""
    try:
        return record[key]
    except KeyError as exc:
        raise GameFormatError(f"missing key {exc}") from exc


def _cert_from_record(rec) -> Certificate:
    if not isinstance(rec, dict):
        raise GameFormatError(f"certificate record {rec!r} is not an object")
    return Certificate(
        _report_frac(_field(rec, "lam")),
        tuple(_parse_frac(v) for v in json_list(_field(rec, "vec"), '"vec"')),
        _field(rec, "direction"),
        bool(rec.get("multiplicative", False)),
    )


def _dec_str(value: Fraction, digits: int = 12) -> str:
    scaled = value * 10**digits
    whole = (scaled.numerator // scaled.denominator
             if scaled >= 0 else -((-scaled.numerator) // scaled.denominator))
    sign = "-" if whole < 0 else ""
    whole = abs(whole)
    return f"{sign}{whole // 10**digits}.{whole % 10**digits:0{digits}d}"


def _interval_record(iv) -> dict:
    return {
        "lo": _frac_str(iv.lo),
        "hi": _frac_str(iv.hi),
        "approx": f"[{_dec_str(iv.lo)}, {_dec_str(iv.hi)}]",
    }


def _echo(message, err=False):
    """One line to the current sys.stdout or sys.stderr, flushed, so that
    the two streams interleave in the order they were written."""
    print(message, file=sys.stderr if err else sys.stdout, flush=True)


def _emit(report: dict, as_json: bool):
    if as_json:
        _echo(json.dumps(report, indent=2, sort_keys=True))
        return
    def render(value):
        if isinstance(value, dict):
            if "approx" in value:
                return value["approx"]
            return {k: render(v) for k, v in value.items()}
        if isinstance(value, list):
            return [render(v) for v in value]
        return value

    for key, value in report.items():
        if key == "certificates":
            _echo(f"certificates: {len(value)} (use --json to inspect)")
        else:
            _echo(f"{key}: {render(value)}")


def _arg(*flags, **kwargs):
    """One `add_argument` call of a command's parser, kept until the parser
    is built."""
    return flags, kwargs


class _Command:
    """One command: its body `callback`, which takes one keyword argument
    per declared argument, and the parser of its arguments, built on first
    use.  The parser holds no stream: argparse writes its usage errors and
    help to sys.stderr and sys.stdout as they are when it writes."""

    def __init__(self, name, callback, arguments):
        self.name = name
        self.callback = callback
        self.help = callback.__doc__
        self._arguments = arguments
        # a variadic positional may be split by options, as in
        # `bench a.json --budget 5 b.json`
        self._intermixed = any(kw.get("nargs") == "+" for _, kw in arguments)
        self._parser = None

    def parse(self, prog, args) -> dict:
        """The keyword arguments of the callback; a usage error, or --help,
        exits as argparse does."""
        parser = self._parser
        if parser is None:
            parser = self._parser = argparse.ArgumentParser(
                description=self.help, allow_abbrev=False)
            for flags, kwargs in self._arguments:
                parser.add_argument(*flags, **kwargs)
        parser.prog = f"{prog} {self.name}"
        if self._intermixed:
            return vars(parser.parse_intermixed_args(args))
        return vars(parser.parse_args(args))


class _Group:
    """The `mpgames` command line: its first argument names the command.
    `main` takes the arguments of click's `Command.main`, so that
    callers written for a click command (click's `CliRunner`, the
    benchmark) run it unchanged."""

    def __init__(self, name, summary):
        self.name = name
        self.help = summary
        self.commands = {}

    def command(self, *arguments, name=None):
        """Register the decorated function as a command, with one `_arg` per
        argument; the function itself is returned unchanged."""
        def register(callback):
            cname = name or callback.__name__
            self.commands[cname] = _Command(cname, callback, arguments)
            return callback

        return register

    def main(self, args=None, prog_name=None, standalone_mode=True):
        """Run the command `args` names (default: sys.argv) and exit with
        the code its body returns.  The one exit policy of every command: an
        exceeded iteration cap exits 3, and malformed input or a violated
        precondition (ValueError, KeyError) exits 1, each with one `error:`
        line.  `standalone_mode` is accepted for callers written for click;
        the process exits in either mode."""
        args = sys.argv[1:] if args is None else list(args)
        prog = prog_name or os.path.basename(sys.argv[0])
        command = self.commands.get(args[0]) if args else None
        if command is None:
            # --help exits 0, anything else is a usage error: exit 2
            self._top_parser(prog).parse_args(args[:1])
        kwargs = command.parse(prog, args[1:])
        try:
            # looked up per call, so that a wrapped callback is the one run
            code = command.callback(**kwargs)
        except BrokenPipeError:
            # the reader of stdout went away (`mpgames ... | head`): exit 1,
            # and send what is left to flush at exit nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            code = EXIT_INPUT
        except IterationCapExceeded as exc:
            _echo(f"error: {exc}", err=True)
            code = EXIT_CAP
        except (ValueError, KeyError) as exc:
            _echo(f"error: {exc}", err=True)
            code = EXIT_INPUT
        sys.exit(code)

    __call__ = main

    def _top_parser(self, prog):
        """The parser of the command name alone, for the top-level help and
        usage errors."""
        parser = argparse.ArgumentParser(prog=prog, description=self.help,
                                         allow_abbrev=False)
        names = parser.add_subparsers(title="commands", metavar="COMMAND",
                                      required=True)
        for cname, command in sorted(self.commands.items()):
            names.add_parser(cname, help=command.help.split(".")[0],
                             add_help=False)
        return parser


main = _Group("mpgames", "Solvers for stochastic mean-payoff and "
              "matrix-multiplicative games.")


# ---------------------------------------------------------------------------
# solve


def _solve_smpg(smpg, game, mode):
    if mode == "winner":
        from .dominion import winner
        from .iteration import Exhausted

        verdict = winner(game)
        exhausted = isinstance(verdict, Exhausted)
        return EXIT_EXHAUSTED if exhausted else EXIT_OK, {
            "result": "Exhausted" if exhausted else verdict.outcome,
            "iterations": verdict.iterations,
            "witness": [_frac_str(v) for v in verdict.witness],
        }
    # value, topclass and full read one solve_game: the top class, then
    # the constant value of the subgame it induces
    if mode == "value":
        sol = smpg.solve_constant_value(game)
        head = {
            "value": _frac_str(sol.value),
            "interval": _interval_record(sol.interval),
            "iterations": sol.iterations,
        }
        states = None
    else:
        sol = smpg.solve_game(game)
        if mode == "topclass":
            return EXIT_OK, {
                "top_class": sorted(sol.top_class),
                "oracle_calls": sol.oracle_calls,
            }
        head = {
            "top_class": sorted(sol.top_class),
            "top_value": _frac_str(sol.value),
            "interval": _interval_record(sol.interval),
        }
        states = _sub_states(smpg.KEYS, sol.subgame)
    return EXIT_OK, {
        **head,
        "oracle_calls": sol.oracle_calls,
        "min_strategy": sol.strategies.sigma,
        "max_strategy": sol.strategies.tau,
        "certificates": [
            _cert_record(sol.sub, states),
            _cert_record(sol.sup, states),
        ],
    }


def _sub_states(keys, game) -> dict:
    return {key: list(ids) for key, ids in zip(keys, game.ids)}


def _solve_entropy(ent, game, mode, budget):
    if mode == "winner":
        raise GameFormatError(
            "winner mode is not defined for matrix-multiplicative games"
        )
    sol = ent.solve_entropy_game(game, budget=budget)
    if mode == "value" and len(sol.blocks) > 1:
        raise ValueError(f"the game value is not constant: "
                         f"{len(sol.blocks)} value blocks")
    if mode == "topclass":
        return EXIT_OK, {
            "top_class": sorted(sol.blocks[0].d_ids),
            "iterations": sol.blocks[0].iterations,
        }
    report = {
        "values": {d: _interval_record(iv) for d, iv in sol.values.items()},
        "despot_strategy": sol.sigma,
        "tribune_strategy": sol.tau,
        "blocks": [sorted(b.d_ids) for b in sol.blocks],
        "iterations": sum(b.iterations for b in sol.blocks),
        "certificates": [
            _cert_record(c, _sub_states(ent.KEYS, b.subgame))
            for b in sol.blocks
            for c in (b.sub, b.sup)
        ],
    }
    return EXIT_OK, report


@main.command(
    _arg("input_path", metavar="GAME"),
    _arg("--mode", choices=["winner", "value", "topclass", "full"],
         default="full", help="what to solve for (default: %(default)s)"),
    _arg("--json", dest="as_json", action="store_true",
         help="machine-readable output"),
    _arg("--budget", type=int, default=10**6,
         help="strategy-pair budget; an entropy game with more pairs is "
              "refused (default: %(default)s)"),
)
def solve(input_path, mode, as_json, budget):
    """Solve a game file (winner / value / top class / full analysis)."""
    kind, mod, game = _load_game(input_path)
    if kind == "smpg":
        code, report = _solve_smpg(mod, game, mode)
    else:
        code, report = _solve_entropy(mod, game, mode, budget)
    _emit(report, as_json)
    return code


# ---------------------------------------------------------------------------
# certify


def _inside(rec, levels: RationalInterval) -> bool:
    """Whether the interval record `rec` of a report lies inside `levels`."""
    if not isinstance(rec, dict):
        raise GameFormatError(f"interval {rec!r} is not an object")
    lo, hi = _report_frac(_field(rec, "lo")), _report_frac(_field(rec, "hi"))
    return levels.lo <= lo <= hi <= levels.hi


def _report_ids(states, key):
    ids = json_list(_field(states, key), f'"{key}"')
    bad = state_ids_error(ids)
    if bad:
        raise GameFormatError(bad)
    return ids


def _cert_target(kind, mod, game, states):
    """The game, or the subgame named by a certificate record's "states";
    None when those states do not induce a stochastic subgame."""
    if states is None:
        return game
    if not isinstance(states, dict):
        raise GameFormatError(f'"states" {states!r} is not an object')
    if kind == "smpg":
        return mod.induced_subgame(game, state_indices(
            game.min_ids, _report_ids(states, mod.KEYS[0])))
    return mod.subgraph_on(game, *(_report_ids(states, k) for k in mod.KEYS))


_CERT_FAILED = "a certificate inequality does not hold"


def _strategy(report, key, from_ids, to_ids):
    """The report's positional strategy `key`, an object from state ids to
    state ids, as one index into `to_ids` per state of `from_ids`: None
    where it names none of them.  None when the report has no `key`."""
    if key not in report:
        return None
    strategy = report[key]
    if not isinstance(strategy, dict):
        raise GameFormatError(f'"{key}" {strategy!r} is not an object')
    index = {s: t for t, s in enumerate(to_ids)}
    # JSON object keys are strings, and a game's ids are all strings or all
    # integers, so str() names each state unambiguously
    named = (strategy.get(str(s)) for s in from_ids)
    return [index.get(v) if isinstance(v, (str, int))
            and not isinstance(v, bool) else None for v in named]


def _smpg_failure(smpg, report, target, sub, sup):
    """Why the stochastic pair (sub, sup) fails on `target`, or None: its
    certificates, and the strategies the report names, checked at them."""
    sigma = _strategy(report, "min_strategy", target.min_ids, target.max_ids)
    tau = _strategy(report, "max_strategy", target.max_ids, target.nat_ids)
    if smpg.check_certificates(target, (sub, sup), sigma, tau):
        return None
    # the failure path only: find which check failed
    if not smpg.check_certificates(target, (sub, sup)):
        return _CERT_FAILED
    if sigma is not None and not smpg.check_certificates(target, (sup,),
                                                         sigma=sigma):
        return "min_strategy fails at the super certificate"
    return "max_strategy fails at the sub certificate"


def _smpg_claims(report, pairs):
    ((target, levels),) = pairs
    if "top_class" in report and report["top_class"] != sorted(target.min_ids):
        return "top_class is not the set of states the certificates hold on"
    if "interval" in report and not _inside(report["interval"], levels):
        return "interval is not inside the certified levels"
    for key in ("value", "top_value"):
        if key in report and _report_frac(report[key]) != rational_in_interval(
            levels, target.stats().mu
        ):
            return (f"{key} is not the unique rational of denominator <= mu "
                    "between the certified levels")
    return None


def _entropy_claims(report, pairs):
    if "blocks" in report and report["blocks"] != [
        sorted(target.d_ids) for target, _ in pairs
    ]:
        return "blocks are not the Despot sets the certificates hold on"
    values = report.get("values", {})
    if not isinstance(values, dict):
        raise GameFormatError(f'"values" {values!r} is not an object')
    # JSON object keys are strings, and a game's ids are all strings or all
    # integers, so str() names each Despot unambiguously
    levels = {str(d): lv for target, lv in pairs for d in target.d_ids}
    for d, rec in values.items():
        if d not in levels or not _inside(rec, levels[d]):
            return f"the value of {d!r} is not inside its block's levels"
    return None


def _verify_report(kind, mod, game, report):
    """Why the report fails, or None: each (sub, super) certificate pair
    must hold exactly on the (sub)game its states name, a stochastic
    report's strategies must be optimal at those certificates, and the top
    class, blocks, values and intervals the report claims must follow from
    the levels of those pairs."""
    if not isinstance(report, dict):
        raise GameFormatError("a report must be a JSON object")
    records = json_list(report.get("certificates", []), '"certificates"')
    if not records:
        raise GameFormatError("report carries no certificates")
    if len(records) % 2:
        raise GameFormatError("certificates must come in (sub, super) pairs")
    if kind == "smpg" and len(records) != 2:
        # its strategies are checked at that one pair
        raise GameFormatError("a stochastic report has one certificate pair")
    pairs = []
    for sub_rec, sup_rec in zip(records[::2], records[1::2]):
        sub, sup = _cert_from_record(sub_rec), _cert_from_record(sup_rec)
        if ((sub.direction, sup.direction) != (SUB, SUPER)
                or sub_rec.get("states") != sup_rec.get("states")):
            raise GameFormatError(
                "certificates must come in (sub, super) pairs on one state set"
            )
        target = _cert_target(kind, mod, game, sub_rec.get("states"))
        if target is None:
            return _CERT_FAILED
        if kind == "smpg":
            failure = _smpg_failure(mod, report, target, sub, sup)
            if failure is not None:
                return failure
        elif not mod.check_entropy_certificates(target, (sub, sup)):
            return _CERT_FAILED
        pairs.append((target, RationalInterval(sub.lam, sup.lam)))
    if kind == "smpg":
        return _smpg_claims(report, pairs)
    return _entropy_claims(report, pairs)


@main.command(_arg("input_path", metavar="GAME"),
              _arg("cert_path", metavar="REPORT"))
def certify(input_path, cert_path):
    """Re-verify the certificates of a solve report against a game file, in
    exact arithmetic with zero tolerance, and check that the top class,
    blocks, values and intervals the report claims follow from them."""
    kind, mod, game = _load_game(input_path)
    failure = _verify_report(kind, mod, game, _read_json(cert_path))
    if failure is None:
        _echo("all certificates verified")
        return EXIT_OK
    _echo(f"certificate verification FAILED: {failure}", err=True)
    return EXIT_INPUT


# ---------------------------------------------------------------------------
# brute


@main.command(
    _arg("input_path", metavar="GAME"),
    _arg("--budget", type=int, default=10**6,
         help="strategy-pair budget; a game with more pairs is refused "
              "(default: %(default)s)"),
    _arg("--pairs", dest="pairs_path", metavar="PATH",
         help="write the per-pair value table as CSV"),
    _arg("--json", dest="as_json", action="store_true",
         help="machine-readable output"),
)
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
        import csv

        _write_out(pairs_path, lambda fh: csv.writer(fh).writerows(
            itertools.chain([header], rows)))
    _emit(report, as_json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# generators


@main.command(
    _arg("--kind", choices=["smpg", "entropy"], default="smpg",
         help="game kind (default: %(default)s)"),
    _arg("--seed", type=int, default=0,
         help="random seed (default: %(default)s)"),
    _arg("--out", metavar="PATH", help="write to file instead of stdout"),
    name="gen-random",
)
def gen_random(kind, seed, out):
    """Emit a random small game instance as JSON."""
    rng = random.Random(seed)
    mod = _kind_module(kind)
    if kind == "smpg":
        from .dominion import random_smpg

        obj = mod.game_to_json(random_smpg(rng))
    else:
        obj = mod.entropy_to_json(mod.random_entropy_game(rng))
    text = json.dumps(obj, indent=2)
    if out:
        _write_out(out, lambda fh: fh.write(text + "\n"))
    else:
        _echo(text)
    return EXIT_OK


@main.command(
    _arg("--n", type=int, required=True, help="length of the fast chain"),
    _arg("--w", type=int, required=True, help="matrix weight"),
    _arg("--out", metavar="PATH",
         help="write the game to this file, not into the metadata"),
    _arg("--flip", dest="flip_max", type=int, metavar="K",
         help="emit a horizon trace CSV up to this horizon"),
    _arg("--flip-out", metavar="PATH",
         help="trace CSV path (default: stdout)"),
    _arg("--json", dest="as_json", action="store_true",
         help="machine-readable output"),
    name="gen-cex",
)
def gen_cex(n, w, out, flip_max, flip_out, as_json):
    """Emit the two-branch slow-flip instance and its metadata."""
    from . import cex as cexmod
    from . import entropy as ent

    inst = cexmod.build_cex_game(n, w)
    obj = ent.entropy_to_json(inst.game)
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
            import csv

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
    kind, mod, game = _load_game(path)
    if kind == "smpg":
        steps = mod.solve_game(game).oracle_calls
        n = len(game.min_ids)
    else:
        sol = mod.solve_entropy_game(game, budget=budget)
        steps = sum(b.iterations for b in sol.blocks)
        n = len(game.d_ids)
    return {
        "path": path,
        "kind": kind,
        "states": n,
        "steps": steps,
        "seconds": round(time.perf_counter() - start, 6),
    }


@main.command(
    _arg("inputs", nargs="+", metavar="GAME"),
    _arg("--budget", type=int, default=10**6,
         help="strategy-pair budget of an entropy game "
              "(default: %(default)s)"),
    _arg("--trace", metavar="PATH",
         help="write a CSV trace instead of plain text"),
)
def bench(inputs, budget, trace):
    """Time the solver on one or more game files, one after another."""
    # import every module a row may run first, each kind's fallback module
    # too, so that no row's time includes compiling one
    for module in ("stochastic", "dominion", "entropy", "perron"):
        import_module(f".{module}", __package__)
    rows = [_bench_one(path, budget) for path in inputs]
    if trace:
        import csv

        _write_out(trace, lambda fh: csv.writer(fh).writerows(
            [list(rows[0]), *(row.values() for row in rows)]))
    else:
        for row in rows:
            _echo(
                f"{row['path']}: kind={row['kind']} states={row['states']} "
                f"steps={row['steps']} seconds={row['seconds']}"
            )
    return EXIT_OK


if __name__ == "__main__":
    main()
