"""Command-line interface.

Exit codes: 0 success, 1 malformed input (a missing or unreadable file
included), an unwritable output path, a strategy-pair count over
`--budget` or another violated precondition, 2 winner iteration budget
exhausted without a verdict or a usage error, 3 iteration cap exceeded (a
`gen-cex` pair with no flip within 10^4 horizons included).  Each command
body returns its exit code and raises on error; `_Group.main` holds the
one exit policy that maps both to the process exit.

Arguments are read without a third-party module.  `_Command._scan` reads
a command line of positionals that do not start with "-" and declared
options spelled in full, each option's value a next token that does not
start with "-" and passes its `type` and `choices`: argparse reads those
the same way.  The standard library's argparse, run from `_tools`, reads
every other command line and `bench`'s, and prints help and usage errors,
so these are argparse's byte for byte; a `solve` or `certify` as the
benchmark writes them imports neither argparse nor `_tools`.

Each command imports the game-kind modules it needs when it runs: the
checker of the file's "type" (`_load_game`), which reads the file, with
the kind's solver for `solve`; the kind of `--kind` (`gen-random`); or
`cex` (`gen-cex`).  Most games are certified within the first oracle call,
so one command's time is mostly interpreter start-up, much of it compiling
the imported source: a stochastic file never loads the entropy modules,
nor an entropy file the stochastic ones, and `certify` loads only the
kind's checker (`smpgcheck` or `entropycheck`) and calls its one report
check, `verify_report`.  This module holds the `solve` and `certify`
bodies and declares every command's arguments; the bodies of `brute`,
`gen-random`, `gen-cex` and `bench` are in `_tools`, which a deferred
command (`_Group.deferred`) imports on its first lookup.  A kind's
reference modules load only with the commands, or the stochastic fallback,
that run them: `dominion` (with `iteration` and `oracle`) or `perron`.

A `--json` report is printed as json.dumps(report, indent=2,
sort_keys=True) prints it, byte for byte, by a writer of its own
(`_json_text`): `indent` makes json.dumps fall back to its pure-Python
encoder, two to four times the cost of the C one, and the compact C output
would change every report's bytes.  Rationals cross the report boundary
on integers: `_ratio_str` writes p/q in lowest terms, `numeric._dec_str`
scales the numerator, and `numeric._report_ratio` reads a "p/q" or "p" of
ASCII digits with int() to (p, q) as written; any other string goes
through Fraction (and, past the interpreter's int/str digit limit,
Decimal), so it reads to the same value or fails with the same error.
`certify` reads either kind's certificates into the solvers' own
`numeric.Certificate`s (`numeric._cert_from_record`), checks them with the
check the solver accepts its answers with, and compares the claimed
intervals and values with the certified levels by cross-multiplication.
An entropy pair's states must be the subgame its Despots induce in what
the pairs before it leave of the game, the pairs must cover every Despot,
and no pair's levels may lie above those of the pair before it, so the
pairs peel the game from the top value down.  A stochastic pair's Max and
Nature states must be the subgame its Min states induce, and a strategy
in the report must name exactly that subgame's Min (or Max) states.  An
interval record's `approx`, when present, must be the enclosure
`_ends_record` writes for its ends, and a certificate's "multiplicative" a
JSON boolean.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from importlib import import_module
from json.encoder import encode_basestring_ascii

from .graphs import GameFormatError
from .numeric import NEG_INF, Certificate, IterationCapExceeded, _approx_text

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_EXHAUSTED = 2
EXIT_CAP = 3


def _frac_str(v) -> str:
    if v is NEG_INF:
        return "-inf"
    if not isinstance(v, (int, Fraction)):
        v = Fraction(v)
    # an int has a numerator and a denominator too: neither is copied
    return _ratio_str(v.numerator, v.denominator)


def _ratio_str(p: int, q: int) -> str:
    """p/q, q > 0, in lowest terms: the string `_frac_str` writes for
    Fraction(p, q)."""
    g = math.gcd(p, q)
    if g != 1:
        p, q = p // g, q // g
    try:
        return f"{p}/{q}"
    except ValueError:
        # past the interpreter's int/str digit limit, which Decimal's own
        # conversion does not have
        from decimal import Decimal

        return "/".join(format(Decimal(x), "f") for x in (p, q))


# game kind (a file's "type") -> its checker, the checker's reader, solver
_KINDS = {"smpg": ("smpgcheck", "parse_smpg", "stochastic"),
          "entropy": ("entropycheck", "parse_entropy", "entropy")}


def _kind_module(kind, solver=False):
    """The checker, or the solver, of game kind `kind`, imported once."""
    return import_module(f".{_KINDS[kind][2 if solver else 0]}", __package__)


def _read_json(path):
    """The JSON value in file `path`.  A file that cannot be opened, decoded
    or parsed, or that nests too deep for the parser, is malformed input:
    "cannot read" and the reason."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise GameFormatError(f"cannot read {path}: {exc}") from exc


def _load_game(path):
    """(kind, the kind's checker, the game) of a game file."""
    obj = _read_json(path)
    kind = obj.get("type") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in _KINDS:
        raise GameFormatError(f'unsupported or missing "type" in {path}')
    mod = _kind_module(kind)
    return kind, mod, getattr(mod, _KINDS[kind][1])(obj)


def _cert_record(cert: Certificate, states=None) -> dict:
    """The record of a solver's certificate: its level p/q and each entry
    u_j/L of its vector in lowest terms."""
    den = cert.L
    rec = {
        "lam": _ratio_str(cert.p, cert.q),
        "vec": [_ratio_str(v, den) for v in cert.u],
        "direction": cert.direction,
        "multiplicative": cert.multiplicative,
    }
    if states is not None:
        rec["states"] = states
    return rec


def _interval_record(iv) -> dict:
    """The record of a RationalInterval."""
    return _ends_record(*((v.numerator, v.denominator)
                          for v in (iv.lo, iv.hi)))


def _ends_record(lo, hi) -> dict:
    """The record of the interval [lo, hi], each end (p, q) with q > 0:
    both ends in lowest terms, and their decimal enclosure."""
    return {
        "lo": _ratio_str(*lo),
        "hi": _ratio_str(*hi),
        "approx": _approx_text(lo, hi),
    }


def _echo(message, err=False):
    """One line to the current sys.stdout or sys.stderr, flushed, so that
    the two streams interleave in the order they were written."""
    print(message, file=sys.stderr if err else sys.stdout, flush=True)


_JSON_CONSTANTS = {None: "null", False: "false", True: "true"}


def _json_key(key) -> str:
    """A dict key as json.dumps writes it: quoted, an int, float, bool or
    None written as its JSON value first."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:
        return encode_basestring_ascii(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def _json_text(value, newline="\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, written
    without the pure-Python encoder that `indent` selects: strings through
    the C escaper, containers joined here, floats by json.dumps.  `newline`
    is the line break and indentation of the line `value` starts on."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # sorted as sort_keys sorts: int ids numerically, before quoting
        return "{" + inner + ("," + inner).join([
            f"{_json_key(k)}: {_json_text(v, inner)}"
            for k, v in sorted(value.items())]) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([
            _json_text(v, inner) for v in value]) + newline + "]"
    if value is None or isinstance(value, bool):
        return _JSON_CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    return json.dumps(value)


def _emit(report: dict, as_json: bool):
    if as_json:
        _echo(_json_text(report))
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
    per declared argument, and the reading of its arguments.  `_scan`
    reads a command line of positionals that do not start with "-" and
    declared options spelled in full, each option's value the next token,
    which does not start with "-" and passes the option's `type` and
    `choices`, with every positional and required option there: argparse
    reads it the same way.  `_tools.parse_args` reads every other command
    line with argparse, which prints help and usage errors.  A deferred
    command (`_Group.deferred`) has no callback until the first lookup,
    which imports its body from `_tools`."""

    def __init__(self, name, callback, arguments):
        self.name = name
        if callback is not None:
            self.callback = callback
        self._arguments = arguments
        # a variadic positional may be split by options, as in
        # `bench a.json --budget 5 b.json`: argparse reads it
        self._intermixed = any(kw.get("nargs") == "+" for _, kw in arguments)
        # what `_scan` reads: the dests of the positionals, in order, each
        # option's dest and declaration, and the defaults argparse gives
        # options that are not required
        self._positionals = [f for (f,), _ in arguments if f[0] != "-"]
        self._options = {f: (kw.get("dest", f[2:].replace("-", "_")), kw)
                         for (f,), kw in arguments if f[0] == "-"}
        self._defaults = {
            dest: kw.get("default",
                         False if kw.get("action") == "store_true" else None)
            for dest, kw in self._options.values() if not kw.get("required")}

    def __getattr__(self, attr):
        # called only for a missing attribute: a deferred command's body
        if attr != "callback":
            raise AttributeError(attr)
        self.callback = getattr(import_module("._tools", __package__),
                                self.name.replace("-", "_"))
        return self.callback

    @property
    def help(self) -> str:
        return self.callback.__doc__

    def parse(self, prog, args) -> dict:
        """The keyword arguments of the callback; a usage error, or --help,
        exits as argparse does."""
        kwargs = None if self._intermixed else self._scan(args)
        if kwargs is None:
            kwargs = import_module("._tools", __package__).parse_args(
                self, prog, args)
        return kwargs

    def _scan(self, args):
        """The keyword arguments argparse reads from `args`, for a command
        line of the form the class docstring names; else None."""
        kwargs, positionals = dict(self._defaults), []
        tokens = iter(args)
        for token in tokens:
            if token[:1] != "-":
                positionals.append(token)
                continue
            if token not in self._options:
                return None
            dest, kw = self._options[token]
            if kw.get("action") == "store_true":
                kwargs[dest] = True
                continue
            value = next(tokens, "-")
            if value[:1] == "-":
                return None
            try:
                value = kw.get("type", str)(value)
            except ValueError:
                return None
            if value not in kw.get("choices", [value]):
                return None
            kwargs[dest] = value
        # a missing required option leaves its dest out of kwargs
        if (len(positionals) != len(self._positionals)
                or len(kwargs) != len(self._options)):
            return None
        kwargs.update(zip(self._positionals, positionals))
        return kwargs


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

    def deferred(self, name, *arguments):
        """Register the command `name`, with one `_arg` per argument, whose
        body is the function of that name, dashes as underscores, in
        `_tools`."""
        self.commands[name] = _Command(name, None, arguments)

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
            import_module("._tools", __package__).exit_usage(self, prog, args)
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


main = _Group("mpgames", "Solvers for stochastic mean-payoff and "
              "matrix-multiplicative games.")


# ---------------------------------------------------------------------------
# solve


def _solve_smpg(smpg, keys, game, mode):
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
            "interval": _ends_record(sol.sub[:2], sol.sup[:2]),
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
            "interval": _ends_record(sol.sub[:2], sol.sup[:2]),
        }
        states = _sub_states(keys, sol.subgame)
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


def _solve_entropy(ent, keys, game, mode, budget):
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
        # one interval record per block, shared by its Despots
        "values": {d: rec for b in sol.blocks
                   for rec in [_interval_record(b.interval)] for d in b.d_ids},
        "despot_strategy": sol.sigma,
        "tribune_strategy": sol.tau,
        "blocks": [sorted(b.d_ids) for b in sol.blocks],
        "iterations": sum(b.iterations for b in sol.blocks),
        "certificates": [
            _cert_record(c, _sub_states(keys, b.subgame))
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
              "refused before solving (default: %(default)s)"),
)
def solve(input_path, mode, as_json, budget):
    """Solve a game file (winner / value / top class / full analysis)."""
    kind, check, game = _load_game(input_path)
    solver = _kind_module(kind, solver=True)
    if kind == "smpg":
        code, report = _solve_smpg(solver, check.KEYS, game, mode)
    else:
        code, report = _solve_entropy(solver, check.KEYS, game, mode, budget)
    _emit(report, as_json)
    return code


# ---------------------------------------------------------------------------
# certify


@main.command(_arg("input_path", metavar="GAME"),
              _arg("cert_path", metavar="REPORT"))
def certify(input_path, cert_path):
    """Re-verify the certificates of a solve report against a game file, in
    exact arithmetic with zero tolerance, and check that the top class,
    blocks, values and intervals the report claims follow from them: the
    one report check of the game kind's checker."""
    _, check, game = _load_game(input_path)
    failure = check.verify_report(game, _read_json(cert_path))
    if failure is None:
        _echo("all certificates verified")
        return EXIT_OK
    _echo(f"certificate verification FAILED: {failure}", err=True)
    return EXIT_INPUT


# ---------------------------------------------------------------------------
# brute, generators and bench: their bodies are in `_tools`


main.deferred(
    "brute",
    _arg("input_path", metavar="GAME"),
    _arg("--budget", type=int, default=10**6,
         help="strategy-pair budget; a game with more pairs is refused "
              "(default: %(default)s)"),
    _arg("--pairs", dest="pairs_path", metavar="PATH",
         help="write the per-pair value table as CSV"),
    _arg("--json", dest="as_json", action="store_true",
         help="machine-readable output"),
)
main.deferred(
    "gen-random",
    _arg("--kind", choices=["smpg", "entropy"], default="smpg",
         help="game kind (default: %(default)s)"),
    _arg("--seed", type=int, default=0,
         help="random seed (default: %(default)s)"),
    _arg("--out", metavar="PATH", help="write to file instead of stdout"),
)
main.deferred(
    "gen-cex",
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
)
main.deferred(
    "bench",
    _arg("inputs", nargs="+", metavar="GAME"),
    _arg("--budget", type=int, default=10**6,
         help="strategy-pair budget of an entropy game "
              "(default: %(default)s)"),
    _arg("--trace", metavar="PATH",
         help="write a CSV trace instead of plain text"),
)


if __name__ == "__main__":
    main(prog_name="python -m mpgames.cli")
