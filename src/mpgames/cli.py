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
solver, nor an entropy file the stochastic one.  This module holds the
`solve` and `certify` bodies and declares every command's arguments; the
bodies of `brute`, `gen-random`, `gen-cex` and `bench`, with `csv` and
`random`, are in `_tools`, which a deferred command (`_Group.deferred`)
imports on its first lookup.  The reference and fallback modules of a
kind load only with the commands that run them: `dominion` (with
`iteration` and `oracle`) for `--mode winner`, `brute` and `gen-random` of
a stochastic game, `perron` for `brute` and `gen-random` of an entropy
game, and either when a solve falls back to it.

A `--json` report is printed as json.dumps(report, indent=2,
sort_keys=True) prints it, byte for byte, by a writer of its own
(`_json_text`): `indent` makes json.dumps fall back to its pure-Python
encoder, two to four times the cost of the C one, and the compact C output
would change every report's bytes.  Rationals cross the report boundary
on integers: `_ratio_str` writes p/q in lowest terms, `_dec_str` scales
the numerator, and `_report_ratio` reads a "p/q" or "p" of ASCII digits
with int() to (p, q) as written; any other string goes through Fraction
(and, past the interpreter's int/str digit limit, Decimal), so it reads to
the same value or fails with the same error.  `certify` reads either
kind's certificates into the solvers' own `numeric.Certificate`s
(`_cert_from_record`), checks them with the solver's own check, and
compares the claimed intervals and values with the certified levels by
cross-multiplication.  An entropy pair's states must be the subgame its
Despots induce in what the pairs before it leave of the game, the pairs
must cover every Despot, and no pair's levels may lie above those of the
pair before it, so the pairs peel the game from the top value down.  A
stochastic pair's Max and Nature states must be the subgame its Min
states induce.  An interval record's `approx`, when present, must be the
enclosure `_interval_record` writes for its ends, and a certificate's
"multiplicative" a JSON boolean.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from importlib import import_module
from json.encoder import encode_basestring_ascii

from .graphs import GameFormatError, json_list, state_ids_error, state_indices
from .numeric import (
    NEG_INF,
    NOT_FOUND,
    NOT_UNIQUE,
    SUB,
    SUPER,
    Certificate,
    IterationCapExceeded,
    rational_between,
)

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


def _rational_digits(text):
    """(numerator, denominator) digit strings of a "p/q" or "p" string, the
    form `_frac_str` writes (p may carry a "-"; a bare p has denominator
    "1"); None for any other string."""
    num, slash, den = text.partition("/")
    if num.removeprefix("-").isdecimal() and (den.isdecimal() or not slash):
        return num, den if slash else "1"
    return None


def _report_ratio(value):
    """A rational written in a report, a "p/q" string or an integer of any
    size, as integers (p, q) with q > 0, not reduced."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise GameFormatError(f"{value!r} is not a rational")
    # ASCII digits are read by int(), as written; any other string, and any
    # that int() refuses, takes Fraction's path, to Fraction's value or
    # error
    digits = (_rational_digits(value)
              if isinstance(value, str) and value.isascii() else None)
    if digits is not None:
        try:
            p, q = int(digits[0]), int(digits[1])
        except ValueError:
            pass
        else:
            if q:
                return p, q
    try:
        value = Fraction(value)
    except ZeroDivisionError as exc:
        raise GameFormatError(f"{value!r} is not a rational") from exc
    except ValueError:
        # past the interpreter's int/str digit limit: digits as `_frac_str`
        # writes them are read through Decimal; anything else keeps
        # Fraction's error
        digits = _rational_digits(value)
        if digits is None:
            raise
        from decimal import Decimal

        p, q = (int(Decimal(x)) for x in digits)
        if not q:
            raise GameFormatError(f"{value!r} is not a rational") from None
        return p, q
    return value.numerator, value.denominator


# game kind (a game file's "type") -> its module and that module's reader
_KINDS = {"smpg": ("stochastic", "parse_smpg"),
          "entropy": ("entropy", "parse_entropy")}


def _kind_module(kind):
    """The module of game kind `kind`, imported on first use."""
    return import_module(f".{_KINDS[kind][0]}", __package__)


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
    """(kind, the kind's module, the game) of a game file."""
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


def _field(record, key):
    """record[key]; a missing key is a GameFormatError worded as the game
    reader words it."""
    try:
        return record[key]
    except KeyError as exc:
        raise GameFormatError(f"missing key {exc}") from exc


def _cert_from_record(rec) -> Certificate:
    """A certificate record of either game kind as a Certificate: lam and
    each entry of vec read by `_report_ratio`, as written, and the vector
    put over the lcm of its finite entries' denominators; an "-inf" entry
    stays NEG_INF.
    "multiplicative" must be a JSON boolean; absent, it is false."""
    if not isinstance(rec, dict):
        raise GameFormatError(f"certificate record {rec!r} is not an object")
    p, q = _report_ratio(_field(rec, "lam"))
    vec = [NEG_INF if v == "-inf" else _report_ratio(v)
           for v in json_list(_field(rec, "vec"), '"vec"')]
    direction = _field(rec, "direction")
    multiplicative = rec.get("multiplicative", False)
    if not isinstance(multiplicative, bool):
        raise GameFormatError(
            f'"multiplicative" {multiplicative!r} is not a boolean')
    den = math.lcm(*(v[1] for v in vec if v is not NEG_INF))
    return Certificate(p, q, [v if v is NEG_INF else v[0] * (den // v[1])
                              for v in vec], den, direction, multiplicative)


_DECIMALS = 10**12  # an approx string's decimal places, as a scale


def _dec_str(num: int, den: int, up: bool) -> str:
    """num/den (den > 0) to 12 decimals, rounded up (toward +inf) or
    down."""
    whole = num * _DECIMALS
    whole = -(-whole // den) if up else whole // den
    if whole < 0:
        units, frac = divmod(-whole, _DECIMALS)
        return f"-{units}.{frac:012d}"
    units, frac = divmod(whole, _DECIMALS)
    return f"{units}.{frac:012d}"


def _approx_text(lo, hi) -> str:
    """The decimal enclosure of [lo, hi], each end (p, q) with q > 0: lo
    rounded down, hi up."""
    return f"[{_dec_str(*lo, up=False)}, {_dec_str(*hi, up=True)}]"


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
    per declared argument, and the parser of its arguments, built on first
    use.  The parser holds no stream: argparse writes its usage errors and
    help to sys.stderr and sys.stdout as they are when it writes.  A
    deferred command (`_Group.deferred`) has no callback until the first
    lookup, which imports its body from `_tools`."""

    def __init__(self, name, callback, arguments):
        self.name = name
        if callback is not None:
            self.callback = callback
        self._arguments = arguments
        # a variadic positional may be split by options, as in
        # `bench a.json --budget 5 b.json`
        self._intermixed = any(kw.get("nargs") == "+" for _, kw in arguments)
        self._parser = None

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


def _interval_ends(rec):
    """(lo, hi) of an interval record of a report, each (p, q) with
    q > 0."""
    if not isinstance(rec, dict):
        raise GameFormatError(f"interval {rec!r} is not an object")
    return _report_ratio(_field(rec, "lo")), _report_ratio(_field(rec, "hi"))


def _inside(ends, lo, hi) -> bool:
    """Whether the interval ends (a, b) lie inside [lo, hi]: lo <= a <= b <=
    hi, all (p, q) with q > 0, by cross-multiplication."""
    (lp, lq), (ap, aq), (bp, bq), (hp, hq) = lo, *ends, hi
    return lp * aq <= ap * lq and ap * bq <= bp * aq and bp * hq <= hp * bq


def _approx_holds(rec, ends) -> bool:
    """Whether the interval record's "approx", when it has one, is the
    enclosure `_interval_record` writes for its ends."""
    if "approx" not in rec:
        return True
    try:
        return rec["approx"] == _approx_text(*ends)
    except ValueError:
        # an end past the int/str digit limit, which no report prints
        return False


def _report_ids(states, key):
    ids = json_list(_field(states, key), f'"{key}"')
    bad = state_ids_error(ids)
    if bad:
        raise GameFormatError(bad)
    return ids


def _cert_target(kind, mod, game, residual, states):
    """The (sub)game a certificate pair holds on: `residual` when its
    records name no "states", else the subgame their Min states, or
    Despots, induce.  Min states induce it in `game`; an entropy pair's
    Despots D induce it in `residual`, what the pairs before it leave of
    `game` (`remove_block`).  The other two state sets its records name
    must be that subgame's.  None when the states induce no subgame there,
    or name other states."""
    if states is None:
        return residual
    if not isinstance(states, dict):
        raise GameFormatError(f'"states" {states!r} is not an object')
    named = [_report_ids(states, key) for key in mod.KEYS]
    target = None
    if kind == "smpg":
        target = mod.induced_subgame(game, state_indices(game.min_ids,
                                                         named[0]))
    elif residual is not None:
        try:
            dmax = state_indices(residual.d_ids, named[0])
        except GameFormatError:
            pass  # a Despot no longer in play, or unknown
        else:
            target = mod.induced_entropy_subgame(residual, dmax)
    if target is None or any(set(chosen) != set(ids)
                             for chosen, ids in zip(named, target.ids)):
        for ids, chosen in zip(game.ids, named):
            state_indices(ids, chosen)  # an unknown id is malformed input
        return None
    return target


_CERT_FAILED = "a certificate inequality does not hold"
_STATES_FAILED = "a certificate pair's states do not name an induced subgame"


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
    """Why the stochastic pair (sub, sup) of Certificates fails on
    `target`, or None: its certificates, and the strategies the report
    names, checked at them."""
    sigma = _strategy(report, "min_strategy", target.min_ids, target.max_ids)
    tau = _strategy(report, "max_strategy", target.max_ids, target.nat_ids)
    if smpg.certificates_hold(target, (sub, sup), sigma, tau):
        return None
    # the failure path only: find which check failed
    if not smpg.certificates_hold(target, (sub, sup)):
        return _CERT_FAILED
    if sigma is not None and not smpg.certificates_hold(target, (sup,),
                                                        sigma=sigma):
        return "min_strategy fails at the super certificate"
    return "max_strategy fails at the sub certificate"


def _smpg_claims(report, pairs):
    ((target, lo, hi),) = pairs
    if "top_class" in report and report["top_class"] != sorted(target.min_ids):
        return "top_class is not the set of states the certificates hold on"
    ends = None
    if "interval" in report:
        ends = _interval_ends(report["interval"])
        if not _inside(ends, lo, hi):
            return "interval is not inside the certified levels"
    value = None
    for key in ("value", "top_value"):
        if key not in report:
            continue
        p, q = _report_ratio(report[key])
        if value is None:
            value = rational_between(lo, hi, target.stats().mu)
        if (value is NOT_FOUND or value is NOT_UNIQUE
                or p * value[1] != value[0] * q):
            return (f"{key} is not the unique rational of denominator <= mu "
                    "between the certified levels")
    if ends is not None and not _approx_holds(report["interval"], ends):
        return "interval approx is not the decimal enclosure of lo and hi"
    return None


def _entropy_claims(game, report, pairs):
    # the pairs must peel the whole game from the top value down: a pair's
    # super level bounds its block's value only when every block its People
    # feed comes after it at levels no higher, and its sub level only when
    # every block its Despots can escape to comes before it at levels no
    # lower
    if sum(len(target.d_ids) for target, _, _ in pairs) != len(game.d_ids):
        return "the certificate pairs do not cover every Despot"
    for (_, (ap, aq), (bp, bq)), (_, (cp, cq), (dp, dq)) in zip(pairs,
                                                                pairs[1:]):
        if cp * aq > ap * cq or dp * bq > bp * dq:
            return "a certificate pair's levels lie above the pair's before it"
    if "blocks" in report and report["blocks"] != [
        sorted(target.d_ids) for target, _, _ in pairs
    ]:
        return "blocks are not the Despot sets the certificates hold on"
    values = report.get("values", {})
    if not isinstance(values, dict):
        raise GameFormatError(f'"values" {values!r} is not an object')
    # JSON object keys are strings, and a game's ids are all strings or all
    # integers, so str() names each Despot unambiguously
    levels = {str(d): (lo, hi) for target, lo, hi in pairs
              for d in target.d_ids}
    read = []
    for d, rec in values.items():
        if d not in levels:
            return f"the value of {d!r} is not inside its block's levels"
        ends = _interval_ends(rec)
        if not _inside(ends, *levels[d]):
            return f"the value of {d!r} is not inside its block's levels"
        read.append((d, rec, ends))
    for d, rec, ends in read:
        if not _approx_holds(rec, ends):
            return (f"the approx of {d!r} is not the decimal enclosure of "
                    "its lo and hi")
    return None


def _verify_report(kind, mod, game, report):
    """Why the report fails, or None: each (sub, super) certificate pair
    must hold exactly on the (sub)game its states name, a stochastic
    report's strategies must be optimal at those certificates, and the top
    class, blocks, values and intervals the report claims must follow from
    the levels of those pairs, each interval's decimal `approx` from its
    ends.  An entropy report's pairs must cover the game, their levels
    never rising from one pair to the next.  Either kind's report is read
    and checked on integers."""
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
    residual = game  # what the pairs checked so far leave of the game
    for sub_rec, sup_rec in zip(records[::2], records[1::2]):
        sub, sup = _cert_from_record(sub_rec), _cert_from_record(sup_rec)
        if ((sub.direction, sup.direction) != (SUB, SUPER)
                or sub_rec.get("states") != sup_rec.get("states")):
            raise GameFormatError(
                "certificates must come in (sub, super) pairs on one state set"
            )
        if pairs and residual is not None:
            # the solver's peel: a malformed residual holds no later pair
            try:
                residual = mod.remove_block(residual, state_indices(
                    residual.d_ids, pairs[-1][0].d_ids))
            except RuntimeError:
                residual = None
        target = _cert_target(kind, mod, game, residual,
                              sub_rec.get("states"))
        if target is None:
            return _STATES_FAILED
        if kind == "smpg":
            failure = _smpg_failure(mod, report, target, sub, sup)
            if failure is not None:
                return failure
        elif not mod.check_entropy_certificates(target, (sub, sup)):
            return _CERT_FAILED
        pairs.append((target, sub[:2], sup[:2]))
    if kind == "smpg":
        return _smpg_claims(report, pairs)
    return _entropy_claims(game, report, pairs)


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
    main()
