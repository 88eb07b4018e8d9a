"""End-to-end command-line interface coverage."""

import ast
import contextlib
import copy
import csv
import gc
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
import textwrap
import weakref
from fractions import Fraction
from functools import partial

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import mpgames as mg
from mpgames import cli
from mpgames import entropy as ent
from mpgames.cli import main

from conftest import (
    DEFECT_GAMES,
    absorbing_game,
    cycle_game,
    defect_game,
    entropy_shared_tribune,
    entropy_tribune_choice,
    nature_half_game,
    peel_game,
    swap_shift_game,
)

F = Fraction


def report_frac(text):
    """A report rational as the CLI reads it, as a Fraction."""
    return F(*cli._report_ratio(text))


@pytest.fixture
def runner():
    return CliRunner()


def write_game(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(args):
    """(exit code, stdout, stderr) of `mpgames <args>`, run in-process as
    the console script runs it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main.main(args=list(args), prog_name="mpgames")
    return exc.value.code, out.getvalue(), err.getvalue()


# run before a script in a fresh interpreter: imports the CLI and defines
# `run`, which runs one command in-process and returns its output, and
# `solve_and_certify`
FRESH_PRELUDE = """\
import contextlib, io, json, sys
from mpgames.cli import main

def run(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            main.main(args=list(args), prog_name="mpgames")
        except SystemExit as exc:
            assert not exc.code, (args, exc.code)
    return out.getvalue()

def solve_and_certify(game):
    report = game + ".report.json"
    with open(report, "w") as fh:
        fh.write(run("solve", game, "--mode", "full", "--json"))
    assert "verified" in run("certify", game, report)

"""


def fresh_env():
    """The environment of a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(mg.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def fresh_modules(script, *args):
    """The names of the modules loaded once `script`, after FRESH_PRELUDE,
    has run in a fresh interpreter with `args` as its arguments."""
    script = (FRESH_PRELUDE + textwrap.dedent(script)
              + "\nprint(json.dumps(sorted(sys.modules)))\n")
    res = subprocess.run([sys.executable, "-c", script, *args],
                         capture_output=True, text=True, env=fresh_env(),
                         timeout=120)
    assert res.returncode == 0, res.stderr
    return set(json.loads(res.stdout.splitlines()[-1]))


# malformed variants of the cycle_game / entropy_tribune_choice files


def list_state(obj):
    obj["min_states"] = [["m0"]]


def list_endpoint(obj):
    obj["edges"][0]["from"] = ["m0"]


def bool_id(obj):
    obj["min_states"] = [True]
    for edge in obj["edges"]:
        for end in ("from", "to"):
            if edge[end] == "m0":
                edge[end] = True


def mixed_ids(obj):
    obj["max_states"] = [0]
    for edge in obj["edges"]:
        for end in ("from", "to"):
            if edge[end] == "x0":
                edge[end] = 0


def duplicate_edge(obj):
    obj["edges"].append(dict(obj["edges"][0]))


def entropy_list_state(obj):
    obj["d_states"] = [["d0"]]


def entropy_dict_endpoint(obj):
    obj["edges"][0]["to"] = {"t0": 0}


def set_field(path, value, obj):
    """Set the field of obj at path (keys and list indices) to value."""
    *where, key = path
    for step in where:
        obj = obj[step]
    obj[key] = value


def drop_key(key, obj):
    del obj[key]


def forged(path, value):
    """A report edit: set the field at path to value."""
    def forge(report):
        set_field(path, value, report)
        return report
    return forge


# Min picks x0, where Max picks B = 3 over B = 1, or x1 with B = 2: the
# value is 2, with Min at x1 and Max at n1 from x0
CHOICE_GAME = {
    "type": "smpg", "denominator": 1, "min_states": ["m0"],
    "max_states": ["x0", "x1"], "nat_states": ["n0", "n1"],
    "edges": [
        {"from": "m0", "to": "x0", "a": 0}, {"from": "m0", "to": "x1", "a": 0},
        {"from": "x0", "to": "n0", "b": 1}, {"from": "x0", "to": "n1", "b": 3},
        {"from": "x1", "to": "n0", "b": 2},
        {"from": "n0", "to": "m0"}, {"from": "n1", "to": "m0"},
    ],
}
_CHOICE_STATES = {"min_states": ["m0"], "max_states": ["x0", "x1"],
                  "nat_states": ["n0", "n1"]}
CHOICE_REPORT = {
    "certificates": [
        {"direction": direction, "lam": "2/1", "multiplicative": False,
         "states": _CHOICE_STATES, "vec": ["0/1"]}
        for direction in ("sub", "super")
    ],
    "interval": {"approx": "[2.000000000000, 2.000000000000]",
                 "hi": "2/1", "lo": "2/1"},
    "max_strategy": {"x0": "n1", "x1": "n0"},
    "min_strategy": {"m0": "x1"},
    "oracle_calls": 1,
    "top_class": ["m0"],
    "top_value": "2/1",
}
# Min states m0 and m1 both move to x0, whose only Nature state returns to
# m0: F(x) = (1 + x_m0, 1 + x_m0) stays finite when x_m1 = -inf
NEG_INF_GAME = {
    "type": "smpg", "denominator": 1, "min_states": ["m0", "m1"],
    "max_states": ["x0"], "nat_states": ["n0"],
    "edges": [
        {"from": "m0", "to": "x0", "a": 0}, {"from": "m1", "to": "x0", "a": 0},
        {"from": "x0", "to": "n0", "b": 1}, {"from": "n0", "to": "m0"},
    ],
}


@pytest.fixture
def smpg_file(tmp_path):
    return write_game(tmp_path, "g.json", mg.game_to_json(nature_half_game()))


@pytest.fixture
def entropy_file(tmp_path):
    return write_game(
        tmp_path, "e.json", mg.entropy_to_json(entropy_tribune_choice())
    )


class TestSolve:
    def test_winner_mode(self, runner, tmp_path):
        path = write_game(tmp_path, "g.json",
                          mg.game_to_json(cycle_game(a=0, b=2)))
        res = runner.invoke(main, ["solve", path, "--mode", "winner"])
        assert res.exit_code == 0
        assert "MaxWinsAll" in res.output

    def test_winner_exhausted_exit_code(self, runner, tmp_path):
        g = mg.make_game(
            ["m0", "m1"], ["x0", "x1"], ["n0", "n1"],
            [[(0, 0)], [(1, 0)]],
            [[(0, 5)], [(1, -5)]],
            [[(0, 1)], [(1, 1)]],
            1,
        )
        path = write_game(tmp_path, "g.json", mg.game_to_json(g))
        res = runner.invoke(main, ["solve", path, "--mode", "winner"])
        assert res.exit_code == 2
        assert "Exhausted" in res.output

    def test_winner_report_of_any_size(self, runner, smpg_file, monkeypatch):
        """An Exhausted verdict whose witness is longer than the
        interpreter's int/str digit limit allows is still printed, with
        exit 2, and reads back exactly: `winner` returns such witnesses on
        some random draws (18,488 bits after 11,665 iterations)."""
        witness = (F(2**20000 + 1, 3), F(-(3**9000), 2**20000 - 1), F(1, 2))
        monkeypatch.setattr(mg.dominion, "winner",
                            lambda game: mg.Exhausted(11665, witness))
        res = runner.invoke(main, ["solve", smpg_file, "--mode", "winner",
                                   "--json"])
        assert res.exit_code == 2, res.output
        rep = json.loads(res.output)
        assert (rep["result"], rep["iterations"]) == ("Exhausted", 11665)
        assert tuple(map(report_frac, rep["witness"])) == witness

    @pytest.mark.parametrize("value", [
        F(2**20000 + 1, 3**5000), F(-(2**20000) - 1), F(7, 2**20000),
        F(-1, 3), F(0)], ids=["both", "negative-integer", "denominator",
                              "small", "zero"])
    def test_rationals_of_any_size_round_trip(self, value):
        """A 20,000-bit rational is written and read back exactly, and the
        interpreter's digit limit is left as it was."""
        limit = sys.get_int_max_str_digits()
        text = cli._frac_str(value)
        assert re.fullmatch(r"-?[0-9]+/[0-9]+", text)
        assert report_frac(text) == value
        assert report_frac(text.split("/")[0]) == value.numerator
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("text", ["1" * 5000 + "/0", "1" * 5000 + "/x",
                                      "x" + "1" * 5000, "1" * 5000 + ".5"])
    def test_malformed_long_rationals_are_errors(self, text):
        with pytest.raises(ValueError):
            report_frac(text)

    @pytest.mark.parametrize("text", [
        "007/010", "-0/5", "3/0", "+1/2", " 1/2", "1/-2", "1_0", "\u00b2",
        "\u0661\u0662/\u0663", "1e3", "1.5", "7" * 5000,
        "-" + "7" * 5000 + "/" + "3" * 5000, "1" * 5000 + "/0",
        "0/" + "9" * 5000, "1" * 5000 + "/-2", "2/4", "1/0",
        cli._frac_str(F(2**20000 + 1, 3**5000)),
        cli._frac_str(F(-(2**20000) - 1)), cli._frac_str(F(7, 2**20000))],
        ids=[
        "leading-zeros", "negative-zero", "zero-denominator", "plus-sign",
        "space", "negative-denominator", "underscore", "superscript",
        "arabic-indic", "exponent", "decimal-point", "long-integer",
        "long-rational", "long-zero-denominator", "long-denominator",
        "long-negative-denominator", "unreduced", "one-over-zero",
        "20000-bit-both", "20000-bit-integer", "20000-bit-denominator"])
    def test_report_rationals_read_as_fraction_reads_them(self, text):
        """The int() path of `_report_ratio` reads what Fraction reads: the
        same value, as integers (p, q) with q > 0, or the same error, a
        zero denominator as a GameFormatError.  Fraction reads the strings
        past the interpreter's digit limit with the limit lifted."""
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            want = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            want = exc
        finally:
            sys.set_int_max_str_digits(limit)
        if isinstance(want, Fraction):
            p, q = cli._report_ratio(text)
            assert q > 0 and F(p, q) == want
        else:
            with pytest.raises(Exception) as info:
                cli._report_ratio(text)
            assert type(info.value) is (mg.GameFormatError if isinstance(
                want, ZeroDivisionError) else type(want))
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("value", [
        {"b": {10: "x", 2: "y", -3: "z"}, "a": 1, "c": [0, -7]},
        {"list": [], "dict": {}, "nested": [[], {}, [[]], [{}]]},
        {"d\u00e9": "\u03a9mega", "\u2603": ["\u2028", "\x00\n\"\\",
                                         "\U0001f600"]},
        [True, False, None, {"t": True, "f": False, "n": None}],
        {"report": CHOICE_REPORT, "values": {3: {"lo": "1/1", "hi": "2/1"}},
         "witness": [CHOICE_REPORT, [CHOICE_REPORT]]},
        {"lam": cli._frac_str(F(2**20000 + 1, 3**5000)),
         "vec": [cli._frac_str(F(-(3**9000), 2**20000 - 1)), "0/1"]},
        [], {}, "\u00e9", 12, None, ("a", ("b",)),
        [1.5, -0.0, float("inf"), {2: 0, 1.5: 1, True: 2}, {None: 0}],
    ], ids=["int-and-str-keys", "empty-containers", "non-ascii",
            "constants", "nested-records", "20000-bit-rationals",
            "empty-list", "empty-dict", "string", "int", "null", "tuples",
            "floats-and-other-keys"])
    def test_report_writer_is_json_dumps(self, value):
        """The --json writer prints the bytes json.dumps(indent=2,
        sort_keys=True) prints."""
        assert cli._json_text(value) == json.dumps(value, indent=2,
                                                   sort_keys=True)

    @pytest.mark.parametrize("value", [
        {(1, 2): 0}, {"x": F(1, 2)}, [10**5000], {1: 0, "a": 1}],
        ids=["tuple-key", "fraction", "long-int", "mixed-keys"])
    def test_report_writer_fails_as_json_dumps(self, value):
        with pytest.raises(Exception) as want:
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(want.type):
            cli._json_text(value)

    def test_approx_encloses_the_interval(self):
        """`approx` is a decimal enclosure of [lo, hi], lo rounded down and
        hi up.  Both truncated toward zero left 16 of the 387 value records
        of these draws outside their bracket: seed 30's d0, just above 3,
        was printed as [3.000000000000, 3.000000000000]."""
        records = {}
        for seed in range(200):
            sol = mg.solve_entropy_game(
                mg.random_entropy_game(random.Random(seed)))
            for d, iv in sol.values.items():
                records[seed, d] = cli._interval_record(iv)
        assert len(records) == 387
        for rec in records.values():
            lo, hi = rec["approx"][1:-1].split(", ")
            assert F(lo) <= F(rec["lo"]) <= F(rec["hi"]) <= F(hi)
        assert records[30, "d0"]["approx"] == "[3.000000000000, 3.000000000001]"
        for (lo, hi), approx in [
            ((F(-1, 3), F(2, 3)), "[-0.333333333334, 0.666666666667]"),
            ((F(-3, 2), F(-3, 2)), "[-1.500000000000, -1.500000000000]"),
            ((F(-1, 10**13), F(1, 10**13)),
             "[-0.000000000001, 0.000000000001]"),
            ((F(0), F(0)), "[0.000000000000, 0.000000000000]"),
        ]:
            rec = cli._interval_record(mg.RationalInterval(lo, hi))
            assert rec["approx"] == approx

    def test_value_mode_json(self, runner, smpg_file):
        res = runner.invoke(main, ["solve", smpg_file, "--mode", "value",
                                   "--json"])
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert rep["value"] == "3/2"
        assert len(rep["certificates"]) == 2

    def test_value_mode_plain_decimal_interval(self, runner, smpg_file):
        res = runner.invoke(main, ["solve", smpg_file, "--mode", "value"])
        assert res.exit_code == 0
        assert "1.5" in res.output  # interval endpoints rendered as decimals
        assert "certificates: 2" in res.output

    def test_topclass_mode(self, runner, tmp_path):
        path = write_game(tmp_path, "g.json",
                          mg.game_to_json(absorbing_game()))
        res = runner.invoke(main, ["solve", path, "--mode", "topclass",
                                   "--json"])
        assert res.exit_code == 0
        assert json.loads(res.output)["top_class"] == ["m0"]

    def test_full_mode_on_non_constant_game(self, runner, tmp_path):
        path = write_game(tmp_path, "g.json",
                          mg.game_to_json(absorbing_game()))
        res = runner.invoke(main, ["solve", path, "--json"])
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert rep["top_class"] == ["m0"]
        assert rep["top_value"] == "5/1"

    def test_entropy_full(self, runner, entropy_file):
        res = runner.invoke(main, ["solve", entropy_file, "--json"])
        assert res.exit_code == 0
        rep = json.loads(res.output)
        (iv,) = rep["values"].values()
        assert F(iv["lo"]) <= 3 <= F(iv["hi"])
        assert rep["iterations"] >= 1 and "oracle_calls" not in rep

    def test_entropy_value_mode_needs_one_block(self, runner, tmp_path,
                                                entropy_file):
        """The first draw of random_entropy_game(Random(130)) has two
        value blocks: value mode says "not constant" and exits 1, as for a
        stochastic game.  A one-block game exits 0 with the full report."""
        g = mg.random_entropy_game(random.Random(130))
        assert len(mg.solve_entropy_game(g).blocks) == 2
        path = write_game(tmp_path, "g.json", mg.entropy_to_json(g))
        res = runner.invoke(main, ["solve", path, "--mode", "value"])
        assert res.exit_code == 1 and "not constant" in res.output
        assert isinstance(res.exception, SystemExit)
        reports = []
        for mode in ("value", "full"):
            res = runner.invoke(main, ["solve", entropy_file, "--mode", mode,
                                       "--json"])
            assert res.exit_code == 0
            reports.append(json.loads(res.output))
        assert reports[0] == reports[1] and len(reports[0]["blocks"]) == 1

    @pytest.mark.parametrize("name", sorted(DEFECT_GAMES))
    def test_defect_games_solve_and_certify(self, runner, tmp_path, name):
        g = defect_game(name)
        sol = mg.solve_entropy_game(g)
        br = mg.brute_force_entropy_values(g)
        cmp, c = br.registry.compare, br.candidates
        top = [did for k, did in enumerate(g.d_ids)
               if all(cmp(c[k], c[j], br.coarse_tol, br.fine_tol) >= 0
                      for j in range(len(c)))]
        assert sorted(sol.blocks[0].d_ids) == top
        pv = mg.pair_values_by_ids(g, sol.sigma, sol.tau, F(1, 2**40))
        for d, did in enumerate(g.d_ids):
            for iv in (sol.values[did], pv[d]):
                assert iv.lo <= br.chi[d].hi and br.chi[d].lo <= iv.hi
        path = write_game(tmp_path, "g.json", mg.entropy_to_json(g))
        res = runner.invoke(main, ["solve", path, "--json"])
        assert res.exit_code == 0
        rep = tmp_path / "rep.json"
        rep.write_text(res.output)
        assert runner.invoke(main, ["certify", path, str(rep)]).exit_code == 0

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_exhausted_witness_search_exit_three(self, runner, tmp_path,
                                                 monkeypatch, command):
        """The enumeration fallback's witness search runs out of steps: the
        separation search is refused, since it certifies this game."""
        monkeypatch.setattr(ent, "_separated_block", lambda game: None)
        monkeypatch.setattr(mg.perron, "_witness_certificates",
                            partial(mg.perron._witness_certificates, cap=1))
        path = write_game(tmp_path, "g.json",
                          mg.entropy_to_json(defect_game("e11-54")))
        res = runner.invoke(main, [command, path])
        assert res.exit_code == 3
        assert isinstance(res.exception, SystemExit)
        assert "error:" in res.output
        assert "Traceback" not in res.output

    def test_entropy_winner_rejected(self, runner, entropy_file):
        res = runner.invoke(main, ["solve", entropy_file, "--mode", "winner"])
        assert res.exit_code == 1

    def test_malformed_input_exit_one(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"type": "smpg"')
        res = runner.invoke(main, ["solve", str(path)])
        assert res.exit_code == 1
        assert "Traceback" not in res.output

    # edges of cycle_game: 0 Min (a), 1 Max (b), 2 Nature (p_num); of
    # entropy_tribune_choice: 3 is the People edge p2 -> d0 with m = 2
    @pytest.mark.parametrize("kind, mutate", [
        ("smpg", list_state), ("smpg", list_endpoint), ("smpg", bool_id),
        ("smpg", mixed_ids), ("smpg", duplicate_edge),
        ("entropy", entropy_list_state),
        ("entropy", entropy_dict_endpoint),
        ("smpg", partial(set_field, ["denominator"], [1])),
        ("smpg", partial(set_field, ["denominator"], 1.0)),
        ("smpg", partial(set_field, ["edges"], [5])),
        ("smpg", partial(set_field, ["edges"], {"a": 1})),
        ("smpg", partial(set_field, ["min_states"], 5)),
        ("smpg", partial(set_field, ["edges", 0, "a"], "1")),
        ("smpg", partial(set_field, ["edges", 1, "b"], 1.9)),
        ("smpg", partial(set_field, ["edges", 2, "p_num"], True)),
        ("entropy", partial(set_field, ["edges"], [5])),
        ("entropy", partial(set_field, ["d_states"], 5)),
        ("entropy", partial(set_field, ["edges", 3, "m"], 2.9)),
        ("entropy", partial(set_field, ["edges", 3, "m"], True)),
        ("smpg", partial(set_field, ["edges", 0, "a"], None)),
        ("entropy", partial(set_field, ["edges", 3, "m"], None)),
    ])
    def test_bad_state_ids_exit_one(self, runner, tmp_path, kind, mutate):
        """Ids that are not strings or integers (bool included), a mix of
        both, duplicate edges, numeric fields that are not JSON integers
        (truncating 1.9 would solve another game), state lists and edges
        that are not lists, and edge records that are not objects are input
        errors, not crashes."""
        obj = (mg.game_to_json(cycle_game()) if kind == "smpg"
               else mg.entropy_to_json(entropy_tribune_choice()))
        mutate(obj)
        res = runner.invoke(main, ["solve",
                                   write_game(tmp_path, "bad.json", obj)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "error:" in res.output
        assert "Traceback" not in res.output

    # edges of cycle_game: 0 m0 -> x0, 1 x0 -> n0; of entropy_tribune_choice:
    # 0 d0 -> t0, 1 t0 -> p2.  Every stochastic edge kind carries a field,
    # so only an entropy file can put one on a kind that has none.
    @pytest.mark.parametrize("kind, mutate, message", [
        ("smpg", partial(set_field, ["edges", 0, "to"], "n0"),
         "violates alternation"),
        ("smpg", partial(set_field, ["edges", 1, "to"], "m0"),
         "violates alternation"),
        ("smpg", partial(set_field, ["edges", 0, "to"], "zzz"),
         "violates alternation"),
        ("smpg", partial(drop_key, "max_states"), "missing key 'max_states'"),
        ("entropy", partial(set_field, ["edges", 0, "to"], "p2"),
         "violates alternation"),
        ("entropy", partial(set_field, ["edges", 1, "to"], "d0"),
         "violates alternation"),
        ("entropy", partial(set_field, ["edges", 0, "to"], "zzz"),
         "violates alternation"),
        ("entropy", partial(set_field, ["edges", 0, "m"], 2),
         '"m" belongs on people edges only'),
        ("entropy", partial(drop_key, "t_states"), "missing key 't_states'"),
    ], ids=["smpg-skips-a-kind", "smpg-backwards", "smpg-undeclared",
            "smpg-missing-list", "entropy-skips-a-kind", "entropy-backwards",
            "entropy-undeclared", "entropy-field-on-fieldless-kind",
            "entropy-missing-list"])
    def test_game_file_layout(self, runner, tmp_path, kind, mutate, message):
        """Both kinds' files are read by one reader: an edge must go from
        one kind to the next, between declared states, and carry only its
        own kind's field, and every state list must be present."""
        obj = (mg.game_to_json(cycle_game()) if kind == "smpg"
               else mg.entropy_to_json(entropy_tribune_choice()))
        mutate(obj)
        parse = mg.parse_smpg if kind == "smpg" else mg.parse_entropy
        with pytest.raises(mg.GameFormatError, match=re.escape(message)):
            parse(copy.deepcopy(obj))
        res = runner.invoke(main, ["solve",
                                   write_game(tmp_path, "bad.json", obj)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("error:") and message in res.output
        assert "Traceback" not in res.output

    def test_wrong_type_field(self, runner, tmp_path):
        path = write_game(tmp_path, "bad.json", {"type": "chess"})
        res = runner.invoke(main, ["solve", str(path)])
        assert res.exit_code == 1


class TestCertify:
    def test_smpg_round_trip(self, runner, smpg_file, tmp_path):
        res = runner.invoke(main, ["solve", smpg_file, "--json"])
        rep = tmp_path / "rep.json"
        rep.write_text(res.output)
        res2 = runner.invoke(main, ["certify", smpg_file, str(rep)])
        assert res2.exit_code == 0
        assert "all certificates verified" in res2.output

    def test_entropy_round_trip(self, runner, entropy_file, tmp_path):
        res = runner.invoke(main, ["solve", entropy_file, "--json"])
        rep = tmp_path / "rep.json"
        rep.write_text(res.output)
        res2 = runner.invoke(main, ["certify", entropy_file, str(rep)])
        assert res2.exit_code == 0

    def test_shared_vector_is_evaluated_once(self, runner, tmp_path,
                                             monkeypatch):
        """An early-certified stochastic report carries one vector h for its
        sub and super certificate, and certify evaluates F on h once: one
        integer step, whose stages also check both strategies."""
        path = write_game(tmp_path, "g.json",
                          mg.game_to_json(swap_shift_game()))
        res = runner.invoke(main, ["solve", path, "--json"])
        sub, sup = json.loads(res.output)["certificates"]
        assert sub["vec"] == sup["vec"]
        rep = tmp_path / "rep.json"
        rep.write_text(res.output)
        calls = []
        real_eval = mg.stochastic._step_stages

        def counted_eval(game, x):
            calls.append(x)
            return real_eval(game, x)

        monkeypatch.setattr(mg.stochastic, "_step_stages", counted_eval)
        res2 = runner.invoke(main, ["certify", path, str(rep)])
        assert res2.exit_code == 0
        assert len(calls) == 1

    def test_pinned_strategies_pass(self, runner, tmp_path):
        """The solve report of CHOICE_GAME, pinned: its certificates hold,
        and so do its strategies, checked at them."""
        path = write_game(tmp_path, "g.json", CHOICE_GAME)
        res = runner.invoke(main, ["solve", path, "--json"])
        assert json.loads(res.output) == CHOICE_REPORT
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps(CHOICE_REPORT))
        res = runner.invoke(main, ["certify", path, str(rep)])
        assert res.exit_code == 0, res.output
        assert "all certificates verified" in res.output

    @pytest.mark.parametrize("key, state, target", [
        ("min_strategy", "m0", "x0"),
        ("max_strategy", "x0", "n0"),
        ("max_strategy", "x1", "n1"),
        ("min_strategy", "m0", "zz"),
        ("max_strategy", "x1", ["n0"]),
    ], ids=["min-not-greedy", "max-not-greedy", "max-not-an-edge",
            "unknown-id", "id-list"])
    def test_changed_strategy_fails(self, runner, tmp_path, key, state,
                                    target):
        """With one choice changed, the report's certificates still hold,
        but certify fails with exit 1: Min's swap to x0 lets F at the super
        witness reach 3 > 2 + h, Max's swap to n0 drops F at the sub witness
        to 1 < 2 + h, and a choice that names no edge holds nothing."""
        path = write_game(tmp_path, "g.json", CHOICE_GAME)
        report = copy.deepcopy(CHOICE_REPORT)
        report[key][state] = target
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps(report))
        res = runner.invoke(main, ["certify", path, str(rep)])
        assert res.exit_code == 1
        assert f"verification FAILED: {key} fails" in res.output
        del report["min_strategy"], report["max_strategy"]
        rep.write_text(json.dumps(report))
        assert runner.invoke(main, ["certify", path, str(rep)]).exit_code == 0

    def test_no_finite_vector_reaches_shapley_eval(self, runner, tmp_path,
                                                   monkeypatch):
        """solve and certify check every certificate on integers: over
        default draws, the peel games and replayed brackets (with no
        checkpoint passing), shapley_eval sees no finite vector.  A
        hand-written vector with an -inf entry still takes it."""
        seen = []
        real_eval = mg.stochastic.shapley_eval

        def counted_eval(game, x):
            seen.append(x)
            return real_eval(game, x)

        monkeypatch.setattr(mg.stochastic, "shapley_eval", counted_eval)
        rep = tmp_path / "rep.json"

        def solve_and_certify(games, replayed):
            for t, g in enumerate(games):
                path = write_game(tmp_path, f"g{t}.json", mg.game_to_json(g))
                for mode in ("full", "value"):
                    res = runner.invoke(main, ["solve", path, "--mode", mode,
                                               "--json"])
                    if res.exit_code:
                        assert mode == "value" and "not constant" in res.output
                        continue
                    sub, sup = json.loads(res.output)["certificates"]
                    assert (sub["vec"] != sup["vec"]) == replayed
                    rep.write_text(res.output)
                    res = runner.invoke(main, ["certify", path, str(rep)])
                    assert res.exit_code == 0, res.output

        rng = random.Random(3)
        solve_and_certify([mg.random_smpg(rng) for _ in range(40)]
                          + [peel_game(6, 2), peel_game(3, 14)], False)
        monkeypatch.setattr(mg.stochastic, "_half_line_at", lambda *args: None)
        solve_and_certify([nature_half_game(), swap_shift_game()], True)
        assert seen == []
        report = {"certificates": [
            {"direction": "sub", "lam": "1", "vec": ["0", "-inf"]},
            {"direction": "super", "lam": "1", "vec": ["0", "0"]}]}
        rep.write_text(json.dumps(report))
        path = write_game(tmp_path, "inf.json", NEG_INF_GAME)
        res = runner.invoke(main, ["certify", path, str(rep)])
        assert res.exit_code == 0, res.output
        assert seen == [(0, mg.NEG_INF)]

    def test_tampered_certificate_fails(self, runner, smpg_file, tmp_path):
        res = runner.invoke(main, ["solve", smpg_file, "--json"])
        obj = json.loads(res.output)
        lam = F(obj["certificates"][0]["lam"]) + 1
        obj["certificates"][0]["lam"] = f"{lam.numerator}/{lam.denominator}"
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps(obj))
        res2 = runner.invoke(main, ["certify", smpg_file, str(rep)])
        assert res2.exit_code == 1

    def test_report_without_certificates(self, runner, smpg_file, tmp_path):
        rep = tmp_path / "rep.json"
        rep.write_text("{}")
        res = runner.invoke(main, ["certify", smpg_file, str(rep)])
        assert res.exit_code == 1

    @pytest.mark.parametrize("forge", [
        lambda report: [report],
        forged(["certificates"], [5]),
        forged(["certificates", 0, "vec"], 5),
        forged(["certificates", 0, "lam"], [1]),
        forged(["certificates", 0, "lam"], "1/0"),
        forged(["certificates", 0, "states"], ["m1"]),
        forged(["certificates", 0, "states", "min_states"], [["m1"]]),
        forged(["interval"], ["1/1", "2/1"]),
        forged(["min_strategy"], ["m0", "x0"]),
        forged(["certificates"], [{}, {}, {}, {}]),
    ], ids=["list-report", "record-not-object", "vec-not-list", "lam-list",
            "lam-zero-denominator", "states-list", "state-id-list",
            "interval-list", "strategy-list", "two-stochastic-pairs"])
    def test_malformed_report_exit_one(self, runner, tmp_path, forge):
        path = write_game(tmp_path, "g.json",
                          mg.game_to_json(absorbing_game()))
        report = forge(json.loads(
            runner.invoke(main, ["solve", path, "--json"]).output))
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps(report))
        res = runner.invoke(main, ["certify", path, str(rep)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "error:" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("records, path", [
        ([0], ["lam"]),
        ([0], ["vec"]),
        ([0], ["direction"]),
        ([0, 1], ["states", "d_states"]),
        ([], ["values", "d0", "hi"]),
    ], ids=["lam", "vec", "direction", "d_states", "hi"])
    def test_missing_key_exit_one(self, runner, entropy_file, tmp_path,
                                  records, path):
        """A report that lacks a key of a certificate record (of both
        records of the pair, for their shared "states") or of an interval is
        one error line naming the key, worded as the game reader words it."""
        report = json.loads(
            runner.invoke(main, ["solve", entropy_file, "--json"]).output)
        *where, key = path
        for owner in ([report["certificates"][k] for k in records]
                      or [report]):
            for step in where:
                owner = owner[step]
            del owner[key]
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps(report))
        res = runner.invoke(main, ["certify", entropy_file, str(rep)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output.strip() == f"error: missing key {key!r}"

    @pytest.mark.parametrize("kind", ["smpg", "entropy"])
    def test_unknown_state_id_exit_one(self, runner, tmp_path, kind):
        """A certificate pair whose "states" names an unknown Min or Despot
        id is one error line naming that id."""
        game, keys = ((mg.game_to_json(nature_half_game()), mg.stochastic.KEYS)
                      if kind == "smpg" else
                      (mg.entropy_to_json(entropy_tribune_choice()), ent.KEYS))
        path = write_game(tmp_path, "g.json", game)
        report = json.loads(
            runner.invoke(main, ["solve", path, "--json"]).output)
        for record in report["certificates"][:2]:
            record["states"][keys[0]][0] = "zzz"
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps(report))
        res = runner.invoke(main, ["certify", path, str(rep)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output.strip() == "error: unknown state id 'zzz'"

    @pytest.mark.parametrize("kind, mode, forges", [
        ("smpg", "full", [forged(["top_value"], "1000/1")]),
        ("smpg", "full",
         [forged(["interval"], {"lo": "999/1", "hi": "1001/1"})]),
        ("smpg", "full", [forged(["top_class"], ["bogus"])]),
        ("smpg", "full",
         [forged(["top_value"], "1000/1"),
          forged(["interval"], {"lo": "999/1", "hi": "1001/1"}),
          forged(["top_class"], ["bogus"])]),
        ("smpg", "value", [forged(["value"], "1000/1")]),
        ("entropy", "full", [forged(["blocks"], [["bogus"]])]),
        ("entropy", "full",
         [forged(["values", "d0"], {"lo": "1/1", "hi": "9/1"})]),
        ("entropy", "full", [forged(["certificates", 0, "vec", 0], "-inf")]),
    ], ids=["top_value", "interval", "top_class", "all-three", "value",
            "blocks", "values", "vec-neg-inf"])
    def test_forged_claims_fail(self, runner, tmp_path, kind, mode, forges):
        """The certificates stay valid; the claims they bound do not."""
        path = str(tmp_path / "g.json")
        runner.invoke(main, ["gen-random", "--kind", kind, "--seed", "3",
                             "--out", path])
        res = runner.invoke(main, ["solve", path, "--mode", mode, "--json"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps(report))
        assert runner.invoke(main, ["certify", path, str(rep)]).exit_code == 0
        for forge in forges:
            forge(report)
        rep.write_text(json.dumps(report))
        res = runner.invoke(main, ["certify", path, str(rep)])
        assert res.exit_code == 1
        assert "verification FAILED" in res.output


def _cert_pair(lam, vec, states):
    """A multiplicative (sub, super) record pair at one level on one vector,
    named on `states` (Despots, Tribunes, People)."""
    names = dict(zip(ent.KEYS, states))
    return [{"direction": direction, "lam": lam, "vec": vec,
             "multiplicative": True, "states": names}
            for direction in ("sub", "super")]


class TestEntropyStateSets:
    """An entropy pair's states must be the subgame its Despots induce in
    what the pairs before it leave of the game: a report that drops a
    Tribune's better People certifies a lower value on a smaller
    subgraph, and fails."""

    def test_dropped_people_fails(self, runner, tmp_path):
        """d0 -> t0 -> {p0, p1}, back to d0 with multiplicities 2 and 1:
        the value is 2, and a pair on p1 alone certifies 1.  The pair at
        the true level passes on {p0, p1} and fails on p0 alone."""
        game = mg.make_entropy_game(["d0"], ["t0"], ["p0", "p1"], [[0]],
                                    [[0, 1]], [[(0, 2)], [(0, 1)]])
        path = write_game(tmp_path, "g.json", mg.entropy_to_json(game))
        report = {"certificates": _cert_pair("1/1", ["1/1"],
                                             (["d0"], ["t0"], ["p1"])),
                  "values": {"d0": {"lo": "1/1", "hi": "1/1"}}}
        res = _certify(runner, tmp_path, path, report)
        assert res.exit_code == 1
        assert res.output.strip() == (
            "certificate verification FAILED: a certificate pair's states do "
            "not name an induced subgame")
        report["certificates"] = _cert_pair("2/1", ["1/1"],
                                            (["d0"], ["t0"], ["p0", "p1"]))
        report["values"]["d0"] = {"lo": "2/1", "hi": "2/1"}
        assert _certify(runner, tmp_path, path, report).exit_code == 0
        # the true levels, on states that are not the induced subgame
        report["certificates"] = _cert_pair("2/1", ["1/1"],
                                            (["d0"], ["t0"], ["p0"]))
        assert _certify(runner, tmp_path, path, report).exit_code == 1

    def _two_blocks(self, runner, tmp_path):
        """(game path, solver report) of blocks d0 (value 3, d0 -> t0 ->
        p0) and d1 (value 2): d1 picks t1, whose People p1 also feeds d0,
        or t2 -> {p2, p3}, back to d1 with multiplicities 2 and 1.
        Peeling d0 drops p1 and t1."""
        game = mg.make_entropy_game(
            ["d0", "d1"], ["t0", "t1", "t2"], ["p0", "p1", "p2", "p3"],
            [[0], [1, 2]], [[0], [1], [2, 3]],
            [[(0, 3)], [(0, 1), (1, 1)], [(1, 2)], [(1, 1)]])
        path = write_game(tmp_path, "g.json", mg.entropy_to_json(game))
        return path, json.loads(
            runner.invoke(main, ["solve", path, "--json"]).output)

    def test_second_block_without_a_tribune_edge_fails(self, runner,
                                                       tmp_path):
        """The solver's report of `_two_blocks` passes; a second pair at
        level 1 fails when it names t2 -> p3 alone, or the subgame d1
        induces in the whole game (t1 -> p1 kept, p1's edge into d0
        dropped), on which both levels hold, or the first block's Despot
        again."""
        path, report = self._two_blocks(runner, tmp_path)
        assert report["blocks"] == [["d0"], ["d1"]]
        assert report["certificates"][2]["states"] == {
            "d_states": ["d1"], "t_states": ["t2"],
            "p_states": ["p2", "p3"]}
        assert _certify(runner, tmp_path, path, report).exit_code == 0
        for states in ((["d1"], ["t2"], ["p3"]),
                       (["d1"], ["t1", "t2"], ["p1", "p2", "p3"]),
                       (["d0"], ["t0"], ["p0"])):
            forged_report = copy.deepcopy(report)
            forged_report["certificates"][2:] = _cert_pair("1/1", ["1/1"],
                                                           states)
            forged_report["values"]["d1"] = {"lo": "1/1", "hi": "1/1"}
            forged_report.pop("blocks")
            res = _certify(runner, tmp_path, path, forged_report)
            assert res.exit_code == 1
            assert "verification FAILED" in res.output

    _ORDER_FAILED = ("certificate verification FAILED: a certificate "
                     "pair's levels lie above the pair's before it")

    def test_super_levels_rising_fail(self, runner, tmp_path):
        """On `_two_blocks`: d1's subgame in the whole game, on which level
        1 holds both ways, then d0 at 3 on what is left.  Each pair holds,
        and the blocks and values follow from their levels, but d1's value
        is 2: d1's pair bounds it from above only once d0, which p1 feeds,
        is peeled.  It fails, and so it does with d0's sub level at 1/2,
        where only the super levels rise."""
        path, report = self._two_blocks(runner, tmp_path)
        d0_pair = report["certificates"][:2]
        assert [rec["lam"] for rec in d0_pair] == ["3/1", "3/1"]
        forged_report = {
            "certificates": _cert_pair("1/1", ["1/1"], (
                ["d1"], ["t1", "t2"], ["p1", "p2", "p3"])) + d0_pair,
            "blocks": [["d1"], ["d0"]],
            "values": {"d1": {"lo": "1/1", "hi": "1/1"},
                       "d0": {"lo": "3/1", "hi": "3/1"}},
        }
        res = _certify(runner, tmp_path, path, forged_report)
        assert res.exit_code == 1
        assert res.output.strip() == self._ORDER_FAILED
        forged_report["certificates"][2]["lam"] = "1/2"
        res = _certify(runner, tmp_path, path, forged_report)
        assert res.exit_code == 1
        assert res.output.strip() == self._ORDER_FAILED

    def test_sub_levels_rising_fail(self, runner, tmp_path):
        """d0 -> t0 -> p0 -> d0 (value 1); d1 picks t1 -> p1 -> d0, or t2
        -> p2 -> d1 with multiplicity 3, so its value is 1 too.  A pair on
        d0 at [1, 3], then d1 at 3 on what is left (peeling d0 drops t1):
        each pair holds, but d1's pair bounds it from below only if the
        blocks it can escape to are no lower.  It fails on the sub levels
        alone; the solver's one block passes."""
        game = mg.make_entropy_game(
            ["d0", "d1"], ["t0", "t1", "t2"], ["p0", "p1", "p2"],
            [[0], [1, 2]], [[0], [1], [2]], [[(0, 1)], [(0, 1)], [(1, 3)]])
        path = write_game(tmp_path, "g.json", mg.entropy_to_json(game))
        report = json.loads(
            runner.invoke(main, ["solve", path, "--json"]).output)
        assert report["blocks"] == [["d0", "d1"]]
        assert _certify(runner, tmp_path, path, report).exit_code == 0
        forged_report = {
            "certificates": [
                *_cert_pair("1/1", ["1/1"], (["d0"], ["t0"], ["p0"])),
                *_cert_pair("3/1", ["1/1"], (["d1"], ["t2"], ["p2"]))],
            "blocks": [["d0"], ["d1"]],
            "values": {"d0": {"lo": "1/1", "hi": "1/1"},
                       "d1": {"lo": "3/1", "hi": "3/1"}},
        }
        forged_report["certificates"][1]["lam"] = "3/1"
        res = _certify(runner, tmp_path, path, forged_report)
        assert res.exit_code == 1
        assert res.output.strip() == self._ORDER_FAILED

    def test_pairs_that_leave_a_despot_out_fail(self, runner, tmp_path):
        """On `_two_blocks`: d1's pair in the whole game at level 1 alone,
        with no pair for d0, whose People p1 feeds d1's Tribune t1, would
        certify 1 for d1.  It fails, and so does the solver's report
        without its second pair, which leaves d1 out."""
        path, report = self._two_blocks(runner, tmp_path)
        for forged_report in (
            {"certificates": _cert_pair("1/1", ["1/1"], (
                ["d1"], ["t1", "t2"], ["p1", "p2", "p3"])),
             "values": {"d1": {"lo": "1/1", "hi": "1/1"}}},
            {"certificates": report["certificates"][:2],
             "values": {"d0": report["values"]["d0"]}},
        ):
            res = _certify(runner, tmp_path, path, forged_report)
            assert res.exit_code == 1
            assert res.output.strip() == (
                "certificate verification FAILED: the certificate pairs do "
                "not cover every Despot")


def _draw_report(runner, tmp_path, kind):
    """(game path, `solve --json` report) of random_smpg(Random(3)) or
    random_entropy_game(Random(7), 4, 4, 4)."""
    game = (mg.game_to_json(mg.random_smpg(random.Random(3))) if kind == "smpg"
            else mg.entropy_to_json(
                mg.random_entropy_game(random.Random(7), 4, 4, 4)))
    path = write_game(tmp_path, "g.json", game)
    res = runner.invoke(main, ["solve", path, "--json"])
    assert res.exit_code == 0, res.output
    return path, json.loads(res.output)


class TestStochasticStateSets:
    """A stochastic pair's Max and Nature states must be those of the
    subgame its Min states induce, as an entropy pair's are.
    peel_game(6, 2) has the top class {m0, m1}, whose subgame keeps x0, x1,
    n0 and n1 of the game's four states of each kind."""

    @pytest.fixture
    def solved(self, runner, tmp_path):
        path = write_game(tmp_path, "g.json", mg.game_to_json(peel_game(6, 2)))
        report = json.loads(runner.invoke(main, ["solve", path,
                                                 "--json"]).output)
        assert report["certificates"][0]["states"] == {
            "min_states": ["m0", "m1"], "max_states": ["x0", "x1"],
            "nat_states": ["n0", "n1"]}
        assert _certify(runner, tmp_path, path, report).exit_code == 0
        return path, report

    @staticmethod
    def named(report, key, ids):
        for rec in report["certificates"]:
            rec["states"][key] = ids
        return report

    @pytest.mark.parametrize("key", ["max_states", "nat_states"])
    def test_unknown_state_exits_one(self, runner, tmp_path, solved, key):
        path, report = solved
        res = _certify(runner, tmp_path, path,
                       self.named(report, key, ["bogus"]))
        assert res.exit_code == 1
        assert res.output.strip() == "error: unknown state id 'bogus'"

    @pytest.mark.parametrize("key, ids", [
        ("max_states", ["x0"]),
        ("max_states", ["x0", "x1", "x2"]),
        ("nat_states", ["n1"]),
        ("nat_states", ["n0", "n1", "n2", "n3"]),
    ])
    def test_other_states_fail(self, runner, tmp_path, solved, key, ids):
        """A state of the subgame left out, or one outside it named."""
        path, report = solved
        res = _certify(runner, tmp_path, path, self.named(report, key, ids))
        assert res.exit_code == 1
        assert res.output.strip() == (
            "certificate verification FAILED: a certificate pair's states do "
            "not name an induced subgame")


def _certify(runner, tmp_path, path, report):
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps(report))
    return runner.invoke(main, ["certify", path, str(rep)])


class TestIntegerCertify:
    """certify reads a stochastic report on integers, and checks `approx`
    and `multiplicative` for both kinds."""

    @pytest.mark.parametrize("kind, where, message", [
        ("smpg", ["interval"],
         "interval approx is not the decimal enclosure of lo and hi"),
        ("entropy", ["values", "d0"],
         "the approx of 'd0' is not the decimal enclosure of its lo and hi"),
    ], ids=["smpg", "entropy"])
    def test_forged_approx_fails(self, runner, tmp_path, kind, where,
                                 message):
        """An approx that is not the enclosure of its record's lo and hi
        fails; a record without one passes."""
        path, report = _draw_report(runner, tmp_path, kind)
        record = report
        for step in where:
            record = record[step]
        for approx in ("[999.000000000000, 999.000000000000]",
                       record["approx"].replace(", ", ","), None, 3):
            forged_report = copy.deepcopy(report)
            set_field([*where, "approx"], approx, forged_report)
            res = _certify(runner, tmp_path, path, forged_report)
            assert res.exit_code == 1
            assert res.output.strip() == (
                f"certificate verification FAILED: {message}")
        del record["approx"]
        res = _certify(runner, tmp_path, path, report)
        assert res.exit_code == 0, res.output

    def test_approx_past_the_digit_limit_fails(self, runner, tmp_path):
        """An interval end of over 4,300 digits before the point has no
        approx that `_interval_record` can write (it fails on such an end):
        any approx there fails, without an error, and no approx passes.
        The levels -10^5000 and 10^5000 hold on any game, at the vector
        0."""
        path, report = _draw_report(runner, tmp_path, "smpg")
        n = len(report["certificates"][0]["vec"])
        big = cli._frac_str(10**5000)
        report = {
            "certificates": [
                {"direction": "sub", "lam": "-" + big, "vec": ["0/1"] * n},
                {"direction": "super", "lam": big, "vec": ["0/1"] * n}],
            "interval": {"lo": "-" + big, "hi": big, "approx": "[0, 0]"},
        }
        res = _certify(runner, tmp_path, path, report)
        assert res.exit_code == 1
        assert res.output.strip() == (
            "certificate verification FAILED: interval approx is not the "
            "decimal enclosure of lo and hi")
        del report["interval"]["approx"]
        res = _certify(runner, tmp_path, path, report)
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("kind", ["smpg", "entropy"])
    @pytest.mark.parametrize("value", ["no", "-1", 1.5, 1, 0, None, [True]],
                             ids=["no", "minus-one", "float", "one", "zero",
                                  "null", "list"])
    def test_multiplicative_must_be_a_boolean(self, runner, tmp_path, kind,
                                              value):
        """"multiplicative" is a JSON boolean or absent; any other value on
        both certificates is one error line, exit 1 ("no", "-1" and 1.5
        read as true, and passed an entropy report, before)."""
        path, report = _draw_report(runner, tmp_path, kind)
        for record in report["certificates"]:
            record["multiplicative"] = value
        res = _certify(runner, tmp_path, path, report)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output.strip() == (
            f'error: "multiplicative" {value!r} is not a boolean')

    def test_multiplicative_absent_or_boolean(self, runner, tmp_path):
        """Absent, "multiplicative" is false: a stochastic report passes
        without it; true on a stochastic certificate, or false on an
        entropy one, is the error it was."""
        path, report = _draw_report(runner, tmp_path, "smpg")
        for record in report["certificates"]:
            del record["multiplicative"]
        assert _certify(runner, tmp_path, path, report).exit_code == 0
        report["certificates"][1]["multiplicative"] = True
        res = _certify(runner, tmp_path, path, report)
        assert res.output.strip() == (
            "error: stochastic certificates are additive")
        path, report = _draw_report(runner, tmp_path, "entropy")
        report["certificates"][0]["multiplicative"] = False
        res = _certify(runner, tmp_path, path, report)
        assert res.output.strip() == (
            "error: entropy certificates are multiplicative")

    def test_levels_compared_as_rationals(self, runner, tmp_path,
                                          monkeypatch):
        """The value and interval ends are compared as rationals, whatever
        terms they are written in (nature-half, value 3/2): unreduced, they
        pass; a value with the right numerator over another denominator
        fails, and so does an interval whose ends are swapped inside a
        replayed bracket."""
        path = write_game(tmp_path, "half.json",
                          mg.game_to_json(nature_half_game()))
        report = json.loads(
            runner.invoke(main, ["solve", path, "--json"]).output)
        value = F(report["top_value"])
        assert value == F(3, 2)
        scaled = f"{2 * value.numerator}/{2 * value.denominator}"
        for forged_report in (copy.deepcopy(report) for _ in range(2)):
            forged_report["top_value"] = scaled
            assert _certify(runner, tmp_path, path,
                            forged_report).exit_code == 0
            forged_report["interval"].update(lo=scaled, hi=scaled)
            assert _certify(runner, tmp_path, path,
                            forged_report).exit_code == 0
        report["top_value"] = f"{value.numerator}/{value.denominator + 1}"
        res = _certify(runner, tmp_path, path, report)
        assert res.exit_code == 1 and "top_value is not the unique" in (
            res.output)
        # no checkpoint passes: the bracket is replayed, lo < hi
        monkeypatch.setattr(mg.stochastic, "_half_line_at",
                            lambda *args: None)
        report = json.loads(
            runner.invoke(main, ["solve", path, "--json"]).output)
        interval = report["interval"]
        lo, hi = F(interval["lo"]), F(interval["hi"])
        assert lo < hi
        assert _certify(runner, tmp_path, path, report).exit_code == 0
        del interval["approx"]
        interval["lo"], interval["hi"] = interval["hi"], interval["lo"]
        res = _certify(runner, tmp_path, path, report)
        assert res.output.strip() == ("certificate verification FAILED: "
                                      "interval is not inside the certified "
                                      "levels")

    def test_report_ratio_keeps_the_written_terms(self):
        """`_report_ratio` reads "p/q" as written, unreduced, and an int
        report value over 1."""
        assert cli._report_ratio("2/4") == (2, 4)
        assert cli._report_ratio("-0/5") == (0, 5)
        assert cli._report_ratio(7) == (7, 1)

    def test_solve_and_certify_build_few_fractions(self, runner, tmp_path,
                                                   monkeypatch):
        """One `solve --json` + `certify` pair on random_smpg(Random(3))
        builds one Fraction, the value, and none to check, read or write
        the certificates: 21 before the solve and certify ran on integer
        numerators, 2 while the witness entries still became Fractions."""
        path, _ = _draw_report(runner, tmp_path, "smpg")
        built = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        res = runner.invoke(main, ["solve", path, "--json"])
        rep = tmp_path / "rep.json"
        rep.write_text(res.output)
        res = runner.invoke(main, ["certify", path, str(rep)])
        monkeypatch.undo()
        assert res.exit_code == 0, res.output
        assert built == [(0, 1)]
        assert json.loads(rep.read_text())["top_value"] == "0/1"

    @pytest.mark.parametrize("kind, draws", [
        ("smpg", lambda rng: mg.game_to_json(mg.random_smpg(rng))),
        ("entropy",
         lambda rng: mg.entropy_to_json(mg.random_entropy_game(rng)))])
    def test_certify_builds_no_fraction(self, runner, tmp_path, monkeypatch,
                                        kind, draws):
        """`certify` of 40 default `full` reports of either kind builds no
        Fraction: the certificates are read, checked and compared on
        integers (an entropy report built 5.7 per report while its
        certificates were read into Fractions)."""
        rng = random.Random(3)
        built = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        for t in range(40):
            path = write_game(tmp_path, f"g{t}.json", draws(rng))
            res = runner.invoke(main, ["solve", path, "--json"])
            assert res.exit_code == 0, res.output
            rep = tmp_path / f"rep{t}.json"
            rep.write_text(res.output)
            monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
            res = runner.invoke(main, ["certify", path, str(rep)])
            monkeypatch.undo()
            assert res.exit_code == 0, res.output
        assert built == []


class TestBrute:
    def test_smpg_values(self, runner, smpg_file):
        res = runner.invoke(main, ["brute", smpg_file, "--json"])
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert rep["values"] == {"m1": "3/2", "m2": "3/2"}

    def test_entropy_values_pairs_and_rank(self, runner, tmp_path):
        """The rank is that of the pair matrices, 1 here, not that of a
        per-Despot choice of People rows, 2 here."""
        g = entropy_shared_tribune()
        path = write_game(tmp_path, "g.json", mg.entropy_to_json(g))
        res = runner.invoke(main, ["brute", path, "--json"])
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert (rep["pairs"], rep["rank"]) == (2, 1)
        assert all(F(iv["lo"]) <= 1 <= F(iv["hi"])
                   for iv in rep["values"].values())

    def test_budget_exceeded_exit_one(self, runner, tmp_path):
        """A pair count over the budget exits 1, as in solve and bench."""
        from conftest import min_choice_game

        path = write_game(tmp_path, "g.json",
                          mg.game_to_json(min_choice_game()))
        res = runner.invoke(main, ["brute", path, "--budget", "1"])
        assert res.exit_code == 1
        assert "exceeds budget" in res.output

    def test_pairs_csv_smpg(self, runner, smpg_file, tmp_path):
        out = tmp_path / "pairs.csv"
        res = runner.invoke(main, ["brute", smpg_file, "--pairs", str(out)])
        assert res.exit_code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {
            "min_strategy", "max_strategy", "state", "value"}
        assert all(r["value"] == "3/2" for r in rows)

    def test_pairs_csv_entropy(self, runner, entropy_file, tmp_path):
        out = tmp_path / "pairs.csv"
        res = runner.invoke(main, ["brute", entropy_file, "--pairs", str(out)])
        assert res.exit_code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {"pair_matrix", "state", "lo", "hi"}
        assert any(F(r["lo"]) <= 3 <= F(r["hi"]) for r in rows)


class TestGenerators:
    def test_gen_random_smpg_parses_back(self, runner):
        res = runner.invoke(main, ["gen-random", "--seed", "5"])
        assert res.exit_code == 0
        game = mg.parse_smpg(json.loads(res.output))
        assert game == mg.random_smpg(random.Random(5))

    def test_gen_random_entropy_to_file(self, runner, tmp_path):
        out = tmp_path / "e.json"
        res = runner.invoke(main, ["gen-random", "--kind", "entropy",
                                   "--seed", "3", "--out", str(out)])
        assert res.exit_code == 0
        game = mg.parse_entropy(json.loads(out.read_text()))
        assert game == mg.random_entropy_game(random.Random(3))

    def test_gen_cex_metadata(self, runner, tmp_path):
        out = tmp_path / "cex.json"
        res = runner.invoke(main, ["gen-cex", "--n", "2", "--w", "10",
                                   "--out", str(out), "--json"])
        assert res.exit_code == 0
        meta = json.loads(res.output)
        assert meta["flip_horizon"] == 17
        assert F(meta["k_star"]["hi"]) == 0
        game = mg.parse_entropy(json.loads(out.read_text()))
        assert game == mg.build_cex_game(2, 10).game

    def test_gen_cex_flip_trace(self, runner, tmp_path):
        out = tmp_path / "cex.json"
        trace = tmp_path / "trace.csv"
        res = runner.invoke(main, [
            "gen-cex", "--n", "2", "--w", "10", "--out", str(out),
            "--flip", "20", "--flip-out", str(trace), "--json",
        ])
        assert res.exit_code == 0
        with open(trace, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 21
        assert all(r["winner"] == "right" for r in rows[:17])
        assert all(r["winner"] == "left" for r in rows[17:])
        for r in rows:
            left, right = mg.branch_weights(2, 10, int(r["k"]))
            assert (int(r["left"]), int(r["right"])) == (left, right)

    def test_gen_cex_invalid_args(self, runner):
        res = runner.invoke(main, ["gen-cex", "--n", "1", "--w", "10"])
        assert res.exit_code == 1

    @pytest.mark.parametrize("n, w", [(20, 1), (5, 100)])
    def test_gen_cex_without_flip_exit_three(self, runner, n, w):
        """No horizon up to 10^4 flips the branches: an exceeded iteration
        cap, one error line and exit 3, with nothing on stdout."""
        res = runner.invoke(main, ["gen-cex", "--n", str(n), "--w", str(w)])
        assert res.exit_code == 3
        assert isinstance(res.exception, SystemExit)
        assert res.output == "error: no flip within 10000 horizons\n"


class TestBench:
    def test_trace_csv(self, runner, smpg_file, entropy_file, tmp_path):
        trace = tmp_path / "bench.csv"
        res = runner.invoke(main, ["bench", smpg_file, entropy_file,
                                   "--trace", str(trace)])
        assert res.exit_code == 0
        with open(trace, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["kind"] for r in rows] == ["smpg", "entropy"]
        assert all(int(r["steps"]) >= 1 for r in rows)
        assert all(float(r["seconds"]) >= 0 for r in rows)

    def test_plain_output(self, runner, smpg_file):
        res = runner.invoke(main, ["bench", smpg_file])
        assert res.exit_code == 0
        assert "kind=smpg" in res.output

    def test_options_between_games(self, smpg_file, entropy_file):
        code, out, err = run_cli(["bench", smpg_file, "--budget", "5",
                                  entropy_file])
        assert (code, err) == (0, "")
        assert [line.split()[1] for line in out.splitlines()] == [
            "kind=smpg", "kind=entropy"]


class TestUnreadableInput:
    """A missing file or a directory where a file belongs, and an output
    path in a missing directory or naming a directory, exit 1 with a
    one-line error, not a usage error (2) and no traceback."""

    @pytest.mark.parametrize("args", [
        ["solve", "{missing}"],
        ["solve", "{dir}"],
        ["brute", "{missing}"],
        ["brute", "{dir}"],
        ["bench", "{game}", "{missing}"],
        ["certify", "{missing}", "{game}"],
        ["certify", "{game}", "{missing}"],
        ["certify", "{game}", "{dir}"],
        *([*opt, out] for opt in (
            ["gen-random", "--out"],
            ["gen-cex", "--n", "2", "--w", "2", "--out"],
            ["gen-cex", "--n", "2", "--w", "2", "--flip", "3", "--flip-out"],
            ["brute", "{game}", "--pairs"],
            ["bench", "{game}", "--trace"],
        ) for out in ("{missing_dir}", "{dir}")),
    ], ids=" ".join)
    def test_exit_one(self, runner, smpg_file, tmp_path, args):
        paths = {"game": smpg_file, "dir": str(tmp_path),
                 "missing": str(tmp_path / "missing.json"),
                 "missing_dir": str(tmp_path / "missing" / "out.json")}
        res = runner.invoke(main, [a.format(**paths) for a in args])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert "error" in res.output.lower()

    @pytest.mark.parametrize("args", [
        ["solve", "{missing}"],
        ["certify", "{missing}", "{game}"],
        ["certify", "{game}", "{missing}"],
        ["brute", "{missing}"],
        ["bench", "{game}", "{missing}"],
    ], ids=" ".join)
    def test_cannot_read_one_line(self, smpg_file, tmp_path, args):
        """Every command that reads a game or a report words an unreadable
        file alike, as every other input error is worded."""
        missing = str(tmp_path / "missing.json")
        code, out, err = run_cli(
            [a.format(game=smpg_file, missing=missing) for a in args])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {missing}: ")
        assert err.count("\n") == 1


    @pytest.mark.parametrize("args", [
        ["solve", "{deep}"],
        ["certify", "{deep}", "{game}"],
        ["certify", "{game}", "{deep}"],
    ], ids=" ".join)
    def test_nesting_too_deep_one_line(self, smpg_file, tmp_path, args):
        """A game or a report nested deeper than the JSON parser can
        follow cannot be read either."""
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run_cli(
            [a.format(game=smpg_file, deep=deep) for a in args])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {deep}: ")
        assert err.count("\n") == 1

# every option of each command, as its --help must name it
OPTIONS = {
    "solve": ["--mode", "--json", "--budget"],
    "certify": [],
    "brute": ["--budget", "--pairs", "--json"],
    "gen-random": ["--kind", "--seed", "--out"],
    "gen-cex": ["--n", "--w", "--out", "--flip", "--flip-out", "--json"],
    "bench": ["--budget", "--trace"],
}


# usage errors, each with the program its usage line names
USAGE_ERRORS = [
    (["solve", "{game}", "--mode", "bogus"], "mpgames solve"),
    (["solve", "{game}", "--budget", "x"], "mpgames solve"),
    (["solve", "{game}", "--mod", "full"], "mpgames solve"),
    (["solve"], "mpgames solve"),
    (["gen-cex", "--n", "2"], "mpgames gen-cex"),
    (["bogus", "{game}"], "mpgames"),
    ([], "mpgames"),
]


class TestUsage:
    """A usage error exits 2 with the usage on stderr and nothing on
    stdout; --help prints to stdout and exits 0."""

    @pytest.mark.parametrize("args, usage", USAGE_ERRORS, ids=[
        " ".join(args) or "no-command" for args, _ in USAGE_ERRORS])
    def test_usage_error_exit_two(self, smpg_file, args, usage):
        """An abbreviated option (--mod) is refused like an unknown one."""
        code, out, err = run_cli([a.format(game=smpg_file) for a in args])
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: {usage} [-h] ")
        assert "error: " in err and "Traceback" not in err

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_command_help_names_every_option(self, command):
        code, out, err = run_cli([command, "--help"])
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: mpgames {command} ")
        named = set(re.findall(r"(?<![\w-])--[\w-]+", out))
        assert named == {"--help", *OPTIONS[command]}

    def test_help_names_every_command(self):
        code, out, err = run_cli(["--help"])
        assert (code, err) == (0, "")
        assert sorted(main.commands) == sorted(OPTIONS)
        for command in OPTIONS:
            assert re.search(rf"^ +{command}\b", out, re.M), command

    def test_closed_stdout_exit_one(self, smpg_file):
        """A reader of stdout that went away (`mpgames ... | head`) ends the
        command with exit 1 and no traceback."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            res = subprocess.run(
                [sys.executable, "-m", "mpgames.cli", "solve", smpg_file],
                stdout=write_end, stderr=subprocess.PIPE, env=fresh_env(),
                timeout=120)
        finally:
            os.close(write_end)
        assert (res.returncode, res.stderr) == (1, b"")


class TestInProcess:
    def test_commands_release_redirected_streams(self, tmp_path):
        """A caller that runs commands in-process, each with fresh
        redirected stdout and stderr buffers, gets every buffer back: the
        CLI keeps no reference to a stream it wrote to."""
        path = write_game(tmp_path, "g.json",
                          mg.game_to_json(nature_half_game()))
        bad = write_game(tmp_path, "bad.json", {"type": "chess"})
        rep = tmp_path / "rep.json"
        streams = []
        for args in (["solve", path, "--json"], ["certify", path, str(rep)],
                     ["solve", bad], ["solve", path, "--mode", "bogus"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    main.main(args=args, prog_name="mpgames",
                              standalone_mode=False)
                except SystemExit:
                    pass
            if args[-1] == "--json":
                rep.write_text(out.getvalue())
            else:
                assert (out.getvalue() + err.getvalue()).strip()
            streams += [weakref.ref(out), weakref.ref(err)]
            del out, err
        gc.collect()
        assert [ref() for ref in streams] == [None] * len(streams)

    def test_cli_loads_neither_numpy_nor_mpmath(self, tmp_path):
        """A fresh interpreter that imports the CLI and runs one smpg and
        one entropy solve + certify, brute force on the entropy game and
        gen-cex has loaded none of numpy, mpmath and click."""
        games = [
            write_game(tmp_path, "g.json",
                       mg.game_to_json(nature_half_game())),
            write_game(tmp_path, "e.json",
                       ent.entropy_to_json(entropy_tribune_choice())),
        ]
        loaded = fresh_modules("""
            for game in sys.argv[1:]:
                solve_and_certify(game)
            assert "values" in run("brute", sys.argv[-1], "--json")
            assert "k_star" in run("gen-cex", "--n", "3", "--w", "4", "--json")
        """, *games)
        assert not {"numpy", "mpmath", "click"} & loaded


def package_modules(loaded):
    """The modules of the package among the loaded ones."""
    return {m for m in loaded if m.split(".")[0] == "mpgames"}


CLI_MODULES = {"mpgames", "mpgames.cli", "mpgames.graphs", "mpgames.numeric"}
# the modules a solve and certify of each kind that certifies early load
SOLVE_MODULES = {
    "smpg": CLI_MODULES | {"mpgames.stochastic", "mpgames._smpgfast",
                           "mpgames.linalg"},
    "entropy": CLI_MODULES | {"mpgames.entropy", "mpgames.linalg"},
}
# each kind's reference and fallback modules, loaded on first use
FALLBACK_MODULES = {
    "smpg": {"mpgames.dominion", "mpgames.iteration", "mpgames.oracle"},
    "entropy": {"mpgames.perron"},
}
# the bodies of brute, gen-random, gen-cex and bench, loaded on first use
TOOLS_MODULES = {"mpgames._tools"}
# the package source lines of SOLVE_MODULES per kind
SOLVE_LINES = {"smpg": 2439, "entropy": 2243}


def source_lines(modules):
    """The source lines of the package modules `modules`."""
    total = 0
    for name in modules:
        with open(importlib.import_module(name).__file__,
                  encoding="utf-8") as fh:
            total += len(fh.read().splitlines())
    return total

# scripts run after FRESH_PRELUDE with the stochastic game nature_half_game
# (its value 3/2 at both Min states) or the entropy game
# entropy_tribune_choice (its value 3) as their argument; each checks the
# answer of a command that runs a kind's reference or fallback code
REFERENCE_SCRIPTS = {
    "smpg-brute": ("smpg", """
        rep = json.loads(run("brute", sys.argv[1], "--json"))
        assert rep == {"pairs": 1, "values": {"m1": "3/2", "m2": "3/2"}}
    """),
    "smpg-winner": ("smpg", """
        rep = json.loads(run("solve", sys.argv[1], "--mode", "winner",
                             "--json"))
        assert rep == {"iterations": 1, "result": "MaxWinsAll",
                       "witness": ["1/1", "2/1"]}
    """),
    "smpg-fallback": ("smpg", """
        import mpgames.stochastic as st

        early = json.loads(run("solve", sys.argv[1], "--json"))
        real, probes = st._half_line, []

        def probe(*args):
            # the first probe stops at step 0 without the gap condition,
            # as at its cap, so that the paper's top_class decides
            probes.append(args)
            return ((None, None, None, 0, None) if len(probes) == 1
                    else real(*args))

        st._half_line = probe
        solve_and_certify(sys.argv[1])
        late = json.load(open(sys.argv[1] + ".report.json"))
        assert len(probes) == 2
        assert (late["top_class"], late["top_value"]) == (["m1", "m2"], "3/2")
        assert late["min_strategy"] == early["min_strategy"]
        assert late["max_strategy"] == early["max_strategy"]
    """),
    "entropy-brute": ("entropy", """
        rep = json.loads(run("brute", sys.argv[1], "--json"))
        assert (rep["pairs"], rep["rank"]) == (2, 1)
        assert rep["values"]["d0"]["lo"] == rep["values"]["d0"]["hi"] == "3/1"
    """),
    "entropy-fallback": ("entropy", """
        import mpgames.entropy as ent

        early = json.loads(run("solve", sys.argv[1], "--json"))
        ent._separated_block = lambda game: None
        solve_and_certify(sys.argv[1])
        late = json.load(open(sys.argv[1] + ".report.json"))
        assert late["blocks"] == early["blocks"] == [["d0"]]
        assert late["despot_strategy"] == early["despot_strategy"]
        assert late["tribune_strategy"] == early["tribune_strategy"]
        value = late["values"]["d0"]
        assert Fraction(value["lo"]) <= 3 <= Fraction(value["hi"])
    """),
}


class TestStartup:
    """Each command imports only the modules of the game kind it reads, and
    a solve and certify only those of the solve path: a kind's reference
    and fallback modules load when a command or a fallback runs them."""

    def test_cli_import_loads_no_kind_module(self):
        assert package_modules(fresh_modules("")) == CLI_MODULES

    @pytest.mark.parametrize("kind", ["smpg", "entropy"])
    def test_solve_and_certify_load_one_kind(self, smpg_file, entropy_file,
                                             kind):
        """Only the solve path of the file's kind, SOLVE_LINES lines of
        source in all, and not `dataclasses`."""
        game = smpg_file if kind == "smpg" else entropy_file
        loaded = fresh_modules("solve_and_certify(sys.argv[1])", game)
        assert package_modules(loaded) == SOLVE_MODULES[kind]
        assert source_lines(SOLVE_MODULES[kind]) == SOLVE_LINES[kind]
        assert "dataclasses" not in loaded

    def test_no_module_imports_dataclasses(self):
        """Records are NamedTuples: creating a dataclass costs far more
        start-up time than creating a NamedTuple."""
        package = os.path.dirname(mg.__file__)
        for name in sorted(os.listdir(package)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    assert all(a.name != "dataclasses"
                               for a in node.names), name
                elif isinstance(node, ast.ImportFrom):
                    assert node.module != "dataclasses", name

    def test_gen_random_loads_its_kind(self):
        """Each kind's generator lives with its reference code."""
        for kind in ("smpg", "entropy"):
            loaded = fresh_modules(f"""
                assert "edges" in run("gen-random", "--kind", "{kind}")
            """)
            assert package_modules(loaded) == (SOLVE_MODULES[kind]
                                               | FALLBACK_MODULES[kind]
                                               | TOOLS_MODULES)

    def test_gen_cex_and_bench_load_their_modules(self, smpg_file,
                                                  entropy_file):
        """`gen-cex` loads the entropy modules and `cex`; `bench` loads
        every module a solve of either kind may run."""
        loaded = fresh_modules("""
            assert "k_star" in run("gen-cex", "--n", "3", "--w", "2",
                                   "--json")
        """)
        assert package_modules(loaded) == (
            SOLVE_MODULES["entropy"] | FALLBACK_MODULES["entropy"]
            | TOOLS_MODULES | {"mpgames.cex"})
        loaded = fresh_modules('assert "kind=" in run("bench", *sys.argv[1:])',
                               smpg_file, entropy_file)
        assert package_modules(loaded) == set.union(
            *SOLVE_MODULES.values(), *FALLBACK_MODULES.values(),
            TOOLS_MODULES)

    @pytest.mark.parametrize("name", sorted(REFERENCE_SCRIPTS))
    def test_reference_commands_load_the_fallback(self, smpg_file,
                                                  entropy_file, name):
        """`brute`, `--mode winner` and a forced fallback load the kind's
        reference and fallback modules, and answer as the solve path and
        the pinned values do."""
        kind, script = REFERENCE_SCRIPTS[name]
        game = smpg_file if kind == "smpg" else entropy_file
        loaded = fresh_modules("from fractions import Fraction\n"
                               + textwrap.dedent(script), game)
        tools = TOOLS_MODULES if name.endswith("-brute") else set()
        assert package_modules(loaded) == (SOLVE_MODULES[kind]
                                           | FALLBACK_MODULES[kind] | tools)

    def test_bench_clock_starts_after_the_import(self, smpg_file,
                                                 entropy_file):
        """Each bench row's clock starts with every module a solve of
        either kind may run loaded, its fallback modules included, so no
        row's seconds include compiling one."""
        every = sorted(set.union(*SOLVE_MODULES.values(),
                                 *FALLBACK_MODULES.values()))
        fresh_modules(f"""
            import time
            clock, started = time.perf_counter, []

            def perf_counter():
                started.append(set(sys.modules))
                return clock()

            time.perf_counter = perf_counter
            run("bench", *sys.argv[1:])
            time.perf_counter = clock
            assert len(started) == 4, len(started)
            for name in {every!r}:
                assert name in started[0], name
        """, smpg_file, entropy_file)


# structural mutations of game files and solve reports, for the fuzz test

WRONG_TYPES = (None, True, 1.5, "x", [], {}, [1], {"a": 1})
NON_POSITIVE = (0, -1, "0/1", "-1/1")


def json_spots(node):
    """Every (container, key or index) location inside a JSON tree."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    spots = []
    for key, child in items:
        spots.append((node, key))
        spots += json_spots(child)
    return spots


@st.composite
def mutated(draw, obj):
    """A deep copy of obj with one to three structural mutations: a dropped
    key or element, a value of the wrong type, an unknown id, a duplicated
    list element (duplicate ids or edges) or a non-positive number."""
    obj = copy.deepcopy(obj)
    for _ in range(draw(st.integers(1, 3))):
        spots = json_spots(obj)
        if not spots:
            break
        parent, key = spots[draw(st.integers(0, len(spots) - 1))]
        how = draw(st.sampled_from(
            ["drop", "retype", "unknown", "duplicate", "non-positive"]))
        if how == "drop":
            del parent[key]
        elif how == "retype":
            parent[key] = draw(st.sampled_from(WRONG_TYPES))
        elif how == "unknown":
            parent[key] = "zz"
        elif how == "duplicate" and isinstance(parent, list):
            parent.append(copy.deepcopy(parent[key]))
        else:  # a non-positive number, also in place of a duplicated key
            parent[key] = draw(st.sampled_from(NON_POSITIVE))
    return obj


FUZZ_GAMES = {
    "smpg": mg.game_to_json(nature_half_game()),
    "smpg-absorbing": mg.game_to_json(absorbing_game()),
    "entropy": mg.entropy_to_json(entropy_tribune_choice()),
    "entropy-e11-54": mg.entropy_to_json(defect_game("e11-54")),
}


@pytest.fixture(scope="session")
def fuzz_inputs(tmp_path_factory):
    """A scratch directory and, per name, a game and its solve report."""
    where = tmp_path_factory.mktemp("fuzz")
    inputs = {}
    for name, game in FUZZ_GAMES.items():
        res = CliRunner().invoke(
            main, ["solve", write_game(where, "g.json", game), "--json"])
        inputs[name] = (game, json.loads(res.output))
    return where, inputs


class TestFuzz:
    @staticmethod
    def run(args):
        res = CliRunner().invoke(main, args)
        assert res.exception is None or isinstance(res.exception,
                                                   SystemExit), res.exception
        assert res.exit_code in (0, 1, 3)
        assert "Traceback" not in res.output

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(name=st.sampled_from(sorted(FUZZ_GAMES)), part=st.booleans(),
           data=st.data())
    def test_mutated_games_and_reports(self, fuzz_inputs, name, part, data):
        """solve and certify of a mutated game, or certify of a mutated
        report, exit 0, 1 or 3 and print no stack trace."""
        where, inputs = fuzz_inputs
        game, report = inputs[name]
        if part:
            game = data.draw(mutated(game))
        else:
            report = data.draw(mutated(report))
        path = write_game(where, "g.json", game)
        rep = write_game(where, "rep.json", report)
        self.run(["solve", path, "--json"])
        self.run(["certify", path, rep])
