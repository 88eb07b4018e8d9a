"""Source hygiene: every module of the package uses each name it imports,
some module of the package reads each module-level private name, and each
state-list key of the game files is spelled in one module only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mpgames"
SOURCES = sorted(SRC.glob("*.py"))


def unused_imports(source):
    """(line, name) of each name that `source` imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = (
                    node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import json\n"
              "import os.path\n"
              "from dataclasses import dataclass, replace\n"
              "from fractions import Fraction as F\n"
              "@dataclass\n"
              "class A:\n"
              "    x: F = os.path.sep\n")
    assert unused_imports(source) == [(2, "json"), (4, "replace")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _private_definitions(tree):
    """(line, name) of each module-level function, class or constant whose
    name starts with one underscore."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            found += [(node.lineno, t.id) for target in targets
                      for t in ast.walk(target) if isinstance(t, ast.Name)]
    return [(line, name) for line, name in found
            if name.startswith("_") and not name.startswith("__")]


def unread_privates(sources):
    """(module, line, name) of each module-level private name of the
    modules `sources` (module name -> source) that no module reads: by
    name, or by importing it from another module."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted((module, line, name) for module, tree in trees.items()
                  for line, name in _private_definitions(tree)
                  if name not in read)


def test_scan_finds_unread_privates():
    sources = {
        "a": ("_LIMIT = 3\n"
              "_UNUSED, _PAIR = 1, 2\n"
              "__all__ = []\n"
              "def _helper():\n"
              "    return _LIMIT\n"
              "def _dead():\n"
              "    return _helper()\n"
              "class _Box:\n"
              "    _slot = 0\n"
              "def public():\n"
              "    _local = 1\n"
              "    return _local\n"),
        "b": "from .a import _PAIR, _Box\n",
    }
    assert unread_privates(sources) == [
        ("a", 2, "_UNUSED"), ("a", 6, "_dead")]


def test_every_private_name_is_read():
    assert unread_privates({p.stem: p.read_text(encoding="utf-8")
                            for p in SOURCES}) == []


STATE_KEYS = ("min_states", "max_states", "nat_states",
              "d_states", "t_states", "p_states")


def shared_state_keys(sources):
    """(key, modules) of each game-file state-list key that appears as a
    string constant in more than one of the modules `sources` (module name
    -> source)."""
    where = {}
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Constant) and node.value in STATE_KEYS:
                where.setdefault(node.value, set()).add(module)
    return sorted((key, sorted(modules)) for key, modules in where.items()
                  if len(modules) > 1)


def test_scan_finds_shared_state_keys():
    sources = {
        "a": ('KEYS = ("min_states", "max_states", "nat_states")\n'
              'def f(obj):\n'
              '    """Reads "d_states"."""\n'
              '    return obj["d_states"], f"{obj}_states"\n'),
        "b": ('def g(states):\n'
              '    return states["min_states"], states["t_states"]\n'),
        "c": 'NAME = "d_states"\nOTHER = "min_states_x"\n',
    }
    assert shared_state_keys(sources) == [
        ("d_states", ["a", "c"]), ("min_states", ["a", "b"])]


def test_state_keys_are_spelled_once():
    assert shared_state_keys({p.stem: p.read_text(encoding="utf-8")
                              for p in SOURCES}) == []


def exit_callers(source):
    """The qualified names of the functions of `source` that call
    `sys.exit`, and "<module>" for a call outside any function."""
    callers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "exit"
                    and isinstance(child.func.value, ast.Name)
                    and child.func.value.id == "sys"):
                callers.add(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(callers)


def test_scan_finds_exit_callers():
    source = ("import sys\n"
              "def f():\n"
              "    def g():\n"
              "        sys.exit(1)\n"
              "    return g\n"
              "class C:\n"
              "    def main(self):\n"
              "        sys.exit(0)\n"
              "    def other(self):\n"
              "        return exit(2)\n"
              "if __name__ == '__main__':\n"
              "    sys.exit(3)\n")
    assert exit_callers(source) == ["<module>", "C.main", "f.g"]


def test_cli_exits_in_one_place():
    """Command bodies return their exit code; only `_Group.main` maps it,
    and every error, to the process exit."""
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert exit_callers(source) == ["_Group.main"]


def fraction_users(source):
    """The qualified names of the functions of `source` that reference
    `Fraction` (as a name or as `fractions.Fraction`), with "<module>" for
    a reference outside any function; and every function's name."""
    users, defined = set(), set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
                defined.add(name)
                visit(child, name)
                continue
            if ((isinstance(child, ast.Name) and child.id == "Fraction")
                    or (isinstance(child, ast.Attribute)
                        and child.attr == "Fraction")):
                users.add(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(source), "")
    return users, defined


def test_scan_finds_fraction_users():
    source = ("import fractions\n"
              "from fractions import Fraction\n"
              "def f(x):\n"
              "    return x.numerator\n"
              "def g():\n"
              "    def h():\n"
              "        return fractions.Fraction(1)\n"
              "    return h\n"
              "class C:\n"
              "    def m(self) -> 'Fraction':\n"
              "        return Fraction(2)\n"
              "ONE = Fraction(1)\n")
    users, defined = fraction_users(source)
    assert sorted(users) == ["<module>", "C.m", "g.h"]
    assert defined == {"f", "g", "g.h", "C", "C.m"}


# per module, the functions between the greedy pair and the solve's
# certificates, the entropy separation search up to its certificates, each
# kind's certificate check and report check, which solve and certify share,
# and the report writer and reader of either kind's certificates: all on
# integers
INTEGER_PATH = {
    "stochastic.py": ("_half_line", "_half_line_at", "_half_line_holds",
                      "_greedy_pair", "_pair_chain", "gain_bias_numerators",
                      "_probe_cap"),
    "smpgcheck.py": ("certificates_hold", "_step_stages", "_cut",
                     "_nature_stage", "_max_stage", "_min_stage",
                     "verify_report", "_smpg_failure", "_smpg_claims"),
    "entropy.py": ("_separated_block", "_evaluate", "_growth_top",
                   "_level_states", "_separated_levels", "_single_integer",
                   "_exact_witness", "_root_bracket", "_squared",
                   "_DampedIterate.advance", "_log2_ceil"),
    "entropycheck.py": ("_greedy", "check_entropy_certificates",
                        "multiplicative_eval", "clamped_levels", "_peeled",
                        "verify_report", "_cert_target", "_pair_failure",
                        "_entropy_claims"),
    "numeric.py": ("_cert_from_record", "_cert_records", "_cert_pair",
                   "_interval_ends", "_same_interval", "_strategy",
                   "_approx_holds", "_approx_text", "_dec_str"),
    "cli.py": ("_cert_record", "_ratio_str", "_ends_record"),
}


def test_hot_path_is_integer():
    """The probe, the half-line check and the gain/bias core of
    `stochastic`, all of `_smpgfast`, the entropy separation search, both
    kinds' certificate and report checks and the certificate writer and
    reader reference no Fraction."""
    users, defined = fraction_users(
        (SRC / "_smpgfast.py").read_text(encoding="utf-8"))
    assert defined and not users
    for module, names in INTEGER_PATH.items():
        users, defined = fraction_users(
            (SRC / module).read_text(encoding="utf-8"))
        assert set(names) <= defined, module
        assert users.isdisjoint(names), module


# each game kind's checker: what `certify` loads besides `cli`
CHECKERS = ("smpgcheck", "entropycheck")


def package_imports(source):
    """The package modules `source` imports (relative imports)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module
                         else [alias.name for alias in node.names])
    return found


def top_level_definitions(source):
    """The names of the module-level functions and classes of `source`."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))}


def test_scan_finds_imports_and_definitions():
    source = ("from . import graphs\n"
              "from .numeric import NEG_INF\n"
              "from fractions import Fraction\n"
              "def f():\n"
              "    from .linalg import integer_rank\n"
              "    def g():\n"
              "        pass\n"
              "class C:\n"
              "    def m(self):\n"
              "        pass\n")
    assert package_imports(source) == {"graphs", "numeric", "linalg"}
    assert top_level_definitions(source) == {"f", "C"}


def test_checkers_import_only_graphs_and_numeric():
    for checker in CHECKERS:
        source = (SRC / f"{checker}.py").read_text(encoding="utf-8")
        assert package_imports(source) <= {"graphs", "numeric"}, checker


def test_stochastic_checker_has_one_operator():
    """`smpgcheck` codes the Shapley operator once, in its integer stages:
    it neither defines nor calls the Fraction reference `shapley_eval`, and
    imports no `fractions`."""
    tree = ast.parse((SRC / "smpgcheck.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
            names.update(a.name for a in node.names)
    assert not names & {"shapley_eval", "fractions", "Fraction"}


RECORD_RULE = {"game_record", "check_rows", "subgame"}


def sorts_a_row(tree):
    """Whether a comprehension of `tree` sorts the element it iterates,
    as `tuple(sorted(row)) for row in rows` sorts each edge row."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            bound = {gen.target.id for gen in node.generators
                     if isinstance(gen.target, ast.Name)}
            for call in ast.walk(node.elt):
                if (isinstance(call, ast.Call)
                        and getattr(call.func, "id", None) == "sorted"
                        and getattr(call.args[0], "id", None) in bound):
                    return True
    return False


def test_scan_finds_row_sorting():
    assert sorts_a_row(ast.parse("[tuple(sorted(row)) for row in rows]"))
    assert not sorts_a_row(ast.parse("[sorted(p.ids) for p in pairs]"))


def test_game_records_are_built_in_graphs():
    """`graphs` builds, checks and restricts every game record, by the one
    rule game files follow: it alone defines `game_record`, `check_rows`
    and `subgame`, each checker calls all three, and neither checker sorts
    an edge row itself."""
    defined = {path.stem: top_level_definitions(
        path.read_text(encoding="utf-8")) for path in SOURCES}
    assert RECORD_RULE <= defined["graphs"]
    for stem, names in defined.items():
        if stem != "graphs":
            assert not names & RECORD_RULE, stem
    for checker in CHECKERS:
        tree = ast.parse((SRC / f"{checker}.py").read_text(encoding="utf-8"))
        called = {node.func.id for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)}
        assert RECORD_RULE <= called, checker
        assert not sorts_a_row(tree), checker


def test_each_check_is_defined_once():
    """No module but the checkers defines a function or class that a
    checker defines: the solvers import the checks, and keep no copy."""
    checked = set().union(*(
        top_level_definitions((SRC / f"{c}.py").read_text(encoding="utf-8"))
        for c in CHECKERS))
    for path in SOURCES:
        if path.stem not in CHECKERS:
            copies = top_level_definitions(path.read_text(encoding="utf-8"))
            assert not copies & checked, (path.stem, copies & checked)
