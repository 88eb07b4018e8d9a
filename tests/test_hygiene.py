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


# the functions between the greedy pair and the solve's certificates, and
# the certificate check that solve and certify share: all on integers
INTEGER_HOT_PATH = (
    "_half_line", "_half_line_at", "_half_line_holds", "_greedy_pair",
    "_pair_chain", "gain_bias_numerators", "certificates_hold",
    "_step_stages", "_cut", "_reference_holds", "_probe_cap",
)


# the certificate path outside `stochastic`: the entropy check, and the
# report writer and reader of either kind's certificates
INTEGER_CERTIFICATE_PATH = {
    "entropy.py": ("check_entropy_certificates",),
    "cli.py": ("_cert_from_record", "_cert_record", "_ratio_str",
               "_ends_record"),
}


def test_hot_path_is_integer():
    """The probe, the half-line check, the gain/bias core and the
    certificate core of `stochastic`, all of `_smpgfast`, the entropy
    certificate check and `cli`'s certificate writer and reader reference
    no Fraction."""
    users, defined = fraction_users(
        (SRC / "stochastic.py").read_text(encoding="utf-8"))
    assert set(INTEGER_HOT_PATH) <= defined
    assert users.isdisjoint(INTEGER_HOT_PATH)
    users, defined = fraction_users(
        (SRC / "_smpgfast.py").read_text(encoding="utf-8"))
    assert defined and not users
    for module, names in INTEGER_CERTIFICATE_PATH.items():
        users, defined = fraction_users(
            (SRC / module).read_text(encoding="utf-8"))
        assert set(names) <= defined
        assert users.isdisjoint(names)
