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
