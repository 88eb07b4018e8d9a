"""Source hygiene: every module of the package uses each name it imports.

`__init__` is left out: its imports are the package's exports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mpgames"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
