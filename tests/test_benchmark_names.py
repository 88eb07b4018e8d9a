"""The benchmark's span tracer wraps mpgames functions, methods and CLI
commands by name (`perfbench/spans.py`); every name it lists must resolve,
or the traced benchmark run (`perfbench/run.py --trace 1`) breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from mpgames.cli import main

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans()


@pytest.mark.parametrize("mod, name, span", spans.FUNCTIONS,
                         ids=[s for *_, s in spans.FUNCTIONS])
def test_traced_function_resolves(mod, name, span):
    module = importlib.import_module(f"mpgames.{mod}")
    assert callable(getattr(module, name, None)), span


@pytest.mark.parametrize("mod, cls, meth, span", spans.METHODS,
                         ids=[s for *_, s in spans.METHODS])
def test_traced_method_resolves(mod, cls, meth, span):
    owner = getattr(importlib.import_module(f"mpgames.{mod}"), cls, None)
    assert owner is not None and callable(vars(owner).get(meth)), span


@pytest.mark.parametrize("cmd, span", spans.COMMANDS,
                         ids=[s for _, s in spans.COMMANDS])
def test_traced_command_resolves(cmd, span):
    assert cmd in main.commands, span
