"""The benchmark's span tracer wraps mpgames functions, methods and CLI
commands by name (`perfbench/spans.py`) and reads work counts off their
return values; every name it lists must resolve and every result it reads
must keep its shape, or the traced benchmark run (`perfbench/run.py
--trace 1`) breaks."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

import mpgames as mg
from mpgames.cli import main

from conftest import entropy_tribune_choice, nature_half_game

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


def test_traced_run_counts_work(tmp_path):
    """A traced `solve --json` and `certify` of one stochastic and one
    entropy game, and a traced `brute --json` of the entropy game, read the
    work counts off the return values the tracer expects: a reshaped result
    fails here, not only in the traced run.  The entropy solve certifies its
    block by the rank separation, so the enumeration counts come from
    `brute`."""
    runner = CliRunner()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name, obj in (
                ("smpg", mg.game_to_json(nature_half_game())),
                ("entropy", mg.entropy_to_json(entropy_tribune_choice()))):
            game, report = tmp_path / f"{name}.json", tmp_path / "report.json"
            game.write_text(json.dumps(obj))
            res = runner.invoke(main, ["solve", str(game), "--json"])
            assert res.exit_code == 0, res.output
            report.write_text(res.output)
            res = runner.invoke(main, ["certify", str(game), str(report)])
            assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["brute", str(tmp_path / "entropy.json"),
                                   "--json"])
        assert res.exit_code == 0, res.output
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1)
    # the command spans count only if the CLI runs the callback it finds in
    # `main.commands` at call time, which the tracer has replaced
    for key in ("cli.solve.self_s", "cli.certify.self_s",
                "smpgfast.Kernel.gap_loop.steps",
                "entropy.brute_force_entropy_values.pairs",
                "entropy.rank_profile.selections"):
        assert metrics[key] > 0, key


def test_uninstall_leaves_no_wrapper_in_the_package():
    """The package resolves its exports on each access and keeps no copy,
    so an export read while the tracer is installed is the wrapper, and the
    same name read after `uninstall` is the original again."""
    exported = [(importlib.import_module(f"mpgames.{mod}"), name)
                for mod, name, _ in spans.FUNCTIONS if name in mg.__all__]
    originals = [getattr(module, name) for module, name in exported]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [getattr(mg, name) for _, name in exported]
    finally:
        tracer.uninstall()
    for (module, name), orig, wrapper in zip(exported, originals, traced):
        assert wrapper is not orig and wrapper.__wrapped__ is orig, name
        assert getattr(mg, name) is orig is getattr(module, name), name
        assert name not in vars(mg), name
