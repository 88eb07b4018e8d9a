"""The committed answer corpus: one SHA-256 of exit code, stdout and stderr
per (game, command) over a fixed generated set of games, in
`answer_corpus.txt`.

The corpus is 5 default `random_smpg` draws of each of `Random(0..399)`,
the 12 draws of `random_smpg(Random(1), 5, 5, 5)` (`r1-555-*`), the four
peel games, and draw 0 of `random_entropy_game(Random(seed))` for seeds
0..399.  Each game is solved in `full`, `value` and `topclass` mode with
`--json`, every exit-0 `full` report is run through `certify`, and `brute
--json` enumerates its strategy pairs, which pins the reference and
fallback code that no early-certified solve runs.  Each command runs
in-process with its real argument list, so argument parsing is pinned
too.  A change that alters any answer fails here; when the change is
meant, regenerate the file with

    PYTHONPATH=src python tests/test_corpus.py

and say in CHANGES.md which games changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import mpgames as mg
from mpgames.cli import main

CORPUS = Path(__file__).resolve().parent / "answer_corpus.txt"
MODES = ("full", "value", "topclass")
PEEL_GAMES = ((14, 3), (3, 14), (6, 2), (10, 5))


def _peel_game(w1, w2):
    # the same game as conftest.peel_game, built here so that the script
    # also runs outside pytest
    w = (w1, w1, w2, w2)
    return mg.make_game(
        ["m0", "m1", "m2", "m3"], ["x0", "x1", "x2", "x3"],
        ["n0", "n1", "n2", "n3"],
        [[(j, -w[j])] for j in range(4)],
        [[(i, 0)] for i in range(4)],
        [[(1, 1)], [(0, 1)], [(3, 1)], [(2, 1)]],
        1,
    )


def corpus_games():
    """(game id, game file object) for every game of the corpus."""
    for seed in range(400):
        rng = random.Random(seed)
        for k in range(5):
            yield f"s{seed}-{k}", mg.game_to_json(mg.random_smpg(rng))
    rng = random.Random(1)
    for i in range(12):
        yield f"r1-555-{i}", mg.game_to_json(mg.random_smpg(rng, 5, 5, 5))
    for w1, w2 in PEEL_GAMES:
        yield f"peel-{w1}-{w2}", mg.game_to_json(_peel_game(w1, w2))
    for seed in range(400):
        game = mg.random_entropy_game(random.Random(seed))
        yield f"e{seed}-0", mg.entropy_to_json(game)


def _run(*args):
    """(exit code, stdout, stderr) of `mpgames <args>`, run in-process as
    the console script runs it: argument parsing included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(list(args), prog_name="mpgames")
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _digest(code, out, err) -> str:
    return hashlib.sha256(f"{code}\n{out}\n{err}".encode()).hexdigest()


def corpus_digests(workdir: Path) -> list:
    """Lines "<game id> <command> <sha256>" in corpus order."""
    game_path = str(workdir / "game.json")
    report_path = str(workdir / "report.json")
    lines = []
    for gid, obj in corpus_games():
        with open(game_path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        for mode in MODES:
            res = _run("solve", game_path, "--mode", mode, "--json")
            lines.append(f"{gid} {mode} {_digest(*res)}")
            if mode == "full" and res[0] == 0:
                with open(report_path, "w", encoding="utf-8") as fh:
                    fh.write(res[1])
                cert = _run("certify", game_path, report_path)
                lines.append(f"{gid} certify {_digest(*cert)}")
        res = _run("brute", game_path, "--json")
        lines.append(f"{gid} brute {_digest(*res)}")
    return lines


def test_answers_match_the_committed_corpus(tmp_path):
    """Every (game, command) of the corpus prints what the committed file
    records, and every exit-0 `full` report passes `certify`."""
    lines = corpus_digests(tmp_path)
    expected = CORPUS.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(expected)
    changed = [line.split(" ", 2)[:2]
               for line, want in zip(lines, expected) if line != want]
    assert not changed, f"{len(changed)} answers changed, first {changed[:5]}"
    passed = _digest(0, "all certificates verified\n", "")
    certified = [line for line in lines if " certify " in line]
    assert certified
    assert all(line.endswith(passed) for line in certified)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        lines = corpus_digests(Path(tmp))
    CORPUS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    sys.exit(0)
