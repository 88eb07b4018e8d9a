"""Tests of the benchmark itself.

    python3 perfbench/selfcheck.py          # about half a minute
    PERFBENCH_SLOW=1 python3 perfbench/selfcheck.py   # adds the slow fixed
                                                      # games, ~100 s

They check that the benchmark's generators reproduce the library's draws
and the frozen fixtures, that the frozen references still belong to their
games, that the benchmark's own brute force agrees with the library's, that
the slowest timed operation stays far below the per-operation limit, and
that the defect games still fail (an expected failure: a fix of the defect
makes the run unsuccessful, as an unexpected success, until the games join
a workload).  With PERFBENCH_SLOW=1 they also solve and certify the games
too slow for a timed run, and check that the traced counts of the pinned
5-state game repeat exactly.
"""

from __future__ import annotations

import json
import os
import random
import sys
import unittest
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import mpgames  # noqa: E402
import mpgames.cli  # noqa: E402

import gen  # noqa: E402
import make_fixtures  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from cliops import invoke  # noqa: E402

# wall limit of one call on the slow fixed games (the mu = 405 game takes
# 70-80 s on a 2-vCPU Xeon at 2.0 GHz)
SLOW_LIMIT_S = 300.0


def solve_and_check(gid, limit_s):
    """Solve and certify one fixed game through the benchmark's operation;
    returns the failure, or None."""
    games, frozen = wl.fixed_games(), wl.frozen_references()
    game = wl.Game(gid, games[gid], frozen[gid]["ref"])
    path = HERE / "out" / f"selfcheck-{gid}.json"
    path.parent.mkdir(exist_ok=True)
    report = path.with_suffix(".report.json")
    try:
        path.write_text(json.dumps(game.obj))
        return run.run_op(mpgames.cli.main, invoke, game, path, report,
                          limit_s)[2]
    finally:
        path.unlink(missing_ok=True)
        report.unlink(missing_ok=True)


class Generators(unittest.TestCase):
    def test_default_draws_match_library(self):
        for seed in range(5):
            ours, lib = random.Random(seed), random.Random(seed)
            for _ in range(200):
                self.assertEqual(gen.random_smpg_json(ours),
                                 mpgames.game_to_json(mpgames.random_smpg(lib)))
            for _ in range(200):
                self.assertEqual(
                    gen.random_entropy_json(ours),
                    mpgames.entropy_to_json(mpgames.random_entropy_game(lib)))

    def test_sized_draws_match_library(self):
        ours, lib = random.Random(1), random.Random(1)
        for _ in range(wl.R1_555_DRAWS):
            self.assertEqual(
                gen.random_smpg_json(ours, 5, 5, 5),
                mpgames.game_to_json(mpgames.random_smpg(lib, 5, 5, 5)))
        for n in wl.ENTROPY_SIZES:
            ours, lib = random.Random(2), random.Random(2)
            for _ in range(wl.ENTROPY_DRAWS):
                self.assertEqual(
                    gen.random_entropy_json(ours, n, n, n),
                    mpgames.entropy_to_json(
                        mpgames.random_entropy_game(lib, n, n, n)))

    def test_fixtures_are_reproduced(self):
        library = make_fixtures.library_fixtures()
        for gid, obj in library.items():
            self.assertEqual(wl.load_fixture(gid), obj, gid)
        # the pinned random draws also come out of the benchmark's generator
        rng = random.Random(1)
        draws = [gen.random_smpg_json(rng, 5, 5, 5)
                 for _ in range(wl.R1_555_DRAWS)]
        self.assertIn(wl.load_fixture(wl.PINNED_SMPG), draws)
        for gid in wl.PINNED_ENTROPY:
            n = int(gid.split("-")[1][0])
            rng = random.Random(2)
            draws = [gen.random_entropy_json(rng, n, n, n)
                     for _ in range(wl.ENTROPY_DRAWS)]
            self.assertIn(wl.load_fixture(gid), draws)
        for gid in wl.DEFECT_GAMES:
            seed, k = map(int, gid[len("defect-e"):].split("-"))
            rng = random.Random(seed)
            draws = [gen.random_entropy_json(rng) for _ in range(k + 1)]
            self.assertEqual(wl.load_fixture(gid), draws[k])

    def test_planted_wide_games(self):
        for seed in range(5):
            rng = random.Random(seed)
            for n in wl.WIDE_SIZES:
                obj, c, h = gen.wide_smpg_json(rng, n)
                self.assertTrue(refs.check_planted(obj, c, h))


class References(unittest.TestCase):
    def test_frozen_references_belong_to_their_games(self):
        frozen = wl.frozen_references()
        games = wl.fixed_games()
        self.assertEqual(set(frozen), set(games))
        for gid, obj in games.items():
            self.assertEqual(frozen[gid]["sha256"], wl.game_hash(obj), gid)
            if obj["type"] == "smpg":
                self.assertEqual(frozen[gid]["ref"], refs.smpg_reference(obj))
            else:
                self.assertEqual(frozen[gid]["ref"],
                                 refs.entropy_reference(obj))

    def test_brute_force_agrees_with_library(self):
        rng = random.Random(11)
        for _ in range(200):
            obj = gen.random_smpg_json(rng)
            values, _ = refs.smpg_values(obj)
            lib = mpgames.brute_force_values(mpgames.parse_smpg(obj))
            self.assertEqual(list(values.values()), list(lib.chi))

    def test_entropy_brute_force_agrees_with_library(self):
        rng = random.Random(11)
        for _ in range(300):
            obj = gen.random_entropy_json(rng)
            ours = refs.entropy_reference(obj)
            game = mpgames.parse_entropy(obj)
            lib = mpgames.brute_force_entropy_values(game)
            for d, iv in zip(game.d_ids, lib.chi):
                lo, hi = ours["values"][d]
                self.assertTrue(refs.overlap(lo, hi, iv.lo, iv.hi), obj)
            cmp = lib.registry.compare
            c = lib.candidates
            top = [d for k, d in enumerate(game.d_ids)
                   if all(cmp(c[k], c[j], lib.coarse_tol, lib.fine_tol) >= 0
                          for j in range(len(c)))]
            self.assertEqual(ours["top_class"], sorted(top), obj)


class WallLimit(unittest.TestCase):
    def test_slowest_operations_stay_far_below_the_limit(self):
        games = wl.fixed_games()
        heavy = [games[gid] for gid in (wl.PINNED_ENTROPY[0], "cex-3-4",
                                        "peel-14-3")]
        heavy += [gen.wide_smpg_json(random.Random(seed), max(wl.WIDE_SIZES))[0]
                  for seed in (1, 2)]
        path = HERE / "out" / "selfcheck-game.json"
        path.parent.mkdir(exist_ok=True)
        try:
            for obj in heavy:
                path.write_text(json.dumps(obj))
                t0 = perf_counter()
                code, _, err = invoke(mpgames.cli.main,
                                      ["solve", str(path), "--json"],
                                      wl.OP_LIMIT_S)
                took = perf_counter() - t0
                self.assertEqual(code, 0, err)
                self.assertLess(took, wl.OP_LIMIT_S / 4)
        finally:
            path.unlink(missing_ok=True)


class KnownDefects(unittest.TestCase):
    # solve raises RuntimeError("damped iteration found no eigenvector
    # witnesses") on each of wl.DEFECT_GAMES at the commit that defined the
    # benchmark
    def check(self, gid):
        self.assertIsNone(solve_and_check(gid, wl.OP_LIMIT_S))

    @unittest.expectedFailure
    def test_defect_e11_54(self):
        self.check("defect-e11-54")

    @unittest.expectedFailure
    def test_defect_e86_57(self):
        self.check("defect-e86-57")

    @unittest.expectedFailure
    def test_defect_e239_27(self):
        self.check("defect-e239-27")


@unittest.skipUnless(os.environ.get("PERFBENCH_SLOW"), "set PERFBENCH_SLOW=1")
class SlowGames(unittest.TestCase):
    def test_slow_games_solve_and_certify(self):
        for gid in wl.SLOW_GAMES:
            if gid != wl.PINNED_SMPG:  # solved with counts below
                self.assertIsNone(solve_and_check(gid, SLOW_LIMIT_S), gid)

    def test_pinned_smpg_counts_repeat(self):
        import spans

        path = HERE / "out" / "selfcheck-pinned.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(wl.load_fixture(wl.PINNED_SMPG)))
        tracer = spans.Tracer()
        tracer.install()
        try:
            code, out, err = invoke(mpgames.cli.main,
                                    ["solve", str(path), "--json"],
                                    SLOW_LIMIT_S)
        finally:
            tracer.uninstall()
            path.unlink(missing_ok=True)
        self.assertEqual(code, 0, err)
        self.assertIsNone(refs.check_answer(
            "smpg", wl.frozen_references()[wl.PINNED_SMPG]["ref"],
            json.loads(out)))
        m = tracer.layer_metrics(1)
        self.assertEqual(m["dominion.decide_constant_value.iterations"], 874800)
        self.assertEqual(
            m["iteration.approximate_constant_mean_payoff.iterations"], 874800)
        self.assertEqual(json.loads(out)["oracle_calls"], 2624400)


if __name__ == "__main__":
    unittest.main()
