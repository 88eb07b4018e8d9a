"""Turn-based stochastic mean-payoff backend."""

import csv
import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from click.testing import CliRunner

import mpgames as mg
from mpgames import NEG_INF, Exhausted
from mpgames import stochastic as st
from mpgames._smpgfast import Kernel
from mpgames.graphs import tarjan_scc
from mpgames.cli import main
from mpgames.iteration import vec, zeros
from mpgames import dominion
from mpgames.dominion import ExactOracle, round_to_denominator

from conftest import (
    absorbing_game,
    cycle_game,
    max_choice_game,
    min_choice_game,
    nature_half_game,
    peel_game,
    swap_shift_game,
    three_value_game,
    unhashed_copy,
)

F = Fraction


class TestConstruction:
    def test_validation_errors(self):
        with pytest.raises(mg.GameFormatError):
            mg.make_game(["m0"], ["x0"], ["n0"], [[]], [[(0, 0)]],
                         [[(0, 1)]], 1)
        with pytest.raises(mg.GameFormatError):
            mg.make_game(["m0"], ["x0"], ["n0"], [[(0, 0)]], [[(0, 0)]],
                         [[(0, 1)]], 2)  # numerators do not sum to M
        with pytest.raises(mg.GameFormatError):
            mg.make_game(["m0"], ["x0"], ["n0"], [[(0, 0)]], [[(0, 0)]],
                         [[(0, 1)]], 0)

    def test_stats(self):
        g = nature_half_game()
        st = g.stats()
        assert (st.n, st.M, st.W, st.s) == (2, 2, 2, 1)
        assert st.m_exp == 1 and st.mu == 4

    def test_single_successor_nature_not_significant(self):
        st = cycle_game().stats()
        assert st.s == 0 and st.mu == 1


class TestShapleyEval:
    def test_cycle_shift(self):
        g = cycle_game(a=0, b=2)
        assert mg.shapley_eval(g, vec([7])) == vec([9])

    def test_max_takes_larger_branch(self):
        g = max_choice_game()
        assert mg.shapley_eval(g, vec([0])) == vec([3])

    def test_neg_inf_convention(self):
        g = nature_half_game()  # nH spreads half/half over (m1, m2)
        out = mg.shapley_eval(g, (F(0), NEG_INF))
        assert out == (NEG_INF, NEG_INF)
        g1 = cycle_game()  # P = 1 on its single target
        assert mg.shapley_eval(g1, (F(4),))[0] == F(6)

    def test_length_check(self):
        with pytest.raises(ValueError):
            mg.shapley_eval(cycle_game(), zeros(2))

    def test_matches_per_pair_reference(self):
        """The operator as written, one Nature sum per (Min edge, Max edge)
        pair, on default and larger draws with -inf entries in x."""
        def reference(g, x):
            out = []
            for row in g.min_edges:
                branches = []
                for i, a in row:
                    vals = []
                    for k, b in g.max_edges[i]:
                        terms = [(num, x[l]) for l, num in g.nat_edges[k]]
                        if any(v is NEG_INF for _, v in terms):
                            continue
                        vals.append(b + F(sum(num * v for num, v in terms),
                                          g.M))
                    branches.append(-a + max(vals) if vals else NEG_INF)
                out.append(NEG_INF if NEG_INF in branches else min(branches))
            return tuple(out)

        rng = random.Random(5)
        for size in (3,) * 60 + (6,) * 20:
            g = mg.random_smpg(rng, size, size, size)
            for _ in range(3):
                x = tuple(rng.choice((NEG_INF, F(rng.randint(-9, 9), 4),
                                      rng.randint(-3, 3)))
                          for _ in g.min_ids)
                assert mg.shapley_eval(g, x) == reference(g, x)


class TestRecessionEval:
    def test_zero_fixed(self):
        g = nature_half_game()
        assert mg.recession_eval(g, zeros(2)) == zeros(2)

    def test_constant_vector_fixed(self):
        g = nature_half_game()
        c = F(5, 3)
        assert mg.recession_eval(g, vec([c, c])) == vec([c, c])

    def test_value_vector_fixed_point(self):
        g = absorbing_game()
        chi = vec([5, 0])
        assert mg.recession_eval(g, chi) == chi


class TestRoundingOracle:
    def test_integral_passthrough(self):
        orc = mg.RoundingOracle(cycle_game(), 1)
        assert orc.eval(zeros(1), F(1)) == vec([2])

    def test_round_half_to_even(self):
        assert round_to_denominator(F(7, 3), 2) == F(5, 2)
        assert round_to_denominator(F(9, 4), 2) == F(2)  # tie -> even
        assert abs(round_to_denominator(F(7, 3), 2) - F(7, 3)) <= F(1, 4)

    def test_neg_inf_passthrough(self):
        assert round_to_denominator(NEG_INF, 8) is NEG_INF

    def test_serves_requested_eps(self):
        g = nature_half_game()
        orc = mg.RoundingOracle(g, 8)
        x = vec([F(1, 3), F(2, 7)])
        out = orc.eval(x, F(1, 16))
        exact = mg.shapley_eval(g, x)
        assert all(abs(a - e) <= F(1, 16) for a, e in zip(out, exact))

    @staticmethod
    def _generic_loops(g, q, delta, cap):
        """The generic Fraction loops that gap_loop/replay_loop replace:
        the gap loop on the rounding oracle, then the certificate vectors
        built from the stored orbit."""
        orc = mg.RoundingOracle(g, q)
        eps = delta / 8
        orbit = [zeros(orc.n)]
        hit = False
        while len(orbit) <= cap:
            orbit.append(orc.eval(orbit[-1], eps))
            if max(orbit[-1]) - min(orbit[-1]) <= F(3, 4) * delta * (
                    len(orbit) - 1):
                hit = True
                break
        u = orbit.pop()
        ell = len(orbit)
        kappa, lam = min(u) / ell, max(u) / ell
        sub, sup = mg.build_certificates(orbit, kappa, lam, eps)
        return (u, ell, hit), (kappa, lam), (sub.vec, sup.vec), orbit

    @staticmethod
    def _dense_game(rng, n, M, lo, hi):
        """Every Min state moves to every Max state and every Max state to
        every Nature state: n**3 (Min edge, Max edge) pairs per step."""
        nat_edges = []
        for _ in range(n):
            if M == 1:
                nat_edges.append([(rng.randrange(n), 1)])
            else:
                a, b = rng.sample(range(n), 2)
                nat_edges.append([(a, 1), (b, M - 1)])
        return mg.make_game(
            [f"m{j}" for j in range(n)], [f"x{i}" for i in range(n)],
            [f"n{k}" for k in range(n)],
            [[(i, rng.randint(lo, hi)) for i in range(n)] for _ in range(n)],
            [[(k, rng.randint(lo, hi)) for k in range(n)] for _ in range(n)],
            nat_edges, M,
        )

    def _check_fast_path(self, g, cap):
        st = g.stats()
        q = 4 * st.mu**2
        delta = F(1, st.mu**2)
        gap, (kappa, lam), replay, orbit = self._generic_loops(
            g, q, delta, cap)
        fast = mg.RoundingOracle(g, q)
        assert fast.gap_loop(delta / 8, delta, cap) == gap
        ell = gap[1]
        assert fast.replay_loop(delta / 8, ell, kappa, lam) == replay
        # the kernel's own results are Python ints
        kernel = Kernel(g)
        u, _, _ = kernel.gap_loop(q, delta.numerator, delta.denominator, cap)
        x, y = kernel.replay_loop(q, ell, int(kappa * q * ell),
                                  int(lam * q * ell))
        assert all(type(v) is int for v in u + x + y)
        return orbit, q

    def test_fast_path_matches_generic(self):
        """gap_loop/replay_loop agree with the generic loops they replace,
        bit for bit: on small random games, a dense game, a dense game with
        payoffs near 10**15 and a dense M = 2 game whose iterates hit exact
        halves at negative numerators (half-to-even rounding)."""
        rng = random.Random(17)
        for _ in range(15):
            self._check_fast_path(mg.random_smpg(rng), 200)
        rng = random.Random(19)
        dense = self._dense_game(rng, 6, 1, -3, 3)
        huge = self._dense_game(rng, 6, 1, -10**15, 10**15)
        halves = self._dense_game(rng, 6, 2, -3, 1)
        self._check_fast_path(dense, 300)
        self._check_fast_path(huge, 40)
        orbit, q = self._check_fast_path(halves, 40)
        assert any(v < 0 and (v * q).denominator == 2
                   for u in orbit for v in mg.shapley_eval(halves, u))

    def test_gap_loop_resumes_in_segments(self):
        """gap_loop run in segments ending at 1, 2, 4, ... (resuming from
        the previous iterate) repeats one uninterrupted run bit for bit, on
        ten random games and a dense M = 2 game with 8 states."""
        rng = random.Random(31)
        dense = self._dense_game(rng, 8, 2, -3, 3)
        games = [mg.random_smpg(rng) for _ in range(10)] + [dense]
        end = 64
        for g in games:
            q = 4 * g.stats().mu**2
            delta = mg.separation_bound(g.stats())
            args = (q, delta.numerator, delta.denominator)
            kernel = Kernel(g)
            whole = kernel.gap_loop(*args, end)
            u, ell, seg_end = None, 0, 1
            while True:
                u, ell, hit = kernel.gap_loop(*args, min(seg_end, end), u,
                                              ell)
                if hit or ell == end:
                    break
                seg_end = 2 * ell
            assert (u, ell, hit) == whole


class TestBounds:
    def test_separation_examples(self):
        mk = lambda n, M, s: mg.GameStats(
            n=n, M=M, W=0, s=s, m_exp=min(s, n - 1) if n > 1 else 0,
            mu=n * M ** (min(s, n - 1) if n > 1 else 0))
        assert mg.separation_bound(mk(2, 2, 1)) == F(1, 16)
        assert mg.separation_bound(mk(3, 1, 0)) == F(1, 9)
        assert mg.separation_bound(mk(2, 3, 5)) == F(1, 36)

    def test_bias_examples(self):
        assert mg.bias_norm_bound(
            mg.GameStats(n=2, M=2, W=3, s=1, m_exp=1, mu=4)) == 96
        assert mg.bias_norm_bound(
            mg.GameStats(n=1, M=1, W=0, s=0, m_exp=0, mu=1)) == 0
        assert mg.bias_norm_bound(
            mg.GameStats(n=3, M=1, W=1, s=0, m_exp=0, mu=3)) == 24


class TestWinner:
    def test_positive_cycle(self):
        res = mg.winner(cycle_game(a=0, b=2))
        assert res.outcome == "MaxWinsAll"

    def test_negative_cycle(self):
        res = mg.winner(cycle_game(a=3, b=2))
        assert res.outcome == "MinWinsAll"

    def test_zero_drift_stops_weakly(self):
        # u stays at 0, so the weak top-condition certifies cw-upper <= 0
        res = mg.winner(cycle_game(a=2, b=2))
        assert res.outcome == "MinWinsAll"

    @staticmethod
    def _two_cycles():
        """Two disjoint cycles with mean payoffs 5 and -5: not constant."""
        return mg.make_game(
            ["m0", "m1"], ["x0", "x1"], ["n0", "n1"],
            [[(0, 0)], [(1, 0)]],
            [[(0, 5)], [(1, -5)]],
            [[(0, 1)], [(1, 1)]],
            1,
        )

    def test_non_constant_value_exhausted(self):
        assert isinstance(mg.winner(self._two_cycles()), Exhausted)

    def test_hand_computed_runs(self):
        """Verdict or Exhausted, iteration count and witness, worked out by
        hand."""
        # rewards 2 and -3 before a shared half/half Nature state:
        # F(x) = (2 + s, -3 + s), s = (x0 + x1)/2, so s drops by 1/2 a step
        half = mg.make_game(
            ["m0", "m1"], ["x0", "x1"], ["n"],
            [[(0, 0)], [(1, 0)]],
            [[(0, 2)], [(0, -3)]],
            [[(0, 1), (1, 1)]],
            2,
        )
        cases = [
            # F(x0, x1) = (x1 + 3, x0 - 1): (3, -1), then (2, 2)
            (swap_shift_game(), mg.WinnerVerdict("MaxWinsAll", 2, (2, 2))),
            # (2, -3), (3/2, -7/2), (1, -4), (1/2, -9/2), (0, -5)
            (half, mg.WinnerVerdict("MinWinsAll", 5, (0, -5))),
            # cap 8 n^2 W + 1 = 8 * 4 * 5 + 1 steps of (+5, -5)
            (self._two_cycles(), Exhausted(161, (805, -805))),
        ]
        for game, expected in cases:
            assert mg.winner(game) == expected

    def test_iteration_cap_matches_stats(self):
        g = cycle_game(a=0, b=2)
        res = mg.winner(g)
        assert res.iterations <= mg.winner_iteration_bound(g.stats())

    def test_agrees_with_exact_value_iteration(self):
        """`winner` on integer numerators against the reference, exact
        `Fraction` value iteration, on 300 default draws: the same verdict
        or Exhausted, iteration count and witness."""
        rng = random.Random(2027)
        for _ in range(300):
            g = mg.random_smpg(rng)
            cap = mg.winner_iteration_bound(g.stats()) + 1
            assert mg.winner(g) == mg.value_iteration(ExactOracle(g), cap)

    def test_long_run_agrees_with_exact_value_iteration(self, monkeypatch):
        """Corpus draw s244-0 (M = 3) runs to its cap of 11,665 steps.  The
        reference takes seconds on it, so it is compared over the first
        2,000 steps, and the full run against the digest of the
        reference's witness."""
        g = mg.random_smpg(random.Random(244))
        full = mg.winner(g)
        assert isinstance(full, Exhausted) and full.iterations == 11665
        assert witness_digest(full.witness) == (
            "4a3daaa4c7a511294b6622d0e7748abf07b32deacbcf3231f742899b918b1e38")
        monkeypatch.setattr(dominion, "winner_iteration_bound",
                            lambda stats: 1999)
        assert mg.winner(g) == mg.value_iteration(ExactOracle(g), 2000)


def witness_digest(vec):
    """SHA-256 over the numerators and denominators of a rational vector."""
    h = hashlib.sha256()
    for v in vec:
        for x in (v.numerator, v.denominator):
            h.update(x.to_bytes(x.bit_length() // 8 + 1, "big", signed=True))
    return h.hexdigest()


def _reference_verdict(game, cert):
    """lam + v <= F(v) (sub) or >= (super) compared directly on
    shapley_eval; an -inf entry of F(v) fails."""
    y = mg.shapley_eval(game, cert.vec)
    if any(w is NEG_INF for w in y):
        return False
    if cert.direction == mg.SUB:
        return all(cert.lam + v <= w for v, w in zip(cert.vec, y))
    return all(cert.lam + v >= w for v, w in zip(cert.vec, y))


def _fixed(game, sigma=None, tau=None):
    """The game with Min fixed to sigma or Max fixed to tau (index-based):
    every row cut to its edges into the named state."""
    def cut(rows, targets):
        return tuple(tuple(e for e in row if e[0] == t)
                     for row, t in zip(rows, targets))
    return st.StochasticGame(
        game.min_ids, game.max_ids, game.nat_ids,
        game.min_edges if sigma is None else cut(game.min_edges, sigma),
        game.max_edges if tau is None else cut(game.max_edges, tau),
        game.nat_edges, game.M)


def _certificate_cases(rng, game):
    """Certificates on one random rational vector v of denominator L: each
    direction at its tight level (min_j (F(v) - v)_j for sub, max_j for
    super), and that level moved either way by 1/L and by 1/(L M)."""
    n = len(game.min_ids)
    L = rng.randint(1, 12)
    v = tuple(F(rng.randint(-9 * L, 9 * L), L) for _ in range(n))
    gaps = [w - x for w, x in zip(mg.shapley_eval(game, v), v)]
    for direction, lam in ((mg.SUB, min(gaps)), (mg.SUPER, max(gaps))):
        for eps in (0, F(1, L), F(-1, L), F(1, L * game.M),
                    F(-1, L * game.M)):
            yield mg.Certificate.from_fractions(lam + eps, v, direction)


class TestIntegerCertificates:
    """certificates_hold evaluates F with the integer step: its verdicts
    are those of a direct comparison on shapley_eval."""

    def test_verdicts_match_shapley_eval(self):
        """A few hundred default-shaped draws with M = 1, 2 and 3: random
        rational vectors at the tight level of each direction and one step
        of the vector's denominator either side of it, and vectors with
        -inf entries."""
        rng = random.Random(2023)
        seen = {True: 0, False: 0}
        for t in range(300):
            g = mg.random_smpg(rng, 4, 4, 4, m_choices=(1 + t % 3,))
            for cert in _certificate_cases(rng, g):
                verdict = st.certificates_hold(g, (cert,))
                assert verdict == _reference_verdict(g, cert)
                seen[verdict] += 1
            n = len(g.min_ids)
            x = [F(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(n)]
            x[rng.randrange(n)] = NEG_INF
            for direction in (mg.SUB, mg.SUPER):
                cert = mg.Certificate.from_fractions(F(rng.randint(-3, 3)),
                                                     tuple(x), direction)
                assert (st.certificates_hold(g, (cert,))
                        == _reference_verdict(g, cert))
        assert min(seen.values()) > 300

    def test_one_step_per_distinct_vector(self, monkeypatch):
        """Certificates on equal vectors share one integer step, found by
        equality without hashing: a report's vectors are parsed into
        distinct, equal tuples."""
        rng = random.Random(11)
        g = mg.random_smpg(rng, 4, 4, 4)
        held = [c for c in _certificate_cases(rng, g)
                if st.certificates_hold(g, (c,))]
        assert {c.direction for c in held} == {mg.SUB, mg.SUPER}
        calls = []
        step = st._step_stages
        monkeypatch.setattr(st, "_step_stages",
                            lambda game, x: calls.append(x) or step(game, x))
        assert st.certificates_hold(g, [unhashed_copy(c) for c in held])
        assert len(calls) == 1

    def test_strategy_verdicts_match_fixed_games(self):
        """With strategies, the verdict is the reference one on the game
        with Min fixed to sigma at the super vector and Max fixed to tau at
        the sub vector; a strategy that names no edge fails."""
        rng = random.Random(77)
        seen = {True: 0, False: 0}
        for t in range(200):
            g = mg.random_smpg(rng, 4, 4, 4, m_choices=(1 + t % 3,))
            sigma = [rng.choice(row)[0] for row in g.min_edges]
            tau = [rng.choice(row)[0] for row in g.max_edges]
            cases = list(_certificate_cases(rng, g))
            subs = [c for c in cases if c.direction == mg.SUB]
            sups = [c for c in cases if c.direction == mg.SUPER]
            for sub, sup in zip(subs, sups):
                want = (_reference_verdict(_fixed(g, tau=tau), sub)
                        and _reference_verdict(_fixed(g, sigma=sigma), sup))
                assert st.certificates_hold(g, (sub, sup), sigma,
                                            tau) == want
                seen[want] += 1
            j = rng.randrange(len(sigma))
            missing = sigma[:j] + [len(g.max_ids)] + sigma[j + 1:]
            assert not st.certificates_hold(g, (sups[0],), sigma=missing)
        assert min(seen.values()) > 50

    def test_solver_strategies_pass(self):
        """Every solution's strategies pass at its own certificates, and
        swapping one Min choice to a successor of larger F at the super
        witness fails."""
        rng = random.Random(5)
        swapped = 0
        for _ in range(200):
            g = mg.random_smpg(rng)
            sol = mg.solve_game(g)
            sub = sol.subgame
            index = [{s: t for t, s in enumerate(ids)} for ids in sub.ids]
            sigma = [index[1][sol.strategies.sigma[s]] for s in sub.min_ids]
            tau = [index[2][sol.strategies.tau[s]] for s in sub.max_ids]
            certs = (sol.sub, sol.sup)
            assert st.certificates_hold(sub, certs, sigma, tau)
            y = mg.shapley_eval(sub, sol.sup.vec)
            for j, row in enumerate(sub.min_edges):
                for i, _ in row:
                    worse = sigma[:j] + [i] + sigma[j + 1:]
                    fy = mg.shapley_eval(_fixed(sub, sigma=worse),
                                         sol.sup.vec)
                    if fy[j] > y[j]:
                        swapped += 1
                        assert not st.certificates_hold(sub, certs, worse,
                                                        tau)
        assert swapped > 20


class TestSolveConstantValue:
    def test_cycle(self):
        sol = mg.solve_constant_value(cycle_game(a=0, b=2))
        assert sol.value == 2
        assert sol.strategies.sigma == {"m0": "x0"}
        assert sol.strategies.tau == {"x0": "n0"}
        assert mg.check_certificate(cycle_game(a=0, b=2), sol.sub)
        assert mg.check_certificate(cycle_game(a=0, b=2), sol.sup)

    def test_min_choice(self):
        g = min_choice_game()
        sol = mg.solve_constant_value(g)
        assert sol.value == -1
        assert sol.strategies.sigma == {"m0": "x1"}  # the A=4 branch

    def test_nature_half(self):
        g = nature_half_game()
        sol = mg.solve_constant_value(g)
        assert sol.value == F(3, 2)
        assert sol.value.denominator <= g.stats().mu

    def test_swap_shift_value(self):
        sol = mg.solve_constant_value(swap_shift_game())
        assert sol.value == 1

    def test_interval_isolates_value(self):
        g = nature_half_game()
        sol = mg.solve_constant_value(g)
        assert sol.interval.contains(sol.value)
        assert sol.interval.width <= mg.separation_bound(g.stats())

    def test_fixed_point_takes_one_greedy_pass(self, monkeypatch):
        """The exact fixed point is both witnesses, so one greedy pass at it
        gives both strategies: one pass per probe try, plus one."""
        calls = {"greedy": 0, "tries": 0}
        greedy, half_line_at = st._greedy_pair, st._half_line_at

        def count_greedy(*args):
            calls["greedy"] += 1
            return greedy(*args)

        def count_tries(*args):
            calls["tries"] += 1
            return half_line_at(*args)

        monkeypatch.setattr(st, "_greedy_pair", count_greedy)
        monkeypatch.setattr(st, "_half_line_at", count_tries)
        sol = mg.solve_constant_value(nature_half_game())
        assert sol.iterations == 1
        assert calls["tries"] >= 1
        assert calls["greedy"] == calls["tries"] + 1

    def test_non_constant_rejected(self):
        with pytest.raises(ValueError, match="not constant"):
            mg.solve_constant_value(absorbing_game())

    def test_strategy_optimality_frozen(self):
        rng = random.Random(23)
        solved = 0
        while solved < 20:
            g = mg.random_smpg(rng)
            bf = mg.brute_force_values(g)
            if len(set(bf.chi)) != 1:
                continue
            sol = mg.solve_constant_value(g)
            frozen = mg.frozen_pair_values(g, sol.strategies)
            assert all(v == sol.value for v in frozen)
            solved += 1

    def test_call_budget(self):
        rng = random.Random(29)
        for _ in range(30):
            g = mg.random_smpg(rng)
            bf = mg.brute_force_values(g)
            if len(set(bf.chi)) != 1:
                continue
            st = g.stats()
            sol = mg.solve_constant_value(g)
            assert sol.oracle_calls <= (
                128 * st.n**3 * st.W * st.M ** (3 * st.m_exp) + 8
            ) or st.W == 0


class TestSolveTopClass:
    def test_constant_full(self):
        sol = mg.solve_game(nature_half_game())
        assert sol.top_class == frozenset({"m1", "m2"})

    def test_absorbing(self):
        sol = mg.solve_game(absorbing_game())
        assert sol.top_class == frozenset({"m0"})

    def test_three_values(self):
        sol = mg.solve_game(three_value_game())
        assert sol.top_class == frozenset({"m0", "m1"})


def _brute_top(g):
    chi = mg.brute_force_values(g).chi
    best = max(chi)
    return chi, best, frozenset(s for s, v in zip(g.min_ids, chi) if v == best)


def _refuse(*args, **kwargs):
    raise AssertionError("the paper's path ran")


def _refuse_top_class(monkeypatch):
    """Make the paper's top_class fail the test if it runs."""
    monkeypatch.setattr(mg.dominion, "top_class", _refuse)


def _refuse_paper_path(monkeypatch):
    """Make every entry to the paper's a priori path fail the test: the
    peel and the replay of the bracket's second pass."""
    _refuse_top_class(monkeypatch)
    monkeypatch.setattr(st, "_replayed_solution", _refuse)


def _probe_numerators(g):
    """The probe of g's solve: (chi, h, L, steps, stop), chi and h
    numerators over L."""
    stats = g.stats()
    return st._half_line(g, stats.mu**2, st._probe_cap(stats))


def _probe(g):
    """The probe of g's solve: (chi, h, steps, stop), chi and h as
    Fractions."""
    chi, h, den, steps, stop = _probe_numerators(g)
    if chi is not None:
        chi, h = [F(x, den) for x in chi], [F(x, den) for x in h]
    return chi, h, steps, stop


def _no_probe(*args):
    """A probe that certifies nothing and stops at step 0 without the gap
    condition, as at its cap."""
    return None, None, None, 0, None


def _refuse_first_probe(monkeypatch):
    """Make the first probe of every solve `_no_probe`, so that the paper's
    top_class decides, and let the probe of the subgame it induces run.
    Every solve under this stub runs two probes, so it refuses every other
    one."""
    real, probes = st._half_line, []

    def probe(*args):
        probes.append(args)
        return _no_probe() if len(probes) % 2 else real(*args)

    monkeypatch.setattr(st, "_half_line", probe)


def _views(tmp_path, games):
    """Per game, the `--json` reports of `solve --mode topclass`, `full`
    and `value` by mode (value None where it exits 1 with "not constant"),
    and `bench` steps."""
    runner = CliRunner()
    paths = []
    for t, g in enumerate(games):
        path = tmp_path / f"g{t}.json"
        path.write_text(json.dumps(mg.game_to_json(g)))
        paths.append(str(path))
    trace = tmp_path / "bench.csv"
    res = runner.invoke(main, ["bench", *paths, "--trace", str(trace)])
    assert res.exit_code == 0, res.output
    with open(trace, newline="") as fh:
        steps = [int(row["steps"]) for row in csv.DictReader(fh)]
    views = []
    for path, bench_steps in zip(paths, steps):
        reports = {}
        for mode in ("topclass", "full", "value"):
            res = runner.invoke(main, ["solve", path, "--mode", mode,
                                       "--json"])
            if mode == "value" and res.exit_code == 1:
                assert "not constant" in res.output
                reports[mode] = None
                continue
            assert res.exit_code == 0, res.output
            reports[mode] = json.loads(res.output)
        views.append((reports, bench_steps))
    return views


def _value_view_agrees(value, full):
    """The value report says what the full report says of the same solve:
    value, interval, oracle calls, strategies and certificates."""
    assert value["value"] == full["top_value"]
    for key in ("interval", "oracle_calls", "min_strategy", "max_strategy"):
        assert value[key] == full[key]
    fields = ("lam", "vec", "direction")
    assert [[c[k] for k in fields] for c in value["certificates"]] == [
        [c[k] for k in fields] for c in full["certificates"]]


def _solved_chain(rows, r, M, anchor):
    """markov_gain_bias(rows, r, M, anchor), checked: M g = P' g and
    M (g + h) = M r + P' h with P' the row numerators, and h = anchor(a, g)
    (0 without an anchor) at the smallest state a of each closed class."""
    gain, bias = dominion.markov_gain_bias(rows, r, M, anchor=anchor)
    for v, row in enumerate(rows):
        assert M * gain[v] == sum(num * gain[l] for l, num in row)
        assert M * (gain[v] + bias[v]) == M * r[v] + sum(
            num * bias[l] for l, num in row)
    for comp in tarjan_scc([[l for l, _ in row] for row in rows]):
        if all(l in comp for v in comp for l, _ in rows[v]):
            a = min(comp)
            assert bias[a] == (anchor(a, gain[a]) if anchor else 0)
    return gain, bias


# default draws random_smpg(Random(seed)), 5 per seed; (6, 2), (11, 0) and
# (41, 4) have values that differ by state
EARLY_SEEDS = range(50)
NON_CONSTANT = {(6, 2), (11, 0), (41, 4)}


class TestEarlyCertificate:
    def test_default_draws_match_brute_force(self, tmp_path):
        """On 250 default draws the probe certifies every game (no
        fallback); top class, value, certificates, strategies and the value
        mode agree with brute force, and `solve --json` passes `certify`."""
        runner = CliRunner()
        game_path, rep_path = tmp_path / "g.json", tmp_path / "r.json"
        non_constant = set()
        for seed in EARLY_SEEDS:
            rng = random.Random(seed)
            for draw in range(5):
                g = mg.random_smpg(rng)
                chi, best, top = _brute_top(g)
                probe_chi, _, steps, _ = _probe(g)
                assert tuple(probe_chi) == chi and steps <= 8
                sol = mg.solve_game(g)
                assert sol.top_class == top
                assert sol.value == best
                assert sol.oracle_calls == steps
                sub = sol.subgame
                assert mg.check_certificate(sub, sol.sub)
                assert mg.check_certificate(sub, sol.sup)
                assert set(mg.frozen_pair_values(
                    sub, sol.strategies)) == {best}
                if len(set(chi)) > 1:
                    non_constant.add((seed, draw))
                    with pytest.raises(ValueError, match="not constant"):
                        mg.solve_constant_value(g)
                else:
                    assert mg.solve_constant_value(g).value == best
                game_path.write_text(json.dumps(mg.game_to_json(g)))
                res = runner.invoke(main, ["solve", str(game_path), "--json"])
                assert res.exit_code == 0
                rep = json.loads(res.output)
                assert rep["top_class"] == sorted(top)
                assert F(rep["top_value"]) == best
                rep_path.write_text(res.output)
                assert runner.invoke(main, ["certify", str(game_path),
                                            str(rep_path)]).exit_code == 0
        assert non_constant == NON_CONSTANT

    def test_views_read_one_solve(self, tmp_path):
        """`solve --mode topclass`, `full` and `value` and `bench` report
        the top class and the oracle calls of one solve_game; value mode
        reports the full mode's value, interval, strategies and
        certificates, and refuses the non-constant draws."""
        games = []
        for seed in EARLY_SEEDS:
            rng = random.Random(seed)
            games += [mg.random_smpg(rng) for _ in range(5)]
        non_constant = set()
        views = _views(tmp_path, games)
        for t, (g, (reports, steps)) in enumerate(zip(games, views)):
            sol = mg.solve_game(g)
            one = [sorted(sol.top_class), sol.oracle_calls]
            for mode in ("topclass", "full"):
                assert [reports[mode][k]
                        for k in ("top_class", "oracle_calls")] == one
            assert steps == sol.oracle_calls
            if reports["value"] is None:
                non_constant.add(divmod(t, 5))
            else:
                # the top class is every Min state, and its subgame is the
                # game: Max plays at every Max state, reached or not
                assert sol.subgame is g
                assert (sorted(reports["value"]["max_strategy"])
                        == sorted(g.max_ids))
                _value_view_agrees(reports["value"], reports["full"])
        assert non_constant == NON_CONSTANT

    @pytest.mark.parametrize("make, top, value", [
        (lambda: peel_game(14, 3), {"m0", "m1"}, 14),
        (lambda: peel_game(3, 14), {"m2", "m3"}, 14),
        (lambda: peel_game(6, 2), {"m0", "m1"}, 6),
        (lambda: peel_game(10, 5), {"m0", "m1"}, 10),
        (absorbing_game, {"m0"}, 5),
        (three_value_game, {"m0", "m1"}, 2),
    ], ids=["peel-14-3", "peel-3-14", "peel-6-2", "peel-10-5", "absorbing",
            "three-value"])
    def test_non_constant_games_need_no_decision(self, monkeypatch, make,
                                                 top, value):
        """Games whose paper path runs a decision to its a priori cap and
        peels: the half-line gives the top class and value at step 1."""
        g = make()
        _refuse_paper_path(monkeypatch)
        sol = mg.solve_game(g)
        assert sol.top_class == top and sol.value == value
        assert sol.oracle_calls == 1
        sub = sol.subgame
        assert mg.check_certificate(sub, sol.sub)
        assert mg.check_certificate(sub, sol.sup)
        assert set(mg.frozen_pair_values(sub, sol.strategies)) == {value}
        with pytest.raises(ValueError, match="not constant"):
            mg.solve_constant_value(g)

    def test_equal_gain_classes_need_iterate_anchors(self, monkeypatch):
        """random_smpg(Random(341)), draw 0: the greedy pairs have two
        closed classes of equal gain -2.  Anchored at the iterate's offsets
        the half-line holds; with the bias 0 at each class's anchor state it
        holds at no checkpoint, and the solve would fall back."""
        g = mg.random_smpg(random.Random(341))
        _refuse_paper_path(monkeypatch)
        chi, h, steps, _ = _probe(g)
        assert chi == [F(-2)] * 3
        assert mg.solve_constant_value(g).value == -2
        assert mg.solve_game(g).top_class == frozenset(g.min_ids)
        monkeypatch.undo()
        anchored = st.gain_bias_numerators
        monkeypatch.setattr(st, "gain_bias_numerators",
                            lambda rows, r, M, anchor=None:
                            anchored(rows, r, M))
        assert _probe(g)[0] is None

    def test_period_two_iterates_need_the_window_mean(self, monkeypatch):
        """random_smpg(Random(1255), 4, 4, 4, m_choices=(1,), payoff_lo=-3,
        payoff_hi=3): the iterates settle into a period-2 orbit, and the
        pair greedy at any single iterate fails the half-line up to the gap
        condition at step 86.  The pair greedy at the mean of iterates 1
        and 2 holds."""
        g = mg.random_smpg(random.Random(1255), 4, 4, 4, m_choices=(1,),
                           payoff_lo=-3, payoff_hi=3)
        chi = mg.brute_force_values(g).chi
        assert set(chi) == {1}
        _refuse_paper_path(monkeypatch)
        probe_chi, _, steps, _ = _probe(g)
        assert tuple(probe_chi) == chi and steps == 2
        sol = mg.solve_game(g)
        assert sol.top_class == frozenset(g.min_ids)
        assert sol.value == 1 and sol.oracle_calls == 2
        assert set(mg.frozen_pair_values(g, sol.strategies)) == {1}
        monkeypatch.setattr(st, "_WINDOW", 1)
        chi, h, steps, (_, ell) = _probe(g)
        assert (chi, h, steps, ell) == (None, None, 86, 86)

    def test_pinned_mu_405_game(self, monkeypatch):
        """random_smpg(Random(1), 5, 5, 5), draw 2 (mu = 405): the paper's
        path runs 874,800 steps twice; the half-line holds at step 2."""
        rng = random.Random(1)
        g = [mg.random_smpg(rng, 5, 5, 5) for _ in range(3)][2]
        assert g.stats().mu == 405
        _refuse_paper_path(monkeypatch)
        sol = mg.solve_game(g)
        assert sol.value == F(2, 3) and sol.oracle_calls == 2
        assert sol.top_class == frozenset(g.min_ids)

    def test_fixed_point_is_evaluated_once(self, monkeypatch):
        """An early certificate checks F(h) = value + h with one exact
        evaluation of F, not one per direction: one integer step, whose
        stages also check both strategies."""
        inside, calls = [], []
        real_eval, real_solution = st._step_stages, st._fixed_point_solution

        def counted_eval(game, x):
            if inside:
                calls.append(x)
            return real_eval(game, x)

        def tracked_solution(*args):
            inside.append(True)
            try:
                return real_solution(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(st, "_step_stages", counted_eval)
        monkeypatch.setattr(st, "_fixed_point_solution", tracked_solution)
        _refuse_paper_path(monkeypatch)
        sol = mg.solve_game(swap_shift_game())
        assert [tuple(F(v, den) for v in u) for u, den in calls] == [
            sol.sub.vec]
        assert sol.sub.vec == sol.sup.vec

    def test_bias_solves_the_chain(self):
        """g = P g and g + h = r + P h exactly, and each closed class's
        smallest state takes its anchor: together these fix (g, h), on
        chains with a transient state between two closed classes (twice),
        a transient state with a self-loop and one exit, a transient
        component of two states, two closed classes of equal gain, and 300
        pair chains of random draws with M = 1, 2 and 3."""
        rows = [[(0, 2)], [(1, 2)], [(0, 1), (1, 1)], [(2, 1), (3, 1)]]
        r = [F(2), F(-2), F(1), F(3)]
        shifted = lambda a, g: F(a) + g
        gain, bias = _solved_chain(rows, r, 2, shifted)
        assert gain == [2, -2, 0, 0]
        assert bias[0] == 2 and bias[1] == -1
        # state 1 stays with probability 2/3, else moves to state 0
        gain, bias = _solved_chain([[(0, 3)], [(0, 1), (1, 2)]],
                                   [F(1), F(5)], 3, None)
        assert gain == [1, 1] and bias == [0, 12]
        # a transient state between classes of gain 1 and 0 (M = 2): its
        # gain 1/2 widens the common denominator of the biases already found
        gain, bias = _solved_chain([[(0, 2)], [(1, 2)], [(0, 1), (1, 1)]],
                                   [F(1), F(0), F(5)], 2, shifted)
        assert gain == [1, 0, F(1, 2)] and bias == [1, 1, F(11, 2)]
        # states 2 and 3 reach each other and leave for 0 and 1
        gain, _ = _solved_chain(
            [[(0, 5)], [(1, 5)], [(0, 1), (2, 1), (3, 3)],
             [(1, 2), (2, 2), (3, 1)]],
            [F(1), F(-3), F(2, 3), F(-1, 2)], 5, shifted)
        assert gain == [1, -3, F(-7, 5), F(-11, 5)]
        # classes {0, 1} and {2}, both of gain 2, with state 3 between
        gain, bias = _solved_chain(
            [[(1, 2)], [(0, 2)], [(2, 2)], [(1, 1), (2, 1)]],
            [F(1), F(3), F(2), F(0)], 2, lambda a, g: F(a, 7) - 3 * g)
        assert gain == [2] * 4 and bias[2] == F(2, 7) - 6
        rng = random.Random(14)
        for t in range(300):
            g = mg.random_smpg(rng, 8, 8, 8, m_choices=(1 + t % 3,))
            sigma = [rng.choice(row)[0] for row in g.min_edges]
            tau = [rng.choice(row)[0] for row in g.max_edges]
            _solved_chain(*st._pair_chain(g, sigma, tau), g.M,
                          (None, shifted)[t % 2])

    def test_numerators_are_the_chain_solution(self):
        """gain_bias_numerators gives markov_gain_bias's Fractions as
        numerators over their least common denominator, on the 300 pair
        chains of test_bias_solves_the_chain, anchored (the anchor on
        integers) and not."""
        shifted = lambda a, g: F(a) + g
        int_shifted = lambda a, g, den: (a * den + g, den)
        rng = random.Random(14)
        for t in range(300):
            g = mg.random_smpg(rng, 8, 8, 8, m_choices=(1 + t % 3,))
            sigma = [rng.choice(row)[0] for row in g.min_edges]
            tau = [rng.choice(row)[0] for row in g.max_edges]
            rows, r = st._pair_chain(g, sigma, tau)
            for anchor, int_anchor in ((None, None), (shifted, int_shifted)):
                want = dominion.markov_gain_bias(rows, r, g.M, anchor)
                gain, bias, den = st.gain_bias_numerators(rows, r, g.M,
                                                          int_anchor)
                assert den > 0 and math.gcd(den, *gain, *bias) == 1
                assert ([F(x, den) for x in gain],
                        [F(x, den) for x in bias]) == want

    def test_probe_cap_is_the_a_priori_cap(self):
        """The probe's integer cap is the cap of the separation parameters,
        W = 0 draws (R taken as delta) included; a game's stats and the
        cap are computed once."""
        rng = random.Random(8)
        games = [mg.random_smpg(rng) for _ in range(100)]
        games += [cycle_game(a=1, b=1), nature_half_game(), peel_game(6, 2)]
        assert any(g.stats().W == 0 for g in games)
        for g in games:
            stats = g.stats()
            assert g.stats() is stats
            params = dominion._sep_params(stats)
            assert st._probe_cap(stats) == params.cap
            assert params.__dict__["cap"] == params.cap

    def test_systems_fit_the_components(self, monkeypatch):
        """random_smpg(Random(1000), 40, 40, 40) (28 Min states, M = 2):
        every system that gain_bias_numerators solves during solve_game is
        no larger than the largest strongly connected component of its
        chain.  One dense system over all transient states would be
        25 x 25."""
        g = mg.random_smpg(random.Random(1000), 40, 40, 40)
        assert len(g.min_ids) == 28 and g.M == 2
        real_chain = st.gain_bias_numerators
        real_solve = st.integer_solve_numerators
        limit, sizes = [], []

        def chain(rows, r, M, anchor=None):
            limit.append(max(map(len, tarjan_scc(
                [[l for l, _ in row] for row in rows]))))
            return real_chain(rows, r, M, anchor)

        def solve(a, b):
            sizes.append((len(a), limit[-1]))
            return real_solve(a, b)

        monkeypatch.setattr(st, "gain_bias_numerators", chain)
        monkeypatch.setattr(st, "integer_solve_numerators", solve)
        sol = mg.solve_game(g)
        assert sol.value == F(4, 3)
        assert sizes and all(size <= big for size, big in sizes)

    @pytest.mark.parametrize("make", [
        swap_shift_game,
        lambda: mg.random_smpg(random.Random(341)),
        lambda: mg.random_smpg(random.Random(1255), 4, 4, 4, m_choices=(1,),
                               payoff_lo=-3, payoff_hi=3),
        nature_half_game,
    ], ids=["swap-shift", "r341", "r1255", "nature-half"])
    def test_integer_half_line_is_exact(self, make):
        """The passing (chi, h), numerators over L, holds, and fails once
        any one entry of chi or of h moves up by 1/10^30 (over L 10^30);
        nature-half (M = 2) fails too if the comparison drops the factor
        M."""
        g = make()
        chi, h, den, *_ = _probe_numerators(g)
        assert chi is not None and st._half_line_holds(g, chi, h, den)
        scale = 10**30
        chi = [x * scale for x in chi]
        h = [x * scale for x in h]
        den *= scale
        for j in range(len(chi)):
            moved = list(chi)
            moved[j] += den // scale
            assert not st._half_line_holds(g, moved, h, den)
            moved = list(h)
            moved[j] += den // scale
            assert not st._half_line_holds(g, chi, moved, den)


class TestPaperPath:
    """The a priori path: the fallback when no checkpoint passes."""

    def test_fallback_answers_unchanged(self, monkeypatch):
        games = [peel_game(6, 2), nature_half_game()]
        rng = random.Random(7)
        games += [mg.random_smpg(rng) for _ in range(6)]
        early = [mg.solve_game(g) for g in games]
        _refuse_first_probe(monkeypatch)
        for g, e in zip(games, early):
            sol = mg.solve_game(g)
            _, best, top = _brute_top(g)
            assert sol.top_class == e.top_class == top
            assert sol.value == e.value == best
            assert mg.check_certificate(sol.subgame, sol.sub)
            assert mg.check_certificate(sol.subgame, sol.sup)
            assert set(mg.frozen_pair_values(
                sol.subgame, sol.strategies)) == {best}

    def test_fallback_counts(self, monkeypatch, tmp_path):
        """With the first probe stopping at step 0 without the gap
        condition, the solvers report the paper path's oracle calls
        exactly, and every view of the one solve the same: top_class's
        calls and the subgame probe's steps."""
        _refuse_first_probe(monkeypatch)
        ((reports, steps),) = _views(tmp_path, [peel_game(6, 2)])
        # top_class's 24,580 (test_pinned_counts), then the half-line of
        # the subgame on {m0, m1} at step 1
        assert reports["value"] is None and steps == 24580 + 1
        for mode in ("topclass", "full"):
            assert reports[mode]["top_class"] == ["m0", "m1"]
            assert reports[mode]["oracle_calls"] == 24580 + 1
        assert mg.solve_game(peel_game(6, 2)).oracle_calls == 24580 + 1
        # nature-half: top_class's 23 keeps the whole game, whose probe
        # passes at step 1
        assert mg.solve_constant_value(
            nature_half_game()).oracle_calls == 23 + 1

    @pytest.mark.parametrize("make, decided, steps", [
        (nature_half_game, 22, 25),
        (swap_shift_game, 2, 4),
        (lambda: mg.random_smpg(random.Random(60), 4, 4, 4), 12, 15),
    ], ids=["nature-half", "swap-shift", "r60-444"])
    def test_probe_stop_decides(self, monkeypatch, tmp_path, make, decided,
                                steps):
        """With no checkpoint passing, the probe still runs the decision's
        loop, and stops on its gap condition at most _WINDOW - 1 steps
        after decide_constant_value does.  So every Min state is the top
        class, top_class never runs, and the bracket replays the orbit up to
        the probe's first gap stop: the full and value views report the
        probe's steps plus the replay's decided - 1 calls, and the sub and
        super certificates, interval and iterations of
        approximate_constant_mean_payoff run from 0.  (On r60-444 the
        window's last step misses the gap condition; a probe that ignored
        the earlier step ran on to step 27.)"""
        g = make()
        stats = g.stats()
        params = dominion._sep_params(stats)
        outcome = mg.decide_constant_value(
            mg.RoundingOracle(g, 4 * stats.mu**2), params)
        assert outcome.low_set is None and outcome.iterations == decided
        monkeypatch.setattr(st, "_half_line_at", lambda *args: None)
        chi, h, probe_steps, (_, ell) = _probe(g)
        assert (chi, h, probe_steps, ell) == (None, None, steps, decided)
        assert decided <= steps < decided + st._WINDOW
        ref = mg.approximate_constant_mean_payoff(
            mg.RoundingOracle(g, 4 * stats.mu**2), params.delta, params.cap)
        _refuse_top_class(monkeypatch)
        sol = mg.solve_game(g)

        def certified(res):
            # the certificates as values, whatever terms they are in
            return [(c.lam, c.vec, c.direction, c.multiplicative)
                    for c in (res.sub, res.sup)]

        assert (certified(sol), sol.interval, sol.iterations) == (
            certified(ref), ref.interval, ref.iterations)
        ((reports, bench_steps),) = _views(tmp_path, [g])
        for mode in ("topclass", "full"):
            assert reports[mode]["top_class"] == sorted(g.min_ids)
            assert reports[mode]["oracle_calls"] == steps + decided - 1
        assert bench_steps == sol.oracle_calls == steps + decided - 1
        _value_view_agrees(reports["value"], reports["full"])
        runner = CliRunner()
        for mode in ("full", "value"):
            path = tmp_path / f"{mode}.json"
            path.write_text(json.dumps(reports[mode]))
            assert runner.invoke(main, ["certify", str(tmp_path / "g0.json"),
                                        str(path)]).exit_code == 0

    @pytest.mark.parametrize("make", [absorbing_game, lambda: peel_game(6, 2)],
                             ids=["absorbing", "peel-6-2"])
    def test_cap_means_not_constant(self, monkeypatch, tmp_path, make):
        """With the first probe stopping at step 0 without the gap
        condition, the paper's top_class decides.  On a non-constant game
        its first decision runs the constancy loop to the a priori cap
        without the gap condition, and it peels to a proper top class.
        Value mode reads that solve: "not constant", with no bracket run to
        its cap, and exit 1."""
        _refuse_first_probe(monkeypatch)
        g = make()
        stats = g.stats()
        params = dominion._sep_params(stats)
        oracle = mg.RoundingOracle(g, 4 * stats.mu**2)
        assert mg.decide_constant_value(oracle, params).low_set is not None
        assert mg.solve_game(g).top_class < frozenset(g.min_ids)
        with pytest.raises(ValueError, match="not constant") as exc:
            mg.solve_constant_value(g)
        assert exc.value.__context__ is None
        path = tmp_path / "g.json"
        path.write_text(json.dumps(mg.game_to_json(g)))
        res = CliRunner().invoke(main, ["solve", str(path), "--mode",
                                        "value"])
        assert res.exit_code == 1 and "not constant" in res.output

    @pytest.mark.parametrize("make, calls", [
        (lambda: peel_game(6, 2), 24580 + 1),
        (absorbing_game, 2564 + 1),
        (nature_half_game, 23 + 1),
    ], ids=["peel-6-2", "absorbing", "nature-half"])
    def test_subgame_probe_after_the_peel(self, monkeypatch, tmp_path, make,
                                          calls):
        """When the first probe reaches its cap, top_class peels and the
        probe runs once on the subgame the top class induces: it certifies
        an exact fixed point there, with the top class and value of brute
        force, and the report passes `certify`.  When that probe reaches
        its cap too, the solve raises IterationCapExceeded and the CLI
        exits 3."""
        g = make()
        _, best, top = _brute_top(g)
        path, rep = tmp_path / "g.json", tmp_path / "r.json"
        path.write_text(json.dumps(mg.game_to_json(g)))
        runner = CliRunner()
        _refuse_first_probe(monkeypatch)
        sol = mg.solve_game(g)
        assert sol.interval.lo == sol.interval.hi == sol.value == best
        assert sol.top_class == top and sol.oracle_calls == calls
        res = runner.invoke(main, ["solve", str(path), "--json"])
        assert res.exit_code == 0
        rep.write_text(res.output)
        assert runner.invoke(main, ["certify", str(path),
                                    str(rep)]).exit_code == 0
        monkeypatch.setattr(st, "_half_line", _no_probe)
        with pytest.raises(mg.IterationCapExceeded):
            mg.solve_game(g)
        assert runner.invoke(main, ["solve", str(path)]).exit_code == 3

    @pytest.mark.parametrize("make, cap, calls, states, iterations", [
        (nature_half_game, 8193, 23, {0, 1}, 22),
        (lambda: peel_game(6, 2), 24577, 24580, {0, 1}, 1),
    ], ids=["nature-half", "peel-6-2"])
    def test_pinned_counts(self, make, cap, calls, states, iterations):
        """top_class and approximate_constant_mean_payoff called directly:
        the counts of the a priori path stay as they were before the early
        certificate existed."""
        g = make()
        stats = g.stats()
        params = dominion._sep_params(stats)
        assert params.cap == cap
        oracle = mg.RoundingOracle(g, 4 * stats.mu**2)
        dom, n_calls = mg.top_class(oracle, params)
        assert (set(dom.states), n_calls) == (states, calls)
        sub = mg.induced_subgame(g, sorted(dom.states))
        sub_stats = sub.stats()
        sub_params = dominion._sep_params(sub_stats)
        res = mg.approximate_constant_mean_payoff(
            mg.RoundingOracle(sub, 4 * sub_stats.mu**2), sub_params.delta,
            sub_params.cap)
        assert res.iterations == iterations


class TestBruteForce:
    def test_cycle(self):
        assert mg.brute_force_values(cycle_game(a=0, b=2)).chi == (F(2),)

    def test_min_choice(self):
        assert mg.brute_force_values(min_choice_game()).chi == (F(-1),)

    def test_nature_half(self):
        assert mg.brute_force_values(nature_half_game()).chi == (
            F(3, 2), F(3, 2))

    def test_budget(self):
        with pytest.raises(ValueError):
            mg.brute_force_values(min_choice_game(), budget=1)

    def test_transient_states(self):
        """Gains of transient states mix absorbed-class gains."""
        g = mg.make_game(
            ["m0", "m1", "m2"], ["x0", "x1", "x2"], ["n0", "n1", "n2"],
            [[(0, 0)], [(1, 0)], [(2, 0)]],
            [[(0, 2)], [(1, -2)], [(2, 0)]],
            [[(0, 2)], [(1, 2)], [(0, 1), (1, 1)]],  # m2 splits half/half
            2,
        )
        chi = mg.brute_force_values(g).chi
        assert chi == (F(2), F(-2), F(0))


class TestDominionGraph:
    def test_matches_operator(self):
        import itertools

        rng = random.Random(41)
        for _ in range(20):
            g = mg.random_smpg(rng)
            orc = mg.ExactOracle(g)
            n = orc.n
            for size in range(1, n + 1):
                for sub in itertools.combinations(range(n), size):
                    ind = mg.induced_subgame(g, sub)
                    assert (ind is not None) == mg.is_dominion(orc, sub)

    def test_induced_subgame_operator_agrees(self):
        g = absorbing_game()
        ind = mg.induced_subgame(g, [0])
        assert ind is not None
        assert mg.shapley_eval(ind, zeros(1)) == vec([5])


class TestJsonRoundTrip:
    def test_round_trip(self):
        rng = random.Random(53)
        for _ in range(10):
            g = mg.random_smpg(rng)
            obj = mg.game_to_json(g)
            back = mg.parse_smpg(json.loads(json.dumps(obj)))
            assert back == g

    def test_parse_errors_name_offender(self):
        obj = mg.game_to_json(cycle_game())
        obj["edges"].append({"from": "m0", "to": "zz"})
        with pytest.raises(mg.GameFormatError):
            mg.parse_smpg(obj)
