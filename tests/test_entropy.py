"""Matrix-multiplicative Despot/Tribune/People backend."""

import itertools
import json
import math
import random
from fractions import Fraction

import mpmath
import pytest
from click.testing import CliRunner

import mpgames as mg
from mpgames import entropy as ent
from mpgames import entropycheck
from mpgames import perron
from mpgames.cli import main
from mpgames.graphs import GameFormatError
from mpgames.perron import (
    certified_log_sum_exp,
    exp_bounds,
    matrix_values,
    pair_matrix,
)
from mpgames.iteration import vec

from conftest import (
    DEFECT_GAMES,
    defect_game,
    entropy_despot_choice,
    entropy_jordan,
    entropy_loop,
    entropy_pair_loop,
    entropy_shared_tribune,
    entropy_tribune_choice,
    coupled_jordan_game,
    rows_game,
    unhashed_copy,
)

F = Fraction


class TestConstruction:
    def test_validation(self):
        with pytest.raises(GameFormatError):
            mg.make_entropy_game(["d0"], ["t0"], ["p0"], [[0]], [[]],
                                 [[(0, 1)]])
        with pytest.raises(GameFormatError):
            mg.make_entropy_game(["d0"], ["t0"], ["p0"], [[0]], [[0]],
                                 [[(0, 0)]])

    @pytest.mark.parametrize("edges, message", [
        (([[0, 0]], [[0]], [[(0, 1)]]), "duplicate edge 'd0' -> 't0'"),
        (([[0]], [[0, 0]], [[(0, 1)]]), "duplicate edge 't0' -> 'p0'"),
        (([[0]], [[0]], [[(0, 1), (0, 2)]]), "duplicate edge 'p0' -> 'd0'"),
        (([[0]], [[0]], [[(0, True)]]),
         "\"m\" of edge 'p0' -> 'd0' must be an integer, got True"),
        (([[1]], [[0]], [[(0, 1)]]),
         "an edge of state 'd0' violates alternation"),
        (([[0]], [[0]], [[(-1, 1)]]),
         "an edge of state 'p0' violates alternation"),
    ], ids=["despot", "tribune", "people", "bool-multiplicity",
            "target-past-the-end", "negative-target"])
    def test_repeated_target_rejected(self, edges, message):
        """A row that names one target twice is refused, with the game
        reader's wording; a People row would otherwise count both
        multiplicities in T but only one in a pair matrix.  So are a
        multiplicity that is not an int and a target index that names no
        state, as in a game file."""
        with pytest.raises(GameFormatError, match=message):
            mg.make_entropy_game(["d0"], ["t0"], ["p0"], *edges)
        game = ent.EntropyGame(("d0",), ("t0",), ("p0",),
                               *(tuple(map(tuple, rows)) for rows in edges))
        with pytest.raises(GameFormatError, match=message):
            mg.solve_entropy_game(game)

    def test_validated_once_per_game(self, monkeypatch):
        """`validate` runs its checks once per game object, so that a CLI
        solve, which validates the game it reads and then solves it, checks
        it once; a malformed game fails every call."""
        good = ent.EntropyGame(("d0",), ("t0",), ("p0",), ((0,),), ((0,),),
                               (((0, 2),),))
        bad = good._replace(p_edges=(((0, 0),),))
        calls = []
        check = entropycheck.check_rows
        monkeypatch.setattr(entropycheck, "check_rows",
                            lambda *args: calls.append(args) or check(*args))
        assert good.validate() is good
        assert good.validate() is good
        assert len(calls) == 1
        for _ in range(2):
            with pytest.raises(GameFormatError, match="multiplicity"):
                bad.validate()
        assert len(calls) == 3

    def test_stats_and_bounds(self):
        g = entropy_tribune_choice()
        st = g.stats()
        assert (st.n, st.W) == (1, 3)
        assert g.stats() is st  # computed once per game
        assert mg.value_bounds(g).lo == 1
        assert mg.value_bounds(g).hi == 3


class TestMultiplicativeEval:
    def test_loop_doubles(self):
        g = entropy_loop(2)
        assert mg.multiplicative_eval(g, [F(5, 3)]) == (F(10, 3),)

    def test_people_sum(self):
        g = entropy_pair_loop()
        assert mg.multiplicative_eval(g, [F(1), F(1)]) == (F(2), F(2))

    def test_tribune_maximizes(self):
        g = mg.make_entropy_game(
            ["d0"], ["t0"], ["p2", "p5"],
            [[0]], [[0, 1]], [[(0, 2)], [(0, 5)]],
        )
        assert mg.multiplicative_eval(g, [F(1)]) == (F(5),)

    def test_despot_minimizes(self):
        g = entropy_despot_choice()
        assert mg.multiplicative_eval(g, [F(1)]) == (F(2),)

    def test_zero_propagates(self):
        # zero plays the -inf role in the multiplicative domain
        assert mg.multiplicative_eval(entropy_loop(2), [F(0)]) == (F(0),)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mg.multiplicative_eval(entropy_loop(), [F(-1)])


class TestRecessionEval:
    def test_constant_fixed(self):
        g = entropy_pair_loop()
        c = F(7, 2)
        assert perron.recession_eval(g, vec([c, c])) == vec([c, c])

    def test_loop_identity(self):
        g = entropy_loop(2)
        assert perron.recession_eval(g, vec([9])) == vec([9])

    def test_optimal_reduction_fixes_value_vector(self):
        """Under the solver's Despot choice, the recession operator fixes
        the per-state growth rates (checked on the exact brute values of a
        two-block instance)."""
        g = two_block_game()
        sol = mg.solve_entropy_game(g)
        sigma_idx = {
            d: g.t_ids.index(sol.sigma[did])
            for d, did in enumerate(g.d_ids)
        }
        reduced = mg.make_entropy_game(
            g.d_ids, g.t_ids, g.p_ids,
            [[sigma_idx[d]] for d in range(len(g.d_ids))],
            g.t_edges, g.p_edges,
        )
        chi = vec([3, 2])  # exact values of the two loops
        assert perron.recession_eval(reduced, chi) == chi


class TestCertifiedLogs:
    def test_exp_bounds(self):
        # e = 2.7182818284590452...
        lo, hi = exp_bounds(F(1))
        assert lo < F(27182818284590453, 10**16)
        assert hi > F(27182818284590452, 10**16)
        assert (hi - lo) / lo < F(1, 2**70)

    def test_log_sum_exp_accuracy(self):
        for eps in (F(1, 2**10), F(1, 2**40), F(1, 2**80)):
            got = certified_log_sum_exp([(1, F(0)), (1, F(0))], eps)
            with mpmath.workdps(50):
                ref = F(mpmath.nstr(mpmath.log(2), 40))
            assert abs(got - ref) <= eps + F(1, 10**35)

    def test_log_sum_exp_weighted(self):
        eps = F(1, 2**60)
        got = certified_log_sum_exp([(3, F(1, 3)), (2, F(-5, 7))], eps)
        with mpmath.workdps(50):
            ref = F(mpmath.nstr(
                mpmath.log(3 * mpmath.exp(mpmath.mpf(1) / 3)
                           + 2 * mpmath.exp(mpmath.mpf(-5) / 7)), 40))
        assert abs(got - ref) <= 2 * eps

    def test_log_sum_exp_beyond_floats(self):
        """Arguments no float can hold take the exact path."""
        eps = F(1, 2**60)
        big = F(10**400, 3)
        got = certified_log_sum_exp([(2, big), (5, big - 1)], eps)
        with mpmath.workdps(50):
            ref = F(mpmath.nstr(mpmath.log(2 + 5 * mpmath.exp(-1)), 40))
        assert abs(got - big - ref) <= eps + F(1, 10**35)


class TestDominions:
    def test_characterization_matches_operator(self):
        """S is a dominion iff T at the 0/1 indicator of S is positive on
        S: every move from S keeps some weight on S."""
        rng = random.Random(13)
        for _ in range(20):
            g = mg.random_entropy_game(rng)
            n = len(g.d_ids)
            for size in range(1, n + 1):
                for sub in itertools.combinations(range(n), size):
                    out = mg.multiplicative_eval(
                        g, [int(d in sub) for d in range(n)])
                    assert (mg.induced_entropy_subgame(g, sub)
                            is not None) == all(out[d] > 0 for d in sub)

    def test_induced_subgame_round_trip(self):
        g = two_block_game()
        sub = mg.induced_entropy_subgame(g, [0])
        assert sub is not None
        assert sub.d_ids == ("a0",)
        assert mg.induced_entropy_subgame(g, [1]) is not None

    @pytest.mark.parametrize("make", [
        entropy_loop, entropy_tribune_choice, entropy_despot_choice,
        entropy_pair_loop, entropy_shared_tribune, entropy_jordan,
    ])
    def test_whole_game_is_its_own_subgame(self, make):
        g = make()
        every = range(len(g.d_ids))
        assert mg.induced_entropy_subgame(g, every) is g
        assert ent.remove_block(g, every) is None

    def test_unreached_states_are_cut_from_every_subgame(self, tmp_path):
        """A Tribune that no Despot moves to, its People, and a People that
        no Tribune moves to are in no subgame: the subgame of every Despot
        is a copy without them, which the solve certifies and `certify`
        rebuilds."""
        g = mg.make_entropy_game(
            ["d0"], ["t0", "tx"], ["p0", "px", "py"],
            [[0]], [[0], [1]], [[(0, 2)], [(0, 5)], [(0, 7)]])
        sub = mg.induced_entropy_subgame(g, [0])
        assert sub is not g
        assert sub.ids == (("d0",), ("t0",), ("p0",))
        assert ent.remove_block(g, [0]) is None
        (block,) = mg.solve_entropy_game(g).blocks
        assert block.subgame == sub
        assert block.interval == mg.RationalInterval(2, 2)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(mg.entropy_to_json(g)))
        runner = CliRunner()
        res = runner.invoke(main, ["solve", str(path), "--json"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["certificates"][0]["states"] == {
            "d_states": ["d0"], "t_states": ["t0"], "p_states": ["p0"]}
        rep = tmp_path / "rep.json"
        rep.write_text(res.output)
        res = runner.invoke(main, ["certify", str(path), str(rep)])
        assert res.exit_code == 0, res.output

    def test_induced_subgame_operator_agrees(self):
        """On every dominion D, T of the induced subgame is T of the game
        at the vector padded with 0 off D, read on D."""
        rng = random.Random(17)
        dominions = 0
        for _ in range(30):
            g = mg.random_entropy_game(rng, 4, 4, 4)
            n = len(g.d_ids)
            for size in range(1, n + 1):
                for dom in itertools.combinations(range(n), size):
                    sub = mg.induced_entropy_subgame(g, dom)
                    if sub is None:
                        continue
                    dominions += 1
                    assert sub.d_ids == tuple(g.d_ids[d] for d in dom)
                    for _ in range(3):
                        x = [rng.randint(0, 5) for _ in dom]
                        full = [0] * n
                        for d, v in zip(dom, x):
                            full[d] = v
                        out = mg.multiplicative_eval(g, full)
                        assert mg.multiplicative_eval(sub, x) == tuple(
                            out[d] for d in dom)
        assert dominions >= 20


class TestPairMachinery:
    def test_loop_matrix(self):
        g = entropy_loop(2)
        assert pair_matrix(g, [0], [0]) == [[2]]

    def test_matrix_values_reachable_max(self):
        vals = matrix_values([[2, 1], [0, 3]], F(1, 2**20))
        assert vals[0].lo <= 3 <= vals[0].hi
        assert vals[1].lo <= 3 <= vals[1].hi

    def test_matrix_values_constant_rows(self):
        vals = matrix_values([[1, 1], [1, 1]], F(1, 2**20))
        assert all(v.lo <= 2 <= v.hi and v.width <= F(1, 2**20)
                   for v in vals)

    def test_acyclic_state_value_zero(self):
        vals = matrix_values([[0, 1], [0, 2]], F(1, 2**20))
        assert vals[0].lo <= 2 <= vals[0].hi  # reaches the self-loop
        assert vals[1].lo <= 2 <= vals[1].hi


class TestRankProfile:
    def test_rank_one(self):
        prof = mg.brute_force_entropy_values(entropy_pair_loop()).profile
        assert prof.rank == 1

    def test_rank_two(self):
        g = mg.make_entropy_game(
            ["d0", "d1"], ["t0", "t1"], ["p0", "p1"],
            [[0], [1]], [[0], [1]],
            [[(0, 10), (1, 10)], [(0, 1)]],  # rows of [[10,10],[1,0]]
        )
        assert mg.brute_force_entropy_values(g).profile.rank == 2

    @pytest.mark.parametrize("name", ["shared-tribune", "n7-7003"])
    def test_rank_of_pair_matrices(self, name):
        """The rank is the paper's: the maximal rank of the pair matrices,
        each distinct one ranked once."""
        if name == "shared-tribune":
            g = entropy_shared_tribune()
        else:
            g = mg.random_entropy_game(random.Random(7003), 7, 7, 7)
        matrices = {
            tuple(map(tuple, pair_matrix(g, sigma, tau)))
            for sigma in itertools.product(*g.d_edges)
            for tau in itertools.product(*g.t_edges)
        }
        prof = mg.brute_force_entropy_values(g).profile
        assert prof.rank == 1
        assert prof.selections == len(matrices)

    def test_nu_formula_magnitude(self):
        from mpgames.entropy import _nu_value

        nu = _nu_value(2, 1, 1)
        assert F(44, 100) * 10**6 < nu < F(45, 100) * 10**6

    def test_nu_hat(self):
        g = entropy_pair_loop()
        prof = mg.brute_force_entropy_values(g).profile
        assert prof.nu_hat == len(g.d_ids) * g.stats().W * prof.nu


def two_block_game():
    """Two disconnected loops with weights 3 (block a) and 2 (block b)."""
    return mg.make_entropy_game(
        ["a0", "b0"], ["at", "bt"], ["ap", "bp"],
        [[0], [1]], [[0], [1]],
        [[(0, 3)], [(1, 2)]],
    )


class TestBruteForce:
    def test_single_loop(self):
        br = mg.brute_force_entropy_values(entropy_loop(2))
        assert br.chi[0].lo <= 2 <= br.chi[0].hi

    def test_tribune_choice(self):
        br = mg.brute_force_entropy_values(entropy_tribune_choice())
        assert br.chi[0].lo <= 3 <= br.chi[0].hi
        assert br.chi[0].width <= F(1, 2**29)

    def test_despot_choice(self):
        br = mg.brute_force_entropy_values(entropy_despot_choice())
        assert br.chi[0].lo <= 2 <= br.chi[0].hi

    def test_budget(self):
        with pytest.raises(ValueError):
            mg.brute_force_entropy_values(entropy_tribune_choice(), budget=1)

    def test_budget_checked_before_rank_enumeration(self, monkeypatch):
        """A game over the pair budget is refused before rank_profile
        enumerates the People choices, by the solver and by brute force."""
        def refuse(*args, **kwargs):
            raise AssertionError("rank_profile ran on a refused game")

        monkeypatch.setattr(perron, "rank_profile", refuse)
        g = entropy_tribune_choice()
        for run in (mg.solve_entropy_game, mg.brute_force_entropy_values):
            with pytest.raises(ValueError, match="exceeds budget"):
                run(g, budget=1)

    def test_values_in_range(self):
        rng = random.Random(37)
        for _ in range(15):
            g = mg.random_entropy_game(rng)
            vb = mg.value_bounds(g)
            br = mg.brute_force_entropy_values(g)
            for iv in br.chi:
                assert vb.lo <= iv.hi and iv.lo <= vb.hi


class TestSolve:
    def test_single_loop(self):
        sol = mg.solve_entropy_game(entropy_loop(2))
        assert sol.values["d0"].contains(F(2))
        assert sol.sigma == {"d0": "t0"} and sol.tau == {"t0": "p0"}

    def test_tribune_choice(self):
        sol = mg.solve_entropy_game(entropy_tribune_choice())
        assert sol.values["d0"].contains(F(3))
        assert sol.tau["t0"] == "p3"

    def test_despot_choice(self):
        sol = mg.solve_entropy_game(entropy_despot_choice())
        assert sol.values["d0"].contains(F(2))
        assert sol.sigma["d0"] == "t2"

    def test_two_blocks(self):
        g = two_block_game()
        sol = mg.solve_entropy_game(g)
        assert len(sol.blocks) == 2
        assert sol.values["a0"].contains(F(3))
        assert sol.values["b0"].contains(F(2))

    def test_certificates_verify_exactly(self):
        g = two_block_game()
        sol = mg.solve_entropy_game(g)
        for block in sol.blocks:
            assert mg.check_entropy_certificate(block.subgame, block.sub)
            assert mg.check_entropy_certificate(block.subgame, block.sup)

    @pytest.mark.parametrize("make", [
        entropy_loop, entropy_tribune_choice, entropy_despot_choice,
        entropy_pair_loop,
    ], ids=["loop", "tribune-choice", "despot-choice", "pair-loop"])
    def test_shared_witness_checked_once(self, make, monkeypatch):
        """A single block decided by separation, whose sub and super witness
        are one iterate: every evaluation of T in the solve, by the search's
        greedy evaluation or by the exact one, is a unit of its search, and
        the levels read off that evaluation need no re-check.  The greedy
        pair and the level states are computed once per evaluation: the
        block's strategies are those the search read off its witness."""
        calls = []

        def counted(name):
            real = getattr(ent, name)

            def run(*args):
                calls.append(name)
                return real(*args)
            return run

        for name in ("multiplicative_eval", "_evaluate", "_greedy",
                     "_level_states"):
            monkeypatch.setattr(ent, name, counted(name))
        (block,) = mg.solve_entropy_game(make()).blocks
        assert block.sub.vec == block.sup.vec
        evaluations = calls.count("multiplicative_eval") + calls.count(
            "_evaluate")
        assert evaluations == block.iterations
        assert calls.count("_greedy") == calls.count("_level_states") == (
            calls.count("_evaluate"))

    def test_report_pair_evaluated_once(self, monkeypatch):
        """A block's sub and super certificates read back from a report
        hold distinct, equal vectors: the check evaluates T once for them,
        found by equality without hashing."""
        blocks = mg.solve_entropy_game(two_block_game()).blocks
        calls = []
        real = entropycheck._greedy
        monkeypatch.setattr(entropycheck, "_greedy",
                            lambda game, x: calls.append(x) or real(game, x))
        for block in blocks:
            pair = tuple(map(unhashed_copy, (block.sub, block.sup)))
            assert entropycheck.check_entropy_certificates(block.subgame,
                                                           pair)
        assert len(calls) == len(blocks) == 2

    def test_block_subgame_reconstructible(self):
        """certify's rebuild: each block's Despots induce its subgame in
        what `remove_block` leaves of the game after the blocks before it."""
        g = two_block_game()
        sol = mg.solve_entropy_game(g)
        for game, block in peeled_games(g, sol):
            dmax = [game.d_ids.index(d) for d in block.d_ids]
            rebuilt = mg.induced_entropy_subgame(game, dmax)
            assert rebuilt == block.subgame

    def test_stitched_strategies_reproduce_values(self):
        rng = random.Random(43)
        games = [mg.random_entropy_game(rng) for _ in range(15)]
        games += [defect_game(name) for name in sorted(DEFECT_GAMES)]
        games.append(pinned_game("r2-666-1"))
        for g in games:
            sol = mg.solve_entropy_game(g)
            br = mg.brute_force_entropy_values(g)
            pv = mg.pair_values_by_ids(g, sol.sigma, sol.tau, F(1, 2**40))
            for d, did in enumerate(g.d_ids):
                siv, biv = sol.values[did], br.chi[d]
                assert siv.lo <= biv.hi and biv.lo <= siv.hi
                assert pv[d].lo <= biv.hi and biv.lo <= pv[d].hi
                for block in sol.blocks:
                    assert mg.check_entropy_certificate(block.subgame,
                                                        block.sub)
                    assert mg.check_entropy_certificate(block.subgame,
                                                        block.sup)


def sep(n, w, r):
    """The separation delta of a block decided at rank r on a residual game
    with n Despots and largest multiplicity w: 1/nu_hat."""
    return 1 / (n * w * ent._nu_value(n, w, r))


# (rank, delta, units of search work) of each block and the exact value
# brackets: any change to them is a change in the solver's answers.  The
# defect games are integer-valued (Jordan-type) blocks that the exact solve
# at that integer certifies, so their lower level is the value 3 itself
CEX_LO = (
    "1054601832909406620000283285872250955805127/"
    "386011061722474655258468575193443828801980")
CEX_HI = (
    "2109203665818813240000566571744501911610254/"
    "772022123444949310516937150386887657600245")
R2_666_1_LO = (
    "1526498727326636503530304688154636338460065680220786855167384/"
    "131961430009037871145785792202420198171978945684566998241043")
R2_666_1_HI = (
    "5446187759261356658392289791606444362980367992460312429464321/"
    "470807287254333534364018350535274753084234114744250869239040")


def defect_pins(units, hi):
    return ([(3, sep(3, 3, 3), units)],
            {d: ("3", hi) for d in ("d0", "d1", "d2")})


PINNED_ANSWERS = {
    "defect-e11-54": defect_pins(6, (
        "70152078591883340073776871970381584943484762062854/"
        "23384026197294446691258957323460528314494920687617")),
    "defect-e86-57": defect_pins(8, (
        "280608314367533360295107487881526339773939048251413/"
        "93536104789177786765035829293842113257979682750467")),
    "defect-e239-27": defect_pins(4, (
        "70152078591883340073776871970381584943484762062860/"
        "23384026197294446691258957323460528314494920687619")),
    "r2-666-0": ([(1, sep(1, 3, 1), 1)], {"d0": ("3", "3")}),
    "r2-666-1": (
        [(3, sep(6, 3, 3), 12)],
        {f"d{i}": (R2_666_1_LO, R2_666_1_HI) for i in range(6)},
    ),
    "cex-2-2": (
        [(2, sep(4, 8, 2), 36), (1, sep(1, 8, 1), 1)],
        {"d*": (CEX_LO, CEX_HI), "dl0": (CEX_LO, CEX_HI),
         "dl1": (CEX_LO, CEX_HI), "dr0": ("2", "2")},
    ),
}
# the blocks of the search's fallback, its one exact solve at the limit of
# max(4 * pairs, 64) units, on the defect games with every other witness
# refused (`limit_only`): the bracket of the root closes on the integer 3,
# so the solve is the integer case's, with its brackets
PINNED_FALLBACK = {
    name: ([(3, sep(3, 3, 3), units)], PINNED_ANSWERS[name][1])
    for name, units in [("defect-e11-54", 220), ("defect-e86-57", 220),
                        ("defect-e239-27", 100)]}


def block_pins(sol):
    return [(b.rank, b.delta, b.iterations) for b in sol.blocks]


def pinned_game(name):
    if name.startswith("defect-"):
        return defect_game(name[len("defect-"):])
    if name.startswith("r2-666-"):
        rng = random.Random(2)
        draws = [mg.random_entropy_game(rng, 6, 6, 6) for _ in range(2)]
        return draws[int(name[len("r2-666-"):])]
    return mg.build_cex_game(2, 2).game


def limit_only(monkeypatch):
    """Refuse every witness but the exact solve at the search's limit: no
    exact solve at an integer, and no levels but those of that solve."""
    limit_ys = []
    witness, levels = ent._exact_witness, ent._separated_levels

    def at_limit(*args):
        limit_ys.append(witness(*args))
        return limit_ys[-1]

    monkeypatch.setattr(ent, "_single_integer", lambda *args: None)
    monkeypatch.setattr(ent, "_exact_witness", at_limit)
    monkeypatch.setattr(ent, "_separated_levels", lambda v, *args: (
        levels(v, *args) if any(v is y for y in limit_ys) else None))
    return limit_ys


PINS = pytest.mark.parametrize("pins, name", [
    *((PINNED_ANSWERS, name) for name in sorted(PINNED_ANSWERS)),
    *((PINNED_FALLBACK, name) for name in sorted(PINNED_FALLBACK))],
    ids=[*sorted(PINNED_ANSWERS),
         *(f"fallback-{name}" for name in sorted(PINNED_FALLBACK))])


def pinned_solve(pins, name, monkeypatch):
    """The solve of a pinned game, on the fallback for the fallback's pins."""
    if pins is PINNED_FALLBACK:
        limit_only(monkeypatch)
    return mg.solve_entropy_game(pinned_game(name))


class TestPinnedAnswers:
    @PINS
    def test_delta_steps_and_values(self, pins, name, monkeypatch):
        """The pinned blocks and brackets, each bracket meeting brute
        force's; the fallback's with every witness but the limit's
        refused."""
        blocks, values = pins[name]
        sol = pinned_solve(pins, name, monkeypatch)
        assert block_pins(sol) == blocks
        assert sol.values == {
            d: mg.RationalInterval(F(lo), F(hi))
            for d, (lo, hi) in values.items()}
        g = pinned_game(name)
        brute = mg.brute_force_entropy_values(g)
        for did, iv in zip(g.d_ids, brute.chi):
            assert sol.values[did].lo <= iv.hi and iv.lo <= sol.values[did].hi

    @PINS
    def test_strategies_greedy_at_one_witness(self, pins, name, monkeypatch):
        """Each pinned block, the fallback's included, is certified by one
        witness, and the strategies are the pair greedy at it."""
        assert_greedy_at_witness(pinned_game(name),
                                 pinned_solve(pins, name, monkeypatch))

    @PINS
    def test_no_float_logarithm(self, pins, name, monkeypatch):
        """The search and its exact solves take no logarithm: the solve
        gives its pinned answers with every float logarithm refused."""
        def refuse(*args):
            raise AssertionError("float logarithm in the entropy solve")

        monkeypatch.setattr(math, "log", refuse)
        monkeypatch.setattr(math, "log2", refuse)
        blocks, _ = pins[name]
        assert block_pins(pinned_solve(pins, name, monkeypatch)) == blocks


def brute_classes(g, brute):
    """The Despot ids of g grouped by equal brute-force value, from the
    highest value down: the blocks a peel of top classes must find."""
    cmp, c = brute.registry.compare, brute.candidates

    def order(a, b):
        return cmp(c[a], c[b], brute.coarse_tol, brute.fine_tol)

    left = list(range(len(g.d_ids)))
    classes = []
    while left:
        best = left[0]
        for d in left[1:]:
            if order(d, best) > 0:
                best = d
        top = [d for d in left if order(d, best) == 0]
        classes.append(sorted(g.d_ids[d] for d in top))
        left = [d for d in left if d not in top]
    return classes


def peeled_games(g, sol):
    """(the residual game the block was peeled from, block) per block: the
    solver's peel, `remove_block`."""
    game = g
    for block in sol.blocks:
        yield game, block
        game = ent.remove_block(game, [game.d_ids.index(d)
                                       for d in block.d_ids])


def assert_greedy_at_witness(g, sol):
    """Every block has one witness, the vector of both its certificates,
    and the solution's strategies on the block are the pair greedy at that
    witness extended by zero over the residual game, ties to the smallest
    index: each Tribune with a positive People sum takes a People of
    largest sum, each Despot of the block a Tribune of least largest sum.
    The block's Tribunes and People are those of positive sum."""
    for game, block in peeled_games(g, sol):
        assert block.sub.vec == block.sup.vec
        x = dict(zip(block.subgame.d_ids, block.sub.vec))
        psum = {game.p_ids[p]: sum(m * x.get(game.d_ids[l], 0)
                                   for l, m in row)
                for p, row in enumerate(game.p_edges)}
        tmax = {}
        for t, row in enumerate(game.t_edges):
            people = [game.p_ids[p] for p in row]
            tmax[game.t_ids[t]] = best = max(psum[p] for p in people)
            if best:
                assert sol.tau[game.t_ids[t]] == next(
                    p for p in people if psum[p] == best)
        for d, row in enumerate(game.d_edges):
            if game.d_ids[d] in block.d_ids:
                tribunes = [game.t_ids[t] for t in row]
                least = min(tmax[t] for t in tribunes)
                assert sol.sigma[game.d_ids[d]] == next(
                    t for t in tribunes if tmax[t] == least)
        assert block.t_ids == tuple(t for t in game.t_ids if tmax[t])
        assert block.p_ids == tuple(p for p in game.p_ids if psum[p])


def assert_agrees_with_brute_force(g, sol=None):
    """The solve of g (or `sol`, a solve of g) has brute force's blocks, and
    its brackets and the pair values of its stitched strategies meet brute
    force's brackets; its strategies are greedy at its witnesses
    (`assert_greedy_at_witness`)."""
    if sol is None:
        sol = mg.solve_entropy_game(g)
    assert_greedy_at_witness(g, sol)
    brute = mg.brute_force_entropy_values(g)
    assert [sorted(b.d_ids) for b in sol.blocks] == brute_classes(g, brute)
    pv = mg.pair_values_by_ids(g, sol.sigma, sol.tau, F(1, 2**40))
    for d, did in enumerate(g.d_ids):
        for iv in (sol.values[did], pv[d]):
            assert iv.lo <= brute.chi[d].hi and brute.chi[d].lo <= iv.hi
    return sol


def refuse_enumeration(monkeypatch):
    """Make every strategy-enumeration entry point of `perron` fail."""
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration in an entropy solve")

    for name in ("brute_force_entropy_values", "rank_profile",
                 "matrix_values", "perron_root"):
        monkeypatch.setattr(perron, name, refuse)


def count_calls(monkeypatch, name):
    """The argument tuples of every call of `entropy.<name>` from now on."""
    calls = []
    real = getattr(ent, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ent, name, counted)
    return calls


# two golden-ratio components [[1, 1], [1, 0]], the first feeding the second
GOLDEN_PAIR = [[1, 1, 1, 0], [1, 0, 0, 1], [0, 0, 1, 1], [0, 0, 1, 0]]


class TestDecidedBy:
    """What certifies each block: the levels of an iterate, or an exact
    solve at an integer or at the search's limit; never enumeration."""

    @pytest.mark.parametrize("make", [entropy_pair_loop, two_block_game],
                             ids=["pair-loop", "two-blocks"])
    def test_separation_needs_no_enumeration(self, make, monkeypatch):
        """Games whose blocks the levels certify solve with every
        enumeration entry point refused."""
        refuse_enumeration(monkeypatch)
        sol = mg.solve_entropy_game(make())
        assert all(b.rank == 1 for b in sol.blocks)

    def test_jordan_block_certified_by_exact_solve(self, monkeypatch):
        """The pair matrix [[1, 1], [0, 1]] has no positive eigenvector, and
        the levels of its damped iterates close only as 1/k; the exact
        solve of (mu I - A) y = 1 gives the witness, with the value 1 as
        its lower level."""
        solves = count_calls(monkeypatch, "_exact_witness")
        g = entropy_jordan()
        sol = assert_agrees_with_brute_force(g)
        (block,) = sol.blocks
        assert [args[3] for args in solves] == [1]
        assert block.interval.lo == 1 and sol.values["d0"].contains(F(1))
        assert block.sub.vec == block.sup.vec
        for cert in (block.sub, block.sup):
            assert mg.check_entropy_certificate(block.subgame, cert)

    @staticmethod
    def certified_at_limit(g, monkeypatch):
        """The solve of g with enumeration refused, checked against brute
        force after it: its top block is certified by the one exact solve
        at the search's limit, above a bracket of its irrational root, the
        golden ratio."""
        solves = count_calls(monkeypatch, "_exact_witness")
        with monkeypatch.context() as refused:
            refuse_enumeration(refused)
            sol = mg.solve_entropy_game(g)
        assert_agrees_with_brute_force(g, sol)
        top = sol.blocks[0]
        assert [args[3] for args in solves].count(None) == 1
        assert solves[-1][3] is None
        assert top.iterations > max(4 * ent.pair_count(g), ent._SEARCH_FLOOR)
        # the golden ratio phi, the root of x^2 = x + 1, lies in [lo, hi]
        lo, hi = top.interval.lo, top.interval.hi
        assert lo * lo < lo + 1 and hi * hi > hi + 1
        return sol

    def test_irrational_jordan_block_certified_at_limit(self, monkeypatch):
        """The golden pair and a loop of value 1: the top block is
        Jordan-type with an irrational value, which neither the levels nor
        an exact solve at an integer certify, so the search reaches its
        limit.  The loop's share of the search iterate shrinks with every
        step, and squaring stops while the iterate spans more than its kept
        bits, so the span stays below three times those bits (about 6,000
        bits, 13 times them, without that stop)."""
        spans = []
        real = ent._DampedIterate.advance

        def advance(self, tx, rows):
            squarings = real(self, tx, rows)
            spans.append((max(self.vec).bit_length()
                          - min(self.vec).bit_length()) / self.bits)
            return squarings

        monkeypatch.setattr(ent._DampedIterate, "advance", advance)
        rows = [row + [0] for row in GOLDEN_PAIR] + [[0, 0, 0, 0, 1]]
        sol = self.certified_at_limit(rows_game(rows), monkeypatch)
        assert [len(b.d_ids) for b in sol.blocks] == [4, 1]
        assert 1 < max(spans) < 3

    def test_golden_pair_certified_at_limit(self, monkeypatch):
        """The golden pair alone: one Jordan-type block of value
        (1 + sqrt 5)/2."""
        sol = self.certified_at_limit(rows_game(GOLDEN_PAIR), monkeypatch)
        assert [len(b.d_ids) for b in sol.blocks] == [4]


SWEEPS = pytest.mark.parametrize("seed, size, count", [
    (2101, (3, 3, 3), 1000), (2102, (4, 4, 4), 100)],
    ids=["default", "444"])


def assert_report_certified(runner, g, tmp_path):
    """`certify` accepts the CLI report of `solve --json` on g."""
    game = tmp_path / "g.json"
    game.write_text(json.dumps(mg.entropy_to_json(g)))
    res = runner.invoke(main, ["solve", str(game), "--json"])
    assert res.exit_code == 0
    report = tmp_path / "report.json"
    report.write_text(res.output)
    res = runner.invoke(main, ["certify", str(game), str(report)])
    assert res.exit_code == 0, res.output


class TestSeparationSweep:
    """The solve against brute force on 1,000 default draws and 100 draws
    with up to 4 states of each kind: the same blocks, brackets and
    stitched strategy values that meet brute force's, and a report that
    `certify` accepts on every 25th draw."""

    @SWEEPS
    def test_agrees_with_brute_force(self, seed, size, count, tmp_path,
                                     monkeypatch):
        """No search reaches its limit (24 and 3 blocks fell back to
        strategy enumeration there when the search took one damped step per
        evaluation and Jordan-type blocks had no exact solve): a search
        that needs its limit's exact solve again fails here."""
        solves = count_calls(monkeypatch, "_exact_witness")
        runner = CliRunner()
        rng = random.Random(seed)
        for i in range(count):
            g = mg.random_entropy_game(rng, *size)
            assert_agrees_with_brute_force(g)
            if i % 25 == 0:
                assert_report_certified(runner, g, tmp_path)
        assert all(args[3] is not None for args in solves)


class TestCoupledJordanSample:
    """Games of two equal irreducible blocks, the first fed into the second
    (`coupled_jordan_game`, k = 2 and 3), with one strategy pair and with
    extra choices: their top blocks are Jordan-type, of irrational value on
    most draws, so many searches end in the exact solve at their limit.
    Each solve has brute force's blocks and brackets that meet brute
    force's, and `certify` accepts its report."""

    @pytest.mark.parametrize("choices", [False, True],
                             ids=["one-pair", "choices"])
    def test_agrees_with_brute_force(self, choices, tmp_path, monkeypatch):
        solves = count_calls(monkeypatch, "_exact_witness")
        runner = CliRunner()
        rng = random.Random(3400 + choices)
        for k in (2, 3):
            for _ in range(20):
                g = coupled_jordan_game(rng, k, choices)
                assert_agrees_with_brute_force(g)
                assert_report_certified(runner, g, tmp_path)
        assert any(args[3] is None for args in solves)


class TestCertifiedSeparation:
    @pytest.mark.parametrize("name", sorted(DEFECT_GAMES) + ["seeds"])
    def test_fine_brackets_serve_coarse_reads(self, name):
        """With the coarse tolerance raised to 1 and no bracket computed
        before, the top value and the per-state rates of the pair matrices
        overlap at the coarse level, so `compare` refines them to the fine
        tolerance.  The coarse lookups after it, such as those brute
        force's `chi` makes, read the refined brackets: two values it
        orders read as disjoint brackets at a width of 1, which would hold
        both."""
        if name == "seeds":
            rng = random.Random(3)
            games = [mg.random_entropy_game(rng) for _ in range(40)]
        else:
            games = [defect_game(name)]
        refined = []
        for g in games:
            brute = perron.brute_force_entropy_values(g)
            # the same pair matrices, with no bracket computed yet
            reg = perron._ValueRegistry()
            for key in brute.registry.keys():
                reg.add(key)
            values, coarse, fine = reg.values, F(1), brute.fine_tol

            def spy(key, tol):
                if tol is fine:
                    refined.append(key)
                return values(key, tol)

            reg.values = spy
            top = g.d_ids.index(mg.solve_entropy_game(g).blocks[0].d_ids[0])
            v = brute.candidates[top]
            for key in reg.keys():
                for state in range(len(key)):
                    c = reg.compare(v, (key, state), coarse, fine)
                    if c:
                        a = reg.values(v[0], coarse)[v[1]]
                        b = reg.values(key, coarse)[state]
                        small, big = (a, b) if c < 0 else (b, a)
                        assert small.hi < big.lo
        assert refined


class TestJsonRoundTrip:
    def test_round_trip(self):
        rng = random.Random(61)
        for _ in range(200):
            g = mg.random_entropy_game(rng)
            obj = mg.entropy_to_json(g)
            back = mg.parse_entropy(json.loads(json.dumps(obj)))
            assert back == g

    def test_multiplicity_restricted_to_people_edges(self):
        obj = mg.entropy_to_json(entropy_loop(2))
        obj["edges"][0]["m"] = 3  # a Despot edge must not carry one
        with pytest.raises(GameFormatError):
            mg.parse_entropy(obj)
