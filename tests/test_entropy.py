"""Matrix-multiplicative Despot/Tribune/People backend."""

import itertools
import json
import random
from fractions import Fraction

import mpmath
import pytest

import mpgames as mg
from mpgames import entropy as ent
from mpgames.entropy import (
    GameFormatError,
    certified_log_sum_exp,
    exp_bounds,
    ln_lower,
    log2_lower,
    matrix_values,
    pair_matrix,
)
from mpgames.numeric import vec

from conftest import (
    DEFECT_GAMES,
    defect_game,
    entropy_despot_choice,
    entropy_loop,
    entropy_pair_loop,
    entropy_shared_tribune,
    entropy_tribune_choice,
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

    def test_stats_and_bounds(self):
        g = entropy_tribune_choice()
        st = g.stats()
        assert (st.n, st.W) == (1, 3)
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
        assert mg.entropy.recession_eval(g, vec([c, c])) == vec([c, c])

    def test_loop_identity(self):
        g = entropy_loop(2)
        assert mg.entropy.recession_eval(g, vec([9])) == vec([9])

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
        assert mg.entropy.recession_eval(reduced, chi) == chi


class TestCertifiedLogs:
    def test_log2_bounds_exact_on_powers(self):
        assert log2_lower(F(8)) == 3
        assert log2_lower(F(1, 4)) == -2
        assert F(15849625, 10**7) - F(1, 2**17) <= log2_lower(F(3))
        assert log2_lower(F(3)) < F(15849625, 10**7)

    def test_ln_bounds(self):
        # ln 2 = 0.693147180559945...
        assert ln_lower(F(2)) < F(69314718056, 10**11)

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
                    assert mg.entropy_dominion_by_graph(g, sub) == all(
                        out[d] > 0 for d in sub)

    def test_induced_subgame_round_trip(self):
        g = two_block_game()
        ind = mg.induced_entropy_subgame(g, [0])
        assert ind is not None
        assert ind.game.d_ids == ("a0",)
        assert mg.induced_entropy_subgame(g, [1]) is not None


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

        monkeypatch.setattr(mg.entropy, "rank_profile", refuse)
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

    def test_block_subgame_reconstructible(self):
        g = two_block_game()
        sol = mg.solve_entropy_game(g)
        for block in sol.blocks:
            rebuilt = mg.subgraph_on(g, block.d_ids, block.t_ids,
                                     block.p_ids)
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


# (delta, witness steps) of each block and the exact value brackets: any
# change to them is a change in the solver's answers
CEX_HI = (
    "34896740605806234618327214819654873083/"
    "12628643436220038754328496543634157408")
CEX_LO = (
    "12484193301439034365287911290268563801/"
    "4622404312992140449298728107698995424")
R2_666_1_LO = (
    "5520406181152723989970731073531753349815741781/"
    "477261036481584080491452527385195315200000000")
R2_666_1_HI = (
    "39397253740705589725669553863561190348782659053/"
    "3405509835452629349074238609730987622400000000")
DEFECT_E11_E86 = (
    [("767071326747/6553600000000", 137)],
    {d: ("77876128673253/26214400000000", "79410271326747/26214400000000")
     for d in ("d0", "d1", "d2")},
)
PINNED_ANSWERS = {
    "defect-e11-54": DEFECT_E11_E86,
    "defect-e86-57": DEFECT_E11_E86,
    "defect-e239-27": (
        [("7541337346323/104857600000000", 220)],
        {d: ("1250749862653677/419430400000000",
             "1265832537346323/419430400000000") for d in ("d0", "d1", "d2")},
    ),
    "r2-666-0": ([("1/8", 1)], {"d0": ("95/32", "3")}),
    "r2-666-1": (
        [("192036426219/52428800000000", 5)],
        {f"d{i}": (R2_666_1_LO, R2_666_1_HI) for i in range(6)},
    ),
    "cex-2-2": (
        [("1/8", 5), ("1/8", 1)],
        {"d*": (CEX_LO, CEX_HI), "dl0": (CEX_LO, CEX_HI),
         "dl1": (CEX_LO, CEX_HI), "dr0": ("63/32", "65/32")},
    ),
}


def pinned_game(name):
    if name.startswith("defect-"):
        return defect_game(name[len("defect-"):])
    if name.startswith("r2-666-"):
        rng = random.Random(2)
        draws = [mg.random_entropy_game(rng, 6, 6, 6) for _ in range(2)]
        return draws[int(name[len("r2-666-"):])]
    return mg.build_cex_game(2, 2).game


class TestPinnedAnswers:
    @pytest.mark.parametrize("name", sorted(PINNED_ANSWERS))
    def test_delta_steps_and_values(self, name):
        blocks, values = PINNED_ANSWERS[name]
        sol = mg.solve_entropy_game(pinned_game(name))
        assert [(b.delta, b.iterations) for b in sol.blocks] == [
            (F(d), steps) for d, steps in blocks]
        assert sol.values == {
            d: mg.RationalInterval(F(lo), F(hi))
            for d, (lo, hi) in values.items()}


class TestCertifiedSeparation:
    @staticmethod
    def top_rates(g, top, tol):
        """Brackets at width tol of the per-state growth rates of the
        top-principal submatrices of every pair matrix of g."""
        subs = {
            tuple(tuple(m[i][j] for j in top) for i in top)
            for sigma in itertools.product(*g.d_edges)
            for tau in itertools.product(*g.t_edges)
            for m in [pair_matrix(g, sigma, tau)]
        }
        return [iv for sub in subs for iv in matrix_values(sub, tol)]

    @pytest.mark.parametrize("name", sorted(DEFECT_GAMES) + ["seeds"])
    def test_fine_brackets_serve_coarse_reads(self, name):
        """With the coarse tolerance raised to 1 and no bracket computed
        before the slack pass, the top value and the rates on the top class
        overlap at the coarse level; the brackets
        that `compare` refines are then read back through the coarse
        lookups.  So delta is at most half the log-gap between v and every
        distinct rate (seen at width 2^-60), and above the a priori floor
        1/nu_hat: read before `compare`, an overlapping pair gives a ratio
        big.lo / small.hi of at most 1, which drops delta to that floor."""
        if name == "seeds":
            rng = random.Random(3)
            games = [mg.random_entropy_game(rng) for _ in range(40)]
        else:
            games = [defect_game(name)]
        refined = []
        for g in games:
            block = mg.solve_entropy_game(g).blocks[0]
            top = [g.d_ids.index(d) for d in block.d_ids]
            brute = ent.brute_force_entropy_values(g)
            # the same pair matrices, with no bracket computed yet
            brute.registry, reg = ent._ValueRegistry(), brute.registry
            for key in reg.keys():
                brute.registry.add(key)
            brute.coarse_tol = F(1)
            reg, values = brute.registry, brute.registry.values

            def spy(key, tol, fine=brute.fine_tol):
                if tol is fine:
                    refined.append(key)
                return values(key, tol)

            reg.values = spy
            delta = ent._top_slack(brute, top[0], top)
            tol = F(1, 2**60)
            key, state = brute.candidates[top[0]]
            v = matrix_values(key, tol)[state]
            bound = exp_bounds(2 * delta)[1]
            distinct = False
            for r in self.top_rates(g, top, tol):
                small, big = (r, v) if r.hi < v.lo else (v, r)
                if small.hi < big.lo and small.lo > 0:
                    # delta <= ln(big / small) / 2
                    assert bound <= big.lo / small.hi
                    distinct = True
            if distinct:
                assert delta > 1 / brute.profile.nu_hat
            else:
                assert delta == F(1, 8)
        assert refined


class TestJsonRoundTrip:
    def test_round_trip(self):
        rng = random.Random(61)
        for _ in range(10):
            g = mg.random_entropy_game(rng)
            obj = mg.entropy_to_json(g)
            back = mg.parse_entropy(json.loads(json.dumps(obj)))
            assert back == g

    def test_multiplicity_restricted_to_people_edges(self):
        obj = mg.entropy_to_json(entropy_loop(2))
        obj["edges"][0]["m"] = 3  # a Despot edge must not carry one
        with pytest.raises(GameFormatError):
            mg.parse_entropy(obj)
