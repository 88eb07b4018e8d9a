"""Matrix-multiplicative Despot/Tribune/People backend."""

import itertools
import json
import random
from fractions import Fraction

import mpmath
import pytest

import mpgames as mg
from mpgames import NEG_INF
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
from mpgames.numeric import vec, zeros

from conftest import (
    DEFECT_GAMES,
    defect_game,
    entropy_despot_choice,
    entropy_loop,
    entropy_pair_loop,
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


class TestLogDomainOracle:
    def test_log_two(self):
        orc = mg.log_domain_oracle(entropy_pair_loop())
        eps = F(1, 2**30)
        out = orc.eval(zeros(2), eps)
        ln2 = F(693147180559945309, 10**18)
        assert all(abs(v - ln2) <= eps + F(1, 10**15) for v in out)

    def test_loop_shift(self):
        orc = mg.log_domain_oracle(entropy_loop(2))
        eps = F(1, 2**30)
        x = F(5, 7)
        out = orc.eval((x,), eps)
        ln2 = F(693147180559945309, 10**18)
        assert abs(out[0] - (x + ln2)) <= eps + F(1, 10**15)

    def test_structural_neg_inf(self):
        orc = mg.log_domain_oracle(entropy_pair_loop())
        out = orc.eval((F(0), NEG_INF), F(1, 8))
        # weight-1 edge onto the finite coordinate: log(1 * e^0) = 0
        assert all(abs(v) <= F(1, 8) for v in out)

    def test_conjugacy_contract(self):
        """|eval(x, eps) - log T(exp x)| <= eps against exact rational
        evaluation at exp-free points (x = log of rationals)."""
        rng = random.Random(7)
        for _ in range(15):
            g = mg.random_entropy_game(rng)
            n = len(g.d_ids)
            orc = mg.log_domain_oracle(g)
            eps = F(1, 2**40)
            # evaluate at x = 0 so exp x = 1 exactly
            out = orc.eval(zeros(n), eps)
            exact = mg.multiplicative_eval(g, [F(1)] * n)
            for v, t in zip(out, exact):
                # ln t - eps <= v <= ln t + eps, the upper side as
                # exp(v - eps) <= t
                assert ln_lower(t) - eps <= v
                assert exp_bounds(v - eps)[0] <= t

    def test_self_consistency_two_precisions(self):
        rng = random.Random(19)
        for _ in range(10):
            g = mg.random_entropy_game(rng)
            n = len(g.d_ids)
            x = vec([F(rng.randint(-20, 20), rng.randint(1, 9))
                     for _ in range(n)])
            eps = F(1, 2**20)
            a = mg.log_domain_oracle(g).eval(x, eps)
            b = mg.log_domain_oracle(g).eval(x, eps / 100)
            assert all(abs(p - q) <= eps + eps / 100 for p, q in zip(a, b))


class TestDominions:
    def test_characterization_matches_operator(self):
        import itertools

        rng = random.Random(13)
        for _ in range(20):
            g = mg.random_entropy_game(rng)
            orc = mg.log_domain_oracle(g)
            n = len(g.d_ids)
            for size in range(1, n + 1):
                for sub in itertools.combinations(range(n), size):
                    assert mg.entropy_dominion_by_graph(g, sub) == (
                        mg.is_dominion(orc, sub)
                    )

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
        prof = mg.rank_profile(entropy_pair_loop())
        assert prof.rank == 1

    def test_rank_two(self):
        g = mg.make_entropy_game(
            ["d0", "d1"], ["t0", "t1"], ["p0", "p1"],
            [[0], [1]], [[0], [1]],
            [[(0, 10), (1, 10)], [(0, 1)]],  # rows of [[10,10],[1,0]]
        )
        assert mg.rank_profile(g).rank == 2

    def test_nu_formula_magnitude(self):
        from mpgames.entropy import _nu_value

        nu = _nu_value(2, 1, 1)
        assert F(44, 100) * 10**6 < nu < F(45, 100) * 10**6

    def test_nu_hat(self):
        g = entropy_pair_loop()
        prof = mg.rank_profile(g)
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
        for _ in range(15):
            g = mg.random_entropy_game(rng)
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


# (delta, witness steps) of each block and the value brackets, as solved
# before the separation search moved to integer brackets
CEX_HI = (
    "34896740605806234618327214819654873083/"
    "12628643436220038754328496543634157408")
CEX_LO = (
    "12484193301439034365287911290268563801/"
    "4622404312992140449298728107698995424")
PINNED_ANSWERS = {
    "defect-e11-54": (
        [("71428816899/13107200000000", 2936)],
        {d: ("157214971183101/52428800000000",
             "157357828816899/52428800000000") for d in ("d0", "d1", "d2")},
    ),
    "defect-e86-57": (
        [("128197570941/20971520000000", 2618)],
        {d: ("251530042429059/83886080000000",
             "251786437570941/83886080000000") for d in ("d0", "d1", "d2")},
    ),
    "defect-e239-27": (
        [("503190195321/104857600000000", 3332)],
        {d: ("1257788009804679/419430400000000",
             "1258794390195321/419430400000000") for d in ("d0", "d1", "d2")},
    ),
    "r2-666-0": ([("1/8", 1)], {"d0": ("95/32", "3")}),
    "cex-2-2": (
        [("1/8", 5), ("1/8", 1)],
        {"d*": (CEX_LO, CEX_HI), "dl0": (CEX_LO, CEX_HI),
         "dl1": (CEX_LO, CEX_HI), "dr0": ("63/32", "65/32")},
    ),
}


def pinned_game(name):
    if name.startswith("defect-"):
        return defect_game(name[len("defect-"):])
    if name == "r2-666-0":
        return mg.random_entropy_game(random.Random(2), 6, 6, 6)
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
    def candidate_roots(full_keys, tol):
        """Brackets at width tol of the Perron roots of the irreducible
        principal submatrices of the given matrices."""
        roots = {}
        for key in full_keys:
            for size in range(1, len(key) + 1):
                for comb in itertools.combinations(range(len(key)), size):
                    sub = tuple(tuple(key[i][j] for j in comb) for i in comb)
                    if sub not in roots and ent._irreducible(sub):
                        roots[sub] = ent.perron_root(sub, tol)
        return list(roots.values())

    @pytest.mark.parametrize("name", sorted(DEFECT_GAMES) + ["seeds"])
    def test_fine_brackets_serve_coarse_reads(self, name):
        """With the coarse tolerance raised to 1, distinct candidate values
        overlap at the coarse level; the brackets that `compare` refines are
        then read back through the coarse lookups, so delta stays at most
        half the log-gap of every distinct pair (seen at width 2^-60)."""
        if name == "seeds":
            rng = random.Random(3)
            games = [mg.random_entropy_game(rng) for _ in range(40)]
        else:
            games = [defect_game(name)]
        refined = []
        for g in games:
            profile = ent.rank_profile(g)
            brute = ent.brute_force_entropy_values(g, profile=profile)
            reg = brute.registry
            full_keys = reg.keys()
            brute.coarse_tol = F(1)
            compare = reg.compare
            # the separation search hands only overlapping pairs to compare
            reg.compare = lambda *args: refined.append(args) or compare(*args)
            delta = ent._certified_separation(g, profile, brute)
            roots = self.candidate_roots(full_keys, F(1, 2**60))
            bound = exp_bounds(2 * delta)[1]
            for a, b in itertools.combinations(roots, 2):
                small, big = (a, b) if a.hi < b.lo else (b, a)
                if small.hi < big.lo:
                    # delta <= ln(big / small) / 2
                    assert bound <= big.lo / small.hi
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
