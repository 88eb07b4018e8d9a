"""Full acceptance workloads: randomized oracle equivalence, certificate
soundness, complexity-bound compliance, arithmetic separation laws, the
slow-flip family, operator laws, and the spectral-bracketing engine."""

import itertools
import random
import time
from fractions import Fraction
from math import floor

import pytest

import mpgames as mg
from mpgames.iteration import zeros

from conftest import DEFECT_GAMES, defect_game

F = Fraction

SMPG_SEED = 20260823
ENTROPY_SEED = 777
LAWS_SEED = 9


# ---------------------------------------------------------------------------
# shared corpora (solved once, reused across criteria)


@pytest.fixture(scope="session")
def smpg_corpus():
    """200 random stochastic games with full solver and reference output."""
    rng = random.Random(SMPG_SEED)
    start = time.monotonic()
    rows = []
    for _ in range(200):
        g = mg.random_smpg(rng)
        brute = mg.brute_force_values(g)
        tc = mg.solve_game(g)
        verdict = mg.winner(g)
        sol = None
        if len(set(brute.chi)) == 1:
            sol = mg.solve_constant_value(g)
        rows.append({
            "game": g,
            "stats": g.stats(),
            "brute": brute,
            "topclass": tc,
            "winner": verdict,
            "constant": sol,
        })
    return {"rows": rows, "elapsed": time.monotonic() - start}


@pytest.fixture(scope="session")
def entropy_corpus():
    """100 random matrix-multiplicative games with solver and reference
    output."""
    rng = random.Random(ENTROPY_SEED)
    start = time.monotonic()
    rows = []
    for _ in range(100):
        g = mg.random_entropy_game(rng)
        sol = mg.solve_entropy_game(g)
        brute = mg.brute_force_entropy_values(g)
        rows.append({
            "game": g,
            "stats": g.stats(),
            "solution": sol,
            "brute": brute,
        })
    return {"rows": rows, "elapsed": time.monotonic() - start}


# ---------------------------------------------------------------------------
# criterion 1: stochastic-game oracle equivalence


class TestStochasticOracleEquivalence:
    def test_top_class_matches_brute_force(self, smpg_corpus):
        for row in smpg_corpus["rows"]:
            g, brute = row["game"], row["brute"]
            best = max(brute.chi)
            argmax = frozenset(
                s for s, v in zip(g.min_ids, brute.chi) if v == best
            )
            assert row["topclass"].top_class == argmax

    def test_constant_values_match_exactly(self, smpg_corpus):
        solved = 0
        for row in smpg_corpus["rows"]:
            if row["constant"] is None:
                continue
            assert row["constant"].value == row["brute"].chi[0]
            solved += 1
        assert solved >= 50  # the corpus must actually exercise this path

    def test_runtime_budget(self, smpg_corpus):
        assert smpg_corpus["elapsed"] < 60.0


# ---------------------------------------------------------------------------
# criterion 2: certificate soundness (exact, zero tolerance)


class TestCertificateSoundness:
    def test_stochastic_certificates_reverify(self, smpg_corpus):
        checked = 0
        for row in smpg_corpus["rows"]:
            sol = row["constant"]
            if sol is None:
                continue
            assert mg.check_certificate(row["game"], sol.sub)
            assert mg.check_certificate(row["game"], sol.sup)
            checked += 2
        assert checked > 0

    def test_entropy_certificates_reverify(self, entropy_corpus):
        checked = 0
        for row in entropy_corpus["rows"]:
            for block in row["solution"].blocks:
                assert mg.check_entropy_certificate(block.subgame, block.sub)
                assert mg.check_entropy_certificate(block.subgame, block.sup)
                checked += 2
        assert checked > 0


# ---------------------------------------------------------------------------
# criterion 3: complexity-bound compliance


class TestBoundCompliance:
    def test_winner_iteration_bound(self, smpg_corpus):
        for row in smpg_corpus["rows"]:
            bound = mg.winner_iteration_bound(row["stats"])
            verdict = row["winner"]
            if isinstance(verdict, mg.Exhausted):
                # exhaustion is only declared after running past the bound
                assert verdict.iterations == bound + 1
            else:
                assert verdict.iterations <= bound

    def test_top_class_call_bound(self, smpg_corpus):
        for row in smpg_corpus["rows"]:
            st = row["stats"]
            bound = 65 * st.n**4 * st.W * st.M ** (3 * st.m_exp)
            assert row["topclass"].oracle_calls <= bound


# ---------------------------------------------------------------------------
# criterion 4: denominator and separation laws


class TestDenominatorAndSeparation:
    def test_value_denominators(self, smpg_corpus):
        for row in smpg_corpus["rows"]:
            mu = row["stats"].mu
            for v in row["brute"].chi:
                assert v.denominator <= mu

    def test_dominion_value_gaps(self, smpg_corpus):
        """The spread between the best and worst state value is zero or
        exceeds the separation bound, on the full game and on every
        dominion restriction."""
        for row in smpg_corpus["rows"]:
            g = row["game"]
            sep = mg.separation_bound(row["stats"])
            n = len(g.min_ids)
            for size in range(1, n + 1):
                for sub in itertools.combinations(range(n), size):
                    restricted = mg.induced_subgame(g, sub)
                    if restricted is None:
                        continue
                    chi = mg.brute_force_values(restricted).chi
                    gap = max(chi) - min(chi)
                    assert gap == 0 or gap > sep


# ---------------------------------------------------------------------------
# criterion 5: entropy oracle equivalence


class TestEntropyOracleEquivalence:
    TOL = F(1, 10**9)

    def test_solver_brackets_consistent_with_brute_force(
        self, entropy_corpus
    ):
        for row in entropy_corpus["rows"]:
            g, sol, brute = row["game"], row["solution"], row["brute"]
            for i, d in enumerate(g.d_ids):
                iv = sol.values[d]
                ref = brute.chi[i]
                assert iv.lo <= ref.hi and ref.lo <= iv.hi

    def test_stitched_strategies_reevaluate(self, entropy_corpus):
        for row in entropy_corpus["rows"]:
            g, sol, brute = row["game"], row["solution"], row["brute"]
            stitched = mg.pair_values_by_ids(g, sol.sigma, sol.tau, self.TOL)
            for i in range(len(g.d_ids)):
                ref = brute.refine(i, self.TOL)
                got = stitched[i]
                assert got.width <= self.TOL and ref.width <= self.TOL
                assert got.lo <= ref.hi and ref.lo <= got.hi

    def test_runtime_budget(self, entropy_corpus):
        assert entropy_corpus["elapsed"] < 300.0


# ---------------------------------------------------------------------------
# criterion 6: entropy value range and multiplicative separation


class TestEntropyRangeAndSeparation:
    def test_values_in_range(self, entropy_corpus):
        for row in entropy_corpus["rows"]:
            g = row["game"]
            upper = len(g.d_ids) * row["stats"].W
            for iv in row["brute"].chi:
                assert iv.hi >= 1 and iv.lo <= upper
                assert iv.lo >= 1 - row["brute"].coarse_tol
                assert iv.hi <= upper + row["brute"].coarse_tol

    def test_distinct_pair_values_separated(self, entropy_corpus):
        """nu, derived from the maximal rank of the pair matrices, separates
        their distinct per-state values: the corpus, the defect games, the
        two Random(2) draws at n = 6 and three n = 7 draws."""
        rng = random.Random(2)
        extra = [defect_game(name) for name in sorted(DEFECT_GAMES)]
        extra += [mg.random_entropy_game(rng, 6, 6, 6) for _ in range(2)]
        extra += [mg.random_entropy_game(random.Random(7000 + s), 7, 7, 7)
                  for s in (3, 5, 9)]
        cases = [(row["game"], row["brute"]) for row in entropy_corpus["rows"]]
        cases += [(g, mg.brute_force_entropy_values(g)) for g in extra]
        distinct_pairs = 0
        for g, brute in cases:
            nu = brute.profile.nu
            reg = brute.registry
            refs = [
                (key, s)
                for key in reg.keys()
                for s in range(len(g.d_ids))
            ]
            refs.sort(key=lambda c: reg.values(c[0], brute.fine_tol)[c[1]].lo)
            for a, b in zip(refs, refs[1:]):
                if reg.compare(a, b, brute.coarse_tol, brute.fine_tol) == 0:
                    continue
                lo_iv = reg.values(a[0], brute.fine_tol)[a[1]]
                hi_iv = reg.values(b[0], brute.fine_tol)[b[1]]
                assert hi_iv.lo / lo_iv.hi >= 1 + 1 / nu
                distinct_pairs += 1
        assert distinct_pairs > 0


# ---------------------------------------------------------------------------
# criterion 7: slow-flip family reproduction


class TestSlowFlip:
    CASES = [(n, w) for n in (2, 3) for w in (2, 4, 8)]

    def test_right_branch_wins_before_threshold_and_flip_exists(self):
        start = time.monotonic()
        for n, w in self.CASES:
            k_star = mg.threshold_horizon(n, w)
            for k in range(floor(k_star.lo) + 1):
                left, right = mg.branch_weights(n, w, k)
                assert right >= left
            flip = mg.flip_horizon(n, w)
            assert flip > k_star.hi
        assert time.monotonic() - start < 30.0

    def test_three_state_threshold_ratio_window(self):
        """Ratio of the n = 3 thresholds at weights 8 and 4.

        The exact ratio is ~2.819; the asserted window [3.0, 5.0] does not
        contain it, so this check fails by design rather than being loosened.
        """
        hi_iv = mg.threshold_horizon(3, 8)
        lo_iv = mg.threshold_horizon(3, 4)
        ratio_lo = hi_iv.lo / lo_iv.hi
        ratio_hi = hi_iv.hi / lo_iv.lo
        assert F(3) <= ratio_lo and ratio_hi <= F(5)


# ---------------------------------------------------------------------------
# criterion 8: operator-law property suite


def _rand_frac(rng, lo=-4, hi=4, den=12):
    return F(rng.randint(lo * den, hi * den), den)


def _rand_pos_frac(rng, den=12):
    return F(rng.randint(1, 6 * den), den)


class TestOperatorLaws:
    def test_laws_and_sandwich(self):
        rng = random.Random(LAWS_SEED)
        checks = 0

        # additive backend: 220 games x 10 trials x 3 laws
        for _ in range(220):
            g = mg.random_smpg(rng)
            n = len(g.min_ids)
            for _ in range(10):
                x = tuple(_rand_frac(rng) for _ in range(n))
                bump = tuple(F(rng.randint(0, 24), 12) for _ in range(n))
                y = tuple(a + b for a, b in zip(x, bump))
                fx, fy = mg.shapley_eval(g, x), mg.shapley_eval(g, y)
                assert all(a <= b for a, b in zip(fx, fy))
                checks += 1
                c = _rand_frac(rng)
                shifted = mg.shapley_eval(g, tuple(v + c for v in x))
                assert shifted == tuple(v + c for v in fx)
                checks += 1
                z = tuple(_rand_frac(rng) for _ in range(n))
                fz = mg.shapley_eval(g, z)
                dist = max(abs(a - b) for a, b in zip(x, z))
                assert max(abs(a - b) for a, b in zip(fx, fz)) <= dist
                checks += 1

        # multiplicative backend: 130 games x 10 trials x 3 laws
        for _ in range(130):
            g = mg.random_entropy_game(rng)
            n = len(g.d_ids)
            for _ in range(10):
                x = tuple(_rand_pos_frac(rng) for _ in range(n))
                scale = tuple(1 + F(rng.randint(0, 24), 12) for _ in range(n))
                y = tuple(a * b for a, b in zip(x, scale))
                tx = mg.multiplicative_eval(g, x)
                ty = mg.multiplicative_eval(g, y)
                assert all(a <= b for a, b in zip(tx, ty))
                checks += 1
                c = _rand_pos_frac(rng)
                scaled = mg.multiplicative_eval(g, tuple(c * v for v in x))
                assert scaled == tuple(c * v for v in tx)
                checks += 1
                z = tuple(_rand_pos_frac(rng) for _ in range(n))
                tz = mg.multiplicative_eval(g, z)
                a = max(max(p / q, q / p) for p, q in zip(x, z))
                assert all(
                    p <= a * q and q <= a * p for p, q in zip(tx, tz)
                )
                checks += 1

        # sandwich: orbit extrema bound the scaled extreme state values
        rng2 = random.Random(LAWS_SEED + 1)
        for _ in range(20):
            g = mg.random_smpg(rng2)
            chi = mg.brute_force_values(g).chi
            lo, hi = min(chi), max(chi)
            u = zeros(len(g.min_ids))
            for ell in range(1, 21):
                u = mg.shapley_eval(g, u)
                assert min(u) <= ell * lo and max(u) >= ell * hi
                checks += 1
        for _ in range(10):
            g = mg.random_entropy_game(rng2)
            brute = mg.brute_force_entropy_values(g)
            lo = min(iv.lo for iv in brute.chi)
            hi = max(iv.hi for iv in brute.chi)
            x = tuple(F(1) for _ in g.d_ids)
            for ell in range(1, 21):
                x = mg.multiplicative_eval(g, x)
                assert min(x) <= hi**ell and max(x) >= lo**ell
                checks += 1

        assert checks >= 10_000


# ---------------------------------------------------------------------------
# criterion 9: spectral bracketing engine


class TestSpectralEngine:
    def test_random_irreducible_matrices(self):
        rng = random.Random(4242)
        tol = F(1, 10**9)
        start = time.monotonic()
        for _ in range(500):
            n = rng.randint(1, 6)
            mat = [
                [rng.randint(0, 10) for _ in range(n)] for _ in range(n)
            ]
            for i in range(n):  # a full cycle forces irreducibility
                mat[i][(i + 1) % n] = max(mat[i][(i + 1) % n], 1)
            iv = mg.perron_root(mat, tol)
            assert iv.width <= tol
            cp = mg.char_poly(mat)
            assert mg.eval_poly(cp, iv.lo) <= 0 <= mg.eval_poly(cp, iv.hi)
        assert time.monotonic() - start < 30.0
