"""Two-branch family where short-horizon play picks the wrong branch."""

from fractions import Fraction
from math import floor

import pytest

import mpgames as mg
from mpgames import (
    branch_weights,
    build_cex_game,
    companion_matrix,
    flip_horizon,
    positive_root,
    threshold_horizon,
)
from mpgames.entropy import pair_matrix

F = Fraction
TOL = F(1, 10**9)


class TestCompanionMatrix:
    def test_scalar(self):
        assert companion_matrix(1, 3) == [[3]]

    def test_two_by_two(self):
        assert companion_matrix(2, 10) == [[10, 10], [1, 0]]

    def test_three_by_three_unit_weights(self):
        assert companion_matrix(3, 1) == [[1, 1, 1], [1, 0, 0], [0, 1, 0]]

    def test_validation(self):
        with pytest.raises(ValueError):
            companion_matrix(0, 1)
        with pytest.raises(ValueError):
            companion_matrix(2, 0)


class TestPositiveRoot:
    def test_scalar_is_weight(self):
        iv = positive_root(1, 7, TOL)
        assert iv.lo == iv.hi == 7

    def test_quadratic_root(self):
        # x^2 - 10x - 10 = 0 at x = 5 + sqrt(35)
        iv = positive_root(2, 10, TOL)
        lo, hi = iv.lo - 5, iv.hi - 5
        assert lo * lo <= 35 <= hi * hi
        assert iv.width <= TOL

    def test_matches_spectral_bracket(self):
        for n, w in ((2, 4), (3, 2), (4, 3)):
            iv = positive_root(n, w, TOL)
            sp = mg.perron_root(companion_matrix(n, w), TOL)
            assert iv.lo <= sp.hi and sp.lo <= iv.hi

    def test_asymptotic_approach_to_w_plus_one(self):
        # root = w + 1 - O(w^-(n-1)) for large w
        for n in (2, 3):
            for w in (8, 16, 64):
                iv = positive_root(n, w, TOL)
                approx = F(w + 1) - F(1, w ** (n - 1))
                assert abs(iv.lo - approx) <= 2 * F(1, w ** (n - 1))


class TestBranchWeights:
    def test_horizon_zero(self):
        # left = ones^T ones = n, right = 8 (n-1)
        assert branch_weights(2, 10, 0) == (2, 8)
        assert branch_weights(3, 4, 0) == (3, 16)

    def test_hand_computed_growth(self):
        # C_2(10): ones -> (20, 1): left(1) = 21; right branch is scalar 10
        assert branch_weights(2, 10, 1) == (21, 80)
        assert branch_weights(2, 10, 2) == (230, 800)

    def test_profile_is_max(self):
        """The root Despot's horizon-(k+1) value is the larger branch
        weight, on both sides of the flip at k = 17."""
        g = build_cex_game(2, 10).game
        x = tuple(F(1) for _ in g.d_ids)
        for k in range(20):
            x = mg.multiplicative_eval(g, x)
            assert x[0] == max(branch_weights(2, 10, k))

    def test_needs_two_branches(self):
        with pytest.raises(ValueError):
            branch_weights(1, 5, 3)


class TestThresholdHorizon:
    def test_two_state_threshold_is_zero(self):
        # the boost factor 8 equals 8(n-1)/(4n) = 1 at n = 2: log 1 = 0
        iv = threshold_horizon(2, 10)
        assert iv.lo == iv.hi == 0

    def test_three_state_threshold(self):
        iv = threshold_horizon(3, 4)
        assert 9 < iv.lo <= iv.hi < 11
        assert iv.width <= F(1, 10**4)

    def test_validation(self):
        with pytest.raises(ValueError):
            threshold_horizon(1, 4)


class TestFlipHorizon:
    def test_flip_after_threshold(self):
        for n, w in ((2, 10), (3, 4), (3, 8)):
            k_star = threshold_horizon(n, w)
            flip = flip_horizon(n, w)
            assert flip > k_star.lo
            # the boosted slower branch wins every horizon up to floor(k*)
            for k in range(floor(k_star.lo) + 1):
                left, right = branch_weights(n, w, k)
                assert right >= left

    def test_known_flip_point(self):
        assert flip_horizon(2, 10) == 17
        left, right = branch_weights(2, 10, 16)
        assert right >= left
        left, right = branch_weights(2, 10, 17)
        assert left > right


class TestBuildCexGame:
    def test_structure_two_states(self):
        inst = build_cex_game(2, 10)
        g = inst.game
        # root triple plus one triple per matrix row: 1 + n + (n-1) = 4
        assert len(g.d_ids) == 4 and len(g.t_ids) == 4
        # People: the two branch selectors plus one per row
        assert len(g.p_ids) == 5
        assert inst.significant_people == 2
        assert inst.expansion_factor == 1
        assert inst.k_star.lo == inst.k_star.hi == 0

    def test_root_tribune_is_only_choice_point(self):
        g = build_cex_game(2, 10).game
        assert len(g.t_edges[0]) == 2
        assert all(len(row) == 1 for row in g.t_edges[1:])
        assert all(len(row) == 1 for row in g.d_edges)

    def test_horizon_recurrence_matches_branch_weights(self):
        for n, w in ((2, 10), (3, 4)):
            g = build_cex_game(n, w).game
            x = tuple(F(1) for _ in g.d_ids)
            for k in range(8):
                x = mg.multiplicative_eval(g, x)
                assert x[0] == max(branch_weights(n, w, k))

    def test_left_branch_strategy_recovers_companion_block(self):
        g = build_cex_game(2, 10).game
        sigma = {i: g.d_edges[i][0] for i in range(len(g.d_ids))}
        tau = {j: g.t_edges[j][0] for j in range(len(g.t_ids))}
        mat = pair_matrix(g, sigma, tau)
        # despots dl0, dl1 occupy indices 1 and 2
        assert [row[1:3] for row in mat[1:3]] == [[10, 10], [1, 0]]

    def test_validation(self):
        with pytest.raises(ValueError):
            build_cex_game(1, 10)
        with pytest.raises(ValueError):
            build_cex_game(2, 0)
