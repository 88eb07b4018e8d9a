"""Shared hand-built game fixtures used across the test modules."""

from fractions import Fraction

import pytest

import mpgames as mg


def cycle_game(a=0, b=2, m=1):
    """Single Min/Max/Nature cycle: F(x) = x + (b - a)."""
    return mg.make_game(
        ["m0"], ["x0"], ["n0"],
        [[(0, a)]], [[(0, b)]], [[(0, m)]],
        m,
    )


def min_choice_game():
    """Min picks between per-turn rewards 1 and -1 (A=(0,4), B=(1,3))."""
    return mg.make_game(
        ["m0"], ["x0", "x1"], ["n0"],
        [[(0, 0), (1, 4)]],
        [[(0, 1)], [(0, 3)]],
        [[(0, 1)]],
        1,
    )


def max_choice_game():
    """Max picks between B = 1 and B = 3 on the same Nature loop: F(x)=x+3."""
    return mg.make_game(
        ["m0"], ["x0"], ["n0", "n1"],
        [[(0, 0)]],
        [[(0, 1), (1, 3)]],
        [[(0, 1)], [(0, 1)]],
        1,
    )


def nature_half_game():
    """Shared half/half Nature over loops with per-turn rewards 1 and 2;
    the value is 3/2 from every state."""
    return mg.make_game(
        ["m1", "m2"], ["x1", "x2"], ["nH"],
        [[(0, 0)], [(1, 0)]],
        [[(0, 1)], [(0, 2)]],
        [[(0, 1), (1, 1)]],
        2,
    )


def absorbing_game():
    """Two self-loops with rewards 5 and 0: chi = (5, 0)."""
    return mg.make_game(
        ["m0", "m1"], ["x0", "x1"], ["n0", "n1"],
        [[(0, 0)], [(1, 0)]],
        [[(0, 5)], [(1, 0)]],
        [[(0, 1)], [(1, 1)]],
        1,
    )


def drain_game():
    """m0 self-loops with reward 5; m1's only move leads to m0, so the
    singleton {m1} is not a dominion."""
    return mg.make_game(
        ["m0", "m1"], ["x0", "x1"], ["n0", "n1"],
        [[(0, 0)], [(1, 0)]],
        [[(0, 5)], [(1, 0)]],
        [[(0, 1)], [(0, 1)]],
        1,
    )


def chain3_game():
    """m0, m1 self-loop; m2's only move drains into m0."""
    return mg.make_game(
        ["m0", "m1", "m2"], ["x0", "x1", "x2"], ["n0", "n1", "n2"],
        [[(0, 0)], [(1, 0)], [(2, 0)]],
        [[(0, 1)], [(1, 1)], [(2, 0)]],
        [[(0, 1)], [(1, 1)], [(0, 1)]],
        1,
    )


def three_value_game():
    """Self-loops with rewards 2, 2, -1: chi = (2, 2, -1)."""
    return mg.make_game(
        ["m0", "m1", "m2"], ["x0", "x1", "x2"], ["n0", "n1", "n2"],
        [[(0, 0)], [(1, 0)], [(2, 0)]],
        [[(0, 2)], [(1, 2)], [(2, -1)]],
        [[(0, 1)], [(1, 1)], [(2, 1)]],
        1,
    )


def peel_game(w1, w2):
    """Two disjoint deterministic 2-state cycles with mean payoffs w1 (m0,
    m1) and w2 (m2, m3): A = -w on the Min edges, B = 0 on the Max edges.
    The value is not constant, so the paper's top_class runs its first
    decision to the a priori cap and peels the lower cycle off."""
    w = (w1, w1, w2, w2)
    return mg.make_game(
        ["m0", "m1", "m2", "m3"], ["x0", "x1", "x2", "x3"],
        ["n0", "n1", "n2", "n3"],
        [[(j, -w[j])] for j in range(4)],
        [[(i, 0)] for i in range(4)],
        [[(1, 1)], [(0, 1)], [(3, 1)], [(2, 1)]],
        1,
    )


def swap_shift_game():
    """Realizes F(x0, x1) = (x1 + 3, x0 - 1); constant value 1 with bias
    (2, 0)."""
    return mg.make_game(
        ["m0", "m1"], ["xA", "xB"], ["nA", "nB"],
        [[(0, -3)], [(1, 1)]],
        [[(0, 0)], [(1, 0)]],
        [[(1, 1)], [(0, 1)]],
        1,
    )


def entropy_loop(m=2):
    """Single d -> t -> p -> d loop with multiplicity m: T(x) = m*x."""
    return mg.make_entropy_game(
        ["d0"], ["t0"], ["p0"],
        [[0]], [[0]], [[(0, m)]],
    )


def entropy_tribune_choice():
    """Tribune picks between loop weights 2 and 3: value 3."""
    return mg.make_entropy_game(
        ["d0"], ["t0"], ["p2", "p3"],
        [[0]], [[0, 1]], [[(0, 2)], [(0, 3)]],
    )


def entropy_despot_choice():
    """Despot picks between loop weights 2 and 3: value 2."""
    return mg.make_entropy_game(
        ["d0"], ["t2", "t3"], ["p2", "p3"],
        [[0, 1]], [[0], [1]], [[(0, 2)], [(0, 3)]],
    )


def entropy_pair_loop():
    """Two Despots fed by one People row with multiplicities (1, 1)."""
    return mg.make_entropy_game(
        ["d0", "d1"], ["t0", "t1"], ["p0", "p1"],
        [[0], [1]], [[0], [1]],
        [[(0, 1), (1, 1)], [(0, 1), (1, 1)]],
    )


# three default draws (draw k of random_entropy_game(Random(seed)), named
# e<seed>-<k>) of value 3 everywhere: their witness search takes about 3,000
# damped steps at a slack of delta/4, and more than the 30,000-step cap at
# delta/64
DEFECT_GAMES = {
    "e11-54": (
        [[2], [0, 1, 2], [0, 1, 2]],
        [[0], [1, 2], [0, 1, 2]],
        [[(1, 1), (2, 2)], [(0, 3), (1, 1), (2, 2)],
         [(0, 2), (1, 1), (2, 3)]],
    ),
    "e86-57": (
        [[0, 1, 2], [1], [0, 1]],
        [[2], [0, 1, 2], [0, 1, 2]],
        [[(0, 2), (1, 3), (2, 2)], [(0, 1), (1, 1)], [(0, 3)]],
    ),
    "e239-27": (
        [[0, 1, 2], [0], [1, 2]],
        [[0, 1], [1, 2], [0]],
        [[(0, 3)], [(1, 3), (2, 1)], [(0, 2), (1, 2), (2, 2)]],
    ),
}


def defect_game(name):
    return mg.make_entropy_game(("d0", "d1", "d2"), ("t0", "t1", "t2"),
                                ("p0", "p1", "p2"), *DEFECT_GAMES[name])


@pytest.fixture
def frac():
    return Fraction
