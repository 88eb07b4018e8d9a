"""Constant-value decision, dominion extension, and top-class extraction."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .iteration import gap_iteration
from .numeric import NEG_INF, bottom, zeros
from .oracle import restrict


@dataclass(frozen=True)
class SepParams:
    """delta: a priori separation parameter (must be below sep(F));
    R: seminorm bound for sub/super-eigenvectors of the top-class
    restriction."""

    delta: Fraction
    R: Fraction

    def __post_init__(self):
        if self.delta <= 0 or self.R <= 0:
            raise ValueError("delta and R must be positive")

    @property
    def cap(self) -> int:
        return 1 + ceil(Fraction(8) * self.R / self.delta)


@dataclass(frozen=True)
class Dominion:
    states: frozenset
    certified_by: tuple  # one eval of F^D at 0, all finite


@dataclass(frozen=True)
class DecideOutcome:
    low_set: frozenset | None  # None means Empty: the value is constant
    iterations: int
    calls: int
    final: tuple


def decide_constant_value(oracle, params: SepParams):
    """Run approximate value iteration (precision delta/8) for at most
    1 + ceil(8R/delta) steps.  If the normalized gap condition
    top(u) - bottom(u) <= (3/4)*delta*l triggers, the value is constant
    (Empty).  Otherwise every argmin state of the final iterate has value
    below the maximum; that set is returned."""
    u, ell, hit = gap_iteration(oracle, params.delta, params.cap)
    if hit:
        return DecideOutcome(None, ell, ell, u)
    b = bottom(u)
    low = frozenset(i for i in range(oracle.n) if u[i] == b)
    return DecideOutcome(low, ell, ell, u)


def extend(oracle, dominion_states, seed):
    """Close `seed` under the states forced to leave it: repeatedly add every
    j whose F^D coordinate is -inf at the vector that is -inf on the current
    set and 0 elsewhere.  Returns (extended set, oracle calls).

    The complement (dominion minus result) is again a dominion (or empty),
    and any sub-dominion disjoint from the seed stays disjoint."""
    states = sorted(dominion_states)
    index = {s: i for i, s in enumerate(states)}
    sub = restrict(oracle, states) if len(states) != oracle.n else oracle
    current = set(seed)
    if not current:
        raise ValueError("empty seed")
    if not current <= set(states):
        raise ValueError("seed must lie inside the dominion")
    calls = 0
    one = Fraction(1)
    while True:
        x = tuple(
            NEG_INF if states[i] in current else Fraction(0)
            for i in range(len(states))
        )
        out = sub.eval(x, one)
        calls += 1
        new = {states[i] for i in range(len(states)) if out[i] is NEG_INF}
        if new <= current:
            return current, calls
        current |= new


def top_class(oracle, params: SepParams):
    """The set of states of maximal value.  Repeatedly decide constancy on
    the current dominion; when non-constant, remove the extension of the
    argmin set and continue.  Returns (Dominion, total oracle calls)."""
    n = oracle.n
    d_states = set(range(n))
    calls = 0
    for _ in range(n + 1):
        sub = restrict(oracle, sorted(d_states)) if len(d_states) != n else oracle
        outcome = decide_constant_value(sub, params)
        calls += outcome.calls
        if outcome.low_set is None:
            states = sorted(d_states)
            cert = sub.eval(zeros(sub.n), Fraction(1))
            calls += 1
            if any(v is NEG_INF for v in cert):
                raise RuntimeError("top_class arrived at a non-dominion")
            return Dominion(frozenset(d_states), cert), calls
        states = sorted(d_states)
        seed = {states[i] for i in outcome.low_set}
        extended, ext_calls = extend(oracle, d_states, seed)
        calls += ext_calls
        d_states -= extended
        if not d_states:
            raise RuntimeError("top_class removed every state; separation "
                               "parameters are invalid for this operator")
    raise RuntimeError("top_class failed to stabilize within n iterations")


def top_class_call_budget(n: int, params: SepParams) -> int:
    """Guaranteed oracle-call bound for top_class at precision delta/8."""
    return n * n + n * ceil(Fraction(8) * params.R / params.delta)
