"""Generic value-iteration procedures: exact winner decision,
constant-value approximation with certificates, and certificate
construction from normalized orbits, on vectors of Fractions and -inf
entries, and the helpers of those vectors."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .numeric import (
    NEG_INF,
    SUB,
    SUPER,
    Certificate,
    IterationCapExceeded,
    RationalInterval,
)


class WinnerVerdict(NamedTuple):
    outcome: str  # "MinWinsAll" | "MaxWinsAll"
    iterations: int
    witness: tuple


class Exhausted(NamedTuple):
    iterations: int
    witness: tuple


class ConstantValueResult(NamedTuple):
    interval: RationalInterval
    sub: Certificate
    sup: Certificate
    iterations: int


# ---------------------------------------------------------------------------
# vectors: tuples of Fractions and NEG_INF


def as_fraction(v):
    """Normalize a finite entry to Fraction; NEG_INF passes through."""
    if v is NEG_INF:
        return NEG_INF
    return Fraction(v)


def vec(entries) -> tuple:
    return tuple(as_fraction(v) for v in entries)


def zeros(n: int) -> tuple:
    return (Fraction(0),) * n


def top(x):
    """Maximum entry of a nonempty vector."""
    if not x:
        raise ValueError("empty vector")
    return max(x)


def bottom(x):
    """Minimum entry of a nonempty vector."""
    if not x:
        raise ValueError("empty vector")
    return min(x)


def hilbert_seminorm(x) -> Fraction:
    """top(x) - bottom(x); rejects vectors with a -inf entry."""
    if any(v is NEG_INF for v in x):
        raise ValueError("hilbert_seminorm requires all entries finite")
    return top(x) - bottom(x)


def vec_add_scalar(c, x) -> tuple:
    return tuple(v + c for v in x)


def vec_sup(x, y) -> tuple:
    return tuple(max(a, b) for a, b in zip(x, y, strict=True))


def vec_inf(x, y) -> tuple:
    return tuple(min(a, b) for a, b in zip(x, y, strict=True))


# ---------------------------------------------------------------------------
# procedures


def value_iteration(oracle, max_iter: int):
    """Iterate u <- F(u) from 0 until top(u) <= 0 (Min wins everywhere) or
    bottom(u) >= 0 (Max wins everywhere).  Requires an exact oracle (eps=0
    evaluation).  Returns Exhausted (with the last iterate) past max_iter."""
    u = zeros(oracle.n)
    eps0 = Fraction(0)
    for it in range(1, max_iter + 1):
        u = oracle.eval(u, eps0)
        if top(u) <= 0:
            return WinnerVerdict("MinWinsAll", it, u)
        if bottom(u) >= 0:
            return WinnerVerdict("MaxWinsAll", it, u)
    return Exhausted(max_iter, u)


def build_certificates(orbit, lam_lo: Fraction, lam_hi: Fraction, eps: Fraction):
    """From the iterates orbit = F~^i(0), i = 0..l-1 (any iterable), with
    bottom(F~^l(0)) >= lam_lo*l and top(F~^l(0)) <= lam_hi*l, build

        u_hat = sup_i (-i*lam_lo + F~^i(0))   (sub witness)
        u_bar = inf_i (-i*lam_hi + F~^i(0))   (super witness)

    and return the certificates (lam_lo - eps, u_hat, sub) and
    (lam_hi + eps, u_bar, super)."""
    orbit = iter(orbit)
    x = y = next(orbit, None)
    if x is None:
        raise ValueError("empty orbit")
    for i, v in enumerate(orbit, 1):
        x = vec_sup(x, vec_add_scalar(-i * lam_lo, v))
        y = vec_inf(y, vec_add_scalar(-i * lam_hi, v))
    return (
        Certificate.from_fractions(lam_lo - eps, x, SUB),
        Certificate.from_fractions(lam_hi + eps, y, SUPER),
    )


def gap_iteration(oracle, delta: Fraction, cap: int):
    """Iterate u <- eval(u, delta/8) from 0 until the normalized gap
    condition top(u) - bottom(u) <= (3/4)*delta*l holds or l reaches `cap`,
    through the oracle's `gap_loop` hook when it has one.  Returns
    (u, l, hit), hit telling whether the gap condition stopped the loop."""
    fast = getattr(oracle, "gap_loop", None)
    if fast is not None:
        return fast(delta / 8, delta, cap)
    eps = delta / 8
    threshold = Fraction(3, 4) * delta
    u = zeros(oracle.n)
    ell = 0
    while ell < cap:
        u = oracle.eval(u, eps)
        ell += 1
        if top(u) - bottom(u) <= threshold * ell:
            return u, ell, True
    return u, ell, False


def approximate_constant_mean_payoff(oracle, delta: Fraction, max_iter: int):
    """For an operator with state-independent mean payoff, return an interval
    of width <= delta containing it, with verifiable certificates.

    First loop (`gap_iteration`): u <- eval(u, delta/8) until
    top(u) - bottom(u) <= (3/4)*delta*l.  Then kappa = bottom(u)/l,
    lam = top(u)/l, and the second pass replays the orbit to assemble the
    sub/super witness vectors."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    eps = delta / 8
    u, ell, hit = gap_iteration(oracle, delta, max_iter)
    if not hit:
        raise IterationCapExceeded(f"no convergence within {max_iter} iterations")
    kappa = Fraction(bottom(u)) / ell
    lam = Fraction(top(u)) / ell

    fast = getattr(oracle, "replay_loop", None)
    if fast is not None:
        x, y = fast(eps, ell, kappa, lam)
        sub = Certificate.from_fractions(kappa - eps, x, SUB)
        sup = Certificate.from_fractions(lam + eps, y, SUPER)
    else:
        sub, sup = build_certificates(
            _replayed_orbit(oracle, eps, ell), kappa, lam, eps
        )
    interval = RationalInterval(kappa - eps, lam + eps)
    return ConstantValueResult(interval, sub, sup, ell)


def _replayed_orbit(oracle, eps, ell):
    """The orbit F~^i(0), i = 0..ell-1, one iterate at a time instead of
    stored."""
    v = zeros(oracle.n)
    yield v
    for _ in range(1, ell):
        v = oracle.eval(v, eps)
        yield v
