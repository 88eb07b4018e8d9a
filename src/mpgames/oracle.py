"""Abstract operator contract and subset restriction.

An oracle approximates an order-preserving, additively homogeneous self-map F
of R^n, canonically extended to vectors with -inf entries.  The contract:

  * |F_j(x) - eval(x, eps)_j| <= eps for finite coordinates;
  * eval(x, eps)_j is -inf exactly when F_j(x) is (-inf support is exact);
  * repeated eval at the same input and eps returns the same output.

Procedures in `iteration` and `dominion` only use this interface.  Backends
may additionally provide fast-path hooks (`gap_loop`, `replay_loop`,
`restrict_native`) with semantics identical to the generic loops that would
otherwise drive them.
"""

from __future__ import annotations

from fractions import Fraction

from .iteration import zeros
from .numeric import NEG_INF


class ShapleyOracle:
    """Base class: subclasses set `n` and implement `_eval`."""

    n: int

    def __init__(self, n: int):
        self.n = n
        self.calls = 0

    def eval(self, x, eps):
        if len(x) != self.n:
            raise ValueError(f"expected vector of length {self.n}, got {len(x)}")
        self.calls += 1
        return self._eval(x, eps)

    def _eval(self, x, eps):
        raise NotImplementedError


class FunctionOracle(ShapleyOracle):
    """Wrap an exact map f: tuple -> tuple as an oracle.  Test oracle: the
    generic procedures run on hand-built operators (`test_iteration.py`)."""

    def __init__(self, n, f):
        super().__init__(n)
        self.f = f

    def _eval(self, x, eps):
        return self.f(x)


class RestrictedOracle(ShapleyOracle):
    """F^S = p^S o F o i^S: pad the missing coordinates with -inf, evaluate
    the parent, project back to S."""

    def __init__(self, parent, subset):
        subset = tuple(sorted(set(subset)))
        if not subset:
            raise ValueError("empty subset")
        if subset[0] < 0 or subset[-1] >= parent.n:
            raise ValueError("subset out of range")
        super().__init__(len(subset))
        self.parent = parent
        self.subset = subset

    def _eval(self, x, eps):
        full = [NEG_INF] * self.parent.n
        for local, glob in enumerate(self.subset):
            full[glob] = x[local]
        out = self.parent.eval(tuple(full), eps)
        return tuple(out[g] for g in self.subset)


def restrict(oracle, subset):
    """Restriction oracle F^S.  When the backend can realize the restriction
    natively (as an induced subgame with fast-path support) that realization
    is used; it coincides with p^S o F o i^S by construction."""
    subset = tuple(sorted(set(subset)))
    if subset == tuple(range(oracle.n)):
        return oracle
    native = getattr(oracle, "restrict_native", None)
    if native is not None:
        sub = native(subset)
        if sub is not None:
            return sub
    return RestrictedOracle(oracle, subset)


def is_dominion(oracle, subset) -> bool:
    """subset is a dominion iff F^S(0) has no -inf coordinate.  Support
    exactness makes one approximate evaluation decisive.  Test oracle: the
    paper's dominion characterisation, against the graph one
    (`test_matches_graph_characterization`)."""
    sub = restrict(oracle, subset)
    out = sub.eval(zeros(sub.n), Fraction(1))
    return all(v is not NEG_INF for v in out)
