"""Certified Perron-root brackets for nonnegative integer matrices.

Power iteration with Collatz-Wielandt bracketing in exact integer
arithmetic: for a positive vector x, min_i (Ax)_i/x_i <= rho(A) <= max_i
(Ax)_i/x_i.  Iteration runs on A + I (primitive whenever A is irreducible,
so the brackets close even for periodic matrices) and the shift is removed
from the reported interval.

The iterates are positive integer vectors, so each ratio y_i/x_i is kept as
the integer pair (y_i, x_i).  The best lower and upper ratios so far are
such pairs, compared by cross-multiplication, and the stopping test
hi - lo <= tol is one integer inequality.  The two endpoints become
`Fraction`s only on return.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .numeric import RationalInterval


class BracketingFailure(RuntimeError):
    """Raised when the Collatz-Wielandt brackets refuse to close (zero or
    reducible input)."""


def char_poly(matrix):
    """Characteristic polynomial det(xI - A), exact rational coefficients in
    increasing degree order (Faddeev-LeVerrier)."""
    n = len(matrix)
    a = [[Fraction(v) for v in row] for row in matrix]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = [[Fraction(0)] * n for _ in range(n)]
    c = Fraction(1)
    for k in range(1, n + 1):
        # M_k = A * M_{k-1} + c_{k-1} I
        for i in range(n):
            m[i][i] += c
        m = [
            [sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c = -sum(m[i][i] for i in range(n)) / k
        coeffs[n - k] = c
    return coeffs


def eval_poly(coeffs, x):
    """Horner evaluation.  Test oracle: a sign change of the characteristic
    polynomial certifies a Perron bracket (`TestSpectralEngine`)."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def perron_root(matrix, tol, max_iter: int | None = None) -> RationalInterval:
    """Bracket rho(A) for a nonnegative irreducible integer matrix to width
    <= tol.  Raises BracketingFailure on the zero matrix or when the
    brackets fail to close (reducible input)."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if all(v == 0 for row in matrix for v in row):
        if n == 1:
            return RationalInterval(Fraction(0), Fraction(0))
        raise BracketingFailure("zero matrix")
    for row in matrix:
        if any(v < 0 for v in row):
            raise ValueError("matrix must be nonnegative")
    tn, td = tol.numerator, tol.denominator
    # iterate on B = A + I
    b = [[int(v) + (1 if i == j else 0) for j, v in enumerate(row)]
         for i, row in enumerate(matrix)]
    x = [1] * n
    # best lower and upper ratios so far as (numerator, denominator) pairs,
    # starting from the trivial brackets 0/1 and 1/0 (+inf); the entries of
    # x stay positive, so the first ratios replace both
    bln, bld, bhn, bhd = 0, 1, 1, 0
    if max_iter is None:
        bits = max(1, (td // max(tn, 1)).bit_length())
        max_iter = 5000 + 200 * n * bits
    for it in range(max_iter):
        y = [sum(map(mul, row, x)) for row in b]
        ln = hn = y[0]
        ld = hd = x[0]
        for yi, xi in zip(y, x):
            if yi * ld < ln * xi:
                ln, ld = yi, xi
            elif yi * hd > hn * xi:
                hn, hd = yi, xi
        if ln * bld > bln * ld:
            bln, bld = ln, ld
        if hn * bhd < bhn * hd:
            bhn, bhd = hn, hd
        # bhn/bhd - bln/bld <= tn/td
        if (bhn * bld - bln * bhd) * td <= tn * bhd * bld:
            return RationalInterval(Fraction(bln - bld, bld),
                                    Fraction(bhn - bhd, bhd))
        x = y
        if it % 32 == 31:
            g = 0
            for v in x:
                g = gcd(g, v)
            if g > 1:
                x = [v // g for v in x]
    raise BracketingFailure(
        "Collatz-Wielandt brackets did not close; matrix is likely reducible"
    )
