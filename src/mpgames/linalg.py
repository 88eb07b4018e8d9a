"""Exact linear algebra on integer matrices, by fraction-free (Bareiss)
elimination: every intermediate entry is a minor of the input, so every
division is exact and no rational arithmetic runs inside the loops.
`integer_rank` eliminates below the pivots; `integer_solve_numerators`
eliminates above them too (Gauss-Jordan) and reads the solution off the
last column as numerators over one denominator, which its callers keep:
no Fraction is built here."""

from __future__ import annotations


def integer_solve_numerators(a, b):
    """Solve A x = b exactly for a nonsingular square integer matrix A and
    an integer vector b: [A | b] is reduced fraction-free until every row
    reads d x_i = m_i with d = +-det A.  Returns (m, d) with d > 0, x = m/d
    (not reduced); ValueError when A is singular."""
    n = len(a)
    m = [[*map(int, row), v] for row, v in zip(a, b)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        m[k], m[piv] = m[piv], m[k]
        rk = m[k]
        p = rk[k]
        # whole rows: left of the pivot column, row k is zero and the rows
        # above carry prev on their diagonal, which becomes p
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], rk)]
        prev = p
    if prev < 0:
        return [-row[n] for row in m], -prev
    return [row[n] for row in m], prev


def integer_rank(matrix) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(map(int, row)) for row in matrix]
    rows = len(m)
    if rows == 0:
        return 0
    cols = len(m[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank
