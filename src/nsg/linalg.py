"""Small exact linear-algebra helpers over rationals.

Everything here works on plain sequences of Fractions (or ints), sized for
matrices with at most a handful of rows and columns.  No floating point is
ever involved: results are exact or None.
"""

from __future__ import annotations

from fractions import Fraction


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a copy of ``rows`` plus its pivot columns."""
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][col]
        m[r] = [v / inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def solve(rows, rhs) -> tuple[Fraction, ...] | None:
    """One exact solution of rows @ x = rhs, or None if the system is inconsistent.

    Free variables, if any, are set to zero.
    """
    rows = [list(r) for r in rows]
    if not rows:
        raise ValueError("cannot solve an empty system")
    ncols = len(rows[0])
    augmented = [row + [Fraction(b)] for row, b in zip(rows, rhs)]
    echelon, pivots = rref(augmented)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = echelon[r][ncols]
    return tuple(x)
