"""The row-width walk of ``nsg.paths`` as it was before the staircases
were listed on faces of the cone, kept as an oracle for that listing.

``_row_rules`` bounds each row width of a staircase by the rows above it,
``_walk_rows`` fixes the rows top down on an explicit stack and hands over
the last row's admissible widths as a range, and
``_iter_admissible_heights`` turns the widths into column heights.  This
file is not ``oracles.py``: the benchmark runner loads that one, and every
line there shows in its resident set.
"""

from __future__ import annotations

from nsg.paths import PathSystem


def _row_rules(system: PathSystem, h0_max=None) -> list[tuple]:
    """Per row k = 1..p-1: (floor, cap, lower pairs, upper pairs, half row).

    Row widths w_1 >= ... >= w_{p-1} >= 0 fix a staircase; w_k counts the
    columns of height at least k.  For rows i <= j of L the first pair
    condition asks w_{i+j} >= w_i + w_j - q when i + j < p, and
    w_i + w_j <= q otherwise, which the triangle's caps already ensure.
    The second asks w_{i+j-p} >= w_i + w_j when i + j > p, which holds for
    w_j = 0 as widths never increase: so w_j <= w_{i+j-p} - w_i for
    i = p+1-j..j-1, and 2 * w_j <= w_{2j-p}.  Row k's cap is the number
    of triangle columns of height at least k, floor((p - k) q / p) as
    gcd(p, q) = 1.  h0 <= h0_max is w_{h0_max+1} = 0, a zero cap; row 1 has
    floor 1 so that the empty path is left out.
    """
    p, q = system.p, system.q
    rules = [None]
    for k in range(1, p):
        cap = 0 if h0_max is not None and k > h0_max else (p - k) * q // p
        lower = tuple((i, k - i) for i in range(1, k // 2 + 1))
        upper = tuple((i + k - p, i) for i in range(p + 1 - k, k))
        rules.append((int(k == 1), cap, lower, upper, 2 * k - p if 2 * k > p else None))
    return rules


def _walk_rows(system: PathSystem, h0_max=None):
    """Yield (w, last) for each admissible choice of rows 1..p-2.

    w is the width list indexed by row (w_0 = q, above every width), shared
    between yields; last is the range of admissible widths of row p-1.
    Rows are fixed top down on an explicit stack, each over the contiguous
    range its rules leave.
    """
    p, q = system.p, system.q
    n = p - 1
    if n < 1:
        return
    rules = _row_rules(system, h0_max)
    w = [q] + [0] * n
    stack: list = []  # one iterator over the untried widths of each fixed row
    k = 1
    while True:
        lo, hi, lower, upper, half = rules[k]
        for i, j in lower:
            if w[i] + w[j] - q > lo:
                lo = w[i] + w[j] - q
        if w[k - 1] < hi:  # the last row's rules imply it; here it prunes early
            hi = w[k - 1]
        if half is not None and w[half] // 2 < hi:
            hi = w[half] // 2
        for t, i in upper:
            if w[t] - w[i] < hi:
                hi = w[t] - w[i]
        if k == n:
            yield w, range(lo, hi + 1)
        else:
            stack.append(iter(range(lo, hi + 1)))
        while stack:
            k = len(stack)
            v = next(stack[-1], None)
            if v is not None:
                w[k] = v
                k += 1
                break
            stack.pop()
        else:
            return


def _iter_admissible_heights(system: PathSystem, h0_max=None):
    """Yield height profiles of admissible nonempty paths with h0 <= h0_max."""
    for w, last in _walk_rows(system, h0_max):
        for w[-1] in last:
            heights: list[int] = []
            for k in range(len(w) - 1, 0, -1):
                heights += [k] * (w[k] - len(heights))  # w_{k+1} columns so far
            yield tuple(heights)

