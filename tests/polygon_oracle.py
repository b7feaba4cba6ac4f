"""The polygon leaves of ``nsg.counting`` as they were when each polygon
was split into lists of runs, kept as an oracle for the straight-line leaves.

``_polygon`` lists the runs of x on which one line bounds the polygon from
above or below, and ``_polygon_count`` and ``_polygon_runs`` count from
those lists, or loop over ``_columns`` when the range of x is shorter than
``SHORT_RANGE``.  ``_columns`` is the plain loop over x that the leaves of
``nsg.counting`` inline below ``SHORT_RANGE``; it lives here since the
library lists no point of the polygon.  A test patches ``SHORT_RANGE`` here
to force either path.  This file is not ``oracles.py``: the benchmark runner
loads that one, and every line there shows in its resident set.
"""

from nsg.counting import SHORT_RANGE


def _polygon(lo, xmax, A, B, C, D, F, G, K):
    """The lattice points (x, y) with lo <= x <= xmax and
        y <= min(A, x + B, 2x + C, K - x) and 2y >= max(2D, 2F - 2x, x + G).

    Returns (tops, bottoms), each a list of runs (a, b, slope, b0) of x that
    cover the same range xl..xr of the x with points.  On a top run y <= slope
    x + b0; on a bottom run 2y >= slope x + b0, with slope -2, 0 or 1.  Both
    lists are empty if no x has a point.

    y has a value exactly where every upper line lies on or above every
    lower one, a linear inequality in x per pair, so those x form one range.
    Over it, the upper bound is a minimum of lines, so its active line only
    ever moves to a smaller slope as x grows, and the lower bound's only to a
    larger one; each line ends where it first crosses a later one.
    """
    xl = max(lo, F - A, D - B, G - 2 * B, -((B - F) // 2),
             -((C - D) // 2), -((2 * C - G) // 3), -((C - F) // 3))
    xr = min(xmax, 2 * A - G, K - D, (2 * K - G) // 3)
    if xl > xr or A < D or K < F:
        return [], []
    tops, bottoms = [], []
    for out, lines in (
        (tops, ((min(B - C, (A - C) // 2, (K - C) // 3), 2, C),
                (min(A - B, (K - B) // 2), 1, B), (K - A, 0, A), (xr, -1, K))),
        (bottoms, ((min(F - D, (2 * F - G) // 3), -2, 2 * F), (2 * D - G, 0, 2 * D), (xr, 1, G))),
    ):
        a = xl
        for b, slope, b0 in lines:  # b: the last x where this line is the bound
            if b >= a:
                b = min(b, xr)
                out.append((a, b, slope, b0))
                if b == xr:
                    break
                a = b + 1
    return tops, bottoms


def _columns(lo, xmax, A, B, C, D, F, G, K):
    """(x, least y, greatest y) for each x in lo..xmax with a point (x, y) of
    the polygon of _polygon."""
    for x in range(lo, xmax + 1):
        top = A if A < x + B else x + B
        if 2 * x + C < top:
            top = 2 * x + C
        if K - x < top:
            top = K - x
        bottom = D if D > F - x else F - x
        if (x + G + 1) // 2 > bottom:
            bottom = (x + G + 1) // 2
        if bottom <= top:
            yield x, bottom, top


def _half_sum(n):
    """Sum of floor(k / 2) over k = 0..n, extended so that each step adds floor(n / 2)."""
    return (n // 2) * ((n + 1) // 2)


def _polygon_count(lo, xmax, A, B, C, D, F, G, K):
    """Number of lattice points of the polygon of _polygon."""
    if xmax - lo < SHORT_RANGE:
        return sum(top - bottom + 1 for _, bottom, top in _columns(lo, xmax, A, B, C, D, F, G, K))
    tops, bottoms = _polygon(lo, xmax, A, B, C, D, F, G, K)
    count = 0
    for a, b, slope, b0 in tops:
        c = b - a + 1
        count += c * (b0 + 1) + slope * (a + b) * c // 2
    for a, b, slope, b0 in bottoms:
        c = b - a + 1
        if slope == 1:
            count -= _half_sum(b + b0 + 1) - _half_sum(a + b0)
        else:
            count -= (b0 * c + slope * (a + b) * c // 2) // 2
    return count


def _polygon_runs(runs, offset, lo, xmax, A, B, C, D, F, G, K):
    """Add the points (x, y) of the polygon of _polygon to runs by offset + x + y.

    runs[s] is a difference array of stride s: an entry v at i adds v to
    the differences at i, i + s, i + 2s, ...  Each x adds one at its least
    sum and takes one off past its greatest, and along a run these indices
    step by a fixed stride, the slope of the bound plus one.  A half-slope
    lower bound steps by 3 over every other x, so each parity of x is a run.
    """
    if xmax - lo < SHORT_RANGE:
        diff = runs[0]
        for x, bottom, top in _columns(lo, xmax, A, B, C, D, F, G, K):
            diff[offset + x + bottom] += 1
            diff[offset + x + top + 1] -= 1
        return
    tops, bottoms = _polygon(lo, xmax, A, B, C, D, F, G, K)
    for a, b, slope, b0 in tops:
        s = slope + 1
        i = offset + b0 + 1 + s * a
        if s:
            runs[s][i] -= 1
            runs[s][i + s * (b - a + 1)] += 1
        else:
            runs[0][i] -= b - a + 1
    for a, b, slope, b0 in bottoms:
        if slope == 1:
            for x in (a, a + 1):
                k = (b - x) // 2 + 1
                if k > 0:
                    i = offset + (3 * x + b0 + 1) // 2
                    runs[3][i] += 1
                    runs[3][i + 3 * k] -= 1
        elif slope == 0:
            i = offset + b0 // 2 + a
            runs[1][i] += 1
            runs[1][i + b - a + 1] -= 1
        else:
            runs[0][offset + b0 // 2] += b - a + 1

