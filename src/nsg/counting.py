"""Counting semigroups by genus slice and by containment of a second element.

Both counting problems reduce to lattice point enumeration: genus g picks the
coordinate vectors with entry sum g, and containment of q = i + n*p caps the
i-th coordinate at n (coordinatewise caps come from the two-generator
semigroup itself, whose class minima dominate those of every supersemigroup).

Every point set counted here is cut out by rows
head * v_d + sum(a * v_i) + b >= 0 over integer variables, each filed under
its last variable v_d.  Once v_0..v_{d-1} are fixed, the rows of v_d leave
it one interval, so a single walker, _walk_rows, fixes the variables in
order on an explicit stack and hands each prefix the interval of the last.

The semigroups containing p are the points of a cone in the Apéry
coordinates x_1..x_n (n = p - 1).  Their walk ends with the range of
x_{n-2}; once that is fixed too, x_{n-1} and x_n lie in a polygon whose
edges have slopes 0, 1, -1, 2 and 1/2.  Split where its top and its bottom
edge change slope, it is counted in closed form, a sum of arithmetic
progressions and floor sums (Beck & Robins, "Computing the Continuous
Discretely", ch. 1).  A genus window adds the same pieces to difference
arrays over sums, one per stride of the sum along an edge, so a whole
window is counted in one walk without visiting a point.  Each earlier
coordinate x_d is bounded by the least sum a completion must still add:
the cone pairs x_{d+1}..x_n so that every pair, and twice a middle one, is
at least x_d - 1, so a prefix whose least completion overshoots the window
is never expanded.  x_{n-2} is bounded further by the polygon's own lines,
so a value that leaves x_{n-1} no value is never tried.

Symmetric and pseudo-symmetric semigroups are not found by testing points:
each class lies on a few affine loci of the cone of dimension about p/2, one
per residue of the largest Apéry element, built here from the pairing of
residues against it.  Each locus is walked in its own variables, and all
its points with one value of the first variable have the same sum, so a
count adds the length of each last interval.
"""

from __future__ import annotations

import marshal
import math
import os
import sys
from functools import lru_cache, partial
from itertools import accumulate

from . import core
from ._record import Record
from .cone import build_cone

CLASS_FILTERS = ("all", "sym", "psym", "medim")


class NotCoprime(ValueError):
    """The contained element must be coprime to p."""


def _check_args(p: int, class_filter: str) -> None:
    if p < 3:
        raise ValueError("p must be at least 3")
    if class_filter not in CLASS_FILTERS:
        raise ValueError(f"class_filter must be one of {CLASS_FILTERS}")


def _row(terms, b):
    """(d, (head, rest, b)) for the row sum(a * v_i for i, a in terms) + b >= 0.

    Coefficients of a repeated index add up; d is the last variable with a
    nonzero one, or None if there is none.
    """
    coefs = {}
    for i, a in terms:
        coefs[i] = coefs.get(i, 0) + a
    rest = sorted((i, a) for i, a in coefs.items() if a)
    if not rest:
        return None, (0, (), b)
    d, head = rest.pop()
    return d, (head, tuple(rest), b)


def _walk_rows(rows, v, total=None):
    """Yield (lo, hi) for each prefix v_0..v_{L-2} (L = len(rows)) whose last
    variable v_{L-1} has the nonempty range lo..hi.

    rows[d] holds the rows (head, terms, b) of v_d, each meaning
    head * v_d + sum(a * v_i for i, a in terms) + b >= 0.  Every variable is
    nonnegative and needs at least one upper row.  The prefix is written to
    v, shared between yields.  Variables are fixed in order on an explicit
    stack, each over the range its rows leave.  With total, an index of v
    past the variables, v[total] holds v_0 + ... + v_{d-1} while the rows of
    v_d are read, so that a row bounds the sum of the prefix with one term.
    """
    last = len(rows) - 1
    stack: list = []  # one iterator over the untried values of each fixed variable
    sums = [0] * (last + 1)  # sums[d] = v_0 + ... + v_{d-1}
    if total is not None:
        v[total] = 0
    d = 0
    while True:
        lo, hi = 0, math.inf
        for head, terms, b in rows[d]:
            for i, a in terms:
                b += a * v[i]
            if head > 0:
                b = -(b // head)
                if b > lo:
                    lo = b
            else:
                b //= -head
                if b < hi:
                    hi = b
        if d < last:
            stack.append(iter(range(lo, hi + 1)))
        elif lo <= hi:
            yield lo, hi
        while stack:
            d = len(stack) - 1
            x = next(stack[-1], None)
            if x is not None:
                v[d] = x
                if total is not None:
                    v[total] = sums[d + 1] = sums[d] + x
                d += 1
                break
            stack.pop()
        else:
            return


@lru_cache(maxsize=None)
def _cone_rows(p: int, strict: bool):
    """The cone's rows over mu = (x_0, x_1, ..., x_n), n = p - 1, as (levels, tails).

    levels[d], for d = 0..n-2, holds the rows of x_d for _walk_rows; the
    one row of x_0 pins it to 0, so that x_0 stands in for x_{n-2} when
    p = 3.  tails holds the rules of x_{n-1} and of x_n, each sorted by how
    the variable e just before it enters (the rules are read with e = 0):
      uppers (i, j, c):  x_d <= x_i + x_j - c, by the slope of e: 0, 1, 2
      lowers (i, k, c):  x_d >= x_k + c - x_i, by the slope of e: 0, -1
      singles (k, c):    2 x_d >= x_k + c
    Strict mode shifts every c by one, which turns the system into its
    interior version.
    """
    n = p - 1
    levels = [[(-1, (), 0)]] + [[] for _ in range(n - 2)]
    tails = [[[] for _ in range(6)] for _ in range(2)]
    up, down = [(i, 1) for i in range(p)], [(i, -1) for i in range(p)]  # shared terms
    for i, j, k, c in build_cone(p).inequalities:
        c += strict
        d = max(i, j, k)
        e = d - 1
        if k == d:
            row, rule, kind = (-1, (up[i], up[j]), -c), (i, j, c), (i == e) + (j == e)
        elif i == j:
            row, rule, kind = (2, (down[k],), -c), (k, c), 5
        else:
            row, rule, kind = (1, (up[i], down[k]), -c), (i, k, c), 3 + (i == e)
        if d < n - 1:
            levels[d].append(row)
        else:
            tails[d - n + 1][kind].append(rule)
    return tuple(map(tuple, levels)), tuple(tuple(map(tuple, rules)) for rules in tails)


def _walk(p, caps, min_total=0, max_total=None, strict=False, first=None, leaf=None):
    """Walk the lattice points under caps in the cone, or its interior if strict.

    Only points whose sum lies in min_total..max_total are visited; first,
    a pair (a, b), keeps x_1 in a..b, to split work across processes.  It
    needs p >= 4, where the walk fixes x_1 before the polygon.
    Without leaf, return the points in lexicographic order.  With leaf,
    return nothing and hand leaf each prefix's polygon instead.

    _walk_rows fixes x_1..x_{n-3} (n = p - 1) under the cone's rows, the
    caps, the least sum a completion must still add and the most it can
    still reach, and hands over the range of x_{n-2}.  For each value v of
    x_{n-2}, with sum total over x_1..x_{n-3}, every bound on x_n is affine
    in x = x_{n-1}, or half of it:
        x_n <= min(A, x + B, 2x + C, K - x)
        x_n >= max(D, F - x, ceil((x + G) / 2))
    for x in lo..xmax.  leaf gets (total + v - min_total, lo, xmax, A, B, C,
    D, F, G, K); only the listing loops over the points themselves.
    """
    low, high = min_total, sum(caps) if max_total is None else max_total
    n = p - 1
    m = n - 1  # x_m is x_{n-1}, x_{m-1} is x_{n-2}
    sum_at = n + 1  # mu[sum_at] holds the sum of the fixed prefix
    levels, (x_rules, y_rules) = _cone_rows(p, strict)
    levels = [list(level) for level in levels]
    wrap = strict - 1  # the c below
    for d in range(1, m):
        # Least completion: with r = n - d, the pairs (d + j, n + 1 - j),
        # j = 1..r // 2, each sum to d + p, so the cone's wrap-around rows
        # give x_{d+j} + x_{n+1-j} >= x_d + c, with c = -1, or 0 in the
        # interior; for odd r the middle index u has 2u = d + p, so
        # 2 x_u >= x_d + c.  x_{d+1}..x_n thus add at least r (x_d + c) / 2:
        #     2 high - 2 (x_1 + ... + x_{d-1}) - (r + 2) x_d - r c >= 0.
        # As the row one level up keeps x_1 + ... + x_{d-1} <= high, this
        # row implies the sum cap x_1 + ... + x_d <= high and takes its place.
        # Reach: x_{d+j} <= x_d + j x_1 (from x_1 + x_{d+j-1} >= x_{d+j}), so
        # a prefix reaches at most its sum plus (r + 1) x_d + r (r + 1) / 2 x_1.
        r = n - d
        levels[d] += [(-1, (), caps[d - 1]), (-(r + 2), ((sum_at, -2),), 2 * high - r * wrap)]
        if d > 1 and low:  # with low = 0 the row always holds
            levels[d].append((r + 1, ((1, r * (r + 1) // 2), (sum_at, 1)), -low))
    if first is not None:
        levels[1] += [(1, (), -first[0]), (-1, (), first[1])]
    tops, rises, twice, fixed, falls, singles = x_rules
    up0, up1, up2, flat, falling, [(_, G)] = y_rules  # 2 x_n >= x + G (2n mod p = n - 1)
    far = high + 1  # an absent bound: x + far and 2x + far exceed K - x
    none = -2 * far  # an absent lower bound: total + v <= high, so v + none < low - total - v

    # Each form of A, B and C is affine in v with slope 0, 1 or 2, and each
    # of D and F with slope -1, 0 or 1, fixed by p.  Filed here by
    # coefficient and slope, each file folds to one constant per prefix.
    v_at = m - 1
    upper_forms = [(3 * f + (i == v_at) + (j == v_at), i, j, c)
                   for f, rules in enumerate((up0, up1, up2)) for i, j, c in rules]
    lower_forms = [(3 * f + 1 + (k == v_at) - (i == v_at), i, k, c)
                   for f, rules in enumerate((flat, falling)) for i, k, c in rules]
    upper_start = [caps[n - 1]] + [far] * 8  # x_n <= caps[n - 1] before any form
    mu = [0] * (n + 2)
    points = []
    for lo, hi in _walk_rows(levels, mu, sum_at):
        total = mu[sum_at]
        K = high - total
        # max(least, fall - v) <= x_{n-1} <= min(top, v + rise, 2v + double)
        mu[m - 1] = mu[m] = 0  # so that each form below reads v and x as 0
        least = max([0] + [(mu[k] + c + 1) // 2 for k, c in singles]
                    + [mu[k] + c - mu[i] for i, k, c in fixed])
        fall = max([-far] + [mu[k] + c - mu[i] for i, k, c in falls])
        top = min([caps[m - 1]] + [mu[i] + mu[j] - c for i, j, c in tops])
        rise = min([far] + [mu[i] + mu[j] - c for i, j, c in rises])
        double = min([far] + [mu[i] + mu[j] - c for i, j, c in twice])
        if least > top or fall > K:
            continue
        # With 2 x_n >= x_{n-1} + G and the sum cap, x_{n-1} has a value
        # and x_{n-1} + x_n <= K - v can hold only for v in lo..hi.
        lo = max(lo, least - rise, fall - top, -((rise - fall) // 2), 3 * fall + G - 2 * K)
        hi = min(hi, K - least - max(0, (least + G + 1) // 2))
        upper = upper_start[:]  # A = min(a0, v + a1, 2v + a2), and so B and C
        for f, i, j, c in upper_forms:
            if mu[i] + mu[j] - c < upper[f]:
                upper[f] = mu[i] + mu[j] - c
        lower = [none, 0, none, low - total, none, none]  # D = max(dm - v, d0, v + dp), and so F
        for f, i, k, c in lower_forms:
            if mu[k] + c - mu[i] > lower[f]:
                lower[f] = mu[k] + c - mu[i]
        a0, a1, a2, b0, b1, b2, c0, c1, c2 = upper
        dm, d0, dp, fm, f0, fp = lower
        for v in range(lo, hi + 1):
            x_lo = max(least, fall - v)
            x_hi = min(top, v + rise, 2 * v + double)
            A = min(a0, v + a1, 2 * v + a2)
            B = min(b0, v + b1, 2 * v + b2)
            C = min(c0, v + c1, 2 * v + c2)
            D = max(d0, dm - v, v + dp)
            F = max(f0, fm - v, v + fp)
            Kv = K - v
            # x_n >= F - x meets x_n <= x + B and 2x + C only from here on
            x_lo = max(x_lo, -((B - F) // 2), -((C - F) // 3))
            # x + x_n <= Kv fails past this, since x_n >= D and 2 x_n >= x + G.
            xmax = min(x_hi, Kv - D, (2 * Kv - G) // 3)
            if xmax < x_lo:
                continue
            if leaf is not None:
                leaf(total + v - low, x_lo, xmax, A, B, C, D, F, G, Kv)
                continue
            mu[m - 1] = v
            for x, bottom, y_top in _columns(x_lo, xmax, A, B, C, D, F, G, Kv):
                mu[m] = x
                for mu[n] in range(bottom, y_top + 1):
                    points.append(tuple(mu[1:sum_at]))
    return points


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


def _half_sum(n):
    """Sum of floor(k / 2) over k = 0..n, extended so that each step adds floor(n / 2)."""
    return (n // 2) * ((n + 1) // 2)


# Up to this many values of x, looping over them costs less than splitting
# their polygon into runs.  Timed per polygon of the p = 5..7 walks (CPython
# 3.11): one value costs about 1.5 us by the loop and 3.3 us as runs, the two
# meet at 10 to 12 values, and past 40 the runs cost a quarter of the loop.
SHORT_RANGE = 12


def _columns(lo, xmax, A, B, C, D, F, G, K):
    """(x, least y, greatest y) for each x in lo..xmax with a point (x, y),
    y <= min(A, x + B, 2x + C, K - x) and y >= max(D, F - x, ceil((x + G) / 2))."""
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


def _fold_runs(runs, size):
    """Counts by sum index 0..size-1 from the strided difference arrays."""
    for s in (1, 2, 3):
        run = runs[s]
        for r in range(s):
            run[r::s] = accumulate(run[r::s])
    return list(accumulate(map(sum, zip(*runs))))[:size]


class _Locus(Record):
    """One affine locus of 'sym' or 'psym' points, with the cone written on it.

    The variables are v = (t', y_1, ..., y_m): x_k = t = s t' + r, where k
    is the residue of the largest Apéry element, s is 2 when some
    coordinate is t halved (then r makes it an integer) and 1 otherwise, and
    y_f is one coordinate of the f-th pair.  forms[c-1] = (terms, b) gives
    x_c = sum(a * v_i for i, a in terms) + b; rows are the locus's rows in
    the format of _walk_rows.  The sum of a point is slope t' + offset.
    """

    __slots__ = ("forms", "rows", "slope", "offset")
    forms: tuple[tuple[tuple[tuple[int, int], ...], int], ...]
    rows: tuple[tuple[tuple[int, tuple[tuple[int, int], ...], int], ...], ...]
    slope: int
    offset: int


def _locus(p: int, k: int, h: int | None) -> _Locus | None:
    """The 'sym' locus of k (h None) or the 'psym' locus of k and h, if not empty.

    Every residue i other than k (and h) pairs with j = (k - i) mod p by
    x_i + x_j + e = x_k, where e = (i + j - k) / p is 0 or 1; a residue
    paired with itself gives 2 x_i + e = x_k.  For 'psym', 2 x_h = x_k + 1
    if 2h = k and 2 x_h = x_k if 2h = k + p, and x_k >= 1.
    """
    others = [i for i in range(1, p) if i not in (k, h)]
    pairs = [(i, (k - i) % p) for i in others if i < (k - i) % p]
    halves = {i: -((2 * i - k) // p) for i in others if 2 * i % p == k}  # 2 x_i = t + b
    if h is not None:
        halves[h] = int(2 * h == k)
    parities = {b % 2 for b in halves.values()}
    if len(parities) > 1:
        return None
    s, r = (2, parities.pop()) if parities else (1, 0)
    forms = [None] * (p - 1)
    forms[k - 1] = (((0, s),), r)
    for i, b in halves.items():
        forms[i - 1] = (((0, 1),), (r + b) // 2)
    for f, (i, j) in enumerate(pairs, start=1):
        forms[i - 1] = (((f, 1),), 0)
        forms[j - 1] = (((0, s), (f, -1)), r - (i + j - k) // p)

    def combine(signs, b):
        terms = [(i, sign * a) for c, sign in signs for i, a in forms[c - 1][0]]
        return _row(terms, b + sum(sign * forms[c - 1][1] for c, sign in signs))

    inequalities = [combine([(c, 1)], 0) for c in range(1, p)]  # x_c >= 0
    inequalities += [
        combine([(i, 1), (j, 1), (l, -1)], -c) for i, j, l, c in build_cone(p).inequalities
    ]
    if h is not None:
        inequalities.append(combine([(k, 1)], -1))  # the origin is not 'psym'
    rows = [[] for _ in range(len(pairs) + 1)]
    for d, row in inequalities:
        if d is not None:
            rows[d].append(row)
        elif row[2] < 0:
            return None
    _, (slope, _, offset) = combine([(c, 1) for c in range(1, p)], 0)
    return _Locus(tuple(forms), tuple(map(tuple, rows)), slope, offset)


@lru_cache(maxsize=None)
def _class_loci(p: int, class_filter: str) -> tuple[_Locus, ...]:
    """The nonempty loci of a class; they are disjoint, since k is the argmax."""
    loci = []
    for k in range(1, p):
        if class_filter == "sym":
            specials = [None]
        else:
            specials = [h for h in range(1, p) if 2 * h % p == k]
        loci += [_locus(p, k, h) for h in specials]
    return tuple(locus for locus in loci if locus is not None)


def _locus_ranges(locus, caps, low, high, v):
    """_walk_rows over one locus, under caps and with sums low..high."""
    rows = [list(level) for level in locus.rows]
    for (terms, b), cap in zip(locus.forms, caps):
        d, row = _row([(i, -a) for i, a in terms], cap - b)
        rows[d].append(row)
    rows[0] += [(locus.slope, (), locus.offset - low), (-locus.slope, (), high - locus.offset)]
    return _walk_rows(rows, v)


def _locus_walk(locus, caps, low, high):
    """Yield the points of one locus under caps in the cone, with sums low..high."""
    v = [0] * len(locus.rows)
    for lo, hi in _locus_ranges(locus, caps, low, high, v):
        for v[-1] in range(lo, hi + 1):
            yield tuple(sum(a * v[i] for i, a in terms) + b for terms, b in locus.forms)


def _count_task(task):
    """Counts of the points of one walk with each sum low..high, or their total.

    part is None for the whole walk, or, for 'all'/'medim' at p >= 4, a
    range (a, b) of x_1: one share of a split.
    """
    p, caps, low, high, class_filter, total, part = task
    if class_filter in ("all", "medim"):
        strict = class_filter == "medim"
        if total:
            count = 0

            def add(offset, *polygon):
                nonlocal count
                count += _polygon_count(*polygon)

            _walk(p, caps, low, high, strict, part, add)
            return count
        runs = [[0] * (high - low + 5) for _ in range(4)]
        _walk(p, caps, low, high, strict, part, partial(_polygon_runs, runs))
        return _fold_runs(runs, high - low + 1)
    counts = 0 if total else [0] * (high - low + 1)
    for locus in _class_loci(p, class_filter):
        v = [0] * len(locus.rows)
        slope, offset = locus.slope, locus.offset - low
        for lo, hi in _locus_ranges(locus, caps, low, high, v):
            if total:
                counts += hi - lo + 1
            elif len(v) > 1:
                counts[slope * v[0] + offset] += hi - lo + 1
            else:  # the range is of t' itself, and each t' has its own sum
                for i in range(slope * lo + offset, slope * hi + offset + 1, slope):
                    counts[i] += 1
    return counts


# Tasks per process when x_1 is split: a few, so that an uneven share of the
# walk still leaves work for the others, but not one per value of x_1.
CHUNKS_PER_PROCESS = 4


def _serve(tasks, sink):
    """In a forked child: count tasks, send the results on sink, and exit.

    The results go as one marshal record with exit status 0; an exception
    goes as one line of text with status 1.  The child leaves only through
    os._exit, so it never runs the parent's buffered writes, atexit hooks or
    finally blocks a second time.
    """
    status = 1
    try:
        try:
            data, code = marshal.dumps([_count_task(task) for task in tasks]), 0
        except BaseException as err:
            data, code = " ".join(f"{type(err).__name__}: {err}".split()).encode(), 1
        sink.write(data)
        sink.flush()
        status = code
    finally:
        os._exit(status)


def _fan_out(tasks, size):
    """The results of _count_task over tasks, from size forked processes.

    Child j counts tasks[j::size] and sends its results on a pipe of its
    own.  The parent reads every pipe to its end and reaps every child, or,
    if it is interrupted, kills and reaps those left.  Raises RuntimeError
    with the first failed child's message.

    While SIGTERM has its default action, the main thread holds a handler
    for it: the parent then kills and reaps its children before it ends by
    SIGTERM, and a child ends by it at once.
    """
    import signal
    import threading

    parent, stopped = os.getpid(), []

    def terminate(signum, frame):
        signal.signal(signum, signal.SIG_DFL)
        if os.getpid() != parent:  # a forked child dies of it at once
            os.kill(os.getpid(), signum)
        stopped.append(signum)
        raise SystemExit(128 + signum)  # into the finally below, which kills the children

    held = (threading.current_thread() is threading.main_thread()
            and signal.getsignal(signal.SIGTERM) == signal.SIG_DFL)
    if held:
        signal.signal(signal.SIGTERM, terminate)
    sys.stdout.flush()  # else each child would inherit, and could repeat, what is buffered
    sys.stderr.flush()
    pids, pipes = [], []
    try:
        for j in range(size):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            with open(w, "wb") as sink:
                pid = os.fork()
                if pid == 0:
                    _serve(tasks[j::size], sink)
                pids.append(pid)
        outputs = [pipe.read() for pipe in pipes]
        codes = []
        while pids:  # a pid leaves the list once reaped, so that finally reaps the rest
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1]))
            del pids[0]
    finally:
        if held:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
        for pipe in pipes:
            pipe.close()
        for pid in pids:  # only an interrupted fan-out has any left
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if stopped:
            os.kill(parent, signal.SIGTERM)
    for code, data in zip(codes, outputs):
        if code:
            reason = data.decode(errors="replace") if code > 0 else f"killed by signal {-code}"
            raise RuntimeError(f"a counting process failed: {reason}")
    return [result for data in outputs for result in marshal.loads(data)]


def _counted(p, caps, low, high, class_filter, workers, total=False):
    """Counts for each sum low..high, or their total, serially or split into tasks.

    Only the cone walk of 'all'/'medim' at p >= 4 is split: x_1 into
    contiguous ranges, which _fan_out counts in forked processes.  'sym'
    and 'psym' walk loci in about p/2 variables, and at p = 3 the cone is
    one polygon counted in closed form, so these always count here.  There
    are never more processes than CPUs or values of x_1; when that leaves
    one, or os.fork does not exist, the count runs in this process.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    parts = min(caps[0], high) + 1 if class_filter in ("all", "medim") and p > 3 else 1
    size = min(workers, os.cpu_count() or 1, parts) if hasattr(os, "fork") else 1
    if size == 1:
        return _count_task((p, caps, low, high, class_filter, total, None))
    chunks = min(parts, CHUNKS_PER_PROCESS * size)
    bounds = [parts * c // chunks for c in range(chunks + 1)]
    tasks = [(p, caps, low, high, class_filter, total, (a, b - 1))
             for a, b in zip(bounds, bounds[1:])]
    results = _fan_out(tasks, size)
    if total:
        return sum(results)
    return [sum(column) for column in zip(*results)]


def enumerate_by_genus(p: int, genus: int, class_filter: str = "all"):
    """All semigroups containing p with the given genus, in mu order."""
    _check_args(p, class_filter)
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    caps = (genus,) * (p - 1)
    if class_filter in ("sym", "psym"):
        loci = _class_loci(p, class_filter)
        mus = sorted(mu for locus in loci for mu in _locus_walk(locus, caps, genus, genus))
    else:
        mus = _walk(p, caps, genus, genus, strict=class_filter == "medim")
    return [core.Semigroup._trusted(p, mu) for mu in mus]


def genus_window(
    p: int, low: int, high: int, class_filter: str = "all", workers: int = 1
) -> list[int]:
    """Counts for every genus low..high, from one walk of the cone."""
    _check_args(p, class_filter)
    if low < 0:
        raise ValueError("genus must be nonnegative")
    if high < low:
        raise ValueError("genus window is empty")
    return _counted(p, (high,) * (p - 1), low, high, class_filter, workers)


def count_by_genus(p: int, genus: int, class_filter: str = "all", workers: int = 1) -> int:
    return genus_window(p, genus, genus, class_filter, workers)[0]


def genus_count_series(p: int, g_max: int, class_filter: str = "all") -> list[int]:
    """Counts for every genus 0..g_max in one pass over the search tree."""
    _check_args(p, class_filter)
    if g_max < 0:
        raise ValueError("g_max must be nonnegative")
    return genus_window(p, 0, g_max, class_filter)


def containment_caps(p: int, q: int) -> tuple[int, ...]:
    """Coordinatewise caps for semigroups containing both p and q.

    The class minima of any such semigroup are bounded by those of the
    semigroup generated by p and q alone.
    """
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"gcd({p}, {q}) != 1")
    if q < 1:
        raise ValueError("q must be positive")
    return core.from_generators((p, q), p).mu


def count_containing(p: int, q: int, class_filter: str = "all", workers: int = 1) -> int:
    """Number of semigroups containing both p and q, optionally filtered."""
    _check_args(p, class_filter)
    caps = containment_caps(p, q)
    return _counted(p, caps, 0, sum(caps), class_filter, workers, total=True)
