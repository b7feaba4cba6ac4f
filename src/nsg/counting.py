"""Counting semigroups by genus slice and by containment of a second element.

Both counting problems reduce to lattice point enumeration: genus g picks the
coordinate vectors with entry sum g, and containment of q = i + n*p caps the
i-th coordinate at n (coordinatewise caps come from the two-generator
semigroup itself, whose class minima dominate those of every supersemigroup).

The walk assigns coordinates in index order.  Every inequality becomes an
interval constraint on its highest-index coordinate once the lower ones are
fixed, so each search node scans the feasible range.  The last two
coordinates are not walked: once the others are fixed they lie in a polygon
whose edges have slopes 0, 1, -1, 2 and 1/2.  Split where its top and its
bottom edge change slope, it is counted in closed form, a sum of arithmetic
progressions and floor sums (Beck & Robins, "Computing the Continuous
Discretely", ch. 1).  A genus window adds the same pieces to difference
arrays over sums, one per stride of the sum along an edge, so a whole window
is counted in one walk without visiting a point.  The coordinate before
them is bounded by the same kind of lines, so a prefix that leaves x_{n-1}
no value, or whose least completion overshoots the window, is cut before it
is expanded.

Symmetric and pseudo-symmetric semigroups are not found by testing points:
each class lies on a few affine loci of dimension about p/2, one per residue
of the largest Apéry element, built here from the pairing of residues
against it.  Only the points of those loci are walked.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate

from . import core
from .cone import build_cone

CLASS_FILTERS = ("all", "sym", "psym", "medim")


class NotCoprime(ValueError):
    """The contained element must be coprime to p."""


def _check_args(p: int, class_filter: str) -> None:
    if p < 3:
        raise ValueError("p must be at least 3")
    if class_filter not in CLASS_FILTERS:
        raise ValueError(f"class_filter must be one of {CLASS_FILTERS}")


@lru_cache(maxsize=None)
def _depth_rules(p: int, strict: bool):
    """Interval constraints grouped by the coordinate that resolves them.

    For coordinate d (1-based) with all earlier coordinates fixed:
      uppers  (i, j, c):  x_d <= x_i + x_j - c          (the inequality's k is d)
      singles (k, c):     x_d >= ceil((x_k + c) / 2)    (i == j == d)
      lowers  (i, k, c):  x_d >= x_k + c - x_i          (j == d, i < d)
    Strict mode shifts every c by one, which turns the system into its
    interior version.
    """
    margin = 1 if strict else 0
    uppers = [[] for _ in range(p)]
    singles = [[] for _ in range(p)]
    lowers = [[] for _ in range(p)]
    for i, j, k, c in build_cone(p).inequalities:
        d = max(i, j, k)
        if k == d:
            uppers[d].append((i, j, c + margin))
        elif i == j:
            singles[d].append((k, c + margin))
        else:
            lowers[d].append((i, k, c + margin))
    return tuple(
        (tuple(uppers[d]), tuple(singles[d]), tuple(lowers[d])) for d in range(p)
    )


def _bounds(d, mu, total, caps, rules, low, high):
    """Range of x_d given x_1..x_{d-1}, for points with sums in low..high."""
    hi = caps[d - 1]
    if high - total < hi:
        hi = high - total
    lo = 0
    if d > 1:
        # x_{d+j} <= x_d + j * x_1 (from x_1 + x_{d+j-1} >= x_{d+j}) bounds
        # the sum the prefix can still reach; raise lo until it reaches low.
        rest = len(mu) - d
        lo = max(0, -((total + mu[0] * rest * (rest + 1) // 2 - low) // (rest + 1)))
    uppers, singles, lowers = rules[d]
    for i, j, c in uppers:
        v = mu[i - 1] + mu[j - 1] - c
        if v < hi:
            hi = v
    for k, c in singles:
        v = (mu[k - 1] + c + 1) // 2
        if v > lo:
            lo = v
    for i, k, c in lowers:
        v = mu[k - 1] + c - mu[i - 1]
        if v > lo:
            lo = v
    return lo, hi


def _walk(p, caps, min_total=0, max_total=None, strict=False, first=None, leaf=None):
    """Walk the lattice points under caps in the cone, or its interior if strict.

    Only points whose sum lies in min_total..max_total are visited; first,
    a pair (a, b), keeps x_1 in a..b, to split work across processes.
    Without leaf, return the points in lexicographic order.  With leaf,
    return nothing and hand leaf each prefix's polygon instead.

    Coordinates x_1..x_{n-2} (n = p - 1) are walked depth first, each over
    the range _bounds gives.  Once they are fixed, with sum total, every
    bound on x_n is affine in x = x_{n-1}, or half of it:
        x_n <= min(A, x + B, 2x + C, K - x)
        x_n >= max(D, F - x, ceil((x + G) / 2))
    for x in lo..xmax.  leaf gets (total - min_total, lo, xmax, A, B, C, D,
    F, G, K); only the listing loops over the points themselves.
    """
    low, high = min_total, sum(caps) if max_total is None else max_total
    rules = _depth_rules(p, strict)
    n = p - 1
    m = n - 1
    mu = [0] * n
    points = []
    # Sort the rules of x_n by how x enters them.  The one single is
    # 2 x_n >= x + G (2n mod p = n - 1), and a lower bound
    # x_i + x_n >= x_k + c has k = i - 1, so x enters it only as x_i.
    uppers, [(_, G)], lowers = rules[n]
    up = ([], [], [])  # by the slope of x: 0, 1, 2
    for i, j, c in uppers:
        up[(i == m) + (j == m)].append((i, j, c))
    flat = [(i, k, c) for i, k, c in lowers if i != m]
    falling = [(k, c) for i, k, c in lowers if i == m]
    far = high + 1  # an absent bound: x + far and 2x + far exceed K - x
    # The rules of x_{n-1}, sorted by how v = x_{n-2} enters them: not at
    # all (its single, k = n - 3, the lowers with i < n - 2 and the uppers
    # without v), as + v (the upper x_1 + v - c) or as - v (the lower
    # x_k + c - v).  With 2 x_n >= x_{n-1} + G and the sum cap they bound v,
    # so that no prefix is expanded whose completion cannot fit.
    uppers, singles, lowers = rules[m]
    singles = [(k, c) for k, c in singles if k < m - 1]
    fixed = [(i, k, c) for i, k, c in lowers if i < m - 1]
    falls = [(k, c) for i, k, c in lowers if i == m - 1]
    tops = [(i, j, c) for i, j, c in uppers if m - 1 not in (i, j)]
    rises = [(i + j - m + 1, c) for i, j, c in uppers if (i == m - 1) != (j == m - 1)]

    def rec(d, total):
        lo, hi = _bounds(d, mu, total, caps, rules, low, high)
        if d == 1 and first is not None:
            lo, hi = max(lo, first[0]), min(hi, first[1])
        if d < m:
            if d == m - 1:
                # max(least, fall - v) <= x_{n-1} <= min(top, v + rise)
                least, fall, top, rise = 0, -high, caps[m - 1], high
                for k, c in singles:
                    least = max(least, (mu[k - 1] + c + 1) // 2)
                for i, k, c in fixed:
                    least = max(least, mu[k - 1] + c - mu[i - 1])
                for k, c in falls:
                    fall = max(fall, mu[k - 1] + c)
                for i, j, c in tops:
                    top = min(top, mu[i - 1] + mu[j - 1] - c)
                for k, c in rises:
                    rise = min(rise, mu[k - 1] - c)
                K = high - total
                if least > top or fall > K:
                    return
                # x_{n-1} has a value and x_{n-1} + x_n <= K - v can hold
                lo = max(lo, least - rise, fall - top, -((rise - fall) // 2),
                         3 * fall + G - 2 * K)
                hi = min(hi, K - least - max(0, (least + G + 1) // 2))
            for v in range(lo, hi + 1):
                mu[d - 1] = v
                rec(d + 1, total + v)
            return
        if lo > hi:
            return
        mu[m - 1] = 0  # so that each coefficient below reads x as 0
        A = min([caps[n - 1]] + [mu[i - 1] + mu[j - 1] - c for i, j, c in up[0]])
        B = min([far] + [mu[i - 1] + mu[j - 1] - c for i, j, c in up[1]])
        C = min([far] + [mu[i - 1] + mu[j - 1] - c for i, j, c in up[2]])
        D = max([0] + [mu[k - 1] + c - mu[i - 1] for i, k, c in flat])
        F = max([low - total] + [mu[k - 1] + c for k, c in falling])
        K = high - total
        # x + x_n <= K fails past this, since x_n >= D and 2 x_n >= x + G.
        xmax = min(hi, K - D, (2 * K - G) // 3)
        if xmax < lo:
            return
        if leaf is not None:
            leaf(total - low, lo, xmax, A, B, C, D, F, G, K)
            return
        for x, bottom, top in _columns(lo, xmax, A, B, C, D, F, G, K):
            mu[m - 1] = x
            for mu[n - 1] in range(bottom, top + 1):
                points.append(tuple(mu))

    rec(1, 0)
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


@dataclass(frozen=True)
class _Locus:
    """One affine locus of 'sym' or 'psym' points, with the cone written on it.

    The variables are v = (t, y_1, ..., y_m): t = x_k, where k is the residue
    of the largest Apéry element, and y_f one coordinate of the f-th pair.
    forms[c-1] = (a, b) gives 2 x_c = a . v + b; parity, unless None, is
    the residue of t mod 2 that makes the halved coordinates integers.  rows[d]
    holds (a_d, (a_0, ..., a_{d-1}), b) for each inequality a . v + b >= 0
    whose last variable is v_d.  The sum of a point is (slope t + offset) / 2.
    """

    forms: tuple[tuple[tuple[int, ...], int], ...]
    rows: tuple[tuple[tuple[int, tuple[int, ...], int], ...], ...]
    parity: int | None
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
    n = len(pairs) + 1

    def form(coeffs, b):
        a = [0] * n
        for f, c in coeffs:
            a[f] = c
        return tuple(a), b

    forms = [None] * (p - 1)
    forms[k - 1] = form([(0, 2)], 0)
    if h is not None:
        forms[h - 1] = form([(0, 1)], int(2 * h == k))
    for i in others:
        if 2 * i % p == k:
            forms[i - 1] = form([(0, 1)], -((2 * i - k) // p))
    for f, (i, j) in enumerate(pairs, start=1):
        forms[i - 1] = form([(f, 2)], 0)
        forms[j - 1] = form([(0, 2), (f, -2)], -2 * ((i + j - k) // p))
    parities = {b % 2 for a, b in forms if a[0] % 2}
    if len(parities) > 1:
        return None

    def combine(terms, b):
        a = [sum(s * forms[c - 1][0][f] for c, s in terms) for f in range(n)]
        return tuple(a), b + sum(s * forms[c - 1][1] for c, s in terms)

    inequalities = [combine([(c, 1)], 0) for c in range(1, p)]  # x_c >= 0
    inequalities += [
        combine([(i, 1), (j, 1), (l, -1)], -2 * c)
        for i, j, l, c in build_cone(p).inequalities
    ]
    if h is not None:
        inequalities.append(combine([(k, 1)], -2))  # the origin is not 'psym'
    rows = [[] for _ in range(n)]
    for a, b in inequalities:
        if not any(a):
            if b < 0:
                return None
            continue
        d = max(f for f in range(n) if a[f])
        rows[d].append((a[d], a[:d], b))
    slope, offset = combine([(c, 1) for c in range(1, p)], 0)
    return _Locus(
        tuple(forms),
        tuple(map(tuple, rows)),
        parities.pop() if parities else None,
        slope[0],
        offset,
    )


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


def _locus_walk(locus, caps, low, high, out=None):
    """Walk the points of one locus under caps in the cone, with sums low..high.

    Without out, yield each point; with out, yield nothing and add the
    number of points with sum g to out[g - low].  Each variable ranges over
    the interval its rows leave once the earlier ones are fixed, so every
    cone inequality holds at every point walked.
    """
    rows = [list(level) for level in locus.rows]
    for (a, b), cap in zip(locus.forms, caps):
        d = max(f for f in range(len(a)) if a[f])
        rows[d].append((-a[d], tuple(-c for c in a[:d]), 2 * cap - b))
    slope, offset = locus.slope, locus.offset
    rows[0] += [(slope, (), offset - 2 * low), (-slope, (), 2 * high - offset)]
    m = len(rows) - 1
    v = [0] * (m + 1)

    def bounds(d, lo, hi):
        for head, tail, s in rows[d]:
            for c, x in zip(tail, v):
                s += c * x
            if head > 0:
                lo = max(lo, -(s // head))
            else:
                hi = min(hi, s // -head)
        return lo, hi

    def point():
        return tuple((sum(c * x for c, x in zip(a, v)) + b) // 2 for a, b in locus.forms)

    def rec(d):
        lo, hi = bounds(d, 0, v[0])  # y_d is a coordinate, at most x_k = t
        if d < m:
            for v[d] in range(lo, hi + 1):
                yield from rec(d + 1)
        elif out is not None:
            if lo <= hi:
                out[(slope * v[0] + offset) // 2 - low] += hi - lo + 1
        else:
            for v[d] in range(lo, hi + 1):
                yield point()

    lo, hi = bounds(0, 0, high)
    step = 1
    if locus.parity is not None:
        lo += (lo - locus.parity) % 2
        step = 2
    for v[0] in range(lo, hi + 1, step):
        if m:
            yield from rec(1)
        elif out is not None:
            out[(slope * v[0] + offset) // 2 - low] += 1
        else:
            yield point()


def _count_task(task):
    """Counts of the points of one walk with each sum low..high, or their total.

    part is None for the whole walk, or one share of a split: a range (a, b)
    of x_1 for 'all'/'medim', the index of one locus for 'sym'/'psym'.
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
    loci = _class_loci(p, class_filter)
    out = [0] * (high - low + 1)
    for locus in loci if part is None else loci[part : part + 1]:
        for _ in _locus_walk(locus, caps, low, high, out):
            pass  # with out the walk yields nothing and only fills it
    return sum(out) if total else out


# Tasks per process when x_1 is split: a few, so that an uneven share of the
# walk still leaves work for the others, but not one per value of x_1.
CHUNKS_PER_PROCESS = 4


def _counted(p, caps, low, high, class_filter, workers, total=False):
    """Counts for each sum low..high, or their total, serially or split into tasks.

    'all'/'medim' split x_1 into contiguous ranges, 'sym'/'psym' by locus.
    The pool never has more processes than CPUs or tasks; when that leaves
    one process, the count runs in this one.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if class_filter in ("sym", "psym"):
        parts = len(_class_loci(p, class_filter))
    else:
        parts = min(caps[0], high) + 1
    size = min(workers, os.cpu_count() or 1, parts)
    if size == 1:
        return _count_task((p, caps, low, high, class_filter, total, None))
    if class_filter in ("sym", "psym"):
        shares = list(range(parts))
    else:
        chunks = min(parts, CHUNKS_PER_PROCESS * size)
        bounds = [parts * c // chunks for c in range(chunks + 1)]
        shares = [(a, b - 1) for a, b in zip(bounds, bounds[1:])]
    tasks = [(p, caps, low, high, class_filter, total, share) for share in shares]
    from concurrent.futures import ProcessPoolExecutor  # only pools pay for multiprocessing

    with ProcessPoolExecutor(max_workers=size) as pool:
        # Add the parts up as they arrive, so that few are held at once.
        results = pool.map(_count_task, tasks)
        if total:
            return sum(results)
        counts = [0] * (high - low + 1)
        for part in results:
            counts = [a + b for a, b in zip(counts, part)]
        return counts


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
