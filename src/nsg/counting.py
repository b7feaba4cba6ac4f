"""Counting semigroups by genus slice and by containment of a second element.

Both counting problems reduce to lattice point enumeration: genus g picks the
coordinate vectors with entry sum g, and containment of q = i + n*p caps the
i-th coordinate at n (coordinatewise caps come from the two-generator
semigroup itself, whose class minima dominate those of every supersemigroup).

The walk assigns coordinates in index order.  Every inequality becomes an
interval constraint on its highest-index coordinate once the lower ones are
fixed, so each search node scans the feasible range.  The last two
coordinates are resolved together: once the others are fixed, the bounds on
the last one are affine in the one before it, so that one is looped over
inline and the last is a closed range.  That range is added to a difference
array over sums instead of being iterated, so a whole genus window is
counted in one walk.

Symmetric and pseudo-symmetric semigroups are not found by testing points:
each class lies on a few affine loci of dimension about p/2, one per residue
of the largest Apéry element, built here from the pairing of residues
against it.  Only the points of those loci are walked.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
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


def _walk(p, caps, min_total=0, max_total=None, strict=False, first=None, diff=None):
    """Walk the lattice points under caps in the cone, or its interior if strict.

    Only points whose sum lies in min_total..max_total are visited; first
    fixes x_1, to split work across processes.  Without diff, yield each
    point in lexicographic order.  With diff, yield nothing and add each run
    of points with one prefix to the difference array diff, whose index 0
    stands for the sum min_total.

    Coordinates x_1..x_{n-2} (n = p - 1) are walked depth first, each over
    the range _bounds gives.  Once they are fixed, every bound on x_n is
    affine in x = x_{n-1}, or half of it:
        x_n <= min(A, x + B, 2x + C, K - x)
        x_n >= max(D, F - x, ceil((x + G) / 2))
    so the coefficients are worked out once and x is looped over inline.
    """
    low, high = min_total, sum(caps) if max_total is None else max_total
    rules = _depth_rules(p, strict)
    n = p - 1
    m = n - 1
    mu = [0] * n
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

    def rec(d, total):
        lo, hi = _bounds(d, mu, total, caps, rules, low, high)
        if d == 1 and first is not None:
            lo, hi = max(lo, first), min(hi, first)
        if d < m:
            for v in range(lo, hi + 1):
                mu[d - 1] = v
                yield from rec(d + 1, total + v)
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
        for x in range(lo, min(hi, K - D, (2 * K - G) // 3) + 1):
            top = A if A < x + B else x + B
            if 2 * x + C < top:
                top = 2 * x + C
            if K - x < top:
                top = K - x
            bottom = D if D > F - x else F - x
            if (x + G + 1) // 2 > bottom:
                bottom = (x + G + 1) // 2
            if bottom > top:
                continue
            if diff is not None:
                diff[total - low + x + bottom] += 1
                diff[total - low + x + top + 1] -= 1
                continue
            mu[m - 1] = x
            for mu[n - 1] in range(bottom, top + 1):
                yield tuple(mu)

    yield from rec(1, 0)


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
    """Counts of the points of one walk with each sum low..high.

    part is None for the whole walk, or one share of a split: the value of
    x_1 for 'all'/'medim', the index of one locus for 'sym'/'psym'.
    """
    p, caps, low, high, class_filter, part = task
    if class_filter in ("all", "medim"):
        diff = [0] * (high - low + 2)
        for _ in _walk(p, caps, low, high, class_filter == "medim", part, diff):
            pass  # with diff the walk yields nothing and only fills it
        return list(accumulate(diff[:-1]))
    loci = _class_loci(p, class_filter)
    out = [0] * (high - low + 1)
    for locus in loci if part is None else loci[part : part + 1]:
        for _ in _locus_walk(locus, caps, low, high, out):
            pass  # with out the walk yields nothing and only fills it
    return out


def _counted(p, caps, low, high, class_filter, workers):
    """Counts for each sum low..high, serially or split into tasks.

    'all'/'medim' split at the first coordinate, 'sym'/'psym' by locus.  The
    pool never has more processes than CPUs or tasks; when that leaves one
    process, the count runs in this one.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if class_filter in ("sym", "psym"):
        parts = len(_class_loci(p, class_filter))
    else:
        parts = min(caps[0], high) + 1
    size = min(workers, os.cpu_count() or 1, parts)
    if size == 1:
        return _count_task((p, caps, low, high, class_filter, None))
    tasks = [(p, caps, low, high, class_filter, f) for f in range(parts)]
    counts = [0] * (high - low + 1)
    from concurrent.futures import ProcessPoolExecutor  # only pools pay for multiprocessing

    with ProcessPoolExecutor(max_workers=size) as pool:
        # Add the parts up as they arrive, so that few are held at once.
        for part in pool.map(_count_task, tasks):
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
    return sum(_counted(p, caps, 0, sum(caps), class_filter, workers))
