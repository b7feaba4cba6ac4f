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
inline and the last is a closed range.  With the 'all'/'medim' filters that
range is added to a difference array over sums instead of being iterated, so
a whole genus window is counted in one walk; 'sym'/'psym' test each point.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
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


def _class_predicate(class_filter):
    if class_filter == "sym":
        return core._is_symmetric_mu
    if class_filter == "psym":
        return core._is_pseudo_symmetric_mu
    raise ValueError(class_filter)


def _count_task(task):
    """Counts of the points of one walk with each sum low..high."""
    p, caps, low, high, class_filter, first = task
    if class_filter in ("all", "medim"):
        diff = [0] * (high - low + 2)
        for _ in _walk(p, caps, low, high, class_filter == "medim", first, diff):
            pass  # with diff the walk yields nothing and only fills it
        return list(accumulate(diff[:-1]))
    pred = _class_predicate(class_filter)
    out = [0] * (high - low + 1)
    for mu in _walk(p, caps, low, high, first=first):
        if pred(p, mu):
            out[sum(mu) - low] += 1
    return out


def _counted(p, caps, low, high, class_filter, workers):
    """Counts for each sum low..high, serially or split at the first coordinate.

    The pool never has more processes than CPUs or tasks; when that leaves
    one process, the count runs in this one.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    top = min(caps[0], high)
    size = min(workers, os.cpu_count() or 1, top + 1)
    if size == 1:
        return _count_task((p, caps, low, high, class_filter, None))
    tasks = [(p, caps, low, high, class_filter, f) for f in range(top + 1)]
    counts = [0] * (high - low + 1)
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
    mus = _walk(p, caps, genus, genus, strict=class_filter == "medim")
    if class_filter in ("sym", "psym"):
        pred = _class_predicate(class_filter)
        mus = (mu for mu in mus if pred(p, mu))
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


def cumulative_by_genus(p: int, genus: int) -> int:
    """Number of semigroups containing p with genus at most the given one."""
    return sum(genus_count_series(p, genus))


@lru_cache(maxsize=1024)  # keyed by q, so a long sweep would grow it without end
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


def verify_interior_identity(p: int, g_max: int) -> bool:
    """Interior counts at genus g match full counts at genus g - (p-1)."""
    if g_max < p - 1:
        raise ValueError("g_max must be at least p - 1")
    full = genus_count_series(p, g_max)
    inner = genus_count_series(p, g_max, "medim")
    return all(inner[g] == full[g - (p - 1)] for g in range(p - 1, g_max + 1))


def verify_medim_identity(p: int, q_max: int) -> bool:
    """Maximal-embedding-dimension counts shift: medim at q equals all at q - p."""
    if q_max <= 2 * p:
        raise ValueError("q_max must exceed 2 * p")
    for q in range(p + 1, q_max + 1):
        if math.gcd(p, q) != 1:
            continue
        if count_containing(p, q, "medim") != count_containing(p, q - p):
            return False
    return True


@dataclass(frozen=True)
class CountTable:
    """A labelled integer sequence produced by one of the counters."""

    label: str
    p: int
    class_filter: str
    values: dict

    def __post_init__(self):
        if self.class_filter not in CLASS_FILTERS:
            raise ValueError(f"class_filter must be one of {CLASS_FILTERS}")
        if any(v < 0 for v in self.values.values()):
            raise ValueError("counts must be nonnegative")

    def indices(self) -> list[int]:
        return sorted(self.values)


def genus_table(p: int, g_max: int, class_filter: str = "all") -> CountTable:
    """Counts for genus 0..g_max as a labelled table."""
    series = genus_count_series(p, g_max, class_filter)
    return CountTable(
        f"genus counts, p={p}, class={class_filter}",
        p,
        class_filter,
        dict(enumerate(series)),
    )


def containment_table(p: int, q_max: int, class_filter: str = "all") -> CountTable:
    """Counts for every q <= q_max coprime to p as a labelled table."""
    values = {
        q: count_containing(p, q, class_filter)
        for q in range(1, q_max + 1)
        if math.gcd(p, q) == 1
    }
    return CountTable(
        f"containment counts, p={p}, class={class_filter}", p, class_filter, values
    )
