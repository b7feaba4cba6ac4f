"""Counting semigroups by genus slice and by containment of a second element.

Both counting problems reduce to lattice point enumeration: genus g picks the
coordinate vectors with entry sum g, and containment of q = i + n*p caps the
i-th coordinate at n (coordinatewise caps come from the two-generator
semigroup itself, whose class minima dominate those of every supersemigroup).

The walk assigns coordinates in index order.  Every inequality becomes an
interval constraint on its highest-index coordinate once the lower ones are
fixed, so each search node scans exactly the feasible range; with the
'all'/'medim' filters the innermost coordinate is counted as a closed range
instead of being iterated.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

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


def _bounds(d, mu, total, caps, rules, cap_total):
    hi = caps[d - 1]
    if cap_total is not None and cap_total - total < hi:
        hi = cap_total - total
    lo = 0
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


def _iter_points(p, caps, *, target=None, max_total=None, strict=False, first=None):
    """Yield coordinate vectors in lexicographic order.

    target fixes the exact coordinate sum; max_total only bounds it.  first
    restricts the leading coordinate (used to split work across processes).
    """
    rules = _depth_rules(p, strict)
    n = p - 1
    mu = [0] * n
    cap_total = target if target is not None else max_total

    def rec(d, total):
        lo, hi = _bounds(d, mu, total, caps, rules, cap_total)
        if d == 1 and first is not None:
            lo, hi = max(lo, first), min(hi, first)
        if d == n:
            if target is not None:
                v = target - total
                if lo <= v <= hi:
                    mu[-1] = v
                    yield tuple(mu)
                return
            for v in range(lo, hi + 1):
                mu[-1] = v
                yield tuple(mu)
            return
        for v in range(lo, hi + 1):
            mu[d - 1] = v
            yield from rec(d + 1, total + v)

    yield from rec(1, 0)


def _count_points(p, caps, *, target=None, strict=False, first=None):
    """Count instead of yielding; the innermost coordinate is a closed range."""
    rules = _depth_rules(p, strict)
    n = p - 1
    mu = [0] * n

    def rec(d, total):
        lo, hi = _bounds(d, mu, total, caps, rules, target)
        if d == 1 and first is not None:
            lo, hi = max(lo, first), min(hi, first)
        if d == n:
            if target is not None:
                return 1 if lo <= target - total <= hi else 0
            return hi - lo + 1 if hi >= lo else 0
        count = 0
        for v in range(lo, hi + 1):
            mu[d - 1] = v
            count += rec(d + 1, total + v)
        return count

    return rec(1, 0)


def _class_predicate(class_filter):
    if class_filter == "sym":
        return core._is_symmetric_mu
    if class_filter == "psym":
        return core._is_pseudo_symmetric_mu
    raise ValueError(class_filter)


def _count_task(task):
    p, caps, target, class_filter, first = task
    if class_filter in ("all", "medim"):
        return _count_points(
            p, caps, target=target, strict=class_filter == "medim", first=first
        )
    pred = _class_predicate(class_filter)
    return sum(
        1 for mu in _iter_points(p, caps, target=target, first=first) if pred(p, mu)
    )


def _counted(p, caps, target, class_filter, workers):
    """Count serially, or split at the first coordinate over a bounded pool.

    The pool never has more processes than CPUs or tasks; when that leaves
    one process, the count runs in this one.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    top = caps[0] if target is None else min(caps[0], target)
    size = min(workers, os.cpu_count() or 1, top + 1)
    if size == 1:
        return _count_task((p, caps, target, class_filter, None))
    tasks = [(p, caps, target, class_filter, f) for f in range(top + 1)]
    with ProcessPoolExecutor(max_workers=size) as pool:
        return sum(pool.map(_count_task, tasks))


def enumerate_by_genus(p: int, genus: int, class_filter: str = "all"):
    """All semigroups containing p with the given genus, in mu order."""
    _check_args(p, class_filter)
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    caps = (genus,) * (p - 1)
    out = []
    for mu in _iter_points(p, caps, target=genus):
        s = core.Semigroup(p, mu)
        if class_filter == "sym" and not s.is_symmetric():
            continue
        if class_filter == "psym" and not s.is_pseudo_symmetric():
            continue
        if class_filter == "medim" and not build_cone(p).strictly_contains(mu):
            continue
        out.append(s)
    return out


def count_by_genus(p: int, genus: int, class_filter: str = "all", workers: int = 1) -> int:
    _check_args(p, class_filter)
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    caps = (genus,) * (p - 1)
    return _counted(p, caps, genus, class_filter, workers)


def genus_count_series(p: int, g_max: int, class_filter: str = "all") -> list[int]:
    """Counts for every genus 0..g_max in one pass over the search tree."""
    _check_args(p, class_filter)
    if g_max < 0:
        raise ValueError("g_max must be nonnegative")
    caps = (g_max,) * (p - 1)
    if class_filter in ("all", "medim"):
        rules = _depth_rules(p, class_filter == "medim")
        n = p - 1
        mu = [0] * n
        diff = [0] * (g_max + 2)

        def rec(d, total):
            lo, hi = _bounds(d, mu, total, caps, rules, g_max)
            if d == n:
                if hi >= lo:
                    diff[total + lo] += 1
                    diff[total + hi + 1] -= 1
                return
            for v in range(lo, hi + 1):
                mu[d - 1] = v
                rec(d + 1, total + v)

        rec(1, 0)
        out = []
        running = 0
        for g in range(g_max + 1):
            running += diff[g]
            out.append(running)
        return out
    pred = _class_predicate(class_filter)
    out = [0] * (g_max + 1)
    for mu in _iter_points(p, caps, max_total=g_max):
        if pred(p, mu):
            out[sum(mu)] += 1
    return out


def cumulative_by_genus(p: int, genus: int) -> int:
    """Number of semigroups containing p with genus at most the given one."""
    _check_args(p, "all")
    return sum(genus_count_series(p, genus))


@lru_cache(maxsize=None)
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
    return _counted(p, caps, None, class_filter, workers)


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
