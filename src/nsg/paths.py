"""Staircase model for semigroups containing two coprime elements.

The gaps of the two-generator semigroup <p, q> correspond to the integer
points (a, b) of the triangle cut off by p*(X+1) + q*(Y+1) <= p*q - 1 in the
first quadrant, via gap = p*q - (a+1)*p - (b+1)*q.  A semigroup containing
both p and q is obtained by closing a set of gaps, and the closed set L is
always the point set on and under a monotone right/down staircase path.

Closure of the resulting set under addition translates into two conditions
on point pairs of L: whenever the sum of two closed gaps is again a gap, its
point must also lie in L (is_admissible).  L is fixed by its p - 1 row
widths, and row p - t is as wide as the Apéry coordinate of t q mod p lies
below its cap under q, so the admissible paths map one to one onto the
lattice points of the Apéry cone under those caps.  They are counted
(count_admissible), listed and checked against the recursions in q there:
a path of at most h rows, and so each path new at q, lies on a face of the
cone on which some coordinates sit at their caps.

The empty path stands for <p, q> itself; it is admissible but, by
convention, not included in the admissible-path count (the total semigroup
count is that count plus one).
"""

from __future__ import annotations

import math
from itertools import chain, groupby, product

from . import core, counting
from ._record import Record


class PointOutsideTriangle(ValueError):
    """The point does not encode a gap of the two-generator semigroup."""


class NotAGap(ValueError):
    """The integer is not a gap of the two-generator semigroup."""


class NotContainingQ(ValueError):
    """The semigroup does not contain the second element of the system."""


class NotAdmissible(ValueError):
    """The path's point set is not closed under the pair conditions."""


class PathSystem(Record):
    """The (p, q) triangle.  Stored with p < q; arguments may come swapped."""

    __slots__ = ("p", "q")
    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if p > q:
            object.__setattr__(self, "p", q)
            object.__setattr__(self, "q", p)
            p, q = q, p
        if p < 1 or p == q:
            raise ValueError("need two distinct positive elements")
        if math.gcd(p, q) != 1:
            raise counting.NotCoprime(f"gcd({p}, {q}) != 1")

    def column_caps(self) -> tuple[int, ...]:
        """Number of triangle points in each column, first empty column excluded."""
        p, q = self.p, self.q
        caps = []
        a = 0
        while True:
            cap = (p * q - 1 - p * (a + 1)) // q
            if cap <= 0:
                break
            caps.append(cap)
            a += 1
        return tuple(caps)

    def triangle_points(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (a, b) for a, cap in enumerate(self.column_caps()) for b in range(cap)
        )

    def gap_of_point(self, a: int, b: int) -> int:
        """The gap of <p, q> encoded by the triangle point (a, b)."""
        p, q = self.p, self.q
        if a < 0 or b < 0 or p * (a + 1) + q * (b + 1) > p * q - 1:
            raise PointOutsideTriangle(f"({a}, {b}) is outside the triangle")
        return p * q - (a + 1) * p - (b + 1) * q

    def point_of_gap(self, gap: int) -> tuple[int, int]:
        """Inverse of gap_of_point."""
        p, q = self.p, self.q
        if gap < 1 or gap % p == 0:
            raise NotAGap(f"{gap} is not a gap")
        b_plus_1 = (-gap * pow(q, -1, p)) % p
        if b_plus_1 == 0:
            raise NotAGap(f"{gap} is not a gap")
        rest = p * q - b_plus_1 * q - gap
        if rest <= 0 or rest % p != 0:
            raise NotAGap(f"{gap} is not a gap")
        return rest // p - 1, b_plus_1 - 1


class LatticePath(Record):
    """A monotone right/down staircase, as corner points plus its point set.

    corners is the start point, the points where a right step turns into a
    down step, and the end point on the X axis; between consecutive corners
    the path moves down first, then right.  points is the set of lattice
    points on and under the path.  The empty path has no corners and no
    points.
    """

    __slots__ = ("corners", "points")
    corners: tuple[tuple[int, int], ...]
    points: frozenset

    @classmethod
    def from_heights(cls, heights) -> "LatticePath":
        hs = list(heights)
        while hs and hs[-1] == 0:
            hs.pop()
        if not hs:
            return cls((), frozenset())
        if min(hs) <= 0:
            raise ValueError("interior zero column in a staircase profile")
        if hs != sorted(hs, reverse=True):
            raise ValueError("heights must be non-increasing")
        # a run of columns a..b-1 of height h ends in the corner (b - 1, h - 1),
        # which is the start itself when the first run is one column wide
        corners, columns, a = [(0, hs[0] - 1)], [], 0
        for h, run in groupby(hs):
            b = a + len(list(run))
            if b > 1:
                corners.append((b - 1, h - 1))
            columns.append(product(range(a, b), range(h)))
            a = b
        if hs[-1] > 1:
            corners.append((len(hs) - 1, 0))
        return cls(tuple(corners), frozenset(chain.from_iterable(columns)))

    @property
    def is_empty(self) -> bool:
        return not self.points

    def heights(self) -> tuple[int, ...]:
        if not self.points:
            return ()
        ncols = max(a for a, _ in self.points) + 1
        out = [0] * ncols
        for a, _ in self.points:
            out[a] += 1
        return tuple(out)


def _check_staircase(system: PathSystem, path: LatticePath) -> None:
    caps = system.column_caps()
    heights = path.heights()
    if len(heights) > len(caps) or any(h > caps[a] for a, h in enumerate(heights)):
        raise PointOutsideTriangle("path leaves the triangle")
    expected = LatticePath.from_heights(heights)
    if expected != path:
        raise ValueError("inconsistent corner/point data for a staircase")


def is_admissible(system: PathSystem, path: LatticePath) -> bool:
    """Pairwise closure test on the path's point set.

    For points (a, b), (a', b') of L: if a + a' >= q - 1 then
    (a + a' - q + 1, b + b' + 1) must be in L, and if b + b' >= p - 1 then
    (a + a' + 1, b + b' - p + 1) must be in L.
    """
    _check_staircase(system, path)
    p, q = system.p, system.q
    pts = path.points
    for a, b in pts:
        for a2, b2 in pts:
            if a + a2 >= q - 1 and (a + a2 - q + 1, b + b2 + 1) not in pts:
                return False
            if b + b2 >= p - 1 and (a + a2 + 1, b + b2 - p + 1) not in pts:
                return False
    return True


def _path_face(system: PathSystem, rows: int, v, total=None):
    """(free, *counting._face_ranges) over the paths of at most rows rows,
    p >= 3, where walk variable v_f is the coordinate of residue free[f].

    Row k of a path is as wide as the cap of the residue (p - k) q mod p
    less its Apéry coordinate (_heights), so a path leaves its rows past
    the first rows empty where the coordinates of t q mod p, t < p - rows,
    sit at their caps.  The free ones are walked in the order of t, along
    which the caps grow; the cap of the last, row 1's -q mod p, is lowered
    by one to leave out the cap point: <p, q>, the empty path.
    """
    p, q = system.p, system.q
    caps = list(counting.containment_caps(p, q))
    caps[-q % p - 1] -= 1
    free = [t * q % p for t in range(p - rows, p)]
    return (free, *counting._face_ranges(p, caps, free, v, total))


def _iter_admissible_heights(system: PathSystem, h0_max=None):
    """Yield height profiles of admissible nonempty paths with h0 <= h0_max,
    one per point of a face of the cone (_path_face); p = 2 has one row,
    of width 1..(q - 1) / 2."""
    p, q = system.p, system.q
    rows = p - 1 if h0_max is None else min(h0_max, p - 1)  # the rows a path may fill
    if rows < 1:
        return
    if p == 2:
        yield from ((1,) * width for width in range(1, q // 2 + 1))
        return
    v = [0] * rows
    _, forms, ranges = _path_face(system, rows, v)
    for mu in counting._points(forms, ranges, v):
        yield _heights(system, mu)


def count_admissible(system: PathSystem) -> int:
    """Number of admissible nonempty paths (the empty path is not counted).

    The admissible paths are the semigroups containing p and q, the empty
    path standing for <p, q> (semigroup_from_path), so for p >= 3 this is
    the cone's containment count less one.  p = 2 has (q - 1) / 2 paths, one
    per width of its one row, and p = 1 none.
    """
    if system.p >= 3:
        return counting.count_containing(system.p, system.q) - 1
    return system.q // 2 if system.p == 2 else 0


def iter_admissible(system: PathSystem, h0_max=None):
    """Admissible nonempty paths as LatticePath values."""
    for heights in _iter_admissible_heights(system, h0_max=h0_max):
        yield LatticePath.from_heights(heights)


def _semigroup_from_heights(system: PathSystem, heights) -> core.Semigroup:
    """The class of t q mod p has least element t q - w_{p-t} p, where w_k
    counts the columns of height at least k."""
    p, q = system.p, system.q
    w = [0] * (p + 1)
    for h in heights:
        w[h] += 1
    for k in range(p - 1, 0, -1):
        w[k] += w[k + 1]
    mu = [0] * (p - 1)
    for t in range(1, p):
        mu[t * q % p - 1] = t * q // p - w[p - t]
    return core.Semigroup(p, tuple(mu))


def semigroup_from_path(system: PathSystem, path: LatticePath) -> core.Semigroup:
    """The semigroup obtained by closing the gaps encoded by the path's points."""
    if system.p < 3:
        raise ValueError("semigroup conversion needs the smaller element >= 3")
    if not is_admissible(system, path):
        raise NotAdmissible("point set is not closed under the pair conditions")
    return _semigroup_from_heights(system, path.heights())


def path_from_semigroup(system: PathSystem, s: core.Semigroup) -> LatticePath:
    """The staircase whose points are the gaps of <p, q> closed by s.

    Row p - k holds the gaps k*q - a*p, a >= 1, of the class of k*q mod p.
    Those in s are the ones at or above its least element there, so the
    row's width is floor(k*q / p) minus the mu entry of that class: the
    inverse of _semigroup_from_heights.
    """
    p, q = system.p, system.q
    if s.p != p:
        raise ValueError(f"semigroup is based at {s.p}, system at {p}")
    if not s.contains(q):
        raise NotContainingQ(f"semigroup does not contain {q}")
    return LatticePath.from_heights(_heights(system, s.mu))


def _heights(system: PathSystem, mu) -> tuple[int, ...]:
    """Column heights of the staircase of the Apéry coordinates mu, whose
    row p - t is floor(t q / p) - mu_{t q mod p} wide (path_from_semigroup)."""
    p, q = system.p, system.q
    heights: list[int] = []
    for t in range(1, p):
        heights += [p - t] * (t * q // p - mu[t * q % p - 1] - len(heights))
    return tuple(heights)


class RecursionRow(Record):
    __slots__ = ("q", "new_total", "new_symmetric", "new_pseudo",
                 "total_ok", "symmetric_ok", "pseudo_ok")
    q: int
    new_total: int
    new_symmetric: int
    new_pseudo: int
    total_ok: bool
    symmetric_ok: bool
    pseudo_ok: bool

    @property
    def ok(self) -> bool:
        return self.total_ok and self.symmetric_ok and self.pseudo_ok


class PathRecursionReport(Record):
    __slots__ = ("p", "rows")
    p: int
    rows: tuple[RecursionRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)


def verify_path_recursions(p: int, q_max: int) -> PathRecursionReport:
    """Check the count recursions stepping q down by p.

    The admissible paths whose start row is at most p - 3 are exactly the
    semigroups not accounted for by the q - p system, so for every coprime
    q > p:  total(q) = new_total + total(q - p) + 1, the symmetric count
    gains new_symmetric + 1, and the pseudo-symmetric count gains
    new_pseudo.

    The new paths are the face of the cone on which the coordinate of q's
    residue r sits at its cap floor(q / p) (_path_face), and each one's
    class is read as 2 g - F: its genus g is the sum of its Apéry
    coordinates, and its Frobenius number F is the largest of i + mu_i p,
    less p.  Each containment count is made once, as q and q - p meet again
    at q + p.
    """
    if p < 3:
        raise ValueError("p must be at least 3")
    if q_max <= 2 * p:
        raise ValueError("q_max must exceed 2 * p")
    counts = {}

    def count(q, class_filter):
        if (q, class_filter) not in counts:
            counts[q, class_filter] = counting.count_containing(p, q, class_filter)
        return counts[q, class_filter]

    rows = []
    for q in range(p + 1, q_max + 1):
        if math.gcd(p, q) != 1:
            continue
        new_total = new_sym = new_psym = 0
        v = [0] * (p - 1)  # v[-1] holds the sum of the fixed variables
        free, _, ranges = _path_face(PathSystem(p, q), p - 2, v, total=p - 2)
        for lo, hi in ranges:
            genus = q // p + v[-1]  # the pinned coordinate and the fixed ones
            apery = q  # r + floor(q / p) p
            for c, x in zip(free[:-1], v):
                if c + x * p > apery:
                    apery = c + x * p
            for x in range(lo, hi + 1):  # row 1, of residue free[-1] = p - r
                excess = 2 * (genus + x) - max(apery, free[-1] + x * p) + p  # 2 g - F
                new_sym += excess == 1
                new_psym += excess == 2
            new_total += hi - lo + 1
        rows.append(
            RecursionRow(
                q=q,
                new_total=new_total,
                new_symmetric=new_sym,
                new_pseudo=new_psym,
                total_ok=count(q, "all") == new_total + count(q - p, "all") + 1,
                symmetric_ok=count(q, "sym") == new_sym + count(q - p, "sym") + 1,
                pseudo_ok=count(q, "psym") == new_psym + count(q - p, "psym"),
            )
        )
    return PathRecursionReport(p, tuple(rows))
