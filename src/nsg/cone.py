"""Polyhedral model of the Apéry coordinate vectors.

For a fixed p >= 3, the vectors (x_1, ..., x_{p-1}) that arise as Apéry
coordinates of numerical semigroups containing p are exactly the nonnegative
integer solutions of

    x_i + x_j >= x_{i+j}          for i + j < p,
    x_i + x_j >= x_{i+j-p} - 1    for i + j > p,

over unordered index pairs 1 <= i <= j <= p-1.  The solution set in real
space is a pointed polyhedral cone whose vertex has coordinates -i/p; its
interior lattice points are the semigroups of maximal embedding dimension p.

Translating the vertex to the origin gives the homogeneous system
x_i + x_j >= x_{(i+j) mod p} (i + j != p).  That recession cone lives in the
nonnegative orthant and each of its one-dimensional faces carries a primitive
integer generator; those generators control quasi-periods of the lattice
point counting functions along rational directions.  They are found by the
double description method in integer arithmetic, for p <= 10 (MAX_EDGE_P).
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._record import Record


class DimensionMismatch(ValueError):
    """A point has the wrong number of coordinates for this p."""


class UnsupportedP(ValueError):
    """Edge enumeration is only configured for small p."""


MAX_EDGE_P = 10


class ConeModel(Record):
    """Inequality description of the Apéry coordinate cone for one p.

    inequalities holds tuples (i, j, k, c), 1-based, meaning
    x_i + x_j - x_k >= c with c in {0, -1}.  The vertex is the unique point
    satisfying every inequality with equality.
    """

    __slots__ = ("p", "inequalities", "vertex")
    p: int
    inequalities: tuple[tuple[int, int, int, int], ...]
    vertex: tuple  # of fractions.Fraction

    @property
    def facet_count(self) -> int:
        return len(self.inequalities)

    def _check(self, x) -> tuple:
        x = tuple(x)
        if len(x) != self.p - 1:
            raise DimensionMismatch(
                f"expected {self.p - 1} coordinates, got {len(x)}"
            )
        return x

    def contains(self, x) -> bool:
        """Whether x satisfies every inequality (boundary allowed)."""
        x = self._check(x)
        return all(
            x[i - 1] + x[j - 1] - x[k - 1] >= c for i, j, k, c in self.inequalities
        )

    def strictly_contains(self, x) -> bool:
        """Whether x is an interior point (every inequality strict)."""
        x = self._check(x)
        return all(
            x[i - 1] + x[j - 1] - x[k - 1] > c for i, j, k, c in self.inequalities
        )


@lru_cache(maxsize=None)
def inequalities(p: int) -> tuple[tuple[int, int, int, int], ...]:
    """The cone's inequalities (i, j, k, c), one per unordered pair (i, j)
    with i + j != p: k = i + j and c = 0 below p, k = i + j - p and c = -1
    above it: the one table of them, which core (mu's check, the generators),
    counting (_cone_rows, _section_rows, _cone_on) and _star_normals read;
    only build_cone adds the vertex, whose fractions no other command needs."""
    if p < 3:
        raise ValueError("p must be at least 3")
    ineqs = []
    for i in range(1, p):
        for j in range(i, p):
            s = i + j
            if s < p:
                ineqs.append((i, j, s, 0))
            elif s > p:
                ineqs.append((i, j, s - p, -1))
    return tuple(ineqs)


@lru_cache(maxsize=None)
def build_cone(p: int) -> ConeModel:
    """Inequality system, one per unordered pair (i, j) with i + j != p."""
    from fractions import Fraction  # here: it imports decimal, which no walk needs

    return ConeModel(p, inequalities(p), tuple(Fraction(-i, p) for i in range(1, p)))


# ---------------------------------------------------------------------------
# Recession cone (vertex moved to the origin) and its edges.


def _star_normals(p: int) -> list[tuple[int, ...]]:
    """Normals of x_i + x_j >= x_{(i+j) mod p}: the cone's inequalities without c."""
    normals = []
    for i, j, k, _ in inequalities(p):
        v = [0] * (p - 1)
        v[i - 1] += 1
        v[j - 1] += 1
        v[k - 1] -= 1
        normals.append(tuple(v))
    return normals


def _reduced(vec) -> tuple[int, ...]:
    g = math.gcd(*vec)
    return tuple(v // g for v in vec)


def _simplicial_start(normals):
    """Indices of n independent normals B and the primitive columns of B^-1.

    Greedy integer elimination picks the basis; fraction-free Gauss-Jordan
    on [B | I] then leaves a diagonal D on the left and D B^-1 on the right,
    so column c of B^-1 is a positive multiple of (right[r][c] * lcm / d_r)_r.
    """
    n = len(normals[0])
    basis, echelon = [], []  # echelon: (pivot column, row) in insertion order
    for idx, row in enumerate(normals):
        row = list(row)
        for col, piv in echelon:
            if row[col]:
                row = [piv[col] * a - row[col] * b for a, b in zip(row, piv)]
        col = next((c for c, v in enumerate(row) if v), None)
        if col is not None:
            basis.append(idx)
            echelon.append((col, row))
            if len(basis) == n:
                break
    m = [
        list(normals[b]) + [int(r == c) for c in range(n)]
        for r, b in enumerate(basis)
    ]
    for c in range(n):
        r = next(r for r in range(c, n) if m[r][c])
        m[c], m[r] = m[r], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                row = [m[c][c] * a - m[r][c] * b for a, b in zip(m[r], m[c])]
                m[r] = list(_reduced(row))
    scale = math.lcm(*(m[r][r] for r in range(n)))
    rays = [
        _reduced([m[r][n + c] * (scale // m[r][r]) for r in range(n)])
        for c in range(n)
    ]
    return basis, rays


class EdgeSet(Record):
    """Primitive generators of the one-dimensional faces of the recession cone."""

    __slots__ = ("p", "rays")
    p: int
    rays: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for ray in self.rays:
            if math.gcd(*ray) != 1:
                raise ValueError(f"ray {ray} is not primitive")


@lru_cache(maxsize=None)
def edges_of_cone_star(p: int) -> EdgeSet:
    """All edge generators, by the double description method in integers.

    The loop starts from p-1 independent star normals, whose simplicial cone
    has the columns of the inverse matrix as rays, and adds the remaining
    inequalities one at a time.  Each ray carries its zero set, the
    inequalities added so far that vanish on it, as a bit mask.  A new
    inequality keeps the rays it does not cut off and joins each pair of
    rays on opposite sides that is adjacent: their common zero set has at
    least p-3 members and lies in no third ray's zero set.  The joined ray
    is gcd-reduced.  Every returned ray is therefore primitive, satisfies
    the whole system, and has an active set of rank exactly p-2, so the
    minimal face containing it is an edge.
    """
    if p < 3:
        raise ValueError("p must be at least 3")
    if p > MAX_EDGE_P:
        raise UnsupportedP(f"edge enumeration is configured for p <= {MAX_EDGE_P}")
    normals = _star_normals(p)
    basis, start = _simplicial_start(normals)
    full = sum(1 << b for b in basis)
    rays = [(ray, full & ~(1 << b)) for ray, b in zip(start, basis)]
    need = p - 3  # shared zeros of two adjacent rays
    for k, normal in enumerate(normals):
        if (full >> k) & 1:
            continue
        bit = 1 << k
        pos, neg, kept = [], [], []
        for ray, zeros in rays:
            d = sum(a * x for a, x in zip(normal, ray))
            if d > 0:
                pos.append((ray, zeros, d))
                kept.append((ray, zeros))
            elif d < 0:
                neg.append((ray, zeros, d))
            else:
                kept.append((ray, zeros | bit))
        for ray_p, zeros_p, d_p in pos:
            for ray_n, zeros_n, d_n in neg:
                common = zeros_p & zeros_n
                if common.bit_count() < need:
                    continue
                if any(
                    zeros & common == common and zeros not in (zeros_p, zeros_n)
                    for _, zeros in rays
                ):
                    continue
                joined = [d_p * b - d_n * a for a, b in zip(ray_p, ray_n)]
                kept.append((_reduced(joined), common | bit))
        rays = kept
        full |= bit
    return EdgeSet(p, tuple(sorted(ray for ray, _ in rays)))
