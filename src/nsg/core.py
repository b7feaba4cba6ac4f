"""Numerical semigroups containing a distinguished element p.

A numerical semigroup is a subset of the nonnegative integers that contains
0, is closed under addition, and has finite complement (the gaps).  Here a
semigroup containing a fixed p >= 3 is stored canonically as (p, mu), where
mu has one entry per nonzero residue class modulo p and the least semigroup
element congruent to i is i + mu[i-1] * p.  The vector determines the
semigroup completely: membership, genus (number of gaps), Frobenius number
(largest gap), multiplicity and embedding dimension are all read off from it.
The vector of a generated semigroup comes from shortest paths over the
residues, and its minimal generators from the cone inequalities it meets with
equality.

Each invariant has one implementation, a helper over the Apéry tuple (or
the genus and Frobenius number read off it): _frobenius, _multiplicity,
_minimal_generators, which reads cone.inequalities over mu padded to
(0, *mu) so that their 1-based indices apply, and the class flags.  The
Semigroup methods call these helpers, and invariants() computes them all
from one Apéry tuple for the rows of ``nsg enumerate``.
"""

from __future__ import annotations

import heapq
import math
import operator
from functools import reduce

from ._record import Record
from .cone import inequalities


class NonCoprimeGenerators(ValueError):
    """The generating set has a common divisor greater than 1."""


class PNotInSemigroup(ValueError):
    """The distinguished element is not generated by the given set."""


class FrobeniusOfN(ValueError):
    """The full semigroup of all nonnegative integers has no largest gap."""


def _class_minima(gens: list[int], m: int) -> list[int]:
    """Least element of <gens> in each residue class mod m.

    Shortest paths over the residues, where a step by g costs g (Nijenhuis's
    minimal-path algorithm).  Every class is reached when gcd(gens) = 1.
    """
    least: list = [None] * m
    heap = [(0, 0)]
    while heap:
        n, r = heapq.heappop(heap)
        if least[r] is not None:
            continue
        least[r] = n
        for g in gens:
            s = (r + g) % m
            if least[s] is None:
                heapq.heappush(heap, (n + g, s))
    return least


def _apery_elements(p: int, mu: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([i + m * p for i, m in enumerate(mu, start=1)])


def _frobenius(p: int, apery: tuple[int, ...]) -> int:
    """The largest gap, -1 for the full semigroup (whose Apéry elements are 1..p-1)."""
    return max(apery) - p


def _multiplicity(p: int, apery: tuple[int, ...]) -> int:
    """The least nonzero element: p or the least Apéry element."""
    least = min(apery)
    return least if least < p else p


def _integer(value) -> int:
    """value as an int if it is one (an int, a bool, a numpy integer), not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"expected an integer, got {value!r}") from None


def _minimal_generators(p: int, mu: tuple[int, ...], apery: tuple[int, ...]) -> tuple[int, ...]:
    """Elements of the unique minimal generating set, sorted.

    An Apéry element w_k is a generator unless it is w_i + w_j, which is
    the cone inequality (i, j, k, c) holding with equality.  p is one
    unless it is w_i + w_{p-i} with both below p, i.e. mu_i = mu_{p-i} = 0.
    """
    x = (0, *mu)  # x[i] = mu_i
    sums = {k for i, j, k, c in inequalities(p) if x[i] + x[j] - x[k] == c}
    gens = [w for k, w in enumerate(apery, start=1) if k not in sums]
    for i in range(1, p // 2 + 1):
        if not x[i] and not x[p - i]:
            break
    else:
        gens.append(p)
    gens.sort()
    return tuple(gens)


# The class flags, from the genus and the Frobenius number of _frobenius: the
# full semigroup (genus 0, Frobenius number -1) counts as symmetric, 2*0 == -1 + 1.
def _is_symmetric(genus: int, frobenius: int) -> bool:
    return 2 * genus == frobenius + 1


def _is_pseudo_symmetric(genus: int, frobenius: int) -> bool:
    return 2 * genus == frobenius + 2


def _is_max_embedding_dimension(p: int, multiplicity: int, generators: tuple[int, ...]) -> bool:
    return multiplicity == len(generators) == p


def _is_symmetric_mu(p: int, mu: tuple[int, ...]) -> bool:
    return _is_symmetric(sum(mu), _frobenius(p, _apery_elements(p, mu)))


def _is_pseudo_symmetric_mu(p: int, mu: tuple[int, ...]) -> bool:
    return _is_pseudo_symmetric(sum(mu), _frobenius(p, _apery_elements(p, mu)))


def invariants(p: int, mu: tuple[int, ...]):
    """(generators, genus, frobenius, multiplicity) of the semigroup (p, mu),
    all read off one Apéry tuple; frobenius is -1 for the full semigroup.
    The Semigroup methods compute each of these through the same helpers."""
    apery = _apery_elements(p, mu)
    return _minimal_generators(p, mu, apery), sum(mu), _frobenius(p, apery), _multiplicity(p, apery)


class Semigroup(Record):
    """Canonical (p, mu) representation of a semigroup containing p."""

    __slots__ = ("p", "mu")
    p: int
    mu: tuple[int, ...]

    def __post_init__(self):
        p, mu = _integer(self.p), tuple(map(_integer, self.mu))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "mu", mu)
        if p < 3:
            raise ValueError("p must be at least 3")
        if len(mu) != p - 1:
            raise ValueError(f"mu must have {p - 1} entries")
        if any(m < 0 for m in mu):
            raise ValueError("mu entries must be nonnegative")
        x = (0, *mu)  # x[i] = mu_i
        if any(x[i] + x[j] - x[k] < c for i, j, k, c in inequalities(p)):
            raise ValueError(f"mu={mu} violates the coordinate inequalities")

    @classmethod
    def _trusted(cls, p: int, mu: tuple[int, ...]) -> "Semigroup":
        """Instance for a mu already known to lie in the cone, unchecked."""
        s = object.__new__(cls)
        object.__setattr__(s, "p", p)
        object.__setattr__(s, "mu", mu)
        return s

    def apery_elements(self) -> tuple[int, ...]:
        """Least semigroup element of each nonzero residue class modulo p."""
        return _apery_elements(self.p, self.mu)

    def contains(self, n: int) -> bool:
        if n < 0:
            return False
        r = n % self.p
        if r == 0:
            return True
        return n >= r + self.mu[r - 1] * self.p

    def genus(self) -> int:
        return sum(self.mu)

    def frobenius(self) -> int:
        if not any(self.mu):
            raise FrobeniusOfN("the full semigroup has no gaps")
        return _frobenius(self.p, self.apery_elements())

    def gaps(self) -> tuple[int, ...]:
        if not any(self.mu):
            return ()
        f = self.frobenius()
        return tuple(n for n in range(1, f + 1) if not self.contains(n))

    def multiplicity(self) -> int:
        return _multiplicity(self.p, self.apery_elements())

    def minimal_generators(self) -> tuple[int, ...]:
        """Elements of the unique minimal generating set, sorted (_minimal_generators)."""
        return _minimal_generators(self.p, self.mu, self.apery_elements())

    def embedding_dimension(self) -> int:
        return len(self.minimal_generators())

    def is_symmetric(self) -> bool:
        """Twice the genus exceeds the Frobenius number by exactly one."""
        return _is_symmetric_mu(self.p, self.mu)

    def is_pseudo_symmetric(self) -> bool:
        """Twice the genus exceeds the Frobenius number by exactly two."""
        return _is_pseudo_symmetric_mu(self.p, self.mu)

    def is_max_embedding_dimension(self) -> bool:
        """Embedding dimension and multiplicity both equal to p."""
        return _is_max_embedding_dimension(self.p, self.multiplicity(), self.minimal_generators())


def from_generators(gens, p: int) -> Semigroup:
    """Canonical representation of the semigroup generated by ``gens``.

    The generators must be positive with overall gcd 1, and p must itself be
    an element of the generated semigroup.  The class minima modulo the
    least generator decide whether p is; those modulo p give mu.
    """
    gen_list = sorted({_integer(g) for g in gens})
    if not gen_list or gen_list[0] <= 0:
        raise ValueError("generators must be positive integers")
    if reduce(math.gcd, gen_list) != 1:
        raise NonCoprimeGenerators(f"gcd of {gen_list} is not 1")
    p = _integer(p)
    if p < 3:
        raise ValueError("p must be at least 3")
    if p < _class_minima(gen_list, gen_list[0])[p % gen_list[0]]:
        raise PNotInSemigroup(f"{p} is not generated by {gen_list}")
    least = _class_minima(gen_list, p)
    return Semigroup(p, tuple((least[i] - i) // p for i in range(1, p)))
