"""Quasi-polynomials: exact fitting, leading coefficients and quasi-periods.

A quasi-polynomial of period N is given by N ordinary polynomials; evaluation
at n uses the constituent indexed by n mod N, as a polynomial in n itself.
Fitting is exact: finite differences of the samples decide whether a shape
fits, and the fit that does is interpolated over rationals; nothing here is
ever approximated.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .cone import edges_of_cone_star


class InsufficientSamples(ValueError):
    """Each residue class needs at least degree + 2 samples."""


class VerificationMismatch(ValueError):
    """The sequence is not a quasi-polynomial of the requested shape."""


class EdgeInHyperplane(ValueError):
    """Some edge generator is orthogonal to the counting direction."""


def _trim(coeffs) -> tuple[Fraction, ...]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_eval(coeffs, n) -> Fraction:
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * n + c
    return value


class QuasiPolynomial(Record):
    """period many constituents, each a low-to-high coefficient tuple."""

    __slots__ = ("period", "constituents")
    period: int
    constituents: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be positive")
        if len(self.constituents) != self.period:
            raise ValueError("need exactly one constituent per residue class")
        object.__setattr__(
            self, "constituents", tuple(_trim(c) for c in self.constituents)
        )

    @property
    def degree(self) -> int:
        """Largest constituent degree; -1 for the zero quasi-polynomial."""
        return max(len(c) - 1 for c in self.constituents)

    def evaluate(self, n: int) -> Fraction:
        return _poly_eval(self.constituents[n % self.period], n)


def fit(values, period: int, degree: int | None = None) -> QuasiPolynomial:
    """Exact quasi-polynomial through an initial segment of a sequence.

    values[n] is the sample at n.  With degree None the degree is raised
    from 0 until verification passes (at most 6).  Each residue class is
    interpolated on its first degree + 1 samples and every remaining sample
    must then match exactly.

    A class's samples sit at evenly spaced n, so they all lie on the
    interpolant exactly when their (degree + 1)-th differences vanish, and
    the first that does not ends at the first sample off it.  Each degree
    is decided so, on the samples as given, and only the fit that passes
    is interpolated.
    """
    vals = [v if type(v) is int else Fraction(v) for v in values]  # ints subtract faster
    if period < 1:
        raise ValueError("period must be positive")
    differences = [[vals[r::period]] for r in range(period)]  # by class, then order
    if degree is not None:
        _verify(differences, period, degree)
    else:
        for degree in range(0, 7):
            try:
                _verify(differences, period, degree)
                break
            except VerificationMismatch as err:
                last_error = err
        else:
            raise last_error
    nodes = range(0, period * (degree + 1), period)
    constituents = tuple(
        _interpolate([r + n for n in nodes], [Fraction(v) for v in diffs[0][: degree + 1]])
        for r, diffs in enumerate(differences)
    )
    return QuasiPolynomial(period, constituents)


def _verify(differences, period, degree) -> None:
    """Raise unless every class's samples lie on one polynomial of degree at most degree.

    differences[r][k] holds the k-th differences of class r's samples; the
    orders still missing are added in place.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    for r, diffs in enumerate(differences):
        count = len(diffs[0])
        if count < degree + 2:
            raise InsufficientSamples(
                f"class {r} mod {period}: {count} samples, "
                f"need {degree + 2} for degree {degree}"
            )
        while len(diffs) < degree + 2:
            last = diffs[-1]
            diffs.append([b - a for a, b in zip(last, last[1:])])
        for j, delta in enumerate(diffs[degree + 1]):
            if delta:
                raise VerificationMismatch(
                    f"value at {r + (j + degree + 1) * period} breaks the degree-{degree} "
                    f"fit for class {r} mod {period}"
                )


def _interpolate(nodes, values) -> tuple[Fraction, ...]:
    """Coefficients of the polynomial through (nodes[k], values[k]), low to high.

    Newton's divided differences, then the Newton form expanded in powers
    of n; the nodes must be distinct.
    """
    c = list(values)
    for j in range(1, len(nodes)):
        for i in range(len(nodes) - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (nodes[i] - nodes[i - j])
    coeffs = [c[-1]]
    for node, ck in zip(nodes[-2::-1], c[-2::-1]):
        # coeffs * (n - node) + ck
        coeffs = [ck - node * coeffs[0]] + [
            a - node * b for a, b in zip(coeffs, coeffs[1:] + [0])
        ]
    return tuple(coeffs)


def predict_quasi_period(p: int, alpha) -> int:
    """lcm of the pairings of a direction with the recession cone edges.

    alpha is a primitive nonnegative counting direction.  This is a valid
    (not necessarily minimal) quasi-period for the counting function along
    it.  Directions orthogonal to an edge are rejected: the slice count is
    infinite there.
    """
    coords = tuple(int(v) for v in alpha)
    if not coords or any(v < 0 for v in coords):
        raise ValueError("direction must be nonnegative and nonempty")
    if math.gcd(*coords) != 1:
        raise ValueError("direction must be primitive (gcd 1, nonzero)")
    edges = edges_of_cone_star(p)
    if len(coords) != p - 1:
        raise ValueError(f"direction must have {p - 1} coordinates")
    dots = []
    for ray in edges.rays:
        d = sum(a * r for a, r in zip(coords, ray))
        if d == 0:
            raise EdgeInHyperplane(f"edge {ray} is orthogonal to {coords}")
        dots.append(d)
    return math.lcm(*dots)


class LeadingCoefficients(Record):
    """Top-degree coefficient per residue class, plus a constancy flag."""

    __slots__ = ("degree", "coefficients", "constant")
    degree: int
    coefficients: tuple[Fraction, ...]
    constant: bool


def leading_coefficient_report(qp: QuasiPolynomial) -> LeadingCoefficients:
    d = qp.degree
    if d < 0:
        raise ValueError("the zero quasi-polynomial has no leading coefficient")
    coeffs = tuple(
        c[d] if len(c) > d else Fraction(0) for c in qp.constituents
    )
    return LeadingCoefficients(d, coeffs, len(set(coeffs)) == 1)
