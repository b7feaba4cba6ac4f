"""quasi.fit against the fit it replaced: interpolate every attempt, then verify.

The oracle below interpolates each residue class on its first degree + 1
samples and evaluates the polynomial at every later sample, for every
degree it tries.  quasi.fit decides each attempt by finite differences and
interpolates only the one that passes; both must return the same
constituents, or raise the same error with the same message.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsg import InsufficientSamples, VerificationMismatch, fit, genus_count_series
from nsg.quasi import QuasiPolynomial, _interpolate, _poly_eval


def _fit_exact(vals, period, degree):
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    constituents = []
    for r in range(period):
        ns = [n for n in range(len(vals)) if n % period == r]
        if len(ns) < degree + 2:
            raise InsufficientSamples(
                f"class {r} mod {period}: {len(ns)} samples, "
                f"need {degree + 2} for degree {degree}"
            )
        nodes = ns[: degree + 1]
        coeffs = _interpolate(nodes, [vals[n] for n in nodes])
        for n in ns[degree + 1 :]:
            if _poly_eval(coeffs, n) != vals[n]:
                raise VerificationMismatch(
                    f"value at {n} breaks the degree-{degree} fit "
                    f"for class {r} mod {period}"
                )
        constituents.append(coeffs)
    return QuasiPolynomial(period, tuple(constituents))


def interpolating_fit(values, period, degree=None):
    vals = [Fraction(v) for v in values]
    if period < 1:
        raise ValueError("period must be positive")
    if degree is not None:
        return _fit_exact(vals, period, degree)
    last_error = None
    for d in range(0, 7):
        try:
            return _fit_exact(vals, period, d)
        except VerificationMismatch as err:
            last_error = err
    raise last_error


def _outcome(fitter, values, period, degree):
    try:
        return fitter(values, period, degree)
    except ValueError as err:
        return type(err).__name__, str(err)


@st.composite
def sequences(draw):
    """Samples of a random quasi-polynomial, some perhaps moved off it, and a fit shape."""
    period = draw(st.integers(1, 6))
    true_degree = draw(st.integers(0, 7))
    numbers = st.integers(-20, 20)
    if draw(st.booleans(), label="fractions"):
        numbers = st.builds(Fraction, numbers, st.integers(1, 4))
    constituents = [
        tuple(draw(st.lists(numbers, min_size=true_degree + 1, max_size=true_degree + 1)))
        for _ in range(period)
    ]
    qp = QuasiPolynomial(period, tuple(constituents))
    size = draw(st.integers(0, period * (true_degree + 4)))
    values = [qp.evaluate(n) for n in range(size)]
    values = [v.numerator if v.denominator == 1 else v for v in values]
    for n in draw(st.lists(st.integers(0, max(size - 1, 0)), max_size=2)):
        if size:
            values[n] += draw(st.integers(1, 3))
    fit_period = draw(st.sampled_from([period, max(period - 1, 1), 2 * period]))
    degree = draw(st.one_of(st.none(), st.integers(-1, 7)))
    return values, fit_period, degree


@given(sequences())
@settings(max_examples=300, deadline=None)
def test_fit_matches_interpolating_fit(case):
    values, period, degree = case
    assert _outcome(fit, values, period, degree) == _outcome(
        interpolating_fit, values, period, degree
    )


@pytest.mark.parametrize("period", [1, 2, 3, 5, 6, 10, 15, 30])
def test_genus_5_fits_match_interpolating_fit(period):
    # the divisors of the predicted period that `nsg fit --p 5 --target G` tries
    values = genus_count_series(5, 239)
    assert _outcome(fit, values, period, None) == _outcome(
        interpolating_fit, values, period, None
    )
