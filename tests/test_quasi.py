from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsg import (
    EdgeInHyperplane,
    InsufficientSamples,
    QuasiPolynomial,
    VerificationMismatch,
    count_containing,
    fit,
    genus_count_series,
    leading_coefficient_report,
    predict_quasi_period,
)
from nsg.quasi import LeadingCoefficients
import oracles
from oracles import asymptotic_ratio_check, cumulative_by_genus, partial_sum
from record_checks import check_record

F = Fraction


def test_evaluate_uses_residue_class():
    qp = QuasiPolynomial(2, ((F(0),), (F(1), F(2))))
    assert qp.evaluate(0) == 0
    assert qp.evaluate(1) == 3
    assert qp.evaluate(3) == 7
    assert qp.degree == 1


def test_fit_constant():
    qp = fit([1] * 6, 1, 0)
    assert qp.period == 1 and qp.constituents == ((F(1),),)


def test_fit_g3_constituents():
    values = genus_count_series(3, 30)
    qp = fit(values, 3, 1)
    # g/3 + 1, (g+2)/3, (g+1)/3 on the three residue classes
    assert qp.constituents == (
        (F(1), F(1, 3)),
        (F(2, 3), F(1, 3)),
        (F(1, 3), F(1, 3)),
    )


def test_fit_g4_leading_twelfth():
    values = genus_count_series(4, 60)
    qp = fit(values, 6, 2)
    report = leading_coefficient_report(qp)
    assert qp.degree == 2
    assert report.constant and report.coefficients[0] == F(1, 12)


def test_fit_rejects_insufficient_and_wrong_shape():
    with pytest.raises(InsufficientSamples):
        fit([1, 2, 3], 2, 1)
    with pytest.raises(VerificationMismatch):
        fit([0, 1, 4, 9, 17, 25, 36, 50], 1, 2)  # not a polynomial
    with pytest.raises(VerificationMismatch):
        fit(genus_count_series(3, 30), 2, 1)  # wrong period


def test_fit_auto_degree():
    values = genus_count_series(4, 60)
    qp = fit(values, 6)
    assert qp.degree == 2


def test_operators_on_constant():
    one = fit([1] * 4, 1, 0)
    total = partial_sum(one)
    assert total.constituents == ((F(1), F(1)),)  # n + 1


def test_difference_of_g3_is_periodic_indicator():
    qp = fit(genus_count_series(3, 30), 3, 1)
    # the count steps up by one exactly after each genus 2 mod 3; twenty
    # points per class pin each difference constituent, of degree at most 1
    for n in range(60):
        assert qp.evaluate(n + 1) - qp.evaluate(n) == (1 if n % 3 == 2 else 0)


def test_partial_sum_matches_cumulative_counts():
    qp = fit(genus_count_series(3, 30), 3, 1)
    total = partial_sum(qp)
    assert total.degree == 2
    for g in range(31):
        assert total.evaluate(g) == cumulative_by_genus(3, g)


def test_partial_sum_raises_degree_for_nonnegative():
    qp = fit(genus_count_series(4, 60), 6, 2)
    assert partial_sum(qp).degree == 3


@pytest.mark.parametrize(
    "p,alpha,expected",
    [(3, (1, 1), 3), (3, (1, 0), 2), (3, (0, 1), 2)],
)
def test_predict_quasi_period_p3(p, alpha, expected):
    assert predict_quasi_period(p, alpha) == expected


def test_predict_quasi_period_p4_multiple_of_six():
    period = predict_quasi_period(4, (1, 1, 1))
    assert period % 6 == 0
    # the genus counter fits at the predicted period
    values = genus_count_series(4, 5 * period - 1)
    qp = fit(values, period, 2)
    report = leading_coefficient_report(qp)
    assert report.constant and report.coefficients[0] == F(1, 12)


def test_predict_rejects_orthogonal_direction():
    with pytest.raises(EdgeInHyperplane):
        predict_quasi_period(4, (0, 1, 0))  # the ray (1, 0, 1) pairs to zero


def test_predict_quasi_period_validates_direction():
    with pytest.raises(ValueError, match=r"^direction must be primitive \(gcd 1, nonzero\)$"):
        predict_quasi_period(3, (0, 0))
    with pytest.raises(ValueError, match=r"^direction must be primitive \(gcd 1, nonzero\)$"):
        predict_quasi_period(3, (2, 4))
    with pytest.raises(ValueError, match="^direction must be nonnegative and nonempty$"):
        predict_quasi_period(3, (1, -1))
    with pytest.raises(ValueError, match="^direction must be nonnegative and nonempty$"):
        predict_quasi_period(3, ())
    assert predict_quasi_period(3, (2, 3)) == 56  # lcm(8, 7) over the rays (1, 2), (2, 1)


@pytest.mark.parametrize("p,degree", [(3, 1), (4, 2), (5, 3)])
def test_genus_counter_degree_law(p, degree):
    period = {3: 3, 4: 6, 5: 30}[p]
    g_max = period * (degree + 2) - 1
    qp = fit(genus_count_series(p, g_max), period, degree)
    assert qp.degree == degree


def test_interior_shift_at_sequence_level():
    for p in (3, 4, 5):
        full = genus_count_series(p, 30)
        inner = genus_count_series(p, 30, "medim")
        assert inner[p - 1 :] == full[: 31 - (p - 1)]


def test_containment_fit_reindexed_by_residue():
    # fixed residue of q mod 3: the counts in n = (q - i)/3 fit with period 2
    # and share the constant leading coefficient 3/4
    for residue in (1, 2):
        values = [count_containing(3, residue + 3 * n) for n in range(16)]
        qp = fit(values, 2, 2)
        report = leading_coefficient_report(qp)
        assert report.constant and report.coefficients[0] == F(3, 4)


def test_containment_fit_p4():
    for residue in (1, 3):
        values = [count_containing(4, residue + 4 * n) for n in range(16)]
        qp = fit(values, 3, 3)
        report = leading_coefficient_report(qp)
        assert report.constant and report.coefficients[0] == F(8, 9)


def test_cumulative_and_medim_leading_coefficients_constant():
    total = partial_sum(fit(genus_count_series(3, 30), 3, 1))
    assert leading_coefficient_report(total).constant
    medim = [count_containing(3, 1 + 3 * n, "medim") for n in range(16)]
    assert leading_coefficient_report(fit(medim, 2, 2)).constant


def test_symmetric_containment_fits():
    values3 = [count_containing(3, 1 + 3 * n, "sym") for n in range(10)]
    assert fit(values3, 2, 1).degree == 1
    values4 = [count_containing(4, 3 + 4 * n, "sym") for n in range(16)]
    assert fit(values4, 3, 2).degree == 2


def test_asymptotics_n3():
    report = asymptotic_ratio_check(
        lambda q: count_containing(3, q),
        2,
        F(1, 12),
        199,
        bound_constant=F(61, 100),
        q_min=97,
        coprime_to=3,
    )
    assert report.ok
    assert report.largest_q == 199
    assert report.gap_at_largest <= F(61, 100) / 199


def test_asymptotics_sym_psym_p3():
    for cls in ("sym", "psym"):
        report = asymptotic_ratio_check(
            lambda q: count_containing(3, q, cls),
            1,
            F(1, 2),
            199,
            bound_constant=F(3),
            q_min=97,
            coprime_to=3,
        )
        assert report.ok


def test_asymptotics_medim_equals_shifted_total():
    for q in range(10, 80):
        if q % 3 != 0:
            assert count_containing(3, q, "medim") == count_containing(3, q - 3)
    report = asymptotic_ratio_check(
        lambda q: count_containing(3, q, "medim"),
        2,
        F(1, 12),
        150,
        bound_constant=F(61, 100),
        q_min=100,
        coprime_to=3,
    )
    assert report.ok


def test_asymptotic_report_flags_failure():
    report = asymptotic_ratio_check(
        lambda q: q * q,  # ratio 1, nowhere near 1/12
        2,
        F(1, 12),
        30,
        bound_constant=F(1, 100),
        q_min=20,
    )
    assert not report.ok


@st.composite
def quasi_polys(draw):
    period = draw(st.integers(min_value=1, max_value=6))
    degree = draw(st.integers(min_value=0, max_value=3))
    constituents = []
    for _ in range(period):
        coeffs = [
            F(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
            for _ in range(degree + 1)
        ]
        constituents.append(tuple(coeffs))
    return QuasiPolynomial(period, tuple(constituents))


@given(qp=quasi_polys())
@settings(max_examples=60, deadline=None)
def test_fit_roundtrip(qp):
    degree = max(qp.degree, 0)
    samples = [qp.evaluate(n) for n in range(qp.period * (degree + 3))]
    refit = fit(samples, qp.period, degree)
    assert refit == qp


@given(qp=quasi_polys())
@settings(max_examples=40, deadline=None)
def test_operator_identities(qp):
    # difference of the running total gives back the shifted sequence
    total = partial_sum(qp)
    for n in range(2 * qp.period + 4):
        assert total.evaluate(n + 1) - total.evaluate(n) == qp.evaluate(n + 1)
        assert total.evaluate(n) == sum(qp.evaluate(k) for k in range(n + 1))


def _eval_low_to_high(coeffs, n):
    return sum(c * n**k for k, c in enumerate(coeffs))


def _solve_vandermonde(values, nodes):
    rows = [[F(n) ** k for k in range(len(nodes))] for n in nodes]
    return list(oracles.solve(rows, [values[n] for n in nodes]))


def _reference_fit(values, period, degree):
    """Constituents of the Gauss-Jordan fit, or the name of the error it meets."""
    constituents = []
    for r in range(period):
        ns = range(r, len(values), period)
        if len(ns) < degree + 2:
            return "InsufficientSamples"
        coeffs = _solve_vandermonde(values, ns[: degree + 1])
        if any(_eval_low_to_high(coeffs, n) != values[n] for n in ns[degree + 1 :]):
            return "VerificationMismatch"
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        constituents.append(tuple(coeffs))
    return tuple(constituents)


@given(period=st.integers(1, 6), degree=st.integers(0, 5), data=st.data())
@settings(max_examples=150, deadline=None)
def test_interpolation_matches_gauss_jordan_solve(period, degree, data):
    # Random samples, one too few for the last class or enough.  When
    # consistent is drawn, every sample past the first degree + 1 of a class
    # is moved onto that class's reference polynomial, so that the fit both
    # passes and fails.
    size = data.draw(st.integers(period * (degree + 2) - 1, period * (degree + 3)))
    fractions = st.builds(F, st.integers(-50, 50), st.integers(1, 7))
    values = data.draw(st.lists(fractions, min_size=size, max_size=size))
    if data.draw(st.booleans(), label="consistent"):
        for r in range(period):
            ns = range(r, size, period)
            coeffs = _solve_vandermonde(values, ns[: degree + 1])
            for n in ns[degree + 1 :]:
                values[n] = _eval_low_to_high(coeffs, n)
    expected = _reference_fit(values, period, degree)
    try:
        got = fit(values, period, degree).constituents
    except (InsufficientSamples, VerificationMismatch) as err:
        got = type(err).__name__
    assert got == expected


def test_quasi_records_are_frozen_values():
    one = (Fraction(1), Fraction(1))
    qp = fit([1, 2, 3, 4, 5, 6], 1)
    check_record(
        qp,
        QuasiPolynomial(1, ((1, 1, 0),)),
        QuasiPolynomial(1, ((1, 2),)),
        (1, (one,)),
        "QuasiPolynomial(period=1, constituents=((Fraction(1, 1), Fraction(1, 1)),))",
    )
    check_record(
        leading_coefficient_report(qp),
        LeadingCoefficients(1, (Fraction(1),), True),
        LeadingCoefficients(1, (Fraction(2),), True),
        (1, (Fraction(1),), True),
        "LeadingCoefficients(degree=1, coefficients=(Fraction(1, 1),), constant=True)",
    )


@pytest.mark.parametrize(
    "period,constituents,message",
    [
        (0, (), "period must be positive"),
        (2, ((1,),), "need exactly one constituent per residue class"),
    ],
)
def test_quasi_polynomial_validation_messages(period, constituents, message):
    with pytest.raises(ValueError) as err:
        QuasiPolynomial(period, constituents)
    assert str(err.value) == message
