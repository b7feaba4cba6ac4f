import math

import pytest

from nsg import count_containing, genus_count_series
from nsg.closed_forms import (
    containing_count_3,
    containing_step_3,
    containing_step_4,
    genus_count_3,
    genus_count_4,
    genus_count_4_cases,
    genus_count_5,
    pseudo_symmetric_step_3,
    pseudo_symmetric_step_4,
    symmetric_genus_count_3,
    symmetric_genus_count_4,
    symmetric_genus_count_5,
    symmetric_step_3,
    symmetric_step_4,
)

# The short names of the parametrized cases below.
FORMULAS = {
    "G3": genus_count_3,
    "G4": genus_count_4,
    "Gsym3": symmetric_genus_count_3,
    "Gsym4": symmetric_genus_count_4,
    "G5": genus_count_5,
    "Gsym5": symmetric_genus_count_5,
}


def test_reference_examples():
    assert genus_count_4(8) == 10
    assert symmetric_genus_count_3(5) == 0
    assert genus_count_5(6) == 8
    assert containing_count_3(7) == 8


def test_unknown_name_and_bad_args():
    with pytest.raises(ValueError):
        containing_count_3(6)  # not coprime to 3


def test_four_case_split_matches_floor_form():
    for g in range(0, 101):
        assert genus_count_4_cases(g) == genus_count_4(g)


@pytest.mark.parametrize(
    "name,p,cls,gmax",
    [
        ("G3", 3, "all", 40),
        ("G4", 4, "all", 40),
        ("Gsym3", 3, "sym", 40),
        ("Gsym4", 4, "sym", 40),
        ("G5", 5, "all", 35),
        ("G5", 5, "all", 239),
        ("Gsym5", 5, "sym", 35),
    ],
)
def test_formulas_match_enumeration(name, p, cls, gmax):
    series = genus_count_series(p, gmax, cls)
    for g in range(gmax + 1):
        assert FORMULAS[name](g) == series[g], (name, g)


def test_p5_zero_rows():
    for g in range(0, 61):
        if g % 5 == 3:
            assert symmetric_genus_count_5(g) == 0
    # every tabulated tail is exercised by one genus residue
    for g in range(30):
        genus_count_5(g)


def test_containing_formula_matches_enumeration():
    for q in range(1, 61):
        if math.gcd(q, 3) == 1:
            assert containing_count_3(q) == count_containing(3, q)


def test_steps_against_enumeration_p3():
    for q in range(4, 41):
        if math.gcd(q, 3) != 1:
            continue
        assert count_containing(3, q) - count_containing(3, q - 3) == containing_step_3(q)
        assert count_containing(3, q, "sym") - count_containing(3, q - 3, "sym") == symmetric_step_3(q)
        assert count_containing(3, q, "psym") - count_containing(3, q - 3, "psym") == pseudo_symmetric_step_3(q)


def test_steps_against_enumeration_p4():
    for q in range(5, 41, 2):
        assert count_containing(4, q) - count_containing(4, q - 4) == containing_step_4(q)
        assert count_containing(4, q, "psym") - count_containing(4, q - 4, "psym") == pseudo_symmetric_step_4(q)
        if q >= 7:
            assert count_containing(4, q, "sym") - count_containing(4, q - 4, "sym") == symmetric_step_4(q)
