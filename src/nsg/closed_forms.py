"""Reference closed forms and recursion steps for small p.

Everything here evaluates exactly: floors of rationals are taken at the very
end with integer arithmetic, and the degree-3 family carries an explicit
table of 30 residue-dependent linear tails.  These formulas serve as an
independent check of the enumeration counters, never the other way round.
"""

from __future__ import annotations

import math
from fractions import Fraction


# Linear tail (slope, offset) of the genus counter for p = 5, indexed by
# genus mod 30.
_P5_TAIL = (
    (Fraction(7, 15), Fraction(1)),
    (Fraction(1, 3), Fraction(77, 135)),
    (Fraction(19, 45), Fraction(20, 27)),
    (Fraction(3, 10), Fraction(1, 10)),
    (Fraction(2, 5), Fraction(68, 135)),
    (Fraction(29, 90), Fraction(13, 54)),
    (Fraction(13, 30), Fraction(3, 5)),
    (Fraction(11, 30), Fraction(29, 54)),
    (Fraction(16, 45), Fraction(91, 135)),
    (Fraction(3, 10), Fraction(7, 10)),
    (Fraction(7, 15), Fraction(28, 27)),
    (Fraction(13, 45), Fraction(28, 135)),
    (Fraction(7, 15), Fraction(4, 5)),
    (Fraction(3, 10), Fraction(-53, 270)),
    (Fraction(16, 45), Fraction(37, 135)),
    (Fraction(11, 30), Fraction(1, 2)),
    (Fraction(13, 30), Fraction(131, 135)),
    (Fraction(29, 90), Fraction(119, 270)),
    (Fraction(2, 5), Fraction(4, 5)),
    (Fraction(3, 10), Fraction(109, 270)),
    (Fraction(19, 45), Fraction(20, 27)),
    (Fraction(1, 3), Fraction(1, 5)),
    (Fraction(7, 15), Fraction(113, 135)),
    (Fraction(23, 90), Fraction(-7, 270)),
    (Fraction(2, 5), Fraction(4, 5)),
    (Fraction(11, 30), Fraction(29, 54)),
    (Fraction(7, 18), Fraction(82, 135)),
    (Fraction(11, 30), Fraction(1, 2)),
    (Fraction(2, 5), Fraction(68, 135)),
    (Fraction(23, 90), Fraction(47, 270)),
)

# Constant tail of the symmetric genus counter for p = 5, indexed by genus
# mod 30.  None marks the residues with genus = 3 mod 5, where the count is
# zero and the linear form does not apply.
_P5_SYM_TAIL = (
    Fraction(1), Fraction(5, 6), Fraction(2, 3), None, Fraction(4, 3),
    Fraction(1, 6), Fraction(1), Fraction(5, 6), None, Fraction(1, 2),
    Fraction(4, 3), Fraction(1, 6), Fraction(1), None, Fraction(2, 3),
    Fraction(1, 2), Fraction(4, 3), Fraction(1, 6), None, Fraction(5, 6),
    Fraction(2, 3), Fraction(1, 2), Fraction(4, 3), None, Fraction(1),
    Fraction(5, 6), Fraction(2, 3), Fraction(1, 2), None, Fraction(1, 6),
)


def _as_int(x: Fraction, name: str, arg: int) -> int:
    if x.denominator != 1:
        raise ArithmeticError(f"{name}({arg}) evaluated to non-integer {x}")
    return int(x)


def genus_count_3(g: int) -> int:
    return g // 3 + 1


def genus_count_4(g: int) -> int:
    return (g * g + 6 * g) // 12 + 1


def genus_count_4_cases(g: int) -> int:
    """Residue-split version of genus_count_4; the two must agree."""
    tail = (
        Fraction(1), Fraction(5, 12), Fraction(2, 3),
        Fraction(3, 4), Fraction(2, 3), Fraction(5, 12),
    )[g % 6]
    return _as_int(Fraction(g * g, 12) + Fraction(g, 2) + tail, "genus_count_4_cases", g)


def genus_count_5(g: int) -> int:
    slope, offset = _P5_TAIL[g % 30]
    value = Fraction(g**3, 135) + Fraction(4 * g * g, 45) + slope * g + offset
    return _as_int(value, "genus_count_5", g)


def symmetric_genus_count_3(g: int) -> int:
    return 0 if g % 3 == 2 else 1


def symmetric_genus_count_4(g: int) -> int:
    return g // 3 + 1


def symmetric_genus_count_5(g: int) -> int:
    if g % 5 == 3:
        return 0
    tail = _P5_SYM_TAIL[g % 30]
    if tail is None:
        raise ArithmeticError(f"tail table inconsistent at genus {g}")
    return _as_int(Fraction(g, 6) + tail, "symmetric_genus_count_5", g)


def containing_count_3(q: int) -> int:
    if math.gcd(q, 3) != 1:
        raise ValueError(f"{q} is not coprime to 3")
    return (q * q + 6 * q) // 12 + 1


# Per-step increments of the containment counters when q drops by p.  Each is
# exact; verifying them against enumerated counts validates the recursions.


def containing_step_3(q: int) -> int:
    """total(3, q) - total(3, q - 3) for q > 3 coprime to 3."""
    return q // 2 + 1


def symmetric_step_3(q: int) -> int:
    return 2 if q % 2 == 0 else 1


def pseudo_symmetric_step_3(q: int) -> int:
    return 1 if q % 2 == 0 else 2


def containing_step_4(q: int) -> int:
    """total(4, q) - total(4, q - 4) for odd q > 4."""
    k = (q - 1) // 6
    value = Fraction(q * q + 4 * q + 3, 8) + (k + 1) * (Fraction(q - 1, 2) - Fraction(3 * k, 2))
    return _as_int(value, "containing_step_4", q)


def symmetric_step_4(q: int) -> int:
    """symmetric(4, q) - symmetric(4, q - 4) for odd q >= 7."""
    bump = 0 if q % 6 == 1 else 1
    return 1 + (q - 1) // 6 + (q - 1) // 2 + bump


def pseudo_symmetric_step_4(q: int) -> int:
    return 2
