import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nsg import (
    FrobeniusOfN,
    NonCoprimeGenerators,
    PNotInSemigroup,
    Semigroup,
    build_cone,
    from_generators,
)
from nsg.counting import containment_caps
from oracles import GapSet, dfs_iter_points
from record_checks import check_record


def test_from_generators_canonical_form():
    s = from_generators({3, 7}, 3)
    assert s.p == 3
    # independent sieve: least member of each class mod 3
    assert list(s.apery_elements()) == oracles.sieve_apery((3, 7), 3)
    assert s.mu == (2, 4)


def test_from_generators_full_semigroup():
    s = from_generators({1}, 3)
    assert s.mu == (0, 0)


def test_from_generators_three_generators():
    s = from_generators({4, 9, 15}, 4)
    assert list(s.apery_elements()) == oracles.sieve_apery((4, 9, 15), 4)
    assert s.apery_elements() == (9, 18, 15)


def test_from_generators_p_larger_than_generators():
    # p need not be a generator, only a member
    s = from_generators({3, 7}, 10)
    assert list(s.apery_elements()) == oracles.sieve_apery((3, 7), 10)


def test_from_generators_rejects_bad_input():
    with pytest.raises(NonCoprimeGenerators):
        from_generators({4, 6}, 4)
    with pytest.raises(PNotInSemigroup):
        from_generators({3, 7}, 5)
    with pytest.raises(ValueError):
        from_generators({3, 7}, 2)
    with pytest.raises(ValueError):
        from_generators({0, 3}, 3)


def test_contains_against_sieve():
    s = from_generators({3, 7}, 3)
    members = oracles.sieve_members((3, 7), 40)
    for n in range(41):
        assert s.contains(n) == members[n]
    assert s.contains(10) and not s.contains(11)
    assert not s.contains(-1)


def test_genus_and_frobenius():
    s37 = from_generators({3, 7}, 3)
    assert s37.genus() == len(oracles.sieve_gaps((3, 7))) == 6
    assert s37.frobenius() == max(oracles.sieve_gaps((3, 7))) == 11
    assert from_generators({3, 4}, 3).frobenius() == 5
    assert from_generators({4, 5, 6, 7}, 4).frobenius() == 3
    assert Semigroup(4, (1, 1, 1)).genus() == 3
    with pytest.raises(FrobeniusOfN):
        Semigroup(3, (0, 0)).frobenius()


def test_multiplicity_and_embedding_dimension():
    s = from_generators({3, 7}, 3)
    assert (s.multiplicity(), s.embedding_dimension()) == (3, 2)
    n = from_generators({1}, 5)
    assert (n.multiplicity(), n.embedding_dimension()) == (1, 1)
    assert n.minimal_generators() == (1,)
    s4 = Semigroup(4, (1, 1, 1))
    assert (s4.multiplicity(), s4.embedding_dimension()) == (4, 4)
    assert s4.minimal_generators() == (4, 5, 6, 7)


def test_classification_examples():
    s34 = from_generators({3, 4}, 3)
    assert s34.is_symmetric() and not s34.is_pseudo_symmetric()
    # gaps {1, 2}: the unique pseudo-symmetric member of genus 2 at p = 3
    g2 = GapSet((1, 2)).to_semigroup(3)
    assert g2.is_pseudo_symmetric() and not g2.is_symmetric()
    s345 = Semigroup(3, (1, 1))
    assert s345.is_max_embedding_dimension()
    assert not from_generators({1}, 3).is_max_embedding_dimension()


def test_full_semigroup_is_symmetric_not_pseudo():
    n = Semigroup(5, (0, 0, 0, 0))
    assert n.is_symmetric()
    assert not n.is_pseudo_symmetric()


def test_semigroup_validates_mu():
    with pytest.raises(ValueError):
        Semigroup(3, (0, 2))  # 2*0 < 2: violates the inequality system
    with pytest.raises(ValueError):
        Semigroup(3, (1, -1))
    with pytest.raises(ValueError):
        Semigroup(3, (1, 1, 1))


@pytest.mark.parametrize("p", [3, 4, 5, 6, 7])
def test_semigroup_validates_every_small_mu(p):
    # mu is a semigroup exactly when its gaps {i + m p : m < mu_i} are a
    # gap set, checked on the gaps alone; Semigroup reads the cone's
    # 1-based inequalities over (0, mu_1, ..., mu_{p-1})
    for mu in product(range(4), repeat=p - 1):
        gaps = {i + m * p for i, count in enumerate(mu, start=1) for m in range(count)}
        try:
            Semigroup(p, mu)
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted == oracles.is_gapset_of_semigroup(gaps), mu


@pytest.mark.parametrize("mu", [(1.5, 0), (1, 0.0), (Fraction(1), 0), ("1", 0)])
def test_semigroup_refuses_non_integral_mu(mu):
    with pytest.raises(TypeError, match=re.escape(repr(next(m for m in mu if type(m) is not int)))):
        Semigroup(3, mu)


@pytest.mark.parametrize("p", [3.0, Fraction(3), "3"])
def test_semigroup_refuses_non_integral_p(p):
    with pytest.raises(TypeError, match=re.escape(repr(p))):
        Semigroup(p, (1, 0))
    with pytest.raises(TypeError, match=re.escape(repr(p))):
        from_generators({3, 7}, p)


@pytest.mark.parametrize("gens", [{3.7, 7}, {3, Fraction(7)}, {3, "7"}])
def test_from_generators_refuses_non_integral_generators(gens):
    bad = next(g for g in gens if type(g) is not int)
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        from_generators(gens, 3)


def test_integer_types_still_pass():
    numpy = pytest.importorskip("numpy")
    s = Semigroup(numpy.int64(3), (True, numpy.int32(0)))
    assert s == Semigroup(3, (1, 0)) and repr(s) == "Semigroup(p=3, mu=(1, 0))"
    assert type(s.p) is int and all(type(m) is int for m in s.mu)
    assert from_generators({numpy.int64(3), numpy.int16(7)}, numpy.int8(3)).mu == (2, 4)
    assert from_generators({True, 7}, 3).mu == (0, 0)


@pytest.mark.parametrize("p", [3, 4, 5])
def test_mu_roundtrip_through_generators(p):
    # every admissible vector with entries <= 6 survives the round trip
    caps = (6,) * (p - 1)
    for mu in dfs_iter_points(p, caps):
        s = Semigroup(p, mu)
        back = from_generators(s.minimal_generators(), p)
        assert back.mu == mu


@pytest.mark.parametrize("p", [3, 4, 5])
def test_genus_matches_gap_count(p):
    for mu in dfs_iter_points(p, (15,) * (p - 1), max_total=15):
        s = Semigroup(p, mu)
        assert s.genus() == len(s.gaps())


@pytest.mark.parametrize("p", [3, 4, 5])
def test_apery_symmetry_characterization(p):
    # symmetric iff the sorted class minima (with 0) pair up to the largest
    for mu in dfs_iter_points(p, (12,) * (p - 1), max_total=12):
        s = Semigroup(p, mu)
        ap = sorted((0, *s.apery_elements()))
        paired = all(ap[i] + ap[p - 1 - i] == ap[p - 1] for i in range(p))
        assert s.is_symmetric() == paired


@pytest.mark.parametrize("p", [5, 7])
def test_pseudo_symmetric_embedding_dimension_below_p(p):
    hits = 0
    for mu in dfs_iter_points(p, (12,) * (p - 1), max_total=12):
        s = Semigroup(p, mu)
        if s.is_pseudo_symmetric():
            hits += 1
            assert s.embedding_dimension() < p
    assert hits > 0


def test_max_embedding_dimension_matches_interior():
    for p in (3, 4, 5):
        cone = build_cone(p)
        for mu in dfs_iter_points(p, (8,) * (p - 1), max_total=8):
            s = Semigroup(p, mu)
            assert s.is_max_embedding_dimension() == cone.strictly_contains(mu)


def test_gapset_oracle_roundtrip():
    gs = GapSet.from_generators((3, 7))
    assert list(gs.gaps) == oracles.sieve_gaps((3, 7))
    assert gs.genus() == 6 and gs.frobenius() == 11
    assert gs.to_semigroup(3).mu == (2, 4)
    with pytest.raises(PNotInSemigroup):
        gs.to_semigroup(5)


def test_gapset_validates_closure():
    with pytest.raises(ValueError):
        GapSet((2,))  # complement contains 1 but misses 1 + 1


@given(
    gens=st.sets(st.integers(min_value=2, max_value=30), min_size=1, max_size=4),
    extra=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_from_generators_random_sets(gens, extra):
    import math
    from functools import reduce

    gens = set(gens) | {2 + extra}
    if reduce(math.gcd, gens) != 1:
        gens.add(max(gens) + 1)  # force gcd 1 with a consecutive element
    if reduce(math.gcd, gens) != 1:
        return
    p = max(3, min(gens))
    members = oracles.sieve_members(gens, p * max(gens) * 2)
    if not members[p]:
        return
    s = from_generators(gens, p)
    assert list(s.apery_elements()) == oracles.sieve_apery(gens, p)
    assert s.genus() == len(oracles.sieve_gaps(gens))
    regenerated = from_generators(s.minimal_generators(), p)
    assert regenerated.mu == s.mu


def _decomposition_generators(s):
    """Minimal generators by splitting each candidate x as a + (x - a).

    The decomposition that minimal_generators replaced, kept as its reference.
    """
    candidates = sorted({s.p, *s.apery_elements()})
    return tuple(
        x
        for x in candidates
        if not any(s.contains(a) and s.contains(x - a) for a in range(1, x // 2 + 1))
    )


@pytest.mark.parametrize("p", [3, 4, 5, 6, 7])
def test_minimal_generators_match_decomposition(p):
    # every semigroup containing p up to genus 8
    for mu in dfs_iter_points(p, (8,) * (p - 1), max_total=8):
        s = Semigroup(p, mu)
        assert s.minimal_generators() == _decomposition_generators(s), mu


@given(
    gens=st.sets(st.integers(min_value=1, max_value=40), min_size=1, max_size=4),
    p=st.integers(min_value=3, max_value=12),
)
@settings(max_examples=150, deadline=None)
def test_minimal_generators_of_generated_semigroups(gens, p):
    try:
        s = from_generators(gens, p)
    except (NonCoprimeGenerators, PNotInSemigroup):
        return
    assert s.minimal_generators() == _decomposition_generators(s)
    assert set(s.minimal_generators()) <= set(gens) | {p}


@given(
    gens=st.sets(st.integers(min_value=2, max_value=25), min_size=2, max_size=4),
    where=st.sampled_from(("below", "least", "above", "past")),
    offset=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=200, deadline=None)
def test_from_generators_with_independent_p(gens, where, offset):
    import math
    from functools import reduce

    if reduce(math.gcd, gens) != 1:
        return
    least, top = min(gens), max(gens)
    p = {
        "below": 3 + offset % max(1, least - 3),
        "least": least,
        "above": least + 1 + offset,
        "past": top + 1 + offset,
    }[where]
    if p < 3:
        return
    if not oracles.sieve_members(gens, p)[p]:
        with pytest.raises(PNotInSemigroup):
            from_generators(gens, p)
        return
    assert list(from_generators(gens, p).apery_elements()) == oracles.sieve_apery(gens, p)


def test_huge_generator_is_exact_at_once():
    q = 10**12 + 1
    s = from_generators({3, q}, 3)
    assert s.mu == (666666666667, 333333333333)
    assert s.minimal_generators() == (3, q)
    assert containment_caps(3, q) == s.mu


def test_semigroup_is_a_frozen_value():
    s = Semigroup(3, (1, 1))
    check_record(s, Semigroup(p=3, mu=[1, 1]), Semigroup(3, (1, 2)), (3, (1, 1)), "Semigroup(p=3, mu=(1, 1))")
    trusted = Semigroup._trusted(3, (1, 1))
    assert trusted == s and hash(trusted) == hash(s) and repr(trusted) == repr(s)


@pytest.mark.parametrize(
    "p,mu,message",
    [
        (2, (1,), "p must be at least 3"),
        (4, (1, 1), "mu must have 3 entries"),
        (3, (1, -1), "mu entries must be nonnegative"),
        (3, (0, 2), "mu=(0, 2) violates the coordinate inequalities"),
    ],
)
def test_semigroup_validation_messages(p, mu, message):
    with pytest.raises(ValueError) as err:
        Semigroup(p, mu)
    assert str(err.value) == message
