from fractions import Fraction
from itertools import product

import pytest

import oracles
from nsg import (
    ConeModel,
    DimensionMismatch,
    EdgeSet,
    Semigroup,
    UnsupportedP,
    build_cone,
    edges_of_cone_star,
)
from nsg import counting
from nsg.cone import inequalities
from oracles import (
    dfs_iter_points,
    interior_shift_check,
    interior_shift_witness,
    rank,
    sigma_star_set,
)
from record_checks import check_record


def test_build_cone_p3():
    cone = build_cone(3)
    assert set(cone.inequalities) == {(1, 1, 2, 0), (2, 2, 1, -1)}
    assert cone.vertex == (Fraction(-1, 3), Fraction(-2, 3))


@pytest.mark.parametrize(
    "p,count", [(3, 2), (4, 4), (5, 8), (6, 12), (7, 18)]
)
def test_facet_counts(p, count):
    cone = build_cone(p)
    assert cone.facet_count == count
    expected = (p - 1) ** 2 // 2 if p % 2 else ((p - 1) ** 2 - 1) // 2
    assert cone.facet_count == expected


def test_vertex_saturates_every_inequality():
    for p in (3, 4, 5, 6, 7):
        cone = build_cone(p)
        v = cone.vertex
        for i, j, k, c in cone.inequalities:
            assert v[i - 1] + v[j - 1] - v[k - 1] == c


def test_membership_examples():
    cone = build_cone(3)
    assert cone.contains((2, 4))
    assert cone.contains((0, 0)) and not cone.strictly_contains((0, 0))
    assert cone.strictly_contains((1, 1))
    with pytest.raises(DimensionMismatch):
        cone.contains((1, 2, 3))


def test_interior_shift_identity():
    assert interior_shift_check(3, 6)
    assert interior_shift_check(4, 5)
    assert interior_shift_check(3, 1)
    assert interior_shift_witness(5, 3) is None
    with pytest.raises(ValueError):
        interior_shift_check(3, 0)


def test_edges_p3():
    assert edges_of_cone_star(3).rays == ((1, 2), (2, 1))


def test_edges_rejects_large_p():
    with pytest.raises(UnsupportedP):
        edges_of_cone_star(11)


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_edges_match_subset_search(p):
    assert edges_of_cone_star(p).rays == oracles.subset_search_edges(p)


# The 30 rays of ``nsg edges --p 7``, as the subset search found them.
EDGES_P7 = (
    (1, 2, 3, 4, 5, 6), (2, 4, 6, 1, 3, 5), (2, 4, 6, 8, 3, 5), (2, 4, 6, 8, 10, 5),
    (3, 6, 2, 5, 1, 4), (3, 6, 2, 5, 8, 4), (3, 6, 9, 5, 8, 4), (3, 6, 9, 12, 8, 4),
    (4, 1, 5, 2, 6, 3), (4, 8, 5, 2, 6, 3), (4, 8, 5, 2, 6, 10), (4, 8, 5, 9, 6, 3),
    (4, 8, 12, 9, 6, 3), (5, 3, 1, 6, 4, 2), (5, 3, 8, 6, 4, 2), (5, 3, 8, 6, 4, 9),
    (5, 10, 8, 6, 4, 2), (6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 8), (6, 5, 4, 3, 9, 8),
    (6, 5, 4, 10, 2, 8), (6, 12, 4, 3, 9, 8), (8, 2, 3, 4, 5, 6), (8, 2, 10, 4, 5, 6),
    (8, 9, 3, 4, 5, 6), (8, 9, 3, 4, 12, 6), (9, 4, 6, 8, 3, 5), (9, 4, 6, 8, 3, 12),
    (10, 6, 2, 5, 8, 4), (12, 3, 8, 6, 4, 9),
)


def test_edges_p7_pinned():
    assert len(EDGES_P7) == 30
    assert edges_of_cone_star(7).rays == EDGES_P7


@pytest.mark.parametrize("p,count", [(8, 47), (9, 122), (10, 225)])
def test_edge_counts_beyond_seven(p, count):
    # 47 at p = 8 matches a one-off run of oracles.subset_search_edges(8);
    # with test_edges_rejects_large_p this pins the supported range p <= 10.
    assert len(edges_of_cone_star(p).rays) == count


def _star_value(p, ray, ineq):
    i, j, k = ineq
    return ray[i - 1] + ray[j - 1] - ray[k - 1]


@pytest.mark.parametrize("p", [3, 4, 5, 6, 7, 8, 9])
def test_edges_are_primitive_boundary_rays(p):
    import math

    edges = edges_of_cone_star(p)
    ineqs = [(i, j, k) for i, j, k, _ in inequalities(p)]
    for ray in edges.rays:
        assert math.gcd(*ray) == 1
        values = [_star_value(p, ray, ineq) for ineq in ineqs]
        assert all(v >= 0 for v in values)
        active = []
        for ineq, v in zip(ineqs, values):
            if v == 0:
                i, j, k = ineq
                normal = [0] * (p - 1)
                normal[i - 1] += 1
                normal[j - 1] += 1
                normal[k - 1] -= 1
                active.append(normal)
        assert rank(active) == p - 2  # one-dimensional face


@pytest.mark.parametrize("p", [3, 4, 5, 6, 7])
def test_nonnegative_ray_combinations_stay_in_star_cone(p):
    edges = edges_of_cone_star(p)
    ineqs = [(i, j, k) for i, j, k, _ in inequalities(p)]
    rays = edges.rays
    for a in range(len(rays)):
        for b in range(a, len(rays)):
            for la, lb in ((1, 1), (2, 1), (1, 3), (2, 2)):
                point = tuple(la * x + lb * y for x, y in zip(rays[a], rays[b]))
                assert all(_star_value(p, point, ineq) >= 0 for ineq in ineqs)


@pytest.mark.parametrize("p", [3, 4, 5])
def test_small_star_points_lie_in_ray_span(p):
    # The rays are complete: every star point is a nonnegative combination
    # of them, and no point outside the star inequalities is one.
    edges = edges_of_cone_star(p)
    ineqs = [(i, j, k) for i, j, k, _ in inequalities(p)]
    outside = 0
    for x in product(range(5), repeat=p - 1):
        in_span = oracles.ray_span_contains(edges.rays, x)
        in_star = all(_star_value(p, x, ineq) >= 0 for ineq in ineqs)
        outside += not in_star
        assert in_star == in_span
    assert outside > 0


def test_star_cone_contained_in_cone():
    # the homogeneous system is tighter than the affine one
    for p in (3, 4, 5):
        cone = build_cone(p)
        ineqs = [(i, j, k) for i, j, k, _ in inequalities(p)]
        for x in product(range(4), repeat=p - 1):
            if all(_star_value(p, x, ineq) >= 0 for ineq in ineqs):
                assert cone.contains(x)


def test_sigma_star_p3():
    loci = sigma_star_set(3)
    assert [locus.sigma for locus in loci] == [(1, 2), (2, 1)]
    by_sigma = {locus.sigma: locus for locus in loci}
    # identity: doubling the second coordinate hits the first exactly
    assert by_sigma[(1, 2)].equations == ((2, 2, 1, 0),)
    # transposition: doubled first coordinate exceeds the second by one
    assert by_sigma[(2, 1)].equations == ((1, 1, 2, 1),)


def test_sigma_congruences_hold():
    for p in (3, 4, 5, 7):
        for locus in sigma_star_set(p):
            s = locus.sigma
            for i in range(1, p - 2):
                assert (s[i - 1] + s[p - 3 - i] - s[p - 3]) % p == 0
            assert (2 * s[p - 2] - s[p - 3]) % p == 0


def test_in_sigma_locus_examples():
    loci = {locus.sigma: locus for locus in sigma_star_set(3)}
    assert loci[(1, 2)].contains((2, 1))
    assert loci[(1, 2)].contains((0, 0))  # origin solves it, excluded elsewhere
    assert loci[(2, 1)].contains((1, 1))
    assert not loci[(2, 1)].contains((2, 1))
    with pytest.raises(DimensionMismatch):
        loci[(1, 2)].contains((1,))


@pytest.mark.parametrize("p", [3, 4, 5, 6, 7])
def test_pseudo_symmetric_locus_equivalence(p):
    # nonzero admissible vectors: pseudo-symmetric iff they solve some locus
    loci = sigma_star_set(p)
    for mu in dfs_iter_points(p, (10,) * (p - 1), max_total=10):
        if not any(mu):
            continue
        in_locus = any(locus.contains(mu) for locus in loci)
        assert in_locus == Semigroup(p, mu).is_pseudo_symmetric()


@pytest.mark.parametrize("p", [3, 4, 5, 6, 7])
def test_counting_psym_loci_match_sigma_loci(p):
    # counting builds its 'psym' loci directly, without the permutation
    # search, and lists each genus off them
    walked = {s.mu for g in range(11) for s in counting.enumerate_by_genus(p, g, "psym")}
    sigma = sigma_star_set(p)
    for mu in dfs_iter_points(p, (10,) * (p - 1), max_total=10):
        on_sigma = any(locus.contains(mu) for locus in sigma)
        # the origin solves the identity sigma locus but is not pseudo-symmetric
        assert (mu in walked) == (on_sigma and any(mu))


@pytest.mark.parametrize("p", [5, 7])
def test_pseudo_symmetric_loci_on_boundary(p):
    # for p > 3 every admissible locus point saturates some inequality
    cone = build_cone(p)
    hits = 0
    loci = sigma_star_set(p)
    for x in product(range(6), repeat=p - 1):
        if not cone.contains(x):
            continue
        if any(locus.contains(x) for locus in loci):
            hits += 1
            assert not cone.strictly_contains(x)
    assert hits > 0


@pytest.mark.parametrize("p", [3, 4, 5])
def test_genus_slice_bijection(p):
    # admissible vectors of coordinate sum g match the independent tree oracle
    from collections import Counter

    per_genus = Counter()
    for mu in dfs_iter_points(p, (12,) * (p - 1), max_total=12):
        per_genus[sum(mu)] += 1
    tree = oracles.tree_counts_containing_p(p, 12)
    for g in range(13):
        assert per_genus.get(g, 0) == tree[g]


def test_cone_records_are_frozen_values():
    cone = build_cone(3)
    check_record(
        cone,
        ConeModel(3, cone.inequalities, cone.vertex),
        build_cone(4),
        (3, cone.inequalities, cone.vertex),
        "ConeModel(p=3, inequalities=((1, 1, 2, 0), (2, 2, 1, -1)), "
        "vertex=(Fraction(-1, 3), Fraction(-2, 3)))",
    )
    rays = ((1, 2), (2, 1))
    check_record(
        edges_of_cone_star(3),
        EdgeSet(p=3, rays=rays),
        EdgeSet(3, rays[:1]),
        (3, rays),
        "EdgeSet(p=3, rays=((1, 2), (2, 1)))",
    )


def test_edge_set_refuses_a_ray_that_is_not_primitive():
    with pytest.raises(ValueError, match=r"^ray \(2, 4\) is not primitive$"):
        EdgeSet(3, ((1, 2), (2, 4)))
