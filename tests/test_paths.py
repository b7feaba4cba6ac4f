import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import row_walk_oracle
from nsg import (
    LatticePath,
    NotAdmissible,
    NotAGap,
    NotContainingQ,
    NotCoprime,
    PathSystem,
    PointOutsideTriangle,
    count_admissible,
    count_containing,
    from_generators,
    is_admissible,
    iter_admissible,
    path_from_semigroup,
    semigroup_from_path,
    verify_path_recursions,
)
from nsg import counting
from nsg.core import _is_pseudo_symmetric_mu, _is_symmetric_mu
from nsg.paths import (
    PathRecursionReport,
    RecursionRow,
    _iter_admissible_heights,
    _semigroup_from_heights,
)
from record_checks import check_record


def test_system_canonicalizes_order():
    sys32 = PathSystem(3, 2)
    assert (sys32.p, sys32.q) == (2, 3)
    with pytest.raises(ValueError):
        PathSystem(3, 3)
    with pytest.raises(NotCoprime):
        PathSystem(3, 9)


def test_triangle_size():
    for p, q in ((3, 4), (3, 7), (4, 7), (4, 9), (5, 7)):
        system = PathSystem(p, q)
        assert len(system.triangle_points()) == (p - 1) * (q - 1) // 2


def test_gap_point_examples():
    s34 = PathSystem(3, 4)
    assert s34.gap_of_point(0, 0) == 5
    assert PathSystem(4, 7).gap_of_point(0, 2) == 3
    assert sorted(s34.gap_of_point(a, b) for a, b in s34.triangle_points()) == (
        oracles.sieve_gaps((3, 4))
    )


def test_gap_point_bijection():
    for p, q in ((3, 4), (3, 7), (4, 9), (5, 7)):
        system = PathSystem(p, q)
        for a, b in system.triangle_points():
            gap = system.gap_of_point(a, b)
            assert system.point_of_gap(gap) == (a, b)
        for gap in oracles.sieve_gaps((p, q)):
            a, b = system.point_of_gap(gap)
            assert system.gap_of_point(a, b) == gap


def test_gap_point_errors():
    system = PathSystem(3, 4)
    with pytest.raises(PointOutsideTriangle):
        system.gap_of_point(2, 0)
    with pytest.raises(PointOutsideTriangle):
        system.gap_of_point(-1, 0)
    with pytest.raises(NotAGap):
        system.point_of_gap(3)
    with pytest.raises(NotAGap):
        system.point_of_gap(4)  # a member of <3, 4>
    with pytest.raises(NotAGap):
        system.point_of_gap(17)


def test_lattice_path_shapes():
    empty = LatticePath.from_heights(())
    assert empty.is_empty and empty.corners == ()
    single = LatticePath.from_heights((1,))
    assert single.corners == ((0, 0),)
    tall = LatticePath.from_heights((3,))
    assert tall.corners == ((0, 2), (0, 0))
    steps = LatticePath.from_heights((2, 2, 1))
    assert steps.corners == ((0, 1), (1, 1), (2, 0))
    assert steps.heights() == (2, 2, 1)
    assert len(steps.points) == 5
    with pytest.raises(ValueError):
        LatticePath.from_heights((1, 2))


def _traced_path(heights):
    """The staircase of heights traced point by point: the top of every
    column where the next one is lower is a corner, after the start and
    before the end on the X axis."""
    hs = list(heights)
    while hs and hs[-1] == 0:
        hs.pop()
    if not hs:
        return (), frozenset()
    points = frozenset((a, b) for a, h in enumerate(hs) for b in range(h))
    corners = [(0, hs[0] - 1)]
    for a, h in enumerate(hs):
        if (a + 1, h - 1) not in points and (a, h - 1) != corners[-1]:
            corners.append((a, h - 1))
    if corners[-1] != (len(hs) - 1, 0):
        corners.append((len(hs) - 1, 0))
    return tuple(corners), points


@given(st.lists(st.integers(0, 6), max_size=12))
@settings(max_examples=300, deadline=None)
def test_from_heights_matches_the_traced_staircase(heights):
    ordered = sorted(heights, reverse=True)
    path = LatticePath.from_heights(ordered)
    assert (path.corners, path.points) == _traced_path(ordered)
    assert repr(path) == repr(LatticePath(*_traced_path(ordered)))
    trimmed = list(heights)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    if trimmed != ordered[: len(trimmed)]:
        error = "interior zero column" if 0 in trimmed else "non-increasing"
        with pytest.raises(ValueError, match=error):
            LatticePath.from_heights(heights)


def test_empty_path_is_admissible_and_gives_base_semigroup():
    system = PathSystem(3, 5)
    empty = LatticePath.from_heights(())
    assert is_admissible(system, empty)
    assert semigroup_from_path(system, empty).mu == from_generators({3, 5}, 3).mu


def test_full_triangle_path_gives_full_semigroup():
    system = PathSystem(3, 4)
    full = LatticePath.from_heights((2, 1))
    assert is_admissible(system, full)
    assert semigroup_from_path(system, full).mu == (0, 0)


def test_single_closed_gap():
    system = PathSystem(3, 5)
    path = LatticePath.from_heights((1,))
    s = semigroup_from_path(system, path)
    assert s.mu == from_generators({3, 5, 7}, 3).mu
    assert path_from_semigroup(system, s) == path


def test_admissibility_matches_brute_force():
    for p, q in ((3, 4), (3, 7), (4, 7), (5, 6)):
        system = PathSystem(p, q)
        caps = system.column_caps()
        brute = set(oracles.brute_admissible_profiles(p, q, caps))
        for profile in oracles.staircase_profiles(caps):
            if not profile:
                continue
            path = LatticePath.from_heights(profile)
            assert is_admissible(system, path) == (profile in brute)
        assert set(_iter_admissible_heights(system)) == brute


def test_admissible_paths_give_semigroups_and_back():
    for p, q in ((3, 4), (3, 5), (4, 7), (5, 7)):
        system = PathSystem(p, q)
        seen = set()
        for path in iter_admissible(system):
            s = semigroup_from_path(system, path)
            assert s.contains(q)
            assert path_from_semigroup(system, s) == path
            seen.add(s.mu)
        assert len(seen) == count_admissible(system)


def test_inadmissible_path_rejected():
    system = PathSystem(3, 4)
    bad = LatticePath.from_heights((1, 0, 0))  # trailing zeros: same as (1,)
    assert not bad.is_empty
    crooked = LatticePath.from_heights((2,))
    assert not is_admissible(system, crooked)
    with pytest.raises(NotAdmissible):
        semigroup_from_path(system, crooked)


def test_path_from_semigroup_validates():
    system = PathSystem(3, 5)
    with pytest.raises(NotContainingQ):
        path_from_semigroup(system, from_generators({3, 4}, 3))  # 5 is a gap
    with pytest.raises(ValueError):
        path_from_semigroup(system, from_generators({4, 5}, 4))


def test_count_admissible_examples():
    assert count_admissible(PathSystem(3, 4)) == 3
    assert count_admissible(PathSystem(4, 7)) == 16
    assert count_admissible(PathSystem(3, 7)) == 7
    assert count_admissible(PathSystem(3, 2)) == 1
    assert count_admissible(PathSystem(5, 1)) == 0  # only the base semigroup


@pytest.mark.parametrize("p", [3, 4, 5])
def test_path_count_matches_containment_count(p):
    for q in range(1, 41):
        if q == p or math.gcd(p, q) != 1:
            continue
        system = PathSystem(p, q)
        assert count_admissible(system) + 1 == count_containing(p, q)


def test_monotone_in_q_and_p():
    for p in (3, 4, 5):
        values = [
            count_admissible(PathSystem(p, q))
            for q in range(p + 1, 41)
            if math.gcd(p, q) == 1
        ]
        assert values == sorted(values)
    # increasing in p as well, along a shared coprime q
    assert count_admissible(PathSystem(3, 7)) <= count_admissible(PathSystem(4, 7))
    assert count_admissible(PathSystem(4, 7)) <= count_admissible(PathSystem(5, 7))


def test_recursion_report_p3():
    report = verify_path_recursions(3, 30)
    assert report.ok
    for row in report.rows:
        assert row.new_total == row.q // 2  # paths along the bottom row


def test_recursion_new_path_start_heights():
    system = PathSystem(4, 9)
    starts = {heights[0] for heights in _iter_admissible_heights(system, h0_max=2)}
    assert starts <= {1, 2}
    full = {heights[0] for heights in _iter_admissible_heights(system)}
    assert 3 in full


def test_bottom_row_family_p4():
    # paths from (0,1) over (j,1) down to (q'+i,0): their semigroups have the
    # explicit four-generator form, and the symmetric count follows the
    # residue of q mod 6
    for q in (7, 9, 11):
        qp = (q - 1) // 2
        system = PathSystem(4, q)
        expected_sym = (q - 1) // 6 + (0 if q % 6 == 1 else 1)
        sym = 0
        count = 0
        for i in range(0, (q - 1) // 6 + 1):
            for j in range(2 * i, qp - i):
                heights = tuple(2 if a <= j else 1 for a in range(qp + i + 1))
                path = LatticePath.from_heights(heights)
                assert is_admissible(system, path)
                s = semigroup_from_path(system, path)
                gens = {4, q, 2 * q - 4 * (j + 1), 3 * q - 4 * (qp + i + 1)}
                assert s.mu == from_generators(gens, 4).mu
                count += 1
                sym += s.is_symmetric()
                assert not s.is_pseudo_symmetric() or (i == 0 and j == 0)
        assert sym == expected_sym
        assert count == sum(qp - 3 * i for i in range(0, (q - 1) // 6 + 1))


def test_rectangle_family_p4():
    # staircases within the two-row box of width (q-1)/2 are all admissible;
    # exactly (q-1)/2 are symmetric and exactly one is pseudo-symmetric
    for q in (7, 9, 11):
        qp = (q - 1) // 2
        system = PathSystem(4, q)
        inside = []
        for heights in _iter_admissible_heights(system):
            if len(heights) <= qp and all(h <= 2 for h in heights):
                inside.append(heights)
        assert len(inside) == (2 + qp) * (1 + qp) // 2 - 1
        box_profiles = [
            t
            for t in oracles.staircase_profiles((2,) * qp)
            if t and all(h <= 2 for h in t)
        ]
        assert len(box_profiles) == len(inside)  # every box staircase admissible
        sems = [_semigroup_from_heights(system, h) for h in inside]
        assert sum(s.is_symmetric() for s in sems) == qp
        assert sum(s.is_pseudo_symmetric() for s in sems) == 1


@pytest.mark.parametrize("p", [4, 5])
def test_recursions_generic(p):
    assert verify_path_recursions(p, 25).ok


@st.composite
def systems_and_h0(draw):
    p = draw(st.integers(1, 7))
    q = draw(st.integers(1, 40).filter(lambda q: q != p and math.gcd(p, q) == 1))
    h0_max = draw(st.one_of(st.none(), st.integers(-1, p + 1)))
    return PathSystem(p, q), h0_max


@settings(max_examples=60, deadline=None)
@given(systems_and_h0())
def test_face_listing_matches_the_row_and_column_walks(case):
    system, h0_max = case
    yielded = list(_iter_admissible_heights(system, h0_max))
    assert len(yielded) == len(set(yielded))
    assert set(yielded) == set(row_walk_oracle._iter_admissible_heights(system, h0_max))
    assert set(yielded) == set(oracles.column_walk_heights(system, h0_max))
    if h0_max is None:
        assert count_admissible(system) == len(yielded)
    if system.p >= 3:
        # closing gaps one at a time is slow: above q = 30, check at most
        # about 2,000 paths
        step = 1 if system.q <= 30 else len(yielded) // 2000 + 1
        for heights in [(), *yielded[::step]]:
            s = _semigroup_from_heights(system, heights)
            assert s.mu == oracles.gap_closure_mu(system, heights)


@pytest.mark.parametrize("p", range(1, 8))
def test_face_listing_edge_heights(p):
    # h0 <= -1 or 0 leaves no row to fill, so every coordinate sits at its cap
    # and only the empty path is left; h0 <= p - 1 or more pins nothing
    for q in (1, 2 * p + 1, 3 * p + 2):
        if q == p or math.gcd(p, q) != 1:
            continue
        system = PathSystem(p, q)
        full = set(_iter_admissible_heights(system))
        for h0_max in (-3, -1, 0):
            assert list(_iter_admissible_heights(system, h0_max)) == []
        for h0_max in (system.p - 1, system.p, system.p + 4):
            assert set(_iter_admissible_heights(system, h0_max)) == full
        for h0_max in range(1, system.p - 1):
            assert max(heights[0] for heights in _iter_admissible_heights(system, h0_max)) == h0_max


def test_face_pins_the_coordinates_of_the_empty_rows(monkeypatch):
    # h0 <= h0_max pins the residues t q mod p, t = 1..p-1-h0_max, and never 0
    seen = []
    face_ranges = counting._face_ranges

    def recording(p, caps, free, v, total=None):
        seen.append((p, tuple(caps), tuple(free)))
        return face_ranges(p, caps, free, v, total)

    monkeypatch.setattr(counting, "_face_ranges", recording)
    system = PathSystem(7, 24)
    caps = counting.containment_caps(7, 24)
    for h0_max in (-1, 0, 1, 3, 5, 6, 9, None):
        seen.clear()
        list(_iter_admissible_heights(system, h0_max))
        rows = 6 if h0_max is None else min(max(h0_max, 0), 6)
        if rows == 0:
            assert seen == []
            continue
        [(p, face_caps, free)] = seen
        assert free == tuple(t * 24 % 7 for t in range(7 - rows, 7))
        assert 0 not in free and len(set(free)) == rows
        # only the cap of row 1's residue moves: it leaves out <7, 24>
        assert [c - f for c, f in zip(caps, face_caps)] == [int(i == -24 % 7) for i in range(1, 7)]


@pytest.mark.parametrize("p", range(1, 8))
def test_count_admissible_matches_the_row_walk(p):
    # count_admissible counts through the cone from p = 3 on and in closed
    # form below; the row-width walk stays its check
    for q in range(1, 41):
        if q == p or math.gcd(p, q) != 1:
            continue
        system = PathSystem(p, q)
        walked = sum(len(last) for _, last in row_walk_oracle._walk_rows(system))
        assert count_admissible(system) == walked


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_recursion_classes_from_widths_match_the_semigroups(p):
    # verify_path_recursions reads sym and psym off the face's points; the
    # new paths are those with h0 <= p - 2
    report = verify_path_recursions(p, 2 * p + 13)
    assert [row.q for row in report.rows] == [
        q for q in range(p + 1, 2 * p + 14) if math.gcd(p, q) == 1
    ]
    for row in report.rows:
        system = PathSystem(p, row.q)
        listed = row_walk_oracle._iter_admissible_heights(system, p - 2)
        sems = [_semigroup_from_heights(system, h) for h in listed]
        assert row.new_total == len(sems)
        assert row.new_symmetric == sum(_is_symmetric_mu(p, s.mu) for s in sems)
        assert row.new_pseudo == sum(_is_pseudo_symmetric_mu(p, s.mu) for s in sems)


def test_row_walk_counts_a_large_triangle():
    # 1,320,645 staircases: counting them must not build one tuple each
    assert count_admissible(PathSystem(7, 60)) + 1 == count_containing(7, 60) == 1320646


def _triangle_scan_path(system, s):
    """Staircase of the triangle points whose gaps s contains, point by point.

    The scan that path_from_semigroup replaced, kept as its reference.
    """
    columns = {}
    for a, b in system.triangle_points():
        if s.contains(system.gap_of_point(a, b)):
            columns.setdefault(a, set()).add(b)
    heights = []
    for a in range(max(columns, default=-1) + 1):
        rows = columns.get(a, set())
        assert rows == set(range(len(rows))), "closed gaps do not form a staircase"
        heights.append(len(rows))
    return LatticePath.from_heights(heights)


def _coprime_pairs(q_max):
    return [
        (p, q) for p in range(3, 8) for q in range(p + 1, q_max + 1) if math.gcd(p, q) == 1
    ]


@pytest.mark.parametrize("p,q", _coprime_pairs(16))
def test_path_from_semigroup_matches_triangle_scan(p, q):
    # every semigroup containing p and q
    system = PathSystem(p, q)
    for heights in [(), *_iter_admissible_heights(system)]:
        s = _semigroup_from_heights(system, heights)
        assert path_from_semigroup(system, s) == _triangle_scan_path(system, s)


@given(
    pq=st.sampled_from(_coprime_pairs(40)),
    extra=st.sets(st.integers(min_value=1, max_value=80), max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_path_from_semigroup_matches_triangle_scan_drawn(pq, extra):
    p, q = pq
    system = PathSystem(p, q)
    s = from_generators({p, q, *extra}, p)
    assert path_from_semigroup(system, s) == _triangle_scan_path(system, s)


def test_path_records_are_frozen_values():
    check_record(PathSystem(7, 3), PathSystem(q=7, p=3), PathSystem(3, 8), (3, 7), "PathSystem(p=3, q=7)")
    path = LatticePath.from_heights([2, 1])
    corners, points = ((0, 1), (1, 0)), frozenset({(0, 0), (0, 1), (1, 0)})
    check_record(
        path,
        LatticePath(corners, points),
        LatticePath.from_heights([2]),
        (corners, points),
        "LatticePath(corners=((0, 1), (1, 0)), points=frozenset({(0, 1), (1, 0), (0, 0)}))",
    )
    report = verify_path_recursions(3, 7)
    row = report.rows[0]
    fields = (4, 2, 1, 1, True, True, True)
    check_record(
        row,
        RecursionRow(*fields),
        RecursionRow(*fields[:-1], False),
        fields,
        "RecursionRow(q=4, new_total=2, new_symmetric=1, new_pseudo=1, "
        "total_ok=True, symmetric_ok=True, pseudo_ok=True)",
    )
    check_record(
        report,
        PathRecursionReport(3, report.rows),
        PathRecursionReport(3, report.rows[:1]),
        (3, report.rows),
        f"PathRecursionReport(p=3, rows=({row!r}, {report.rows[1]!r}, {report.rows[2]!r}))",
    )


@pytest.mark.parametrize(
    "p,q,error,message",
    [
        (0, 5, ValueError, "need two distinct positive elements"),
        (4, 4, ValueError, "need two distinct positive elements"),
        (6, 4, NotCoprime, "gcd(4, 6) != 1"),
    ],
)
def test_path_system_validation_messages(p, q, error, message):
    with pytest.raises(error) as err:
        PathSystem(p, q)
    assert str(err.value) == message
