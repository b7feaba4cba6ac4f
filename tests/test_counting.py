import inspect
import math
import os
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import polygon_oracle
from nsg import (
    NotCoprime,
    count_by_genus,
    count_containing,
    enumerate_by_genus,
    genus_count_series,
)
from nsg import cli, closed_forms, counting
from nsg.cone import build_cone
from nsg.core import Semigroup, _is_pseudo_symmetric_mu, _is_symmetric_mu
from nsg.counting import containment_caps, genus_window
from oracles import cumulative_by_genus, verify_interior_identity, verify_medim_identity
from record_checks import check_record


def test_enumerate_small_slices():
    assert len(enumerate_by_genus(3, 7)) == 3
    assert len(enumerate_by_genus(4, 6)) == 7
    only = enumerate_by_genus(5, 0)
    assert len(only) == 1 and only[0].mu == (0, 0, 0, 0)


def test_enumerate_is_lexicographic_and_filtered():
    slice7 = enumerate_by_genus(3, 7)
    mus = [s.mu for s in slice7]
    assert mus == sorted(mus)
    sym = enumerate_by_genus(3, 7, "sym")
    assert len(sym) == 1 and sym[0].is_symmetric()
    assert enumerate_by_genus(3, 2)[0].mu == (1, 1)


def test_count_by_genus_examples():
    assert count_by_genus(4, 8) == 10
    assert count_by_genus(4, 8, "medim") == 5
    assert count_by_genus(3, 8, "sym") == 0
    assert count_by_genus(3, 0) == 1


def test_counts_match_enumeration():
    for p in (3, 4, 5):
        for g in range(9):
            for cls in ("all", "sym", "psym", "medim"):
                assert count_by_genus(p, g, cls) == len(enumerate_by_genus(p, g, cls))


def test_genus_series_matches_pointwise_counts():
    for p in (3, 4, 5):
        for cls in ("all", "sym", "psym", "medim"):
            series = genus_count_series(p, 10, cls)
            assert series == [count_by_genus(p, g, cls) for g in range(11)]


def test_cumulative_by_genus():
    assert cumulative_by_genus(3, 2) == 3
    assert cumulative_by_genus(3, 0) == 1
    assert cumulative_by_genus(4, 4) == 1 + 1 + 2 + 3 + 4


def test_count_containing_examples():
    assert count_containing(3, 10) == 14
    assert count_containing(4, 15, "psym") == 7
    assert count_containing(3, 1) == 1


def test_count_containing_validates():
    with pytest.raises(NotCoprime):
        count_containing(3, 9)
    with pytest.raises(ValueError):
        count_containing(3, 0)
    with pytest.raises(ValueError):
        count_containing(3, 4, "weird")


def test_containment_caps_are_two_generator_class_minima():
    assert containment_caps(3, 10) == (3, 6)  # class minima 10 and 20 of <3,10>
    assert containment_caps(3, 1) == (0, 0)
    caps = containment_caps(5, 29)
    assert caps == tuple(
        (h - i) // 5 for i, h in enumerate(oracles.sieve_apery((5, 29), 5), start=1)
    )


def test_count_containing_against_subset_oracle():
    for p, q in ((3, 4), (3, 5), (3, 7), (4, 5), (4, 7), (5, 6)):
        gapsets = oracles.brute_containing_gapsets(p, q)
        assert count_containing(p, q) == len(gapsets)
        sym = sum(1 for t in gapsets if not t or 2 * len(t) == max(t) + 1)
        psym = sum(1 for t in gapsets if t and 2 * len(t) == max(t) + 2)
        assert count_containing(p, q, "sym") == sym
        assert count_containing(p, q, "psym") == psym


def test_class_partition():
    for p, q in ((3, 14), (4, 13), (5, 12)):
        total = count_containing(p, q)
        sym = count_containing(p, q, "sym")
        psym = count_containing(p, q, "psym")
        neither = sum(
            1
            for s in _containing_semigroups(p, q)
            if not s.is_symmetric() and not s.is_pseudo_symmetric()
        )
        assert total == sym + psym + neither


def _containing_semigroups(p, q):
    return [Semigroup(p, mu) for mu in oracles.dfs_iter_points(p, containment_caps(p, q))]


def test_monotone_in_q():
    for p in (3, 4, 5):
        values = [
            count_containing(p, q)
            for q in range(1, 61)
            if math.gcd(p, q) == 1
        ]
        assert values == sorted(values)


def test_interior_identity():
    assert verify_interior_identity(3, 8)
    assert verify_interior_identity(4, 8)
    assert verify_interior_identity(5, 12)
    # below the shift the interior is empty
    for p in (3, 4, 5):
        series = genus_count_series(p, p - 2, "medim")
        assert all(v == 0 for v in series)


def test_medim_identity():
    assert count_containing(3, 14, "medim") == 16 == count_containing(3, 11)
    assert count_containing(4, 15, "medim") == 45 == count_containing(4, 11)
    assert verify_medim_identity(5, 30)


@pytest.mark.parametrize(
    "q,error",
    [(-1, "q must be positive"), (0, r"gcd\(6, 0\)"), (6, r"gcd\(6, 6\)"), (9, r"gcd\(6, 9\)")],
)
def test_medim_containment_checks_q_before_the_shift(q, error):
    # medim counts at q - p, but q itself is checked, with the errors of 'all'
    for cls in ("all", "medim"):
        with pytest.raises(ValueError, match=error):
            count_containing(6, q, cls)


def test_symmetric_plus_medim_splits_p3():
    # at p = 3 every semigroup is either symmetric or of maximal embedding
    # dimension, never both
    for q in range(1, 61):
        if math.gcd(3, q) != 1:
            continue
        assert count_containing(3, q) == count_containing(3, q, "medim") + count_containing(3, q, "sym")


def test_figure_counts_p3():
    sym = genus_count_series(3, 30, "sym")
    psym = genus_count_series(3, 30, "psym")
    for g in range(31):
        assert sym[g] == (0 if g % 3 == 2 else 1)
        if g > 0:
            assert psym[g] == (0 if g % 3 == 1 else 1)
    assert psym[0] == 0


def test_table_constructors():
    assert genus_count_series(4, 8) == [1, 1, 2, 3, 4, 5, 7, 8, 10]
    ct = {q: count_containing(3, q, "sym") for q in range(1, 15) if math.gcd(3, q) == 1}
    assert list(ct) == [1, 2, 4, 5, 7, 8, 10, 11, 13, 14]
    assert ct[14] == 8


# Walks small enough for the plain depth-first oracle: the containment caps
# of a coprime q, or a genus window low..high with low > 0.  They are large
# enough that x_{n-1} often ranges over more than SHORT_RANGE values, so that
# its polygon is counted in pieces, not by the loop.  From p = 7 up, some
# coefficient of that polygon folds several forms of one slope in x_{n-2}.
Q_MAX = {3: 400, 4: 120, 5: 60, 6: 40, 7: 28, 8: 25}
GENUS_MAX = {3: 80, 4: 45, 5: 40, 6: 20, 7: 14, 8: 12}
PREDICATES = {"sym": _is_symmetric_mu, "psym": _is_pseudo_symmetric_mu}


@st.composite
def walks(draw):
    p = draw(st.integers(3, 8))
    if draw(st.booleans()):
        q = draw(st.integers(1, Q_MAX[p]).filter(lambda q: math.gcd(p, q) == 1))
        caps = containment_caps(p, q)
        low, high = 0, sum(caps)
    else:
        high = draw(st.integers(1, GENUS_MAX[p]))
        low = draw(st.integers(1, high))
        caps = (high,) * (p - 1)
    return p, caps, low, high


@given(walks(), st.sampled_from(("sym", "psym")))
@settings(max_examples=120, deadline=None)
def test_walk_matches_plain_dfs(walk, cls):
    p, caps, low, high = walk
    plain = list(oracles.dfs_iter_points(p, caps, max_total=high))
    points = [mu for mu in plain if sum(mu) >= low]
    # count by sum, and in total
    series = oracles.dfs_sum_series(p, caps, high)
    assert counting._counted(p, caps, low, high, "all", False) == series[low:]
    assert counting._counted(p, caps, low, high, "all", True) == sum(series[low:])
    # filter by class
    kept = [mu for mu in points if PREDICATES[cls](p, mu)]
    by_class = counting._counted(p, caps, low, high, cls, False)
    assert by_class == [sum(1 for mu in kept if sum(mu) == g) for g in range(low, high + 1)]
    if low == 0:
        # count the whole walk
        assert counting._counted(p, caps, 0, high, "all", total=True) == oracles.dfs_count_points(
            p, caps
        )
    else:
        # test the fixed sum, at both ends of the window
        for g in (low, high):
            assert count_by_genus(p, g) == oracles.dfs_count_points(p, (g,) * (p - 1), target=g)


@given(st.integers(3, 8), st.data())
@settings(max_examples=80, deadline=None)
def test_medim_shift_matches_the_interior_walk(p, data):
    # 'medim' is 'all' moved by the all-ones vector; the plain depth-first walk
    # of the cone's interior checks the shift independently.
    high = data.draw(st.integers(0, GENUS_MAX[p] + p - 1))
    low = data.draw(st.integers(0, high))
    series = oracles.dfs_sum_series(p, (high,) * (p - 1), high, strict=True)
    assert genus_window(p, low, high, "medim") == series[low:]
    for g in (low, high):
        interior = oracles.dfs_iter_points(p, (g,) * (p - 1), target=g, strict=True)
        assert [s.mu for s in enumerate_by_genus(p, g, "medim")] == list(interior)
    drawn = data.draw(st.integers(1, Q_MAX[p]).filter(lambda q: math.gcd(p, q) == 1))
    for q in [q for q in range(1, p) if math.gcd(p, q) == 1] + [drawn]:
        expected = oracles.dfs_count_points(p, containment_caps(p, q), strict=True)
        assert count_containing(p, q, "medim") == expected


# The natural-order walk these are checked against is the slow one at
# q = -1 mod p: (8, 47) takes 3 s, so q stops lower at p = 7 and 8.
Q_ORDER_MAX = {3: 60, 4: 60, 5: 60, 6: 60, 7: 41, 8: 24}


@st.composite
def containments(draw):
    p = draw(st.integers(3, 8))
    r = draw(st.sampled_from([r for r in range(1, p) if math.gcd(p, r) == 1]))
    return p, draw(st.sampled_from(range(r, Q_ORDER_MAX[p] + 1, p)))


@given(containments())
@settings(max_examples=100, deadline=None)
def test_walk_in_q_order_counts_as_natural_order(pq):
    # count_containing walks the cone fixing the residues q, 2q, ... mod p in turn
    p, q = pq
    caps = containment_caps(p, q)
    natural = counting._counted(p, caps, 0, sum(caps), "all", total=True)
    assert counting._counted(p, caps, 0, sum(caps), "all", total=True, r=q % p) == natural
    assert count_containing(p, q) == natural


def test_q_order_walk_is_refused_where_natural_order_is_needed():
    # the reach row, which a count from low > 0 needs, holds only in natural order
    caps = containment_caps(7, 20)
    with pytest.raises(ValueError, match="natural order"):
        counting._walk(7, caps, 1, sum(caps), lambda *polygon: None, r=6)


@given(walks())
@settings(max_examples=60, deadline=None)
def test_least_completion_row_holds_at_every_point(walk):
    # x_{d+1}..x_n add at least r (x_d - 1) / 2 to the prefix x_1..x_d, with
    # r = n - d: the row _walk puts on x_d.
    p, caps, _, high = walk
    n = p - 1
    for mu in oracles.dfs_iter_points(p, caps, max_total=high):
        for d in range(1, n - 1):
            r = n - d
            assert 2 * sum(mu[: d - 1]) + (r + 2) * mu[d - 1] - r <= 2 * sum(mu)


@pytest.mark.parametrize(
    "window,prefixes", [((7, 37, 44), 1140), ((6, 55, 65), 334), ((5, 0, 239), 97)]
)
def test_walk_reaches_few_dead_prefixes(monkeypatch, window, prefixes):
    # Without the least-completion row the walk handed over 3,199, 1,440 and
    # 240 prefixes, of which 951, 288 and 97 have a point.
    walk_rows = counting._walk_rows
    ranges = []

    def recording(rows, v, total=None):
        for lo_hi in walk_rows(rows, v, total):
            ranges.append(lo_hi)
            yield lo_hi

    monkeypatch.setattr(counting, "_walk_rows", recording)
    genus_window(*window)
    assert len(ranges) == prefixes


@st.composite
def polygons(draw):
    """Raw bounds of _walk's polygon: B and C may be absent (far), F and G
    negative, K binding or not, and the range of x empty, one value or long."""
    lo = draw(st.integers(0, 20))
    xmax = lo + draw(st.integers(-2, 50))
    A, D = draw(st.integers(-3, 60)), draw(st.integers(0, 40))
    F, G = draw(st.integers(-40, 60)), draw(st.integers(-4, 4))
    K = draw(st.integers(-3, 150))
    far = max(A, K) + 1
    B = draw(st.just(far) | st.integers(-30, 40))
    C = draw(st.just(far) | st.integers(-60, 40))
    return lo, xmax, A, B, C, D, F, G, K


@given(polygons())
@settings(max_examples=400, deadline=None)
def test_polygon_pieces_match_points(polygon):
    lo, xmax, A, B, C, D, F, G, K = polygon
    points = [
        (x, y)
        for x in range(lo, xmax + 1)
        for y in range(D, A + 1)
        if y <= x + B and y <= 2 * x + C and y <= K - x and y >= F - x and 2 * y >= x + G
    ]
    columns = {}
    for x, y in points:
        columns.setdefault(x, []).append(y)
    assert list(polygon_oracle._columns(*polygon)) == [(x, ys[0], ys[-1]) for x, ys in columns.items()]
    # the pieces cover the x with points, each with its exact bound
    pieces = counting._pieces(*polygon)
    top, bottom = {}, {}
    if pieces is not None:
        xl, c, b, a, f, d, xr = pieces
        assert xl - 1 <= c <= b <= a <= xr and xl - 1 <= f <= d <= xr
        for x in range(xl, xr + 1):
            top[x] = 2 * x + C if x <= c else x + B if x <= b else A if x <= a else K - x
            bottom[x] = F - x if x <= f else D if x <= d else (x + G + 1) // 2
    assert top == {x: ys[-1] for x, ys in columns.items()}
    assert bottom == {x: ys[0] for x, ys in columns.items()}
    sums = [x + y for x, y in points] or [0]
    offset, size = -min(sums), max(sums) - min(sums) + 1
    by_sum = [sums.count(s - offset) for s in range(size)] if points else [0]
    # by pieces, and by the loop over x: the leaves read SHORT_RANGE when called
    for short, splits in ((-math.inf, 2), (math.inf, 0)):
        with mock.patch.object(counting, "SHORT_RANGE", short), \
                mock.patch.object(counting, "_pieces", wraps=counting._pieces) as split:
            assert counting._polygon_count(*polygon) == len(points)
            runs = [[0] * (size + 4) for _ in range(4)]
            counting._polygon_runs(runs, offset, *polygon)
            assert counting._fold_runs(runs, size) == by_sum
        assert split.call_count == splits


@given(polygons(), st.integers(0, 3))
@settings(max_examples=400, deadline=None)
def test_polygon_leaves_match_run_lists(polygon, offset):
    # Against the leaves that listed each bound's runs of x before counting.
    lo, xmax, A, B, C, D, F, G, K = polygon
    tops, bottoms = [], []
    pieces = counting._pieces(*polygon)
    if pieces is not None:
        xl, c, b, a, f, d, xr = pieces
        for out, ends in (
            (tops, ((c, 2, C), (b, 1, B), (a, 0, A), (xr, -1, K))),
            (bottoms, ((f, -2, 2 * F), (d, 0, 2 * D), (xr, 1, G))),
        ):
            start = xl
            for end, slope, b0 in ends:
                if end >= start:
                    out.append((start, end, slope, b0))
                    start = end + 1
    assert (tops, bottoms) == polygon_oracle._polygon(*polygon)
    size = 200  # past every sum of a point, plus offset
    for short in (-math.inf, math.inf):
        with mock.patch.object(counting, "SHORT_RANGE", short), \
                mock.patch.object(polygon_oracle, "SHORT_RANGE", short):
            assert counting._polygon_count(*polygon) == polygon_oracle._polygon_count(*polygon)
            runs, expected = ([[0] * (size + 4) for _ in range(4)] for _ in range(2))
            counting._polygon_runs(runs, offset, *polygon)
            polygon_oracle._polygon_runs(expected, offset, *polygon)
            assert counting._fold_runs(runs, size) == counting._fold_runs(expected, size)


@given(st.integers(1, 400), st.sampled_from(("all", "medim")))
@settings(max_examples=60, deadline=None)
def test_long_containment_walks_match_closed_forms(q, cls):
    # medim at q counts what all counts at q - p
    shift = 0 if cls == "all" else 1
    if math.gcd(3, q) == 1 and q > 3 * shift:
        assert count_containing(3, q, cls) == closed_forms.containing_count_3(q - 3 * shift)
    if q % 2 and q > 4 + 4 * shift:
        step = count_containing(4, q, cls) - count_containing(4, q - 4, cls)
        assert step == closed_forms.containing_step_4(q - 4 * shift)


@given(st.integers(0, 260), st.integers(0, 40))
@settings(max_examples=12, deadline=None)
def test_p5_genus_windows_match_closed_form(low, width):
    high = low + width
    expected = [closed_forms.genus_count_5(g) for g in range(low, high + 1)]
    assert genus_window(5, low, high) == expected
    # medim at genus g counts what all counts at g - (p - 1)
    assert genus_window(5, low, high, "medim") == [
        closed_forms.genus_count_5(g - 4) if g >= 4 else 0 for g in range(low, high + 1)
    ]


def test_genus_windows_match_oracle_slices():
    slices = [list(oracles.dfs_iter_points(5, (g,) * 4, target=g)) for g in range(6, 15)]
    assert genus_window(5, 6, 14, "all") == [len(s) for s in slices]
    psym = [sum(1 for mu in s if _is_pseudo_symmetric_mu(5, mu)) for s in slices]
    assert genus_window(5, 6, 14, "psym") == psym


def _flag(value):
    return str(value).lower()


def _row_of_methods(s):
    """The `nsg enumerate` row of s from the Semigroup methods, one call each."""
    gens = s.minimal_generators()
    return (
        s.p, ";".join(str(m) for m in s.mu), ";".join(str(v) for v in gens), s.genus(),
        s.frobenius() if any(s.mu) else "", s.multiplicity(), s.embedding_dimension(),
        _flag(s.is_symmetric()), _flag(s.is_pseudo_symmetric()),
        _flag(s.is_max_embedding_dimension()),
    )


def _row_by_definition(p, mu):
    """The `nsg enumerate` row of (p, mu) from its members alone.

    Every minimal generator and gap lies below max(w) + p for the Apéry
    elements w.  The generators are the nonzero members that are no sum of
    two nonzero members (a bit set of the sums), they give the gaps again
    through oracles.sieve_gaps, and the classes are tested by definition.
    """
    w = [i + m * p for i, m in enumerate(mu, start=1)]
    bound = max(w) + p
    member = [n % p == 0 or n >= w[n % p - 1] for n in range(bound + 1)]
    nonzero = [n for n in range(1, bound + 1) if member[n]]
    sums, bits = 0, sum(1 << n for n in nonzero)
    for a in nonzero:
        sums |= bits << a
    gens = [n for n in nonzero if not sums >> n & 1]
    gaps = [n for n in range(bound + 1) if not member[n]]
    assert oracles.sieve_gaps(gens) == gaps
    f = gaps[-1] if gaps else -1
    mirrored = [member[x] != member[f - x] for x in range(f + 1)]
    return (
        p, ";".join(map(str, mu)), ";".join(map(str, gens)), len(gaps), f if gaps else "",
        nonzero[0], len(gens), _flag(all(mirrored)),
        _flag(f % 2 == 0 and not member[f // 2] and mirrored.count(False) == 1),
        _flag(nonzero[0] == len(gens) == p),
    )


@pytest.mark.parametrize("p", [3, 4, 5, 6, 7, 8])
def test_enumerate_walks_each_class_directly(p):
    # 'all' and 'medim' list the hyperplane section sum(x) = g, 'sym' and
    # 'psym' their loci, each in the oracle's order; the rows of `nsg
    # enumerate` (one pass per point) hold what the Semigroup methods and
    # the definitions give
    cone = build_cone(p)
    keep = {
        "all": lambda mu: True,
        "medim": cone.strictly_contains,
        "sym": lambda mu: _is_symmetric_mu(p, mu),
        "psym": lambda mu: _is_pseudo_symmetric_mu(p, mu),
    }
    for g in range(GENUS_MAX[p] + 1):
        points = list(oracles.dfs_iter_points(p, (g,) * (p - 1), target=g))
        by_definition = {mu: _row_by_definition(p, mu) for mu in points}
        for cls, test in keep.items():
            listed = enumerate_by_genus(p, g, cls)
            assert [s.mu for s in listed] == [mu for mu in points if test(mu)]
            assert listed == [Semigroup(p, s.mu) for s in listed]
            rows = list(cli._enumerate_rows(p, [g], cls))
            assert rows == [_row_of_methods(s) for s in listed]
            assert rows == [by_definition[s.mu] for s in listed]


@pytest.mark.parametrize("p", [12, 17, 24, 40])
def test_genus_listings_past_p8(p):
    # For p >= 2g every semigroup of genus g holds p, so the slices have
    # OEIS A007323's sizes; the section walk files its x_n rows over many
    # levels only at large p
    sizes = []
    for g in range(6):
        points = list(oracles.dfs_iter_points(p, (g,) * (p - 1), target=g))
        assert list(counting.genus_points(p, g)) == points
        rows = list(cli._enumerate_rows(p, [g], "all"))
        assert rows == [_row_by_definition(p, mu) for mu in points]
        sizes.append(len(points))
    assert sizes == [1, 1, 2, 4, 7, 12]


@given(walks(), st.sampled_from(("sym", "psym")))
@settings(max_examples=150, deadline=None)
def test_locus_walk_matches_class_filter(walk, cls):
    p, caps, low, high = walk
    kept = oracles.filter_class_points(p, caps, low, high, cls)
    by_sum = [sum(1 for mu in kept if sum(mu) == g) for g in range(low, high + 1)]
    loci = counting._class_loci(p, cls)
    assert counting._counted(p, caps, low, high, cls, False) == by_sum
    assert counting._counted(p, caps, low, high, cls, True) == len(kept)
    walked = []
    for locus in loci:
        v = [0] * len(locus.rows)
        walked += counting._points(locus.forms, counting._locus_ranges(locus, caps, low, high, v), v)
    assert sorted(walked) == kept


@pytest.mark.parametrize("p", range(3, 11))
def test_trivial_semigroup_is_symmetric_only(p):
    # The origin also solves a 'psym' locus equation system; x_k >= 1 excludes it.
    assert count_by_genus(p, 0, "sym") == 1
    assert count_by_genus(p, 0, "psym") == 0
    assert enumerate_by_genus(p, 0, "psym") == []


@pytest.mark.parametrize(
    "p,g_max,formula",
    [
        (4, 300, closed_forms.symmetric_genus_count_4),
        (5, 400, closed_forms.symmetric_genus_count_5),
    ],
)
def test_symmetric_series_matches_closed_form(p, g_max, formula):
    assert genus_count_series(p, g_max, "sym") == [formula(g) for g in range(g_max + 1)]


def test_large_p_needs_no_frame_per_coordinate():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        assert genus_window(120, 0, 3) == [1, 1, 2, 4]
        assert genus_window(120, 0, 3, "medim") == [0, 0, 0, 0]
        assert genus_window(120, 119, 122, "medim") == [1, 1, 2, 4]
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("cls,expected", [("sym", 100002), ("psym", 100000)])
def test_class_totals_allocate_nothing_per_sum(cls, expected):
    count_containing(3, 7, cls)  # build the loci before tracing
    tracemalloc.start()
    try:
        assert count_containing(3, 200002, cls) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize(
    "count,args",
    [
        pytest.param(count, args, id="-".join(map(str, (count.__name__,) + args)))
        for count, args in [
            (count_containing, (3, 30001)),
            (genus_window, (3, 0, 40)),
            *((count_containing, (p, q, cls)) for p, q in ((6, 47), (7, 31)) for cls in ("sym", "psym")),
            *((genus_window, (p, 0, 20, cls)) for p in (6, 7) for cls in ("sym", "psym")),
            *((count_containing, (6, 47, cls)) for cls in ("all", "medim")),
            *((genus_window, (5, 6, 14, cls)) for cls in counting.CLASS_FILTERS),
        ]
    ],
)
def test_classes_and_p3_count_in_one_process(monkeypatch, count, args):
    # every class counts in this process, whatever --workers the CLI was given
    serial = count(*args)
    _forbid_fork(monkeypatch)
    assert count(*args) == serial


def _forbid_fork(monkeypatch):
    """Fail the test at any fork: every count runs in this process."""

    def fork():
        raise AssertionError("a count forked a process")

    monkeypatch.setattr(os, "fork", fork, raising=False)


def test_class_counts_start_no_process(monkeypatch):
    serial = {cls: count_containing(6, 47, cls) for cls in ("sym", "psym")}
    _forbid_fork(monkeypatch)
    for cls in ("sym", "psym"):
        assert count_containing(6, 47, cls) == serial[cls]


def test_locus_is_a_frozen_value():
    locus = counting._class_loci(3, "sym")[0]
    forms = ((((0, 2),), 1), (((0, 1),), 0))
    rows = (((2, (), 1), (1, (), 0), (3, (), 2)),)
    check_record(
        locus,
        counting._Locus(forms, rows, 3, 1),
        counting._Locus(forms, rows, 3, 0),
        (forms, rows, 3, 1),
        "_Locus(forms=((((0, 2),), 1), (((0, 1),), 0)), "
        "rows=(((2, (), 1), (1, (), 0), (3, (), 2)),), slope=3, offset=1)",
    )
