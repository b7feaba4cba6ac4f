import inspect
import math
import os
import signal
import subprocess
import sys
import time
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
from nsg import closed_forms, counting
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
    from nsg.core import Semigroup
    from nsg.counting import _walk

    return [Semigroup(p, mu) for mu in _walk(p, containment_caps(p, q))]


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


def test_workers_do_not_change_counts():
    assert count_by_genus(4, 9, workers=2) == count_by_genus(4, 9)
    assert count_containing(3, 13, workers=2) == count_containing(3, 13)
    assert count_containing(4, 11, "sym", workers=2) == count_containing(4, 11, "sym")


def _stub_pool(monkeypatch, sizes, cpus, tasks=None):
    """Stand in for _fan_out: record the process count and tasks, count in-process."""

    def fan_out(shares, size):
        sizes.append(size)
        if tasks is not None:
            tasks.append(list(shares))
        return [counting._count_task(task) for task in shares]

    monkeypatch.setattr(counting, "_fan_out", fan_out)
    monkeypatch.setattr(counting.os, "cpu_count", lambda: cpus)


@pytest.mark.parametrize(
    "requested,cpus,pools",
    [(2, 2, [2]), (1000, 2, [2]), (1000, 64, [10]), (3, 64, [3]), (4, 1, []), (4, None, [])],
)
def test_pool_size_is_clamped(monkeypatch, requested, cpus, pools):
    # count_by_genus(4, 9) splits into 10 tasks, one per first coordinate 0..9
    sizes = []
    _stub_pool(monkeypatch, sizes, cpus)
    assert count_by_genus(4, 9, workers=requested) == count_by_genus(4, 9) == 12
    assert sizes == pools


@pytest.mark.parametrize(
    "count,cpus",
    [
        (lambda w: count_containing(4, 10001, workers=w), 2),
        (lambda w: count_containing(4, 100001, workers=w), 2),
        (lambda w: count_containing(5, 121, "medim", workers=w), 3),
        (lambda w: genus_window(5, 20, 60, workers=w), 2),
        (lambda w: genus_window(4, 0, 9, "medim", workers=w), 64),
    ],
)
def test_first_coordinate_splits_into_few_chunks(monkeypatch, count, cpus):
    # One task per value of x_1 would be 2,501 tasks for q = 10001 and
    # 25,001 for q = 100001; each process gets a few contiguous ranges.
    serial = count(1)
    sizes, tasks = [], []
    _stub_pool(monkeypatch, sizes, cpus, tasks)
    assert count(1000) == serial
    [size], [shares] = sizes, tasks
    assert len(shares) <= counting.CHUNKS_PER_PROCESS * size
    ranges = [task[-1] for task in shares]
    assert ranges[0][0] == 0 and all(a <= b for a, b in ranges)
    assert all(b + 1 == a for (_, b), (a, _) in zip(ranges, ranges[1:]))
    # every share alone is counted as the serial walk counts it
    one = [counting._count_task(task) for task in shares]
    if isinstance(serial, int):
        assert sum(one) == serial
    else:
        assert [sum(column) for column in zip(*one)] == serial


def test_two_workers_over_six_tasks_keep_two_processes(monkeypatch):
    # containment_caps(4, 21)[0] == 5: six values of x_1, so six tasks
    sizes = []
    _stub_pool(monkeypatch, sizes, 2)
    assert containment_caps(4, 21)[0] == 5
    assert count_containing(4, 21, workers=2) == count_containing(4, 21)
    assert sizes == [2]


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_rejected(workers):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        count_by_genus(4, 5, workers=workers)
    with pytest.raises(ValueError, match="workers must be at least 1"):
        count_containing(3, 7, workers=workers)


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
    strict = draw(st.booleans())
    first = None
    if p > 3 and draw(st.booleans()):  # at p = 3, x_1 is not split
        a = draw(st.integers(0, min(caps[0], high)))
        first = (a, draw(st.integers(a, min(caps[0], high))))
    return p, caps, low, high, strict, first


@given(walks(), st.sampled_from(("sym", "psym")))
@settings(max_examples=120, deadline=None)
def test_walk_matches_plain_dfs(walk, cls):
    p, caps, low, high, strict, first = walk
    a, b = first or (0, high)
    points = [
        mu
        for mu in oracles.dfs_iter_points(p, caps, max_total=high, strict=strict)
        if sum(mu) >= low and a <= mu[0] <= b
    ]
    # list the vectors
    assert counting._walk(p, caps, low, high, strict, first) == points
    # count by sum, and in total
    series = oracles.dfs_sum_series(p, caps, high, strict)
    task = (p, caps, low, high, "medim" if strict else "all", False, None)
    assert counting._count_task(task) == series[low:]
    assert counting._count_task(task[:-2] + (True, None)) == sum(series[low:])
    if first is not None:
        by_sum = [sum(1 for mu in points if sum(mu) == g) for g in range(low, high + 1)]
        assert counting._count_task(task[:-1] + (first,)) == by_sum
        assert counting._count_task(task[:-2] + (True, first)) == len(points)
    # filter by class
    plain = oracles.dfs_iter_points(p, caps, max_total=high)
    kept = [mu for mu in plain if sum(mu) >= low and PREDICATES[cls](p, mu)]
    by_class = counting._count_task((p, caps, low, high, cls, False, None))
    assert by_class == [sum(1 for mu in kept if sum(mu) == g) for g in range(low, high + 1)]
    if low == 0:
        # count the whole walk
        cls = "medim" if strict else "all"
        assert counting._counted(p, caps, 0, high, cls, 1, total=True) == oracles.dfs_count_points(
            p, caps, strict=strict
        )
    else:
        # test the fixed sum, at both ends of the window
        for g in (low, high):
            assert count_by_genus(p, g, "medim" if strict else "all") == oracles.dfs_count_points(
                p, (g,) * (p - 1), target=g, strict=strict
            )


@given(walks())
@settings(max_examples=60, deadline=None)
def test_least_completion_row_holds_at_every_point(walk):
    # x_{d+1}..x_n add at least r (x_d + c) / 2 to the prefix x_1..x_d, with
    # r = n - d and c = -1, or 0 in the interior: the row _walk puts on x_d.
    p, caps, _, high, strict, _ = walk
    n, c = p - 1, strict - 1
    for mu in oracles.dfs_iter_points(p, caps, max_total=high, strict=strict):
        for d in range(1, n - 1):
            r = n - d
            assert 2 * sum(mu[: d - 1]) + (r + 2) * mu[d - 1] + r * c <= 2 * sum(mu)


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
    assert list(counting._columns(*polygon)) == [(x, ys[0], ys[-1]) for x, ys in columns.items()]
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


def test_two_workers_sum_genus_windows_elementwise(monkeypatch):
    sizes = []
    _stub_pool(monkeypatch, sizes, 2)
    slices = [list(oracles.dfs_iter_points(5, (g,) * 4, target=g)) for g in range(6, 15)]
    assert genus_window(5, 6, 14, "all", workers=2) == [len(s) for s in slices]
    assert sizes == [2]
    psym = [sum(1 for mu in s if _is_pseudo_symmetric_mu(5, mu)) for s in slices]
    assert genus_window(5, 6, 14, "psym", workers=2) == psym
    assert sizes == [2]  # psym counts in this process


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_enumerate_walks_each_class_directly(p):
    cone = build_cone(p)
    keep = {
        "all": lambda mu: True,
        "medim": cone.strictly_contains,
        "sym": lambda mu: _is_symmetric_mu(p, mu),
        "psym": lambda mu: _is_pseudo_symmetric_mu(p, mu),
    }
    for g in range(9):
        points = list(oracles.dfs_iter_points(p, (g,) * (p - 1), target=g))
        for cls, test in keep.items():
            listed = enumerate_by_genus(p, g, cls)
            assert [s.mu for s in listed] == [mu for mu in points if test(mu)]
            assert listed == [Semigroup(p, s.mu) for s in listed]


@given(walks(), st.sampled_from(("sym", "psym")))
@settings(max_examples=150, deadline=None)
def test_locus_walk_matches_class_filter(walk, cls):
    p, caps, low, high, _, _ = walk
    kept = oracles.filter_class_points(p, caps, low, high, cls)
    by_sum = [sum(1 for mu in kept if sum(mu) == g) for g in range(low, high + 1)]
    loci = counting._class_loci(p, cls)
    assert counting._count_task((p, caps, low, high, cls, False, None)) == by_sum
    assert counting._count_task((p, caps, low, high, cls, True, None)) == len(kept)
    walked = [mu for locus in loci for mu in counting._locus_walk(locus, caps, low, high)]
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


def test_class_counts_start_no_process(monkeypatch):
    serial = {cls: count_containing(6, 47, cls) for cls in ("sym", "psym")}
    sizes, parts = [], []
    _stub_pool(monkeypatch, sizes, 2)
    count_task = counting._count_task

    def recording(task):
        parts.append(task[-1])
        return count_task(task)

    monkeypatch.setattr(counting, "_count_task", recording)
    for cls in ("sym", "psym"):
        parts.clear()
        assert count_containing(6, 47, cls, workers=2) == serial[cls]
        assert parts == [None]  # one task: every locus, in this process
    assert sizes == []


def _spy_fan_out(monkeypatch, sizes):
    """Record the size of each real fan-out, on a machine taken to have two CPUs."""
    fan_out = counting._fan_out

    def spy(tasks, size):
        sizes.append(size)
        return fan_out(tasks, size)

    monkeypatch.setattr(counting, "_fan_out", spy)
    monkeypatch.setattr(counting.os, "cpu_count", lambda: 2)


@pytest.mark.parametrize("cls", ["all", "medim", "sym", "psym"])
def test_forked_workers_count_as_serial(monkeypatch, cls):
    serial = count_containing(6, 47, cls), genus_window(5, 6, 14, cls)
    sizes = []
    _spy_fan_out(monkeypatch, sizes)
    assert (count_containing(6, 47, cls, workers=2), genus_window(5, 6, 14, cls, workers=2)) == serial
    assert sizes == ([2, 2] if cls in ("all", "medim") else [])
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_failed_share_fails_the_count_and_leaves_no_child(monkeypatch, capsys):
    from nsg import cli

    count_task = counting._count_task

    def lost(task):
        if task[-1] is not None and task[-1][0] > 0:
            raise ValueError("share lost\nsecond line")
        return count_task(task)

    sizes = []
    _spy_fan_out(monkeypatch, sizes)
    monkeypatch.setattr(counting, "_count_task", lost)
    # A worker's ValueError is an internal error of the count, not a usage error.
    message = "a counting process failed: ValueError: share lost second line"
    with pytest.raises(RuntimeError) as exc:
        count_containing(6, 47, workers=2)
    assert str(exc.value) == message
    assert cli.main(["count", "--p", "6", "--contains", "47", "--workers", "2"]) == 3
    assert capsys.readouterr() == ("", f"internal error: RuntimeError: {message}\n")
    assert sizes == [2, 2]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_child_ended_by_sigterm_fails_the_count(monkeypatch):
    count_task = counting._count_task

    def ended(task):
        if task[-1][0] > 0:
            os.kill(os.getpid(), signal.SIGTERM)
        return count_task(task)

    sizes = []
    _spy_fan_out(monkeypatch, sizes)
    monkeypatch.setattr(counting, "_count_task", ended)
    held = signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGHUP)
    with pytest.raises(RuntimeError, match="a counting process failed: killed by signal 15"):
        count_containing(6, 47, workers=2)
    assert (signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGHUP)) == held
    assert sizes == [2]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_fork_counts_serially(monkeypatch):
    serial = count_containing(6, 47)
    sizes = []
    _stub_pool(monkeypatch, sizes, 2)
    monkeypatch.delattr(os, "fork")
    assert count_containing(6, 47, workers=2) == serial
    assert sizes == []


@pytest.mark.parametrize(
    "count,args",
    [
        pytest.param(count, args, id="-".join(map(str, (count.__name__,) + args)))
        for count, args in [
            (count_containing, (3, 30001)),
            (genus_window, (3, 0, 40)),
            *((count_containing, (p, q, cls)) for p, q in ((6, 47), (7, 31)) for cls in ("sym", "psym")),
            *((genus_window, (p, 0, 20, cls)) for p in (6, 7) for cls in ("sym", "psym")),
        ]
    ],
)
def test_classes_and_p3_count_in_one_process(monkeypatch, count, args):
    # Loci in about p/2 variables, or one closed-form polygon at p = 3: never split.
    serial = count(*args)
    sizes = []
    _stub_pool(monkeypatch, sizes, 2)
    assert count(*args, workers=2) == count(*args, workers=1000) == serial
    assert sizes == []


_PRINT_THEN_FAN_OUT = """
import os, sys
from nsg import counting
os.cpu_count = lambda: 2


def lost(task):
    raise LookupError("share lost")


if sys.argv[1] == "fail":
    counting._count_task = lost
sys.stdout.write("written before the fan-out\\n")
try:
    print(counting.count_containing(6, 47, workers=2))
except RuntimeError as err:
    print(err)
"""


@pytest.mark.parametrize("mode", ["count", "fail"])
def test_buffered_stdout_is_written_once(mode):
    # A piped stdout is block-buffered: a child that flushed it on exit would repeat the line.
    src = os.path.dirname(os.path.dirname(os.path.abspath(counting.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _PRINT_THEN_FAN_OUT, mode],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    last = (str(count_containing(6, 47)) if mode == "count"
            else "a counting process failed: LookupError: share lost")
    assert proc.stdout == f"written before the fan-out\n{last}\n"


_COUNT_UNTIL_TERMINATED = """
import os, sys, time
from nsg import counting
os.cpu_count = lambda: 2


def sleeping(task):
    with open(os.path.join(sys.argv[1], str(os.getpid())), "w"):
        pass
    time.sleep(60)


counting._count_task = sleeping
counting.count_containing(6, 47, workers=2)
"""


def test_terminated_parent_leaves_no_child(tmp_path):
    _signal_parent_and_check_children(tmp_path, signal.SIGTERM)


def test_hung_up_parent_leaves_no_child(tmp_path):
    # SIGHUP comes from a closed terminal.
    _signal_parent_and_check_children(tmp_path, signal.SIGHUP)


def _signal_parent_and_check_children(tmp_path, signum):
    # The parent ends by the signal that arrived.
    src = os.path.dirname(os.path.dirname(os.path.abspath(counting.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c", _COUNT_UNTIL_TERMINATED, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src},
    )
    pids = []
    try:
        deadline = time.monotonic() + 30
        while len(os.listdir(tmp_path)) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        pids = [int(name) for name in os.listdir(tmp_path)]
        assert len(pids) == 2
        proc.send_signal(signum)
        assert proc.wait(timeout=30) == -signum
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
    finally:
        proc.kill()
        proc.wait()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


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
