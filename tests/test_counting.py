import concurrent.futures
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
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


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size, maps in-process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def _stub_pool(monkeypatch, sizes, cpus):
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        lambda max_workers: _RecordingPool(sizes, max_workers),
    )
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


def test_two_workers_over_six_tasks_keep_two_processes(monkeypatch):
    # containment_caps(3, 16)[0] == 5: six tasks, as in the benchmark's range
    sizes = []
    _stub_pool(monkeypatch, sizes, 2)
    assert containment_caps(3, 16)[0] == 5
    assert count_containing(3, 16, workers=2) == count_containing(3, 16)
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
# of a coprime q, or a genus window low..high with low > 0.
Q_MAX = {3: 60, 4: 40, 5: 30, 6: 24, 7: 20}
GENUS_MAX = {3: 40, 4: 28, 5: 18, 6: 14, 7: 11}
PREDICATES = {"sym": _is_symmetric_mu, "psym": _is_pseudo_symmetric_mu}


@st.composite
def walks(draw):
    p = draw(st.integers(3, 7))
    if draw(st.booleans()):
        q = draw(st.integers(1, Q_MAX[p]).filter(lambda q: math.gcd(p, q) == 1))
        caps = containment_caps(p, q)
        low, high = 0, sum(caps)
    else:
        high = draw(st.integers(1, GENUS_MAX[p]))
        low = draw(st.integers(1, high))
        caps = (high,) * (p - 1)
    strict = draw(st.booleans())
    first = draw(st.none() | st.integers(0, min(caps[0], high)))
    return p, caps, low, high, strict, first


@given(walks(), st.sampled_from(("sym", "psym")))
@settings(max_examples=120, deadline=None)
def test_walk_matches_plain_dfs(walk, cls):
    p, caps, low, high, strict, first = walk
    points = [
        mu
        for mu in oracles.dfs_iter_points(p, caps, max_total=high, strict=strict, first=first)
        if sum(mu) >= low
    ]
    # yield the vector
    assert list(counting._walk(p, caps, low, high, strict, first)) == points
    # add to the sum difference array
    series = oracles.dfs_sum_series(p, caps, high, strict)
    task = (p, caps, low, high, "medim" if strict else "all", None)
    assert counting._count_task(task) == series[low:]
    if first is not None:
        by_sum = counting._count_task(task[:-1] + (first,))
        assert by_sum == [sum(1 for mu in points if sum(mu) == g) for g in range(low, high + 1)]
    # filter by class
    plain = oracles.dfs_iter_points(p, caps, max_total=high)
    kept = [mu for mu in plain if sum(mu) >= low and PREDICATES[cls](p, mu)]
    by_class = counting._count_task((p, caps, low, high, cls, None))
    assert by_class == [sum(1 for mu in kept if sum(mu) == g) for g in range(low, high + 1)]
    if low == 0:
        # add the range lengths of the whole walk
        cls = "medim" if strict else "all"
        assert sum(counting._counted(p, caps, 0, high, cls, 1)) == oracles.dfs_count_points(
            p, caps, strict=strict
        )
    else:
        # test the fixed sum, at both ends of the window
        for g in (low, high):
            assert count_by_genus(p, g, "medim" if strict else "all") == oracles.dfs_count_points(
                p, (g,) * (p - 1), target=g, strict=strict
            )


def test_two_workers_sum_genus_windows_elementwise(monkeypatch):
    sizes = []
    _stub_pool(monkeypatch, sizes, 2)
    slices = [list(oracles.dfs_iter_points(5, (g,) * 4, target=g)) for g in range(6, 15)]
    assert genus_window(5, 6, 14, "all", workers=2) == [len(s) for s in slices]
    psym = [sum(1 for mu in s if _is_pseudo_symmetric_mu(5, mu)) for s in slices]
    assert genus_window(5, 6, 14, "psym", workers=2) == psym
    assert sizes == [2, 2]


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
    parts = [counting._count_task((p, caps, low, high, cls, i)) for i in range(len(loci))]
    assert [sum(column) for column in zip(*parts)] == by_sum
    assert counting._count_task((p, caps, low, high, cls, None)) == by_sum
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


def test_class_tasks_are_loci(monkeypatch):
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
        assert parts == list(range(len(counting._class_loci(6, cls))))
    assert sizes == [2, 2]
