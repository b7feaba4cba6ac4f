"""Oracles for ``nsg`` command output.

Each ``check_*`` function takes a command's standard output and returns
``None`` when it agrees with the oracle, or a message naming the first
disagreement.  None of them calls the code under test: expected values come
from closed forms, from identities between the models, from independent
sieves (``tests/oracles.py``) or from the pinned values in
``reference.json``, whose provenance is recorded there.
"""

from __future__ import annotations

import importlib.util
import json
import math
import re
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Loaded by file path so that the benchmark process never imports the
# package it measures; neither file imports anything from nsg.
closed_forms = _load("perfbench_closed_forms", ROOT / "src" / "nsg" / "closed_forms.py")
oracles = _load("perfbench_oracles", ROOT / "tests" / "oracles.py")


class Wrong(Exception):
    """The output disagrees with the oracle."""


def _verdict(check):
    """Turn a check that raises Wrong into one that returns a message."""

    def run(text, *args, **kwargs):
        try:
            check(text, *args, **kwargs)
        except Wrong as err:
            return str(err)
        except (ValueError, KeyError, IndexError, TypeError, ArithmeticError) as err:
            return f"unparsable output: {type(err).__name__}: {err}"
        return None

    run.__name__ = check.__name__
    run.__doc__ = check.__doc__
    return run


def _expect(actual, expected, what: str) -> None:
    if actual != expected:
        raise Wrong(f"{what}: got {actual!r}, expected {expected!r}")


def parse_rows(text: str, fmt: str) -> tuple[list[str], list[list[str]]]:
    """Columns and rows of a table printed as CSV or JSON, values as strings."""
    if fmt == "json":
        payload = json.loads(text)
        if not payload:
            return [], []
        columns = list(payload[0])
        return columns, [[_str(row[c]) for c in columns] for row in payload]
    lines = text.splitlines()
    if not lines:
        raise Wrong("empty output")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _str(value) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


# ---------------------------------------------------------------------------
# count


@_verdict
def check_counts(text, fmt, p, key, cls, expected):
    """Rows (p, key, class, count) exactly as in the expected mapping."""
    columns, rows = parse_rows(text, fmt)
    _expect(columns, ["p", key, "class", "count"], "header")
    want = [[str(p), str(k), cls, str(v)] for k, v in expected.items()]
    _expect(len(rows), len(want), "row count")
    for got, exp in zip(rows, want):
        _expect(got, exp, f"row {key}={exp[1]}")


def count_total(text, fmt) -> int:
    """Semigroups counted by a checked ``count`` output: its count column summed."""
    return sum(int(row[-1]) for row in parse_rows(text, fmt)[1])


def record_total(text, fmt) -> int:
    """Semigroups listed by a checked ``enumerate`` output: one per record."""
    return len(parse_rows(text, fmt)[1])


# ---------------------------------------------------------------------------
# Semigroups from first principles


def semigroup_facts(p: int, mu) -> dict:
    """Invariants of the semigroup with Apéry coordinates mu, by sieving.

    The semigroup generated by p and the candidate Apéry elements is sieved
    directly; mu is valid exactly when its least element of each residue
    class is the candidate itself.
    """
    apery = [i + m * p for i, m in enumerate(mu, start=1)]
    gens = [p, *apery]
    least = oracles.sieve_apery(gens, p)
    if least != apery:
        raise Wrong(f"mu={list(mu)} is not an Apéry tuple: the classes start at {least}")
    gaps = oracles.sieve_gaps(gens)
    # Every minimal generator is p or an Apéry element, so none exceeds bound.
    bound = max(apery, default=0) + p
    hit = oracles.sieve_members(gens, bound)
    members = [n for n in range(1, bound + 1) if hit[n]]
    generators = [
        x for x in members if not any(hit[a] and hit[x - a] for a in range(1, x // 2 + 1))
    ]
    genus = len(gaps)
    frobenius = gaps[-1] if gaps else None
    multiplicity = members[0]
    return {
        "genus": genus,
        "frobenius": frobenius,
        "generators": generators,
        "multiplicity": multiplicity,
        "symmetric": frobenius is None or 2 * genus == frobenius + 1,
        "pseudo_symmetric": frobenius is not None and 2 * genus == frobenius + 2,
        "medim": multiplicity == p and len(generators) == p,
    }


_ENUMERATE_COLUMNS = [
    "p", "mu", "generators", "genus", "frobenius", "multiplicity",
    "embedding_dimension", "symmetric", "pseudo_symmetric", "max_embedding_dimension",
]


@_verdict
def check_enumerate(text, fmt, p, expected_counts):
    """Every record re-derived by sieve; one record per semigroup per genus."""
    columns, rows = parse_rows(text, fmt)
    _expect(columns, _ENUMERATE_COLUMNS, "header")
    _expect(len(rows), sum(expected_counts.values()), "record count")
    seen = set()
    per_genus = dict.fromkeys(expected_counts, 0)
    for row in rows:
        mu = tuple(int(v) for v in row[1].split(";"))
        if mu in seen:
            raise Wrong(f"duplicate record mu={row[1]}")
        seen.add(mu)
        facts = semigroup_facts(p, mu)
        want = [
            str(p), row[1], ";".join(map(str, facts["generators"])), str(facts["genus"]),
            "" if facts["frobenius"] is None else str(facts["frobenius"]),
            str(facts["multiplicity"]), str(len(facts["generators"])),
            _str(facts["symmetric"]), _str(facts["pseudo_symmetric"]), _str(facts["medim"]),
        ]
        _expect(row, want, f"record mu={row[1]}")
        if facts["genus"] not in per_genus:
            raise Wrong(f"record mu={row[1]} has genus {facts['genus']}, outside the request")
        per_genus[facts["genus"]] += 1
    _expect(per_genus, dict(expected_counts), "records per genus")


# ---------------------------------------------------------------------------
# paths


@_verdict
def check_paths_count(text, p, q, expected):
    columns, rows = parse_rows(text, "csv")
    _expect(columns, ["p", "q", "admissible"], "header")
    _expect(rows, [[str(p), str(q), str(expected)]], "admissible count")


def _heights_from_corners(corners) -> list[int]:
    """Column heights of a staircase given its corner points.

    Every column's top point lies on the first corner at or right of it.
    """
    ncols = corners[-1][0] + 1
    heights = []
    k = 0
    for a in range(ncols):
        while corners[k][0] < a:
            k += 1
        heights.append(corners[k][1] + 1)
    return heights


def _corners_from_heights(heights) -> list[tuple[int, int]]:
    corners = [(0, heights[0] - 1)]
    for a, h in enumerate(heights):
        if a == len(heights) - 1 or heights[a + 1] < h:
            if (a, h - 1) != corners[-1]:
                corners.append((a, h - 1))
    if corners[-1] != (len(heights) - 1, 0):
        corners.append((len(heights) - 1, 0))
    return corners


@_verdict
def check_path_list(text, p, q, expected_count):
    """Each listed staircase closes gaps of <p, q> into a semigroup, re-derived."""
    lines = text.splitlines()
    _expect(lines[0], "corners,mu,symmetric,pseudo_symmetric", "header")
    # The corners field holds commas of its own and is not quoted.
    rows = [line.rsplit(",", 3) for line in lines[1:]]
    _expect(len(rows), expected_count, "path count")
    base_gaps = set(oracles.sieve_gaps((p, q)))
    seen = set()
    for row in rows:
        corners = [tuple(map(int, c)) for c in re.findall(r"\((\d+),(\d+)\)", row[0])]
        heights = _heights_from_corners(corners)
        if any(nxt > cur for nxt, cur in zip(heights[1:], heights)) or min(heights) < 1:
            raise Wrong(f"path {row[0]} is not a staircase")
        _expect(" ".join(f"({a},{b})" for a, b in _corners_from_heights(heights)), row[0], "corners")
        closed = {p * q - (a + 1) * p - (b + 1) * q for a, h in enumerate(heights) for b in range(h)}
        if not closed <= base_gaps:
            raise Wrong(f"path {row[0]} leaves the triangle")
        gaps = base_gaps - closed
        if not oracles.is_gapset_of_semigroup(gaps):
            raise Wrong(f"path {row[0]} does not close to a semigroup")
        # The members up to p past the last gap generate the semigroup.
        members = [n for n in range(1, max(gaps, default=0) + p + 1) if n not in gaps]
        mu = [(w - i) // p for i, w in enumerate(oracles.sieve_apery(members, p), start=1)]
        frobenius = max(gaps, default=None)
        genus = len(gaps)
        want = [
            row[0], ";".join(map(str, mu)),
            _str(frobenius is None or 2 * genus == frobenius + 1),
            _str(frobenius is not None and 2 * genus == frobenius + 2),
        ]
        _expect(row, want, f"path {row[0]}")
        if tuple(mu) in seen:
            raise Wrong(f"two paths give mu={row[1]}")
        seen.add(tuple(mu))


@_verdict
def check_recursions(text, p, q_max, expected_rows):
    """Rows (p, q, new_total, new_symmetric, new_pseudo, ok) as expected."""
    columns, rows = parse_rows(text, "csv")
    _expect(columns, ["p", "q", "new_total", "new_symmetric", "new_pseudo", "ok"], "header")
    want = [[str(p), str(q), *map(str, counts), "true"] for q, counts in expected_rows.items()]
    _expect(len(rows), len(want), "row count")
    for got, exp in zip(rows, want):
        _expect(got, exp, f"row q={exp[1]}")


# ---------------------------------------------------------------------------
# edges


def _rank(rows) -> int:
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def star_normals(p: int) -> list[list[int]]:
    """Normals of x_i + x_j >= x_{(i+j) mod p}, i <= j, i + j not divisible by p."""
    normals = []
    for i in range(1, p):
        for j in range(i, p):
            k = (i + j) % p
            if k == 0:
                continue
            v = [0] * (p - 1)
            v[i - 1] += 1
            v[j - 1] += 1
            v[k - 1] -= 1
            normals.append(v)
    return normals


@_verdict
def check_edges(text, fmt, p, expected_count):
    """Every ray primitive, feasible, with a rank p-2 active set; count pinned."""
    if fmt == "json":
        rays = [tuple(r) for r in json.loads(text)]
    else:
        rays = [tuple(map(int, r.split(","))) for r in re.findall(r"\(([-\d,]+)\)", text)]
    _expect(len(rays), expected_count, "ray count")
    _expect(len(set(rays)), len(rays), "distinct rays")
    normals = star_normals(p)
    for ray in rays:
        _expect(len(ray), p - 1, f"length of ray {ray}")
        if math.gcd(*ray) != 1:
            raise Wrong(f"ray {ray} is not primitive")
        dots = [sum(n * x for n, x in zip(normal, ray)) for normal in normals]
        if min(dots) < 0:
            raise Wrong(f"ray {ray} violates a star inequality")
        active = [normal for normal, d in zip(normals, dots) if d == 0]
        if _rank(active) != p - 2:
            raise Wrong(f"ray {ray} has an active set of rank {_rank(active)}, not {p - 2}")


# ---------------------------------------------------------------------------
# fit


def parse_quasi(text, fmt) -> list[list[Fraction]]:
    """Constituents (low-to-high coefficients) of a printed quasi-polynomial."""
    if fmt == "json":
        payload = json.loads(text)
        constituents = [[Fraction(c) for c in cons] for cons in payload["constituents"]]
        _expect(len(constituents), payload["period"], "period")
        return constituents
    lines = text.splitlines()
    period = int(lines[0].removeprefix("period: "))
    constituents = []
    for r in range(period):
        head, _, terms = lines[2 + r].partition(": ")
        _expect(head, f"class {r}", "constituent label")
        cons = []
        for term in terms.split(" + "):
            coeff, _, power = term.partition("*n^")
            k = int(power) if power else 0
            cons.extend([Fraction(0)] * (k + 1 - len(cons)))
            cons[k] = Fraction(coeff)
        constituents.append(cons)
    return constituents


@_verdict
def check_fit(text, fmt, reference, n_max):
    """The fitted quasi-polynomial equals the reference function on 0..n_max."""
    constituents = parse_quasi(text, fmt)
    period = len(constituents)
    for n in range(n_max + 1):
        value = sum(c * n**k for k, c in enumerate(constituents[n % period]))
        if value != reference(n):
            raise Wrong(f"fit gives {value} at n={n}, expected {reference(n)}")
