"""Regenerate reference.json, the pinned values the benchmark's oracles use.

    python3 perfbench/make_reference.py

Values that no closed form gives are computed here with ``nsg`` from
``src/`` and cross-checked against a second model wherever that is
affordable; the ``provenance`` entry of the output says which check each
table passed.  Run it only when a workload's parameter ranges change: the
pinned values must never move with the code under test.
"""

from __future__ import annotations

import json
import math
import platform
import sys
from functools import lru_cache
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import oracles  # noqa: E402  (tests/oracles.py)
from nsg import counting, paths  # noqa: E402
from nsg.cone import edges_of_cone_star  # noqa: E402

# Wide enough for every parameter any seed can draw in workloads.py.
GENUS_MAX = {6: 66, 7: 45}
TREE_GENUS_MAX = 12
CONTAINS = {
    "all": {
        4: range(1, 64),
        5: [*range(1, 43), *range(451, 470)],
        6: range(1, 38),
        7: range(1, 31),
    },
    "sym": {4: range(1, 8), 6: range(41, 53), 7: range(30, 37)},
    "psym": {6: range(41, 53), 7: range(30, 37)},
}
STAIRCASE_CHECK_MAX_Q = 100  # above this the staircase walk is too slow
GOLDEN_P4 = ROOT / "tables" / "contains-p4.csv"


@lru_cache(maxsize=None)
def _staircase_counts(p: int, q: int) -> dict:
    """Containment counts by class, from the staircase model alone."""
    system = paths.PathSystem(p, q)
    total = sym = psym = 0
    for heights in paths._iter_admissible_heights(system):
        s = paths._semigroup_from_heights(system, heights)
        total += 1
        sym += s.is_symmetric()
        psym += s.is_pseudo_symmetric()
    # <p, q> itself, the empty path, is symmetric.
    return {"all": total + 1, "sym": sym + 1, "psym": psym}


def main() -> None:
    genus_all = {}
    for p, g_max in GENUS_MAX.items():
        series = counting.genus_count_series(p, g_max)
        for g, value in enumerate(series):
            assert counting.count_by_genus(p, g) == value, (p, g)
        tree = oracles.tree_counts_containing_p(p, TREE_GENUS_MAX)
        assert all(tree[g] == series[g] for g in tree), p
        genus_all[str(p)] = {str(g): v for g, v in enumerate(series)}
        print(f"genus p={p} done", flush=True)

    golden = {}
    for line in GOLDEN_P4.read_text().splitlines()[2:]:
        q, total, _medim, sym, psym = map(int, line.split(","))
        golden[q] = {"all": total, "sym": sym, "psym": psym}

    contains = {}
    for cls, by_p in CONTAINS.items():
        contains[cls] = {}
        for p, qs in by_p.items():
            values = {}
            for q in qs:
                if math.gcd(p, q) != 1:
                    continue
                values[q] = counting.count_containing(p, q, cls)
                if q > p and q <= STAIRCASE_CHECK_MAX_Q:
                    assert _staircase_counts(p, q)[cls] == values[q], (cls, p, q)
                if p == 4 and q in golden:
                    assert golden[q][cls] == values[q], (cls, p, q)
            contains[cls][str(p)] = {str(q): v for q, v in values.items()}
            print(f"contains {cls} p={p} done", flush=True)

    ray_counts = {str(p): len(edges_of_cone_star(p).rays) for p in (6, 7)}

    provenance = {
        "computed_with": (
            f"nsg from src/ at the commit that added the benchmark, Python "
            f"{platform.python_version()}, by perfbench/make_reference.py"
        ),
        "genus_all": (
            "counting.genus_count_series; every value equals counting.count_by_genus "
            f"(a separate walk), and genus <= {TREE_GENUS_MAX} equals the semigroup-tree "
            "oracle tests/oracles.tree_counts_containing_p"
        ),
        "contains": (
            "counting.count_containing (cone walk); every q with p < q <= "
            f"{STAIRCASE_CHECK_MAX_Q} equals the staircase model (admissible paths plus "
            "<p, q>, classes from the path's semigroup), and p = 4 entries equal "
            "tables/contains-p4.csv; p = 5, q in 451..469 has no second model"
        ),
        "ray_counts": (
            "len(cone.edges_of_cone_star(p).rays); the benchmark checks every ray it "
            "sees for primitivity, feasibility and a rank p-2 active set"
        ),
    }
    out = {
        "provenance": provenance,
        "genus_all": genus_all,
        "contains": contains,
        "ray_counts": ray_counts,
    }
    (HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
