"""Seeded command mixes of the four workloads, each command with its oracle.

A workload is a function of a ``Draws`` object: it draws every parameter
from a fixed, narrow set, so the work per pass changes little from seed to
seed, and returns the commands of one pass in a seeded order.  The program
only ever sees the argv.  ``Draws.ranges`` keeps the set each parameter was
drawn from, so a run can record its command mix.

Expected outputs come from ``checks`` and ``reference.json``; nothing here
runs the program.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

REFERENCE = Path(__file__).resolve().parent / "reference.json"
FORMATS = ("csv", "json")


@dataclass(frozen=True)
class Command:
    """One ``nsg`` command line and the check its output must pass."""

    argv: tuple[str, ...]
    check: Callable[[str], str | None] = field(compare=False)
    # Semigroups the checked output counts or lists, for counting commands.
    tally: Callable[[str], int] | None = field(default=None, compare=False)


class Draws:
    """Seeded choices that remember the set each one was drawn from."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.ranges: dict[str, list] = {}

    def pick(self, name: str, choices):
        choices = list(choices)
        self.ranges[name] = choices
        return self.rng.choice(choices)

    def shuffled(self, commands: list[Command]) -> list[Command]:
        self.rng.shuffle(commands)
        return commands


class Reference:
    """Pinned values from reference.json; see its ``provenance`` entry."""

    def __init__(self, path: Path = REFERENCE):
        data = json.loads(path.read_text())
        self.genus_all = {int(p): _int_keys(v) for p, v in data["genus_all"].items()}
        self.contains = {
            cls: {int(p): _int_keys(v) for p, v in by_p.items()}
            for cls, by_p in data["contains"].items()
        }
        self.ray_counts = {int(p): n for p, n in data["ray_counts"].items()}

    def genus(self, p: int, cls: str, g: int) -> int:
        if cls == "medim":
            # The interior of the cone is the cone shifted by the all-ones
            # vector, so medim(g) = all(g - (p - 1)).
            g -= p - 1
            if g < 0:
                return 0
        return self.genus_all[p][g]


def _int_keys(mapping: dict) -> dict:
    return {int(k): v for k, v in mapping.items()}


def _coprime(p: int, values) -> list[int]:
    return [v for v in values if math.gcd(p, v) == 1]


def _fmt_args(fmt: str) -> tuple[str, ...]:
    return () if fmt == "csv" else ("--format", fmt)


def _count_genus(ref, p, lo, hi, cls, expected_at=None, fmt="csv") -> Command:
    expected_at = expected_at or (lambda g: ref.genus(p, cls, g))
    expected = {g: expected_at(g) for g in range(lo, hi + 1)}
    argv = ("count", "--p", str(p), "--genus", f"{lo}..{hi}", "--class", cls, *_fmt_args(fmt))
    return Command(argv, lambda out: checks.check_counts(out, fmt, p, "genus", cls, expected),
                   lambda out: checks.count_total(out, fmt))


def _count_contains(ref, p, lo, hi, cls, workers=1) -> Command:
    expected = {q: ref.contains[cls][p][q] for q in _coprime(p, range(lo, hi + 1))}
    value = str(lo) if lo == hi else f"{lo}..{hi}"
    argv = ("count", "--p", str(p), "--contains", value, "--class", cls)
    if workers > 1:
        argv += ("--workers", str(workers))
    return Command(argv, lambda out: checks.check_counts(out, "csv", p, "q", cls, expected),
                   lambda out: checks.count_total(out, "csv"))


def _fit(args, fmt, reference, n_max) -> Command:
    argv = ("fit", *args, *_fmt_args(fmt))
    return Command(argv, lambda out: checks.check_fit(out, fmt, reference, n_max))


def genus_sweep(d: Draws, ref: Reference, workers: int) -> list[Command]:
    """Long closed-range counts: the counting walk does almost all the work."""
    # The walk's cost grows steeply with the genus, and with q like q^4, so
    # the genus windows stay put and q moves little; output formats and the
    # order vary instead.
    q5 = d.pick("p5_contains_q", (451, 456))  # q = 1 mod 5: the cost depends on q mod 5
    counts = [
        _count_genus(ref, 6, 55, 65, "all", fmt=d.pick("p6_all_format", FORMATS)),
        _count_genus(ref, 6, 59, 69, "medim", fmt=d.pick("p6_medim_format", FORMATS)),
        _count_genus(ref, 7, 37, 44, "all", fmt=d.pick("p7_all_format", FORMATS)),
        _count_genus(ref, 7, 41, 48, "medim", fmt=d.pick("p7_medim_format", FORMATS)),
        _count_contains(ref, 5, q5, q5, "all"),
    ]
    fit = _fit(("--p", "5", "--target", "G"), d.pick("fit_format", FORMATS),
               checks.closed_forms.genus_count_5, 300)
    return d.shuffled([*counts, fit])


def class_filter(d: Draws, ref: Reference, workers: int) -> list[Command]:
    """Counting that yields every vector and tests a class predicate, plus listing."""
    # The q windows stay put: the walk's cost grows like q^(p-2).  Both
    # classes walk every vector and test one predicate, so drawing the class
    # varies the input without moving the work.
    c6 = d.pick("p6_class", ("sym", "psym"))
    c7 = d.pick("p7_class", ("sym", "psym"))
    cw = d.pick("p6_workers_class", ("sym", "psym"))
    gs5 = d.pick("p5_sym_genus_max", range(59, 62))
    e5 = d.pick("p5_enumerate_genus_start", range(26, 29))
    e6 = d.pick("p6_enumerate_genus", range(20, 23))
    sym5 = checks.closed_forms.symmetric_genus_count_5
    e5_counts = {g: checks.closed_forms.genus_count_5(g) for g in range(e5, e5 + 3)}
    e6_counts = {e6: ref.genus(6, "all", e6)}
    return d.shuffled([
        _count_contains(ref, 6, 47, 52, c6),
        _count_contains(ref, 7, 30, 36, c7),
        _count_genus(ref, 5, 0, gs5, "sym", sym5),
        _count_contains(ref, 6, 41, 46, cw, workers),
        Command(
            ("enumerate", "--p", "5", "--genus", f"{e5}..{e5 + 2}", "--format", "json"),
            lambda out: checks.check_enumerate(out, "json", 5, e5_counts),
            lambda out: checks.record_total(out, "json"),
        ),
        Command(
            ("enumerate", "--p", "6", "--genus", str(e6)),
            lambda out: checks.check_enumerate(out, "csv", 6, e6_counts),
            lambda out: checks.record_total(out, "csv"),
        ),
    ])


def _paths_count(p, q, expected) -> Command:
    return Command(
        ("paths", "--p", str(p), "--q", str(q)),
        lambda out: checks.check_paths_count(out, p, q, expected),
    )


def _recursion_rows_p4(ref: Reference, q_max: int) -> dict:
    """new_total, new_symmetric, new_pseudo per q from the p = 4 step formulas.

    Each new count is the step of the matching containment counter minus the
    semigroups the q - 4 system already accounts for.  The symmetric step
    formula is stated for q >= 7; q = 5 uses the pinned p = 4 counts.
    """
    cf = checks.closed_forms
    rows = {}
    for q in _coprime(4, range(5, q_max + 1)):
        if q >= 7:
            sym_step = cf.symmetric_step_4(q)
        else:
            sym_step = ref.contains["sym"][4][q] - ref.contains["sym"][4][q - 4]
        rows[q] = (cf.containing_step_4(q) - 1, sym_step - 1, cf.pseudo_symmetric_step_4(q))
    return rows


def staircase(d: Draws, ref: Reference, workers: int) -> list[Command]:
    """Many short staircase walks: the paths layer and start-up dominate."""
    commands = []
    moderate = {4: range(57, 64), 5: range(38, 43), 6: range(35, 38), 7: range(29, 31)}
    short = {4: range(21, 28), 5: range(21, 25), 6: range(19, 26), 7: range(17, 21)}
    for label, table in (("moderate", moderate), ("short", short)):
        for p, qs in table.items():
            q = d.pick(f"p{p}_{label}_q", _coprime(p, qs))
            # Staircases count the semigroups containing p and q, <p, q> aside.
            commands.append(_paths_count(p, q, ref.contains["all"][p][q] - 1))
    q3 = d.pick("p3_deep_q", _coprime(3, range(451, 459)))
    commands.append(_paths_count(3, q3, checks.closed_forms.containing_count_3(q3) - 1))
    # Semigroups containing 2 and odd q are <2, r> for odd r <= q.  The
    # staircase walk recurses once per column, so this command currently
    # dies with RecursionError; it stays in the mix so that ok_frac
    # (1 - fail_frac) shows the defect until it is fixed.
    q2 = d.pick("p2_q", range(2001, 2100, 2))
    commands.append(_paths_count(2, q2, (q2 - 1) // 2))
    qmax = d.pick("p4_verify_q_max", range(41, 46))
    rows = _recursion_rows_p4(ref, qmax)
    commands.append(Command(
        ("paths", "--p", "4", "--verify-recursions", "--q-max", str(qmax)),
        lambda out: checks.check_recursions(out, 4, qmax, rows),
    ))
    ql = d.pick("p4_list_q", _coprime(4, range(21, 28)))
    listed = ref.contains["all"][4][ql] - 1
    commands.append(Command(
        ("paths", "--p", "4", "--q", str(ql), "--list"),
        lambda out: checks.check_path_list(out, 4, ql, listed),
    ))
    return d.shuffled(commands)


def _containing_4(ref: Reference, q: int) -> int:
    """Semigroups containing 4 and odd q, summed from the p = 4 step formula."""
    total = ref.contains["all"][4][q % 4]
    for r in range(q % 4 + 4, q + 1, 4):
        total += checks.closed_forms.containing_step_4(r)
    return total


def periods(d: Draws, ref: Reference, workers: int) -> list[Command]:
    """Edge search of the recession cone and small exact fits."""
    commands = []
    for p in (7, 6):
        fmt = d.pick(f"p{p}_edges_format", FORMATS)
        rays = ref.ray_counts[p]
        commands.append(Command(
            ("edges", "--p", str(p), *_fmt_args(fmt)),
            lambda out, fmt=fmt, p=p, rays=rays: checks.check_edges(out, fmt, p, rays),
        ))
    cf = checks.closed_forms
    residue = d.pick("p4_fit_n_residue", (1, 3))
    commands.append(_fit(("--p", "4", "--target", "G"), d.pick("p4_fit_g_format", FORMATS),
                         cf.genus_count_4, 120))
    commands.append(_fit(("--p", "4", "--target", "G", "--class", "sym"),
                         d.pick("p4_fit_sym_format", FORMATS), cf.symmetric_genus_count_4, 120))
    commands.append(_fit(("--p", "4", "--target", "N", "--residue", str(residue)),
                         d.pick("p4_fit_n_format", FORMATS),
                         lambda n: _containing_4(ref, residue + 4 * n), 60))
    return d.shuffled(commands)


WORKLOADS = {
    "genus-sweep": genus_sweep,
    "class-filter": class_filter,
    "staircase": staircase,
    "periods": periods,
}


def build(name: str, seed: int, workers: int, ref: Reference | None = None):
    """Commands of one pass of the named workload, and the ranges drawn from."""
    draws = Draws(seed)
    commands = WORKLOADS[name](draws, ref or Reference(), workers)
    return commands, draws.ranges
