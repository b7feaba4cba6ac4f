"""Tests of the benchmark itself: its oracles, its tracer and its draws.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads
from nsg import cli


def nsg_output(*argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


def test_count_off_by_one_is_wrong():
    out = nsg_output("count", "--p", "4", "--genus", "0..8")
    expected = {g: checks.closed_forms.genus_count_4(g) for g in range(9)}
    assert checks.check_counts(out, "csv", 4, "genus", "all", expected) is None
    corrupted = out.replace("4,8,all,10", "4,8,all,11")
    assert corrupted != out
    assert "row genus=8" in checks.check_counts(corrupted, "csv", 4, "genus", "all", expected)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_missing_ray_is_wrong(fmt):
    out = nsg_output("edges", "--p", "5", *workloads._fmt_args(fmt))
    rays = json.loads(out) if fmt == "json" else out.split()
    assert checks.check_edges(out, fmt, 5, len(rays)) is None
    if fmt == "json":
        corrupted = json.dumps(rays[1:])
    else:
        corrupted = " ".join(rays[1:])
    assert "ray count" in checks.check_edges(corrupted, fmt, 5, len(rays))


def test_non_extreme_ray_is_wrong():
    # (1,1,1,1) lies inside the p = 5 recession cone, not on an edge.
    message = checks.check_edges("(1,1,1,1)", "csv", 5, 1)
    assert "active set of rank" in message


def test_enumerate_records_are_rederived():
    out = nsg_output("enumerate", "--p", "4", "--genus", "5..6")
    counts = {g: checks.closed_forms.genus_count_4(g) for g in (5, 6)}
    assert checks.check_enumerate(out, "csv", 4, counts) is None
    header, first, *rest = out.splitlines()
    fields = first.split(",")
    fields[4] = str(int(fields[4]) + 1)  # Frobenius number off by one
    corrupted = "\n".join([header, ",".join(fields), *rest])
    assert "record mu=" in checks.check_enumerate(corrupted, "csv", 4, counts)


def test_path_list_rows_are_rederived():
    out = nsg_output("paths", "--p", "4", "--q", "9", "--list")
    assert checks.check_path_list(out, 4, 9, 28) is None
    *rows, last = out.splitlines()
    assert last.endswith(",0;0;0,true,false")  # every gap closed: N, symmetric
    corrupted = "\n".join([*rows, last.replace(",true,", ",false,")])
    assert "path (0,2)" in checks.check_path_list(corrupted, 4, 9, 28)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fit_against_closed_form(fmt):
    out = nsg_output("fit", "--p", "4", "--target", "G", *workloads._fmt_args(fmt))
    assert checks.check_fit(out, fmt, checks.closed_forms.genus_count_4, 120) is None
    assert "at n=" in checks.check_fit(out, fmt, lambda n: checks.closed_forms.genus_count_4(n) + (n == 50), 120)


def test_wrong_output_raises_wrong_frac(tmp_path):
    good = {g: checks.closed_forms.genus_count_4(g) for g in range(9)}
    bad = {**good, 8: good[8] + 1}
    argv = ("count", "--p", "4", "--genus", "0..8", "--class", "all")
    commands = [
        workloads.Command(argv, lambda out: checks.check_counts(out, "csv", 4, "genus", "all", good)),
        workloads.Command(argv, lambda out: checks.check_counts(out, "csv", 4, "genus", "all", bad)),
    ]
    runner = run.Runner(commands, 0.0, run.pinned_env(), tmp_path)
    result = runner.run_pass(traced=False, number=0)
    assert (result["failed"], result["wrong"]) == (0, 1)
    metrics = run.end_to_end([result], [0.1])
    assert metrics["agree_frac"]["value"] == 0.5
    assert metrics["ok_frac"]["value"] == 1.0
    assert runner.wrongs[0]["argv"] == list(argv)


def test_failed_command_counts_as_failed(tmp_path):
    commands = [workloads.Command(("count", "--p", "4", "--contains", "6"), lambda out: None)]
    runner = run.Runner(commands, 0.0, run.pinned_env(), tmp_path)
    result = runner.run_pass(traced=False, number=0)
    assert result["failed"] == 1
    assert run.end_to_end([result], [0.1])["ok_frac"]["value"] == 0.0


def test_self_times_subtract_children():
    records = [
        {"id": 0, "parent": None, "busy": 10.0},
        {"id": 1, "parent": 0, "busy": 6.0},
        {"id": 2, "parent": 1, "busy": 2.5},
        {"id": 3, "parent": 1, "busy": 0.5},
    ]
    assert tracer.self_times(records) == {0: 4.0, 1: 3.0, 2: 2.5, 3: 0.5}


def test_traced_pass_spans_nest(tmp_path):
    counts = {q: workloads.Reference().contains["all"][4][q] for q in (9, 11, 13, 15)}
    commands = [
        workloads.Command(("count", "--p", "4", "--contains", "9..15"),
                          lambda out: checks.check_counts(out, "csv", 4, "q", "all", counts),
                          lambda out: checks.count_total(out, "csv")),
        workloads.Command(("paths", "--p", "4", "--q", "9", "--list"), lambda out: None),
        workloads.Command(("fit", "--p", "4", "--target", "G"), lambda out: None),
    ]
    runner = run.Runner(commands, 0.0, run.pinned_env(), tmp_path)
    result = runner.run_pass(traced=True, number=0)
    assert (result["failed"], result["wrong"]) == (0, 0)
    trace = result["trace"]
    assert run.trace_problems(trace) == []
    layers = {rec["layer"] for rec in trace["records"]}
    assert {"cli", "counting", "core", "cone", "paths", "quasi"} <= layers
    metrics = run.layer_metrics(trace, result["semigroups"])
    # Taken from the checked output of the count command alone: the counting
    # calls that fit makes for its samples do not add to it.
    assert metrics["counting.semigroups"] == sum(counts.values())
    assert metrics["paths.paths"] == 28  # 29 semigroups contain 4 and 9, <4, 9> aside
    assert metrics["cone.rays"] > 0 and metrics["quasi.samples"] > 0

    reported, problems = run.per_layer([result], [result])
    assert problems == []
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: m["unit"] for name, m in reported.items()
    }
    e2e = run.end_to_end([result], [0.1])
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        name: m["unit"] for name, m in e2e.items()
    }


def _two_spans(child_start, child_end, child_busy):
    """A command process with one traced span inside it."""
    return {"records": [
        {"id": 0, "name": "python.process", "layer": "python", "start": 10.0, "end": 11.0,
         "parent": None, "calls": 1, "busy": 1.0, "cmd": 0},
        {"id": 1, "name": "cli.main", "layer": "cli", "start": child_start, "end": child_end,
         "parent": 0, "calls": 1, "busy": child_busy, "cmd": 0},
    ]}


def test_trace_problems_finds_spans_that_do_not_nest():
    assert run.trace_problems(_two_spans(10.1, 10.9, 0.8)) == []
    # A span that ends after its process exited.
    [late] = run.trace_problems(_two_spans(10.1, 11.2, 0.8))
    assert "span cli.main of command 0 lies outside python.process" == late
    # A child busier than its parent, as when the tracer double-counts calls.
    [busy] = run.trace_problems(_two_spans(10.1, 10.9, 1.5))
    assert "children of span python.process" in busy


def test_tracer_counts_one_span_per_crossing():
    t = tracer.Tracer()

    def inner():
        return 3

    def outer():
        return sum(t.call("core.inner", "core", inner, (), {}) for _ in range(4))

    assert t.span("cli.main", "cli", t.call, "counting.outer", "counting", outer, (), {}) == 12
    names = [rec[1] for rec in t.records]
    assert names == ["cli.main", "counting.outer", "core.inner"]
    assert t.records[2][6] == 4  # four calls share one record
    assert t.calls == {"counting": 1, "core": 4}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_draws_are_seeded_and_pinned(name):
    ref = workloads.Reference()
    first, ranges = workloads.build(name, 7, 2, ref)
    again, _ = workloads.build(name, 7, 2, ref)
    assert [c.argv for c in first] == [c.argv for c in again]
    assert ranges
    # Every value a seed can draw has its expected output pinned.
    for seed in range(200):
        workloads.build(name, seed, 2, ref)


def test_no_sources_means_no_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for path in Path(run.HERE).glob("*.py"):
        (bare / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(bare / "perfbench" / "run.py"), "--workload", "periods",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
