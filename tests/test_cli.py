import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsg
from nsg import cli, paths
from nsg.closed_forms import containing_count_3
from nsg.counting import count_by_genus


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_by_genus_column(capsys):
    code, out, _ = run_cli(capsys, "count", "--p", "4", "--genus", "0..8", "--class", "all")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "p,genus,class,count"
    counts = [int(r.split(",")[-1]) for r in rows[1:]]
    assert counts == [1, 1, 2, 3, 4, 5, 7, 8, 10]


def test_count_single_genus(capsys):
    code, out, _ = run_cli(capsys, "count", "--p", "3", "--genus", "0")
    assert code == 0
    assert out.strip().splitlines()[-1] == "3,0,all,1"


def test_count_contains_sym(capsys):
    code, out, _ = run_cli(capsys, "count", "--p", "4", "--contains", "15", "--class", "sym")
    assert code == 0
    assert out.strip().splitlines()[-1] == "4,15,sym,27"


def test_count_contains_range_skips_non_coprime(capsys):
    code, out, _ = run_cli(capsys, "count", "--p", "3", "--contains", "1..8")
    assert code == 0
    qs = [int(r.split(",")[1]) for r in out.strip().splitlines()[1:]]
    assert qs == [1, 2, 4, 5, 7, 8]


def test_count_non_coprime_single_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "count", "--p", "3", "--contains", "6")
    assert code == 2
    assert "gcd" in err


def test_enumerate_records(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--p", "3", "--genus", "2")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 2  # header + single record
    fields = rows[1].split(",")
    assert fields[1] == "1;1"
    assert fields[2] == "3;4;5"


def test_enumerate_sym_filter(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--p", "3", "--genus", "7", "--class", "sym")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_enumerate_trivial_semigroup(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--p", "3", "--genus", "0")
    assert code == 0
    fields = out.strip().splitlines()[1].split(",")
    assert fields[1] == "0;0"
    assert fields[4] == ""  # no largest gap to report


# Cells with what JSON and CSV must carry verbatim: non-ASCII, quotes,
# backslashes, control characters, and % for the row template.
_TEXT = st.text(st.one_of(st.sampled_from('"\\%,;\n\t\x00\x1f\x7fé€😀'), st.characters()))


@st.composite
def _tables(draw):
    columns = draw(st.lists(_TEXT, min_size=1, max_size=5, unique=True))
    cell = st.one_of(st.integers(), _TEXT)
    return columns, draw(st.lists(st.tuples(*[cell] * len(columns)), max_size=6))


@given(_tables(), st.sampled_from(("csv", "json")))
@settings(max_examples=200, deadline=None)
def test_streaming_writer_matches_whole_table_output(table, fmt):
    # The writer's bytes are those of the whole table written at once:
    # json.dumps of the row dicts, or the CSV lines joined (the header
    # alone, or [], for no rows).
    columns, rows = table
    out = io.StringIO()
    with redirect_stdout(out):
        cli._emit(argparse.Namespace(format=fmt, out=None), columns, iter(rows))
    if fmt == "json":
        expected = json.dumps([dict(zip(columns, row)) for row in rows], indent=2) + "\n"
    else:
        lines = [",".join(columns)] + [",".join(str(v) for v in row) for row in rows]
        expected = "\n".join(lines) + "\n"
    assert out.getvalue() == expected


def test_enumerate_writes_each_row_before_the_next_point(monkeypatch):
    out, section, written = io.StringIO(), cli.counting._section_points, []

    def watched(p, genus):
        for mu in section(p, genus):
            written.append(out.getvalue().count("\n"))  # lines out before this point
            yield mu

    monkeypatch.setattr(cli.counting, "_section_points", watched)
    with redirect_stdout(out):
        assert cli.main(["enumerate", "--p", "6", "--genus", "20..21"]) == 0
    # The header goes out with the first row, and each row before the next
    # point is walked.
    assert len(written) == out.getvalue().count("\n") - 1 > 100
    assert written == [0] + list(range(2, len(written) + 1))


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--genus=-1..2",), "genus must be nonnegative"),
        (("--genus", "3", "--p", "2"), "p must be at least 3"),
        (("--genus", "3", "--out", "{out}"), "cannot write {out}: No such file or directory"),
    ],
    ids=["negative-genus", "p2", "unwritable-out"],
)
def test_enumerate_fails_before_any_output(tmp_path, capsys, argv, message):
    target = str(tmp_path / "missing" / "x.csv")
    argv = [arg.format(out=target) for arg in ("enumerate", "--p", "6", *argv)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message.format(out=target)}\n")


def test_reader_that_stops_early_ends_the_walk_quietly(tmp_path):
    # `nsg enumerate --p 6 --genus 60..62 | head -1`: the reader gets the
    # header and closes the pipe; the walk stops there (49,605 points in
    # all), with nothing on stderr and exit 0.
    src = os.path.dirname(os.path.dirname(os.path.abspath(nsg.__file__)))
    walked = tmp_path / "walked"
    script = (
        "import atexit, sys\n"
        "from nsg import cli, counting\n"
        "section, walked = counting._section_points, [0]\n"
        "def counted(p, genus):\n"
        "    for mu in section(p, genus):\n"
        "        walked[0] += 1\n"
        "        yield mu\n"
        "counting._section_points = counted\n"
        f"atexit.register(lambda: open({str(walked)!r}, 'w').write(str(walked[0])))\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script, "enumerate", "--p", "6", "--genus", "60..62"],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"p,mu,generators,")
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert 0 < int(walked.read_text()) < 49605 // 2


def test_edges_output(capsys):
    code, out, _ = run_cli(capsys, "edges", "--p", "3")
    assert code == 0
    assert out.strip() == "(1,2) (2,1)"


def test_paths_count_and_list(capsys):
    code, out, _ = run_cli(capsys, "paths", "--p", "3", "--q", "7")
    assert code == 0
    assert out.strip().splitlines()[-1] == "3,7,7"
    code, out, _ = run_cli(capsys, "paths", "--p", "3", "--q", "4", "--list")
    assert code == 0
    assert len(out.strip().splitlines()) == 4  # header + three paths


@pytest.mark.parametrize("p,q", [(3, 4), (3, 8), (4, 9), (4, 11), (5, 7), (5, 9)])
def test_paths_list_rows_match_checked_conversion(capsys, p, q):
    # --list builds each semigroup from the path's heights alone; the pairwise
    # closure check of semigroup_from_path must accept every listed path
    code, out, _ = run_cli(capsys, "paths", "--p", str(p), "--q", str(q), "--list")
    assert code == 0
    system = paths.PathSystem(p, q)
    listed = sorted(paths.iter_admissible(system), key=lambda t: (len(t.points), t.corners))
    rows = out.splitlines()[1:]
    assert len(rows) == len(listed) == paths.count_admissible(system)
    for row, path in zip(rows, listed):
        assert paths.is_admissible(system, path)
        s = paths.semigroup_from_path(system, path)
        corners = " ".join(f"({a},{b})" for a, b in path.corners)
        mu = ";".join(map(str, s.mu))
        flags = f"{str(s.is_symmetric()).lower()},{str(s.is_pseudo_symmetric()).lower()}"
        assert row == f"{corners},{mu},{flags}"


def test_paths_list_at_p2_is_refused(capsys):
    code, out, err = run_cli(capsys, "paths", "--p", "2", "--q", "7", "--list")
    assert (code, out) == (2, "")
    assert err == "error: semigroup conversion needs the smaller element >= 3\n"


@pytest.mark.parametrize(
    "p,q,expected",
    [
        (2, 2001, (2001 - 1) // 2),
        (3, 1601, containing_count_3(1601) - 1),
        (3, 20000, containing_count_3(20000) - 1),
    ],
)
def test_paths_long_triangle_has_no_recursion_limit(capsys, p, q, expected):
    # about 2q/3 columns at p = 3: deeper than the default recursion limit
    code, out, err = run_cli(capsys, "paths", "--p", str(p), "--q", str(q))
    assert code == 0, err
    assert out.strip().splitlines()[-1] == f"{p},{q},{expected}"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_count_contains_huge_q(capsys, workers):
    # x_1 takes 6.7e9 values and the sums run to 2e10: the count walks one
    # polygon and holds no array over the sums
    q = 10000000001
    code, out, err = run_cli(
        capsys, "count", "--p", "3", "--contains", str(q), "--workers", workers
    )
    assert code == 0, err
    assert out.strip().splitlines()[-1] == f"3,{q},all,{containing_count_3(q)}"
    assert containing_count_3(q) == 8333333340000000001


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_usage_error(capsys, workers):
    code, out, err = run_cli(capsys, "count", "--p", "3", "--genus", "4", "--workers", workers)
    assert code == 2
    assert out == ""
    assert "workers must be at least 1" in err


def test_workers_below_one_is_refused_before_any_count(capsys):
    # no q in 2..4 is coprime to 6, so no count runs; the flag is checked anyway
    code, out, err = run_cli(capsys, "count", "--p", "6", "--contains", "2..4", "--workers", "0")
    assert (code, out, err) == (2, "", "error: workers must be at least 1\n")


def test_paths_verify_recursions(capsys):
    code, out, _ = run_cli(capsys, "paths", "--p", "3", "--verify-recursions", "--q-max", "20")
    assert code == 0
    assert all(line.endswith("true") for line in out.strip().splitlines()[1:])


def test_recursion_mismatch_names_the_first_witness(monkeypatch, capsys):
    count_containing = cli.counting.count_containing

    def off_by_one_at_13(p, q, class_filter="all"):
        return count_containing(p, q, class_filter) + (q == 13 and class_filter == "sym")

    monkeypatch.setattr(cli.counting, "count_containing", off_by_one_at_13)
    code, out, err = run_cli(capsys, "paths", "--p", "3", "--verify-recursions", "--q-max", "20")
    assert code == 1
    # q = 13 is checked against q = 10 and q = 16 against q = 13: the first is the witness
    assert err == "recursion mismatch at q=13: symmetric\n"
    assert [line.split(",")[1] for line in out.splitlines() if line.endswith("false")] == ["13", "16"]


def test_fit_auto_period(capsys):
    code, out, _ = run_cli(capsys, "fit", "--p", "4", "--target", "G", "--period", "auto", "--degree", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "period: 6"
    assert lines[1] == "degree: 2"
    assert lines[-1] == "leading: 1/12 (constant)"


def test_fit_containment_target(capsys):
    code, out, _ = run_cli(
        capsys, "fit", "--p", "3", "--target", "N", "--residue", "1",
        "--period", "2", "--degree", "2", "--samples", "12",
    )
    assert code == 0
    assert "leading: 3/4 (constant)" in out


def test_fit_containment_auto_period_uses_residue_direction(capsys):
    code, out, _ = run_cli(
        capsys, "fit", "--p", "3", "--target", "N", "--residue", "2",
        "--period", "auto", "--degree", "2",
    )
    assert code == 0
    assert out.startswith("period: 2\n")
    assert "leading: 3/4 (constant)" in out


@pytest.mark.parametrize("residue", ["0", "2", "5"])
def test_fit_checks_residue_before_predicting_the_period(capsys, residue):
    code, _, err = run_cli(capsys, "fit", "--p", "4", "--target", "N", "--residue", residue)
    assert code == 2
    assert f"residue {residue} invalid for p=4" in err


def test_fit_bad_shape_fails_with_one(capsys):
    code, _, err = run_cli(
        capsys, "fit", "--p", "3", "--target", "G", "--period", "2", "--degree", "1",
        "--samples", "12",
    )
    assert code == 1
    assert "fit failed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--p", "5", "--genus", "5..3"),
        ("count", "--p", "5", "--contains", "9..3"),
        ("enumerate", "--p", "5", "--genus", "4..2"),
    ],
)
def test_empty_range_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["5..", "..5", "a..b", "x"])
@pytest.mark.parametrize(
    "command", [("count", "--genus"), ("count", "--contains"), ("enumerate", "--genus")]
)
def test_malformed_range_names_text_and_form(capsys, command, text):
    name, flag = command
    code, out, err = run_cli(capsys, name, "--p", "5", flag, text)
    assert code == 2
    assert out == ""
    assert err == f"error: invalid range {text!r}: expected N or A..B\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("--p", "7", "--target", "G"),
        ("--p", "4", "--target", "G", "--samples", str(cli.MAX_FIT_SAMPLES + 1)),
    ],
)
def test_fit_over_sample_budget_is_refused_before_sampling(monkeypatch, capsys, argv):
    def no_sampling(*args):
        raise AssertionError("a refused fit must not count anything")

    monkeypatch.setattr(cli.counting, "genus_count_series", no_sampling)
    code, out, err = run_cli(capsys, "fit", *argv)
    assert code == 2
    assert out == ""
    assert f"budget of {cli.MAX_FIT_SAMPLES}" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("--target", "G", "--period", "0"), "--period must be at least 1, not 0"),
        (("--target", "G", "--period", "-2"), "--period must be at least 1, not -2"),
        (("--target", "G", "--samples", "0"), "--samples must be at least 1, not 0"),
        (("--target", "N", "--period", "-2"), "--period must be at least 1, not -2"),
        (("--target", "N", "--samples", "-1"), "--samples must be at least 1, not -1"),
        (("--target", "G", "--degree", "-3"), "--degree must be at least 0, not -3"),
        (("--target", "N", "--degree", "-1"), "--degree must be at least 0, not -1"),
        (("--target", "G", "--residue", "3"), "--residue applies only to --target N"),
    ],
)
def test_fit_flags_out_of_range_are_usage_errors(monkeypatch, capsys, argv, message):
    def no_sampling(*args):
        raise AssertionError("a refused fit must not count anything")

    monkeypatch.setattr(cli.counting, "genus_count_series", no_sampling)
    monkeypatch.setattr(cli.counting, "count_containing", no_sampling)
    code, out, err = run_cli(capsys, "fit", "--p", "4", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_table_matches_golden_file(capsys):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name in cli.TABLE_NAMES:
        golden = os.path.join(here, "tables", f"{name}.csv")
        with open(golden, newline="") as fh:
            frozen = fh.read()
        code, out, _ = run_cli(capsys, "table", name)
        assert code == 0
        assert out == frozen


def test_table_json_mirrors_csv(capsys):
    code, csv_out, _ = run_cli(capsys, "table", "contains-p3")
    code2, json_out, _ = run_cli(capsys, "table", "contains-p3", "--format", "json")
    assert code == code2 == 0
    payload = json.loads(json_out)
    lines = csv_out.strip().splitlines()
    columns = lines[1].split(",")
    for row_line, row_obj in zip(lines[2:], payload["rows"]):
        assert row_line == ",".join(str(row_obj[c]) for c in columns)


def test_count_json_mirrors_csv(capsys):
    args = ("count", "--p", "4", "--genus", "0..4")
    _, csv_out, _ = run_cli(capsys, *args)
    _, json_out, _ = run_cli(capsys, *args, "--format", "json")
    payload = json.loads(json_out)
    lines = csv_out.strip().splitlines()
    columns = lines[0].split(",")
    assert len(payload) == len(lines) - 1
    for line, obj in zip(lines[1:], payload):
        assert line == ",".join(str(obj[c]) for c in columns)


def test_worker_count_does_not_change_output(capsys):
    base = run_cli(capsys, "count", "--p", "4", "--genus", "0..6", "--workers", "1")
    multi = run_cli(capsys, "count", "--p", "4", "--genus", "0..6", "--workers", "2")
    assert base == multi


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("cls", ["all", "sym", "psym", "medim"])
def test_genus_range_matches_row_by_row_counts(capsys, fmt, cls):
    code, out, _ = run_cli(
        capsys, "count", "--p", "5", "--genus", "3..13", "--class", cls, "--format", fmt
    )
    assert code == 0
    rows = [(5, g, cls, count_by_genus(5, g, cls)) for g in range(3, 14)]
    if fmt == "csv":
        expected = "p,genus,class,count\n" + "".join(f"{p},{g},{c},{n}\n" for p, g, c, n in rows)
    else:
        keys = ("p", "genus", "class", "count")
        expected = json.dumps([dict(zip(keys, row)) for row in rows], indent=2) + "\n"
    assert out == expected


def test_seed_tables_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "seed-tables", "--dir", str(tmp_path))
    assert code == 0
    for name in cli.TABLE_NAMES:
        written = (tmp_path / f"{name}.csv").read_text()
        assert written.startswith(f"# source: {name}\n")
        assert written == cli.table_text(name)


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "counts.csv"
    code, out, _ = run_cli(capsys, "count", "--p", "3", "--genus", "0..3", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[0] == "p,genus,class,count"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fit_out_writes_what_stdout_gets(tmp_path, capsys, fmt):
    argv = ("fit", "--p", "4", "--target", "G", "--format", fmt)
    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0 and expected.startswith("period: 6" if fmt == "csv" else "{")
    target = tmp_path / "fit.txt"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert (code, out, err) == (0, "", "")
    with open(target, newline="") as fh:
        assert fh.read() == expected


@pytest.mark.parametrize("command", ["count", "fit", "seed-tables"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, command):
    target = tmp_path / "missing" / "x.csv"
    if command in ("count", "fit"):
        argv = (command, "--p", "4", "--out", str(target))
        argv += ("--genus", "1..2") if command == "count" else ("--target", "G")
        reason = "No such file or directory"
    else:
        target.parent.write_text("a file, not a directory\n")
        argv = ("seed-tables", "--dir", str(target))
        reason = "Not a directory"
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target}: {reason}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["count", "fit", "seed-tables"])
def test_output_that_fails_on_write_is_usage_error(tmp_path, capsys, command):
    # /dev/full opens, then refuses the bytes when they are flushed.
    if command == "count":
        target = "/dev/full"
        argv = ("count", "--p", "6", "--contains", "41..46", "--class", "psym", "--out", target)
    elif command == "fit":
        target = "/dev/full"
        argv = ("fit", "--p", "4", "--target", "G", "--out", target)
    else:
        target = os.path.join(str(tmp_path), f"{cli.TABLE_NAMES[0]}.csv")
        os.symlink("/dev/full", target)
        argv = ("seed-tables", "--dir", str(tmp_path))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: No space left on device\n"


@pytest.mark.parametrize("flag", ["--period", "--degree"])
@pytest.mark.parametrize("value", ["abc", "2.5", ""])
def test_fit_flag_not_auto_or_integer_names_the_flag(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit", "--p", "4", "--target", "G", flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: expected auto or an integer, not {value!r}" in captured.err


def test_usage_error_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--p", "3"])  # neither --genus nor --contains
    assert exc.value.code == 2


def test_q_max_without_verify_recursions_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["paths", "--p", "4", "--q", "9", "--q-max", "30"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--q-max applies only to --verify-recursions" in err


def test_q_and_q_max_together_are_usage_error(capsys):
    # --verify-recursions reads one upper q: given both, neither is dropped silently.
    with pytest.raises(SystemExit) as exc:
        cli.main(["paths", "--p", "4", "--verify-recursions", "--q", "30", "--q-max", "12"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--q and --q-max cannot be given together" in err


def test_internal_error_exits_three(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("walk lost its place")

    monkeypatch.setattr(cli, "_cmd_edges", broken)
    code, out, err = run_cli(capsys, "edges", "--p", "3")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: walk lost its place\n"


# What a command must not load: multiprocessing, concurrent.futures and
# signal, since --workers starts no process, dataclasses, inspect and the
# reference closed forms never, json only for JSON output.
_HEAVY = (
    "multiprocessing", "concurrent.futures", "signal", "dataclasses", "inspect", "json",
    "nsg.closed_forms",
)
# What only one command may load: fit its fractions (with decimal and
# numbers) and the fit itself, paths the staircases.
_ONLY = {
    "fit": ("fractions", "decimal", "numbers", "nsg.quasi"),
    "paths": ("nsg.paths",),
}


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("count", "--p", "6", "--contains", "47..52", "--class", "sym"),
        pytest.param(
            ("count", "--p", "6", "--contains", "41..46", "--workers", "2"),
            id="count-workers",
        ),
        ("enumerate", "--p", "6", "--genus", "20"),
        ("paths", "--p", "4", "--q", "25", "--list"),
        ("edges", "--p", "6"),
        ("fit", "--p", "4", "--target", "G"),
    ],
    ids=lambda argv: argv[0] if argv else "import",
)
def test_import_leaves_modules_out(argv):
    # One fresh interpreter per case: the import graph of the command alone.
    src = os.path.dirname(os.path.dirname(os.path.abspath(nsg.__file__)))
    command = argv[0] if argv else None
    banned = _HEAVY + tuple(m for cmd, mods in _ONLY.items() if cmd != command for m in mods)
    script = (
        "import sys\n"
        "from nsg import cli\n"
        "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        f"print(code, [m for m in {banned!r} if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.splitlines()[-1] == "0 []"
