"""Benchmark of the ``nsg`` command line: seeded workloads of real commands.

    python3 perfbench/run.py --workload genus-sweep --seed 1 --seconds 25 --trace 0

Each command runs in a fresh interpreter, one after another (a closed loop
with one client: the next command starts when the previous one exits).  A
pass runs every command of the workload once; passes repeat until
``--seconds`` of measuring is used up.  After each pass, outside the timed
region, every output is checked against an oracle (``checks.py``).

With ``--trace 0`` the result holds the end-to-end metrics, each the median
over the passes of the run:

  wall_s         wall time of one pass, process start-up included
  setup_s        wall time of ``python -c "import nsg.cli"``, median of
                 fresh interpreters started between the passes
  cmd_p50_s      median wall time of one command within a pass
  slowest_cmd_s  wall time of the slowest command of a pass
  cpu_s          user plus system CPU of the pass's command processes,
                 pool workers included
  peak_rss_mb    largest max-RSS (MiB) of any command process in the pass
  ok_frac        share of attempted commands that exited 0 in time
                 (1 - fail_frac)
  agree_frac     share of attempted commands that did not exit 0 with an
                 output the oracle rejects (1 - wrong_frac)

The two shares are reported as complements so that no metric is ever zero;
the results file under ``.bench_build/perfbench/`` also holds ``fail_frac``
and ``wrong_frac`` themselves, with the first witness of each.

With ``--trace 1`` untraced and traced passes alternate, and the result
holds the per-layer metrics of the traced passes (``tracer.py`` explains the
spans); the spans themselves and their self times go to
``.bench_build/perfbench/<workload>-seed<seed>-spans.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"

COMMAND_TIMEOUT_S = 60.0  # a command past this counts as failed
RUN_DEADLINE_S = 160.0  # no command may run past this point of a run
SETUP_EACH = 2  # import checks before each pass and after the last one
LAYERS = ("cli", *tracer.LAYERS)
IMPORT_CHECK = ("-c", "import nsg.cli")


def pinned_env() -> dict:
    """The environment of every command: nothing outside may change the work."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("PYTHON") and key != "NSG_WORKERS"
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Outcome:
    argv: tuple
    start: float
    end: float
    exit: int | None  # None when the command was killed at its timeout
    cpu_s: float
    rss_mb: float
    stdout: Path
    stderr: Path

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def ok(self) -> bool:
        return self.exit == 0


def _kill_group(pid: int, fired: list) -> None:
    fired.append(True)
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(args, stdout: Path, stderr: Path, env: dict, timeout: float) -> Outcome:
    """Run one process to its end; wall time, CPU and max-RSS come from wait4.

    The process gets a session of its own, so a timeout kills its pool
    workers with it.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            cwd=ROOT, env=env, start_new_session=True,
        )
        fired: list = []
        killer = threading.Timer(timeout, _kill_group, (proc.pid, fired))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        _kill_group(proc.pid, [])  # stray pool workers of a crashed command
    return Outcome(
        tuple(args), start, end, None if fired else proc.returncode,
        usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, stdout, stderr,
    )


class Runner:
    """Runs passes of one workload and keeps what the result needs."""

    def __init__(self, commands, seconds: float, env: dict, out: Path = OUT):
        self.commands = commands
        self.seconds = seconds
        self.env = env
        self.out = out
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.failures: list[dict] = []
        self.wrongs: list[dict] = []
        out.mkdir(parents=True, exist_ok=True)

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.t0)

    def process(self, args, tag: str) -> Outcome:
        timeout = max(1.0, min(COMMAND_TIMEOUT_S, self.remaining()))
        return run_process(args, self.out / f"{tag}.out", self.out / f"{tag}.err", self.env, timeout)

    def setup_times(self, count: int) -> list[float]:
        walls = []
        for i in range(count):
            outcome = self.process(IMPORT_CHECK, f"setup{i}")
            if not outcome.ok:
                raise SystemExit(f"import nsg.cli failed: {outcome.stderr.read_text()[-2000:]}")
            walls.append(outcome.wall_s)
        return walls

    def run_pass(self, traced: bool, number: int) -> dict:
        outcomes = []
        start = time.perf_counter()
        for i, command in enumerate(self.commands):
            if traced:
                args = (str(HERE / "tracer.py"), str(self.out / f"cmd{i}.spans.json"), *command.argv)
            else:
                args = ("-m", "nsg", *command.argv)
            outcomes.append(self.process(args, f"cmd{i}"))
        end = time.perf_counter()
        # Everything below is outside the timed region.
        check_start = time.perf_counter()
        failed = wrong = 0
        semigroups = {}  # command index -> semigroups its checked output counts
        for i, (command, outcome) in enumerate(zip(self.commands, outcomes)):
            self.attempted += 1
            if not outcome.ok:
                failed += 1
                self.failures.append(_witness(number, command, outcome.exit, outcome.stderr))
                continue
            text = outcome.stdout.read_text()
            verdict = command.check(text)
            if verdict is not None:
                wrong += 1
                self.wrongs.append(_witness(number, command, 0, None, verdict))
            elif command.tally is not None:
                semigroups[i] = command.tally(text)
        check_s = time.perf_counter() - check_start
        result = {
            "traced": traced,
            "wall_s": end - start,
            "cmd_walls": [o.wall_s for o in outcomes],
            "cpu_s": sum(o.cpu_s for o in outcomes),
            "peak_rss_mb": max(o.rss_mb for o in outcomes),
            "failed": failed,
            "wrong": wrong,
            "semigroups": semigroups,
            "check_s": check_s,
        }
        if traced:
            result["trace"] = _pass_trace(start, end, outcomes)
        return result

    def passes(self, kinds, setup_each: int = 0) -> tuple[list[dict], list[float]]:
        """Repeat the cycle of pass kinds while the next cycle fits in the time.

        At least one cycle always runs.  Import times are sampled between the
        cycles, so that they see the same machine as the passes do.
        """
        results = []
        setup = []
        measured = 0.0
        while True:
            setup += self.setup_times(setup_each)
            cycle = [self.run_pass(traced, len(results) + k) for k, traced in enumerate(kinds)]
            results.extend(cycle)
            measured += sum(r["wall_s"] for r in cycle)
            cycles = len(results) // len(kinds)
            if measured + measured / cycles > self.seconds or self.remaining() < 2 * measured / cycles:
                return results, setup + self.setup_times(setup_each)


def _witness(number, command, exit_code, stderr: Path | None, message=None) -> dict:
    if message is None:
        tail = stderr.read_text(errors="replace").strip().splitlines()[-1:] if stderr else []
        message = tail[0] if tail else "killed at the timeout" if exit_code is None else ""
    return {"pass": number, "argv": list(command.argv), "exit": exit_code, "message": message}


def _pass_trace(start: float, end: float, outcomes) -> dict:
    """Spans of one traced pass: the pass, each command process, its spans."""
    records = [{"id": 0, "name": "pass", "layer": "bench", "start": start, "end": end,
                "parent": None, "calls": 1, "busy": end - start, "cmd": None}]
    calls: dict = {}
    counters: dict = {}
    imports = []
    for cmd, outcome in enumerate(outcomes):
        proc_id = len(records)
        records.append({"id": proc_id, "name": "python.process", "layer": "python",
                        "start": outcome.start, "end": outcome.end, "parent": 0, "calls": 1,
                        "busy": outcome.wall_s, "cmd": cmd})
        spans_path = Path(outcome.argv[1])
        if not spans_path.exists():
            continue  # the interpreter died before the tracer started
        dump = json.loads(spans_path.read_text())
        spans_path.unlink()
        offset = len(records)
        for rec in dump["records"]:
            rec = dict(rec, id=rec["id"] + offset, cmd=cmd)
            rec["parent"] = proc_id if rec["parent"] is None else rec["parent"] + offset
            records.append(rec)
            if rec["name"] == "cli.import":
                imports.append(rec["busy"])
        for key, value in dump["calls"].items():
            calls[key] = calls.get(key, 0) + value
        for key, value in dump["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"records": records, "calls": calls, "counters": counters, "imports": imports}


def layer_metrics(trace: dict, semigroups: dict) -> dict:
    """Per-layer figures of one traced pass.

    ``semigroups`` maps each counting command to the semigroups its checked
    output counts; the counting rate is taken over those commands alone.
    """
    records = trace["records"]
    own = tracer.self_times(records)
    by_id = {rec["id"]: rec for rec in records}
    self_s = dict.fromkeys(LAYERS, 0.0)
    inclusive = dict.fromkeys(LAYERS, 0.0)
    tallied_s = 0.0  # counting time of the commands in semigroups
    for rec in records:
        layer = rec["layer"]
        if layer in self_s:
            self_s[layer] += own[rec["id"]]
            if not _has_ancestor_in(by_id, rec, layer):
                inclusive[layer] += rec["busy"]
                if layer == "counting" and rec["cmd"] in semigroups:
                    tallied_s += rec["busy"]
    calls, counters = trace["calls"], trace["counters"]
    counted = sum(semigroups.values())
    found_paths = counters.get("paths.paths", 0)
    out = {"cli.import_s": statistics.median(trace["imports"]) if trace["imports"] else 0.0}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        if layer != "cli":
            out[f"{layer}.calls"] = calls.get(layer, 0)
    out.update({
        "counting.semigroups": counted,
        "counting.semigroups_per_s": counted / tallied_s if tallied_s else 0.0,
        "counting.parallel_s": counters.get("counting.parallel_s", 0.0),
        "cone.rays": counters.get("cone.rays", 0),
        "paths.paths": found_paths,
        "paths.paths_per_s": found_paths / inclusive["paths"] if inclusive["paths"] else 0.0,
        "quasi.samples": counters.get("quasi.samples", 0),
    })
    return out


def _has_ancestor_in(by_id: dict, rec: dict, layer: str) -> bool:
    parent = rec["parent"]
    while parent is not None:
        up = by_id[parent]
        if up["layer"] == layer:
            return True
        parent = up["parent"]
    return False


def trace_problems(trace: dict) -> list[str]:
    """Spans that do not nest inside their parents.

    Each span must lie within its parent's interval, and its busy time must
    not exceed the parent's.  A command's top spans come from the clock
    inside its process and their parent from the benchmark's own timing of
    that process (``wait4``), so the two are measured separately.
    """
    by_id = {rec["id"]: rec for rec in trace["records"]}
    problems = []
    for rec in trace["records"]:
        parent = by_id.get(rec["parent"])
        if parent is not None and not parent["start"] <= rec["start"] <= rec["end"] <= parent["end"]:
            problems.append(f"span {rec['name']} of command {rec['cmd']} lies outside {parent['name']}")
    for span_id, own in tracer.self_times(trace["records"]).items():
        if own < 0:
            rec = by_id[span_id]
            problems.append(f"the children of span {rec['name']} of command {rec['cmd']} "
                            f"outlast it by {-own} s")
    return problems


COUNTS = ("counting.semigroups", "cone.rays", "paths.paths", "quasi.samples",
          "counting.calls", "core.calls", "cone.calls", "paths.calls", "quasi.calls")


def unit_of(key: str) -> str:
    return "count" if key in COUNTS else "1/s" if key.endswith("_per_s") else "s"


def _median(passes, value) -> float:
    return statistics.median(value(p) for p in passes)


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    total = len(passes[0]["cmd_walls"]) * len(passes)
    failed = sum(p["failed"] for p in passes)
    wrong = sum(p["wrong"] for p in passes)
    values = {
        "wall_s": (_median(passes, lambda p: p["wall_s"]), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "cmd_p50_s": (_median(passes, lambda p: statistics.median(p["cmd_walls"])), "s"),
        "slowest_cmd_s": (_median(passes, lambda p: max(p["cmd_walls"])), "s"),
        "cpu_s": (_median(passes, lambda p: p["cpu_s"]), "s"),
        "peak_rss_mb": (_median(passes, lambda p: p["peak_rss_mb"]), "MiB"),
        "ok_frac": (1 - failed / total, "ratio"),
        "agree_frac": (1 - wrong / total, "ratio"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Medians over the traced passes, and any tracing problems."""
    per_pass = []
    problems = []
    for p in traced:
        problems += trace_problems(p["trace"])
        per_pass.append(dict(layer_metrics(p["trace"], p["semigroups"]),
                             **{"closed_forms.check_s": p["check_s"]}))
    for key in COUNTS:
        if len({m[key] for m in per_pass}) != 1:
            problems.append(f"{key} differs between traced passes: {[m[key] for m in per_pass]}")
    metrics = {
        key: {"value": per_pass[0][key] if key in COUNTS else statistics.median(m[key] for m in per_pass),
              "unit": unit_of(key)}
        for key in per_pass[0]
    }
    wall = lambda p: p["wall_s"]  # noqa: E731
    metrics["trace.overhead_s"] = {"value": _median(traced, wall) - _median(untraced, wall), "unit": "s"}
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nsg" / "cli.py").is_file():
        parser.error(f"no nsg sources under {ROOT / 'src'}")
    import workloads  # its oracles load src/nsg/closed_forms.py

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workers = min(2, nproc())
    commands, ranges = workloads.build(args.workload, args.seed, workers)
    runner = Runner(commands, args.seconds, pinned_env())
    runner.setup_times(1)  # warm-up: the first import in a checkout compiles bytecode
    if args.trace:
        results, setup = runner.passes((False, True))
        untraced = [r for r in results if not r["traced"]]
        traced = [r for r in results if r["traced"]]
        metrics, problems = per_layer(untraced, traced)
    else:
        results, setup = runner.passes((False,), SETUP_EACH)
        metrics, problems = end_to_end(results, setup), []
    failed = len(runner.failures)
    correct = not runner.wrongs and not problems

    stem = f"{args.workload}-seed{args.seed}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "executable": sys.executable,
        "nproc": nproc(),
        "ranges": ranges,
        "commands": [list(c.argv) for c in commands],
        "setup": setup,
        "passes": [{k: v for k, v in r.items() if k != "trace"} for r in results],
        "fail_frac": failed / runner.attempted,
        "wrong_frac": len(runner.wrongs) / runner.attempted,
        "failures": runner.failures[:20],
        "wrong": runner.wrongs[:20],
        "trace_problems": problems,
        "metrics": metrics,
    }
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans = [
            {"pass": i, "records": r["trace"]["records"],
             "self_s": tracer.self_times(r["trace"]["records"])}
            for i, r in enumerate(traced)
        ]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    for item in runner.wrongs[:5] + runner.failures[:1] + [{"message": m} for m in problems]:
        print(f"{item.get('argv', '')} {item['message']}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
