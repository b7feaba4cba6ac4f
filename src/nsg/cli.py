"""Command line surface: counting, listing, paths, edges, fitting, tables.

Exit codes: 0 on success, 1 when a verification-style command finds a
mismatch, 2 on usage errors (an output path that cannot be written among
them), 3 on an internal error; a reader that closes stdout early ends the
command quietly with 0.  CSV output is byte-stable so the files written by
``seed-tables`` can be compared verbatim with ``nsg table``.

``count``, ``enumerate`` and ``paths`` write their tables through one
writer, _emit, a row at a time as the rows come, in CSV or in the bytes of
``json.dumps(rows, indent=2)``.  ``enumerate`` reads each genus slice off
counting.genus_points and each row's invariants off one Apéry tuple,
through the core helpers behind the Semigroup methods, so its memory stays
flat however many rows it lists.  Each command imports only the modules it
runs: paths, quasi and cone's edge search load inside their commands, and
json only for JSON output.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import chain

from . import core, counting
from .counting import CLASS_FILTERS

TABLE_NAMES = ("genus-small", "contains-p3", "contains-p4")
# Samples a fit may count.  The p = 5 genus fit needs 240; the p = 6 and 7
# fits need thousands, and counting that far would take days.
MAX_FIT_SAMPLES = 1000
_CONTAINS_Q = {"contains-p3": (3, (1, 2, 4, 5, 7, 8, 10, 11, 13, 14)),
               "contains-p4": (4, (1, 3, 5, 7, 9, 11, 13, 15))}


def _parse_range(text: str) -> range:
    """N or A..B as a range; any other text is a ValueError that names it."""
    lo, dots, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError:
        raise ValueError(f"invalid range {text!r}: expected N or A..B") from None
    if hi < lo:
        raise ValueError(f"range {text} is empty")
    return range(lo, hi + 1)


def _auto_or_int(text: str) -> int | None:
    """None for "auto", else the integer; argparse names the flag if neither."""
    if text == "auto":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected auto or an integer, not {text!r}") from None


def _write(path, chunks):
    """Write the strings of chunks, as they come, to the file path, or to
    stdout without one; any failure to write the file, the final flush
    included, is a usage error."""
    if not path:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.writelines(chunks)
    except OSError as err:
        raise ValueError(f"cannot write {path}: {err.strerror or err}") from err


def _json_text(payload, indent=None) -> str:
    import json  # here, not at the top: every command pays for this module's imports

    return json.dumps(payload, indent=indent) + "\n"


def _csv_lines(columns, rows):
    """The CSV lines of a table: the header, then one line per row."""
    yield ",".join(columns) + "\n"
    for row in rows:
        yield ",".join(map(str, row)) + "\n"


def _json_lines(columns, rows):
    """json.dumps([dict(zip(columns, row)) for row in rows], indent=2) + "\n",
    an array item at a time; the columns are distinct and the values ints
    or strings, which go through json's own C string encoder."""
    from json.encoder import encode_basestring_ascii as quote  # only JSON output loads json

    fields = ",\n".join("    " + quote(c).replace("%", "%%") + ": %s" for c in columns)
    item = "  {\n" + fields + "\n  }"
    start = "[\n"
    for row in rows:
        yield start + item % tuple([quote(v) if type(v) is str else repr(v) for v in row])
        start = ",\n"
    yield "[]\n" if start == "[\n" else "\n]\n"


def _emit(args, columns, rows):
    """Write a table as CSV (default) or JSON to --out or stdout, each row
    as rows yields it.

    The output starts once the first row is known, or that there is none:
    an error raised before it writes nothing and leaves --out unopened.
    """
    rows = iter(rows)
    first = next(rows, None)
    if first is not None:
        rows = chain((first,), rows)
    lines = _json_lines if args.format == "json" else _csv_lines
    _write(args.out, lines(columns, rows))


def _cmd_count(args) -> int:
    if args.workers < 1:
        raise ValueError("workers must be at least 1")
    if args.genus is not None:
        genera = _parse_range(args.genus)
        counts = counting.genus_window(args.p, genera[0], genera[-1], args.cls)
        rows = ((args.p, g, args.cls, n) for g, n in zip(genera, counts))
        columns = ("p", "genus", "class", "count")
    else:
        qs = _parse_range(args.contains)
        if len(qs) == 1 and math.gcd(args.p, qs[0]) != 1:
            raise counting.NotCoprime(f"gcd({args.p}, {qs[0]}) != 1")
        rows = (
            (args.p, q, args.cls, counting.count_containing(args.p, q, args.cls))
            for q in qs
            if math.gcd(args.p, q) == 1
        )
        columns = ("p", "q", "class", "count")
    _emit(args, columns, rows)
    return 0


def _enumerate_rows(p, genera, class_filter):
    """The rows of enumerate, one genus slice after another, in mu order.

    Each row reads every invariant off one Apéry tuple (core.invariants),
    and the class flags off its genus and Frobenius number, through the
    helpers that the Semigroup methods call.
    """
    invariants, flag = core.invariants, ("false", "true")
    symmetric, pseudo, medim = (
        core._is_symmetric, core._is_pseudo_symmetric, core._is_max_embedding_dimension
    )
    for g in genera:
        for mu in counting.genus_points(p, g, class_filter):
            gens, genus, frobenius, multiplicity = invariants(p, mu)
            yield (
                p,
                ";".join(map(str, mu)),
                ";".join(map(str, gens)),
                genus,
                frobenius if genus else "",
                multiplicity,
                len(gens),
                flag[symmetric(genus, frobenius)],
                flag[pseudo(genus, frobenius)],
                flag[medim(p, multiplicity, gens)],
            )


def _cmd_enumerate(args) -> int:
    _emit(
        args,
        (
            "p", "mu", "generators", "genus", "frobenius", "multiplicity",
            "embedding_dimension", "symmetric", "pseudo_symmetric",
            "max_embedding_dimension",
        ),
        _enumerate_rows(args.p, _parse_range(args.genus), args.cls),
    )
    return 0


def _cmd_paths(args) -> int:
    from . import paths

    if args.verify_recursions:
        q_max = args.q_max if args.q_max is not None else args.q
        report = paths.verify_path_recursions(args.p, q_max)
        rows = (
            (
                args.p, r.q, r.new_total, r.new_symmetric, r.new_pseudo,
                str(r.ok).lower(),
            )
            for r in report.rows
        )
        _emit(args, ("p", "q", "new_total", "new_symmetric", "new_pseudo", "ok"), rows)
        for r in report.rows:
            checks = {"total": r.total_ok, "symmetric": r.symmetric_ok, "pseudo": r.pseudo_ok}
            failed = [name for name, ok in checks.items() if not ok]
            if failed:
                print(f"recursion mismatch at q={r.q}: {', '.join(failed)}", file=sys.stderr)
                return 1
        return 0
    system = paths.PathSystem(args.p, args.q)
    if args.list:
        rows = []
        listed = sorted(paths.iter_admissible(system), key=lambda t: (len(t.points), t.corners))
        if listed and system.p < 3:
            raise ValueError("semigroup conversion needs the smaller element >= 3")
        for path in listed:
            # the walk yields admissible paths only: semigroup_from_path's
            # pairwise check would prove that again, in |L|^2 steps
            s = paths._semigroup_from_heights(system, path.heights())
            rows.append(
                (
                    " ".join(f"({a},{b})" for a, b in path.corners),
                    ";".join(str(m) for m in s.mu),
                    str(s.is_symmetric()).lower(),
                    str(s.is_pseudo_symmetric()).lower(),
                )
            )
        _emit(args, ("corners", "mu", "symmetric", "pseudo_symmetric"), rows)
        return 0
    _emit(args, ("p", "q", "admissible"), [(system.p, system.q, paths.count_admissible(system))])
    return 0


def _cmd_edges(args) -> int:
    from .cone import edges_of_cone_star

    rays = edges_of_cone_star(args.p).rays
    if args.format == "json":
        sys.stdout.write(_json_text([list(r) for r in rays]))
    else:
        sys.stdout.write(" ".join("(" + ",".join(str(v) for v in r) + ")" for r in rays) + "\n")
    return 0


def _fit_values(args):
    if args.target == "G":
        series = counting.genus_count_series(args.p, args.samples - 1, args.cls)
        return [int(v) for v in series]
    return [
        counting.count_containing(args.p, args.residue + n * args.p, args.cls)
        for n in range(args.samples)
    ]


def _cmd_fit(args) -> int:
    from . import quasi

    # None: the smallest divisor of the predicted period that fits
    period, degree = args.period, args.degree
    for flag, value, least in (
        ("--period", period, 1), ("--samples", args.samples, 1), ("--degree", degree, 0)
    ):
        if value is not None and value < least:
            raise ValueError(f"{flag} must be at least {least}, not {value}")
    if args.target == "G":
        if args.residue is not None:
            raise ValueError("--residue applies only to --target N")
        direction = (1,) * (args.p - 1)
    else:
        if args.residue is None:
            args.residue = 1
        if math.gcd(args.residue, args.p) != 1 or not 0 < args.residue < args.p:
            raise counting.NotCoprime(f"residue {args.residue} invalid for p={args.p}")
        direction = tuple(1 if i == args.residue else 0 for i in range(1, args.p))
    predicted = quasi.predict_quasi_period(args.p, direction)
    if args.samples is None:
        base = period if period is not None else predicted
        args.samples = base * ((degree if degree is not None else 6) + 2)
    if args.samples > MAX_FIT_SAMPLES:
        raise ValueError(
            f"the fit needs {args.samples} samples, above the budget of {MAX_FIT_SAMPLES}"
        )
    values = _fit_values(args)

    def attempt(n):
        return quasi.fit(values, n, degree)

    if period is not None:
        try:
            qp = attempt(period)
        except quasi.VerificationMismatch as err:
            print(f"fit failed: {err}", file=sys.stderr)
            return 1
    else:
        qp = None
        for n in sorted(d for d in range(1, predicted + 1) if predicted % d == 0):
            try:
                qp = attempt(n)
                break
            except quasi.VerificationMismatch:
                continue
        if qp is None:
            print(f"no divisor of {predicted} yields a consistent fit", file=sys.stderr)
            return 1
    report = quasi.leading_coefficient_report(qp)
    if args.format == "json":
        payload = {
            "period": qp.period,
            "degree": qp.degree,
            "constituents": [[str(c) for c in cons] for cons in qp.constituents],
            "leading": [str(c) for c in report.coefficients],
            "leading_constant": report.constant,
        }
        text = _json_text(payload, indent=2)
    else:
        lines = [f"period: {qp.period}", f"degree: {qp.degree}"]
        for r, cons in enumerate(qp.constituents):
            terms = " + ".join(
                f"{c}" if k == 0 else f"{c}*n^{k}" for k, c in enumerate(cons)
            ) or "0"
            lines.append(f"class {r}: {terms}")
        flag = "constant" if report.constant else "varies"
        lines.append(f"leading: {report.coefficients[0]} ({flag})")
        text = "\n".join(lines) + "\n"
    _write(args.out, (text,))
    return 0


def _table_rows(name):
    if name == "genus-small":
        columns = (
            "g", "total_p3", "medim_p3", "symmetric_p3",
            "total_p4", "medim_p4", "symmetric_p4",
        )
        data = {
            p: {cls: counting.genus_count_series(p, 8, cls) for cls in ("all", "medim", "sym")}
            for p in (3, 4)
        }
        rows = [
            (
                g,
                data[3]["all"][g], data[3]["medim"][g], data[3]["sym"][g],
                data[4]["all"][g], data[4]["medim"][g], data[4]["sym"][g],
            )
            for g in range(9)
        ]
        return columns, rows
    p, qs = _CONTAINS_Q[name]
    columns = ("q", "total", "medim", "symmetric", "pseudo_symmetric")
    tables = {
        cls: {q: counting.count_containing(p, q, cls) for q in qs}
        for cls in ("all", "medim", "sym", "psym")
    }
    rows = [
        (q, tables["all"][q], tables["medim"][q], tables["sym"][q], tables["psym"][q])
        for q in qs
    ]
    return columns, rows


def table_text(name: str) -> str:
    return f"# source: {name}\n" + "".join(_csv_lines(*_table_rows(name)))


def _cmd_table(args) -> int:
    if args.format == "json":
        columns, rows = _table_rows(args.name)
        payload = {"source": args.name, "rows": [dict(zip(columns, r)) for r in rows]}
        sys.stdout.write(_json_text(payload, indent=2))
    else:
        sys.stdout.write(table_text(args.name))
    return 0


def _cmd_seed_tables(args) -> int:
    try:
        os.makedirs(args.dir, exist_ok=True)
    except OSError as err:
        raise ValueError(f"cannot write {args.dir}: {err.strerror or err}") from err
    for name in TABLE_NAMES:
        target = os.path.join(args.dir, f"{name}.csv")
        _write(target, (table_text(name),))
        print(f"wrote {target}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsg",
        description="Count and classify numerical semigroups containing a fixed element.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_class=True, with_workers=False):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", help="write output to this file instead of stdout")
        if with_class:
            sp.add_argument(
                "--class", dest="cls", choices=CLASS_FILTERS, default="all"
            )
        if with_workers:
            sp.add_argument(
                "--workers", type=int, default=1,
                help="accepted for compatibility; at least 1; every count runs in one process",
            )

    sp = sub.add_parser("count", help="count semigroups by genus or by containment")
    sp.add_argument("--p", type=int, required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--genus", help="genus value or range A..B")
    group.add_argument("--contains", help="second element value or range A..B")
    add_common(sp, with_workers=True)
    sp.set_defaults(func=_cmd_count)

    sp = sub.add_parser("enumerate", help="list semigroups of a given genus")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--genus", required=True, help="genus value or range A..B")
    add_common(sp)
    sp.set_defaults(func=_cmd_enumerate)

    sp = sub.add_parser("paths", help="admissible staircase paths of a (p, q) system")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int)
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--list", action="store_true")
    mode.add_argument("--verify-recursions", action="store_true")
    sp.add_argument("--q-max", type=int, help="upper q for --verify-recursions")
    add_common(sp, with_class=False)
    sp.set_defaults(func=_cmd_paths)

    sp = sub.add_parser("edges", help="edge generators of the recession cone")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=_cmd_edges)

    sp = sub.add_parser("fit", help="fit a counting sequence as a quasi-polynomial")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--target", choices=("G", "N"), required=True,
                    help="G: counts by genus; N: counts by containment")
    sp.add_argument("--residue", type=int, help="residue of q mod p for target N")
    sp.add_argument("--period", type=_auto_or_int, default="auto")
    sp.add_argument("--degree", type=_auto_or_int, default="auto")
    sp.add_argument("--samples", type=int)
    add_common(sp)
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("table", help="print one of the reference tables")
    sp.add_argument("name", choices=TABLE_NAMES)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=_cmd_table)

    sp = sub.add_parser("seed-tables", help="regenerate the golden table files")
    sp.add_argument("--dir", default="tables")
    sp.set_defaults(func=_cmd_seed_tables)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "paths":
        if args.verify_recursions and args.q_max is None and args.q is None:
            parser.error("--verify-recursions needs --q-max (or --q)")
        if not args.verify_recursions and args.q is None:
            parser.error("paths requires --q unless --verify-recursions is given")
        if not args.verify_recursions and args.q_max is not None:
            parser.error("--q-max applies only to --verify-recursions")
        if args.q is not None and args.q_max is not None:
            parser.error("--q and --q-max cannot be given together")
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader of stdout stopped early (`| head`): the rows stop with
        # it, and what is still buffered goes nowhere, so that exit is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
