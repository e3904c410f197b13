"""Command-line interface: info, rewrite, derive and check workflows.

Exit codes are a stable contract: 0 success (check: no violation), 1 check
found a violation, 2 graph parse or read error, 3 structural-condition or
c-degree error, 4 cost guard tripped, 5 distribution (parse or read) or
tolerance error, 70 internal
error (a bug: one ``error:`` line, no traceback), 74 output error (``derive
-o``, ``check --json`` or ``--emit-examples`` could not write: one ``error:``
line naming the path).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Callable, NoReturn, TextIO

from .constraints import (
    ConditionsError,
    DeriveOptions,
    derive_all,
    evaluate,
    report_to_json,
    result_to_json,
)
from .graph import GraphParseError, load_graph, validate_conditions
from .independence import enumerate_ci
from .response import DEFAULT_COLUMN_LIMIT, ColumnLimitError
from .tables import TableError, load_table, parse_fraction
from .transform import (
    RewriteError,
    hlp_add_edge,
    merge_district_latents,
    normalize,
    replace_latent_with_edges,
    strong_face_split,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_PARSE = 2
EXIT_CONDITIONS = 3
EXIT_COST = 4
EXIT_TABLE = 5
EXIT_INTERNAL = 70  # sysexits EX_SOFTWARE
EXIT_IO = 74  # sysexits EX_IOERR


def _int_at_least(minimum: int):
    """An argparse type accepting integers no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obscon",
        description="Derive and test the observable constraints of hidden-variable causal DAGs.",
    )
    parser.add_argument(
        "--emit-examples",
        metavar="DIR",
        help="write the bundled example graphs and distributions to DIR and exit",
    )
    sub = parser.add_subparsers(dest="command")
    derive_flags = argparse.ArgumentParser(add_help=False)
    derive_flags.add_argument(
        "--merge", action="store_true",
        help="merge multi-latent districts first (valid but possibly incomplete)")
    derive_flags.add_argument("--max-ci-size", type=_nonnegative_int, default=None)
    derive_flags.add_argument("--column-limit", type=_positive_int,
                              default=DEFAULT_COLUMN_LIMIT)

    p_info = sub.add_parser("info", help="print variables, conditions, districts and CIs")
    p_info.add_argument("graph")
    p_info.add_argument("--max-ci-size", type=_nonnegative_int, default=None)

    p_rewrite = sub.add_parser("rewrite", help="apply a graph rewrite and print the result")
    p_rewrite.add_argument("graph")
    group = p_rewrite.add_mutually_exclusive_group(required=True)
    group.add_argument("--normalize", action="store_true")
    group.add_argument("--merge-latents", action="store_true")
    group.add_argument("--hlp", nargs=2, metavar=("W1", "W2"))
    group.add_argument("--replace", metavar="U")
    group.add_argument("--face-split", nargs="+", metavar="U")
    p_rewrite.add_argument("--c-set", nargs="+", default=[], metavar="C")
    p_rewrite.add_argument("--d-set", nargs="+", default=[], metavar="D")

    p_derive = sub.add_parser("derive", parents=[derive_flags],
                              help="derive the constraint set")
    p_derive.add_argument("graph")
    p_derive.add_argument("-o", "--output", default="-", help="output path ('-' = stdout)")
    p_derive.add_argument("--format", choices=("json", "cdd"), default="json",
                          help="JSON derivation record, or the conventional "
                               "polyhedral text format for cross-checking")
    p_derive.add_argument("--timings", action="store_true")
    p_derive.add_argument("--texts", action="store_true",
                          help="also write each constraint as text over star "
                               "and observable terms (JSON format)")

    p_check = sub.add_parser("check", parents=[derive_flags],
                             help="evaluate a distribution against the constraints")
    p_check.add_argument("graph")
    p_check.add_argument("table")
    p_check.add_argument("--tolerance", default=None,
                         help="nonnegative slack for (in)equality checks, "
                              "e.g. 1/1000000 or 1e-9")
    p_check.add_argument("--json", dest="json_path", default=None,
                         help="also write the machine-readable report here")
    return parser


def _write_failed(path: str, exc: OSError) -> NoReturn:
    print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    raise SystemExit(EXIT_IO)


def _write(path: str, emit: Callable[[TextIO], object]) -> None:
    """Open ``path`` and let ``emit`` write to it; a failure exits ``EXIT_IO``."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            emit(fh)
    except OSError as exc:
        _write_failed(path, exc)


def _dump_json(doc, fh: TextIO) -> None:
    """Stream ``doc`` to ``fh`` as indented JSON, without building the string."""
    json.dump(doc, fh, indent=2)
    fh.write("\n")


def _read(path: str, load, code: int, *args):
    """``load(path, *args)``; an unreadable or malformed file exits ``code``."""
    try:
        return load(path, *args)
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        print(f"error: cannot read {path}: {reason}", file=sys.stderr)
    except (GraphParseError, TableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    raise SystemExit(code)


def cmd_info(args) -> int:
    dag = _read(args.graph, load_graph, EXIT_PARSE)
    obs = " ".join(f"{v.name}({v.cardinality})" for v in dag.variables if v.observed)
    lat = " ".join(dag.latent_names()) or "none"
    print(f"variables: {obs}")
    print(f"latents: {lat}")
    report = validate_conditions(dag)
    for line in report.lines():
        print(line)
    districts = dag.districts()
    rendered = ", ".join(
        "{%s} (c=%d)" % (",".join(d.members), d.c_degree) for d in districts
    )
    print(f"districts: {rendered}")
    statements = enumerate_ci(dag, args.max_ci_size)
    if statements:
        print("ci:")
        for stmt in statements:
            print(f"  {stmt.render()}")
    else:
        print("ci: none")
    if not report.ok:
        print("hint: run 'obscon rewrite --normalize' first", file=sys.stderr)
        return EXIT_CONDITIONS
    return EXIT_OK


def cmd_rewrite(args) -> int:
    dag = _read(args.graph, load_graph, EXIT_PARSE)
    try:
        if args.normalize:
            out, log = normalize(dag)
        elif args.merge_latents:
            out, log = merge_district_latents(dag)
        elif args.hlp:
            out, log = hlp_add_edge(dag, args.hlp[0], args.hlp[1]), None
        elif args.replace:
            if not args.c_set or not args.d_set:
                print("error: --replace needs --c-set and --d-set", file=sys.stderr)
                return EXIT_PARSE
            out = replace_latent_with_edges(
                dag, args.replace, set(args.c_set), set(args.d_set)
            )
            log = None
        else:
            out, log = strong_face_split(dag, args.face_split), None
    except KeyError as exc:  # str() of a KeyError is the repr of its message
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_CONDITIONS
    except (RewriteError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONDITIONS
    sys.stdout.write(out.to_text())
    if log is not None:
        for line in log.lines():
            print(line, file=sys.stderr)
    return EXIT_OK


def _derive(args):
    dag = _read(args.graph, load_graph, EXIT_PARSE)
    options = DeriveOptions(
        merge=args.merge,
        max_ci_size=args.max_ci_size,
        column_limit=args.column_limit,
        timings=getattr(args, "timings", False),
    )
    try:
        result = derive_all(dag, options)
    except ConditionsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_CONDITIONS)
    except ColumnLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_COST)
    return dag, result


def _write_derivation(fh: TextIO, args, dag, result) -> None:
    """Write the derivation to ``fh`` in the ``--format`` that ``args`` asks for."""
    if args.format == "json":
        _dump_json(result_to_json(result, dag, args.texts), fh)
        return
    chunks = []
    for record in result.districts:
        if record.skipped:
            continue
        chunks.append("* district {%s}" % ",".join(record.members))
        chunks.append(record.hrep.to_cdd().rstrip("\n"))
    fh.write("\n".join(chunks) + "\n")


def cmd_derive(args) -> int:
    dag, result = _derive(args)
    if args.output == "-":
        print(result.summary(), file=sys.stderr)
        _write_derivation(sys.stdout, args, dag, result)
    else:
        _write(args.output, lambda fh: _write_derivation(fh, args, dag, result))
        print(result.summary())
    ci = len(result.ci_statements)
    print(f"ci statements: {ci}", file=sys.stderr if args.output == "-" else sys.stdout)
    return EXIT_OK


def _tolerance(text: str | None) -> Fraction | None:
    """The ``--tolerance`` value: a nonnegative rational, or None if absent."""
    if text is None:
        return None
    try:
        tolerance = parse_fraction(text)
    except ValueError as exc:
        print(f"error: cannot parse tolerance {text!r}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_TABLE)
    if tolerance < 0:
        print(f"error: tolerance must be nonnegative, got {text!r}", file=sys.stderr)
        raise SystemExit(EXIT_TABLE)
    return tolerance


def cmd_check(args) -> int:
    tolerance = _tolerance(args.tolerance)
    dag, result = _derive(args)
    table = _read(args.table, load_table, EXIT_TABLE, dag)
    report = evaluate(result, dag, table, tolerance)
    for line in report.lines():
        print(line)
    if args.json_path:
        _write(args.json_path, lambda fh: _dump_json(report_to_json(report), fh))
    return EXIT_VIOLATED if report.falsified else EXIT_OK


def cmd_emit_examples(args) -> int:
    from .fixtures import write_examples  # only this command needs the examples

    try:
        written = write_examples(args.emit_examples)
    except OSError as exc:
        _write_failed(exc.filename or args.emit_examples, exc)
    for path in written:
        print(path)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.emit_examples:
        handler = cmd_emit_examples
    elif not args.command:
        parser.print_help()
        return EXIT_PARSE
    else:
        handler = {
            "info": cmd_info,
            "rewrite": cmd_rewrite,
            "derive": cmd_derive,
            "check": cmd_check,
        }[args.command]
    try:
        return handler(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    except Exception as exc:  # a bug, not an input error: never exit 1
        message = " ".join(str(exc).split())
        print(f"error: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
