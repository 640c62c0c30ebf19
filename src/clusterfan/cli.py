"""Command-line front end.

Subcommands map one-to-one onto the library layers: roots, group, mutate,
assoc, catalan, wiring, and verify.  Output is deterministic for a fixed
seed.  Exit codes: 0 success, 1 verification failure, 2 usage error
(including a type name or matrix that is not a finite irreducible type where
one is needed, and a matrix file that is empty, has an entry that is not an
integer, is not a Cartan matrix or, for mutate, is not an m-by-n matrix,
m >= n, with a skew-symmetrizable top part and full column rank),
3 budget exceeded (every budget raises the one class cartan.BudgetExceeded,
including a root system of rank over 128, cartan.MAX_RANK, so that A128 is
the largest A_n admitted) or, for mutate,
an exchange matrix of infinite type or a cluster variable with an exponent
outside [-8192, 8192) (packing.LIMIT),
141 (128 + SIGPIPE, as a shell reports a writer killed by a closed pipe)
when the reader closes stdout before the output is written.  mutate walks
the exchange graph once, under --budget-seeds alone; text output prints
counts only and computes no Laurent polynomial.  Every mutate source, a
type name or an exchange matrix, is sized by that walk, by rank and by
Cat(W): it refuses more than 128 columns before it starts, and a Cat(W)
over the budget at the first seed whose Cartan counterpart is of finite
type, which for every orientation of a Dynkin diagram is the start.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cartan import (
    BudgetExceeded,
    Entries,
    NotCartanShape,
    NotSkewSymmetrizable,
    NotSymmetrizable,
    UnrecognizedDiagram,
    b_matrix,
    cartan_for_type,
    dynkin_name,
    parse_cartan_text,
)
from .roots import (
    NotIrreducible,
    root_system,
    to_json_dict,
    weyl_group_order,
)
from .coxeter import (
    build_group,
    count_reduced_words,
    hasse_dot,
    weak_order,
)
from .laurent import ExponentOverflow
from .mutation import (
    ExchangeMatrix,
    Inconclusive,
    NotFiniteType,
    NotFullRank,
    SEED_BUDGET,
    exchange_counts,
    explore,
    graph_to_dict,
    graph_to_dot,
    initial_seed,
)
from .assoc import (
    almost_positive,
    build_polytope,
    cluster_complex,
    compatibility,
    polytope_json,
    polytope_off,
)
from .catalan import enumeration_report, report_csv
from . import wiring
from .verify import render_report, run_battery


# exit code when the reader closes stdout early: 128 + SIGPIPE
BROKEN_PIPE = 141

FORMATS = {
    "roots": ("text", "json"),
    "group": ("text", "json", "dot"),
    "mutate": ("text", "json", "dot"),
    "assoc": ("text", "json", "off"),
    "catalan": ("text", "csv", "json"),
    "wiring": ("text", "json", "dot"),
}


def _entries_from_args(
    parser: argparse.ArgumentParser, args, exchange: bool = False
) -> Entries:
    """The matrix named by --type or read from --matrix-file, in the grammar
    of `parse_cartan_text`.  With exchange set, the result is an exchange
    matrix: a type named by --type or by `type:` text gives its bipartite
    exchange matrix, while JSON rows, with or without the `matrix:` prefix,
    hold the exchange matrix itself."""
    if args.matrix_file:
        try:
            with open(args.matrix_file, encoding="utf-8") as handle:
                text = handle.read().strip()
        except (OSError, UnicodeDecodeError) as exc:
            parser.error(f"cannot read the matrix file: {exc}")
        rows = parse_cartan_text(text)
        return b_matrix(rows) if exchange and text.startswith("type:") else rows
    if args.type:
        entries = cartan_for_type(args.type)
        return b_matrix(entries) if exchange else entries
    parser.error("one of --type or --matrix-file is required")


def _check_format(parser, command: str, fmt: str) -> str:
    if fmt not in FORMATS[command]:
        parser.error(
            f"format {fmt!r} is not supported by {command}"
            f" (choose from {', '.join(FORMATS[command])})"
        )
    return fmt


def cmd_roots(parser, args) -> tuple[int, str]:
    rs = root_system(_entries_from_args(parser, args))
    if args.format == "json":
        return 0, json.dumps(to_json_dict(rs), indent=2, sort_keys=True)
    lines = [
        f"type {dynkin_name(rs.dynkin)}",
        f"rank {rs.n}",
        f"positive roots {rs.num_positive}",
    ]
    for root in rs.positive_roots():
        lines.append(
            "  "
            + " ".join(f"{c:+d}" for c in root.coords)
            + f"  height {root.height}"
        )
    return 0, "\n".join(lines)


def cmd_group(parser, args) -> tuple[int, str]:
    rs = root_system(_entries_from_args(parser, args))
    if args.format == "dot":
        group = build_group(rs)
        return 0, hasse_dot(group, weak_order(group))
    # the walk stops at the middle length: it checks the levels it walks
    # against the Poincare polynomial of the exponents, whose value at 1 is
    # |W|, and its mirror check fails unless l(w0) = |Phi+|
    words = count_reduced_words(rs)
    stats = {
        "type": dynkin_name(rs.dynkin),
        "order": weyl_group_order(rs),
        "longest_length": rs.num_positive,
        "reduced_words_of_w0": words,
    }
    if args.format == "json":
        return 0, json.dumps(stats, indent=2, sort_keys=True)
    return 0, "\n".join(f"{key} {value}" for key, value in stats.items())


def cmd_mutate(parser, args) -> tuple[int, str]:
    rows = _entries_from_args(parser, args, exchange=True)
    # a malformed file fails here, with exit 2, before the walk
    matrix = ExchangeMatrix(rows, len(rows[0]))
    # one walk of the exchange graph, refused at the first infinite-type
    # witness; text needs only counts, so no Laurent values are built
    if args.format == "text":
        seeds, variables, detected = exchange_counts(matrix.rows, args.budget_seeds)
        lines = [
            f"seeds {seeds}",
            f"variables {variables}",
            "closed True",
            f"detected {dynkin_name(detected)}",
        ]
        return 0, "\n".join(lines)
    names = [f"x{i+1}" for i in range(matrix.n)]
    frozen = [f"c{i+1}" for i in range(matrix.m - matrix.n)]
    record = explore(initial_seed(rows, names, frozen), budget=args.budget_seeds)
    if args.format == "dot":
        return 0, graph_to_dot(record)
    return 0, json.dumps(graph_to_dict(record), indent=2, sort_keys=True)


def cmd_assoc(parser, args) -> tuple[int, str]:
    rs = root_system(_entries_from_args(parser, args))
    roots = almost_positive(rs)  # over the facet budget: exit 3 comes first
    if args.format == "off" and rs.n != 3:
        parser.error("OFF output is only defined for rank 3")
    data = cluster_complex(compatibility(roots))
    poly = build_polytope(data)
    if args.format == "off":
        return 0, polytope_off(poly)
    if args.format == "json":
        return 0, polytope_json(poly)
    lines = [
        f"type {dynkin_name(rs.dynkin)}",
        f"facets {len(data.facets)}",
        f"vertices {len(poly.vertices)}",
        "f_vector " + " ".join(map(str, data.f_vector)),
        "h_vector " + " ".join(map(str, data.h_vector)),
    ]
    return 0, "\n".join(lines)


def cmd_catalan(parser, args) -> tuple[int, str]:
    rs = root_system(_entries_from_args(parser, args))
    rows = enumeration_report(rs)
    mismatches = [row for row in rows if not row["match"]]
    code = 1 if mismatches else 0
    if args.format == "csv":
        return code, report_csv(rows)
    if args.format == "json":
        return code, json.dumps(rows, indent=2, sort_keys=True)
    lines = [
        f"{row['type']} {row['interpretation']} k={row['k']}"
        f" observed={row['observed']} expected={row['expected']}"
        f" {'ok' if row['match'] else 'MISMATCH'}"
        for row in rows
    ]
    return code, "\n".join(lines)


def cmd_wiring(parser, args) -> tuple[int, str]:
    if args.format == "dot":
        return 0, wiring.enumerate_classes(3).to_dot()
    report = wiring.gl3_cell()
    if args.format == "json":
        return 0, wiring.report_json(report)
    keys = (
        "isotopy_classes",
        "cluster_variable_count",
        "cluster_count",
        "detected_type",
        "wiring_clusters_embedded",
        "jacobian_rank",
    )
    return 0, "\n".join(f"{key} {report[key]}" for key in keys)


def cmd_verify(parser, args) -> tuple[int, str]:
    results = run_battery(extended=args.extended)
    text = render_report(results, extended=args.extended)
    return (0 if all(r.passed for r in results) else 1), text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterfan",
        description="Exact computations with root systems, cluster mutation,"
        " and generalized associahedra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, matrix=True):
        if matrix:
            p.add_argument("--type", help="Dynkin type name, e.g. A3 or B2")
            p.add_argument(
                "--matrix-file",
                help="file holding a matrix (JSON rows, or type:/matrix: text)",
            )
        p.add_argument(
            "--format",
            default="text",
            help="output format (availability depends on the command)",
        )
        p.add_argument("--out", help="write output to this file")
        # accepted for existing command lines; nothing reads it
        p.add_argument("--rng-seed", type=int, default=11)

    handlers = {
        "roots": cmd_roots,
        "group": cmd_group,
        "mutate": cmd_mutate,
        "assoc": cmd_assoc,
        "catalan": cmd_catalan,
        "wiring": cmd_wiring,
    }
    for name, handler in handlers.items():
        p = sub.add_parser(name)
        common(p, matrix=name not in ("wiring",))
        if name == "mutate":
            p.add_argument("--budget-seeds", type=int, default=SEED_BUDGET)
        p.set_defaults(handler=handler)

    p = sub.add_parser("verify")
    suite = p.add_mutually_exclusive_group()
    suite.add_argument("--quick", action="store_false", dest="extended")
    suite.add_argument("--extended", action="store_true")
    p.add_argument("--out", help="write the report to this file")
    p.add_argument("--rng-seed", type=int, default=11)  # accepted, unused
    p.set_defaults(handler=cmd_verify, format="text", extended=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in FORMATS:
        _check_format(parser, args.command, args.format)
    try:
        code, text = args.handler(parser, args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (NotFiniteType, Inconclusive, ExponentOverflow) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 3
    except (
        UnrecognizedDiagram,
        NotIrreducible,
        NotCartanShape,
        NotSymmetrizable,
        NotSkewSymmetrizable,
        NotFullRank,
    ) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        return code
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull so that the
        # flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
