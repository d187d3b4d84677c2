"""Command-line front end: analyze, triangulate, spectrum, invariants, verify.

Human-readable text goes to stdout, diagnostics to stderr; exit codes are the
machine contract (0 ok/pass, 1 verification failure, also when the routes
behind an `invariants` table disagree, 2 input, output or double-range error,
3 cap exceeded).  Output under --format json is a single JSON document and is
byte-identical across repeated runs on identical input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, Sequence

from .graph import (
    DEFAULT_VERTEX_CAP,
    CapExceededError,
    Graph,
    GraphInputError,
    analyze,
    format_edge_list,
    iterate_triangulation,
    parse_edge_list,
)
from .invariants import VERIFY_MATERIALIZE_CAP, InvariantReport, SpanningTreeCount, verify_all
from .spectra import _check_classes, _check_expansion, descriptor_for, expand_descriptor

_FORMATS = ("json", "csv", "text")


def _limited(convert: Callable[[str], float], ok: Callable[[float], bool], limit: str):
    """An argparse type: ``convert``, then reject a value outside ``limit``."""

    def parse(text: str) -> float:
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {limit}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value" names it
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trispectral",
        description=(
            "Normalized Laplacian spectra and invariants of iterated graph "
            "triangulations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def option(*flags: str, **spec: object) -> tuple[tuple[str, ...], dict]:
        return flags, spec

    # Each command lists its options in the order --help prints them.
    def command(name: str, handler: Callable, *options: tuple, **kwargs: str) -> None:
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(handler=handler, parser=sp)
        sp.add_argument("input", type=Path, help="edge-list file ('u v' per line)")
        for flags, spec in options:
            sp.add_argument(*flags, **spec)

    n_spec = dict(dest="n", type=_limited(int, lambda n: n >= 0, ">= 0"), default=1)
    depth = option("-n", "--iterations", **n_spec)
    formats = dict(dest="output_format", choices=_FORMATS)
    text = option("--format", default="text", **formats)
    cap = option("--cap", dest="explicit_cap", type=_limited(int, lambda c: c >= 2, ">= 2"),
                 default=DEFAULT_VERTEX_CAP, help="explicit-construction vertex cap")
    output = option("-o", "--output", dest="output_path", type=Path, default=None)
    tol = option("--tol", dest="tolerance", default=1e-8, type=_limited(
        float, lambda t: t > 0 and math.isfinite(t), "a finite number > 0"))

    command("analyze", _run_analyze, text, output,
            help="structural report for the input graph")
    command("triangulate", _run_triangulate, depth, text, cap, output,
            help="materialize the n-fold triangulation")
    command("spectrum", _run_spectrum, depth, option("--format", default="json", **formats),
            output, option("--expand", action="store_true",
                           help="also materialize the full sorted eigenvalue multiset"),
            help="symbolic spectrum of the n-fold triangulation")
    command("invariants", _run_invariants, depth, text, output,
            help="invariant table for depths 0..n")
    command(
        "verify",
        _run_verify,
        option("-n", "--iterations", "--max-n", **n_spec), tol, text, cap, output,
        help="cross-validate all invariant routes for depths 0..n",
        description=(
            "Cross-validate all invariant routes for depths 0..n.  The dense "
            "oracle routes run on the seed (depth 0) and at the deeper depths whose "
            f"graph has at most min(--cap, {VERIFY_MATERIALIZE_CAP}) vertices."
        ),
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    if args.command == "spectrum" and args.expand and args.output_format == "csv":
        args.parser.error("argument --expand: not allowed with --format csv")  # exits 2
    try:
        g = parse_edge_list(args.input.read_text(encoding="utf-8-sig"))
        text, status = args.handler(g, args)
        if args.output_path is None:
            sys.stdout.write(text)
        else:
            args.output_path.write_text(text, encoding="utf-8")
    except (GraphInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(
            f"error: value outside double-precision range at this depth ({exc})",
            file=sys.stderr,
        )
        return 2
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            "hint: the spectrum command works symbolically and never "
            "materializes the iterated graph",
            file=sys.stderr,
        )
        return 3
    return status


def _json_doc(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_doc(rows: Sequence[dict], delimiter: str = ",") -> str:
    """csv.writer's output of a header, the first row's keys, and the rows' values,
    with "\\n" line ends: no field the commands print (an int, a float repr, a digit
    string, True/False or a factored count) holds a delimiter, a quote or a line
    break, so none is quoted and a join suffices."""
    lines = [rows[0].keys(), *(row.values() for row in rows)]
    return "".join(delimiter.join(map(str, line)) + "\n" for line in lines)


def _run_analyze(g: Graph, args: argparse.Namespace) -> tuple[str, int]:
    info = analyze(g)
    fields = {
        "n_vertices": g.num_vertices,
        "n_edges": g.num_edges,
        "connected": True,  # from_edges rejects disconnected input
        "bipartite": info.bipartite,
        "min_degree": info.min_degree,
        "max_degree": info.max_degree,
    }
    if args.output_format == "json":
        return _json_doc(fields), 0
    if args.output_format == "csv":
        return _csv_doc([fields]), 0
    return "".join(f"{key}: {value}\n" for key, value in fields.items()), 0


def _run_triangulate(g: Graph, args: argparse.Namespace) -> tuple[str, int]:
    tg = iterate_triangulation(g, args.n, cap=args.explicit_cap)
    if args.output_format == "json":
        doc = {"num_vertices": tg.num_vertices, "edges": [list(e) for e in tg.edges]}
        return _json_doc(doc), 0
    if args.output_format == "csv":
        return _csv_doc([{"u": u, "v": v} for u, v in tg.edges]), 0
    return format_edge_list(tg), 0


# The text of one `exceptional` element, [generation, label, count], before its generation,
# between it and its count (by band parity, with the label of EXCEPTIONAL_VALUES: 3/2, 1)
# and after its count; and of one `expanded` element; as _json_doc lays them out (no string
# needs escaping; json writes a float as its repr).
_BAND_JSON = ("\n    [\n      ", (',\n      "3/2",\n      "', ',\n      "1",\n      "'),
              '"\n    ]')
_VALUE_JSON = "\n    %r"


def _json_with_lists(doc: dict, lists: dict[str, list[str]]) -> str:
    """``_json_doc(doc)`` with the top-level lists in ``lists`` (key -> pieces
    of its elements' text, laid out and comma-separated) joined in as text."""
    rest = _json_doc({**doc, **dict.fromkeys(lists, [])})
    parts = []
    for key in sorted(lists):  # the order sort_keys writes them in
        head, _, rest = rest.partition(f'"{key}": []')
        pieces = lists[key]
        parts += (head, f'"{key}": [', *pieces, "\n  ]" if pieces else "]")
    parts.append(rest)
    return "".join(parts)


def _run_spectrum(g: Graph, args: argparse.Namespace) -> tuple[str, int]:
    # Both limits are decided from the seed, before any walk.
    if args.expand:
        _check_expansion(g.num_vertices, g.num_edges, args.n)
    if args.output_format != "json":
        _check_classes(g, args.n)
    descriptor = descriptor_for(g, args.n)
    expanded = expand_descriptor(descriptor) if args.expand else []
    if args.output_format == "json":
        doc = {"n": descriptor.n, "n0": descriptor.n0, "e0": descriptor.e0,
               "bipartite_seed": descriptor.bipartite_seed,
               "seed_eigs": [[value, mult] for value, mult in descriptor.seed_eigs]}
        # Megabytes of digits: skip the indent encoder, copy each band string once.
        start, labels, end = _BAND_JSON
        pieces = [piece for i, count in enumerate(descriptor.band_strings()) for piece in
                  (",", start, str(i // 2 + 1), labels[i % 2], count, end)]
        lists = {"exceptional": pieces[1:]}  # less the first comma
        if args.expand:
            lists["expanded"] = [",".join([_VALUE_JSON % value for value in expanded])]
        return _json_with_lists(doc, lists), 0
    classes = sorted(descriptor.eigenvalue_classes())
    if args.output_format == "csv":
        return _csv_doc([{"value": value, "multiplicity": mult} for value, mult in classes]), 0
    lines = [
        f"depth: {descriptor.n}",
        f"seed: {descriptor.n0} vertices, {descriptor.e0} edges, "
        f"bipartite={descriptor.bipartite_seed}",
        f"total eigenvalues: {descriptor.total_multiplicity}",
        "classes (value x multiplicity):",
    ]
    lines.extend(f"  {value!r} x {mult}" for value, mult in classes)
    if args.expand:
        lines.append("expanded: " + " ".join(repr(v) for v in expanded))
    return "\n".join(lines) + "\n", 0


def _report_row(r: InvariantReport) -> dict:
    """One depth's headline values, its closed-form routes: a row of the `invariants` table."""
    closed = {name: by_route["closed_form"] for name, by_route in r.routes.items()}
    return {"n": r.n, "num_vertices": r.num_vertices, "num_edges": r.num_edges,
            "kf_star": closed["kf_star"], "kemeny": closed["kemeny"],
            "spanning_trees": closed["spanning_trees"].json_value(), "kappa": r.kappa}


def _report_doc(r: InvariantReport) -> dict:
    """One depth's JSON object: its row, every route's value and the discrepancies."""
    doc = _report_row(r)
    headline, rendered = r.routes["spanning_trees"]["closed_form"], doc["spanning_trees"]

    def route_value(value: object) -> object:
        if isinstance(value, SpanningTreeCount):
            return rendered if value == headline else value.json_value()
        return str(value) if isinstance(value, int) else value  # an oracle's tree count

    doc["routes"] = {
        invariant: {route: route_value(v) for route, v in by_route.items()}
        for invariant, by_route in r.routes.items()
    }
    doc["discrepancies"] = dict(r.discrepancies)
    return doc


def _run_invariants(g: Graph, args: argparse.Namespace) -> tuple[str, int]:
    result = verify_all(g, args.n, materialize_cap=0)
    for failure in result.failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    status = 0 if result.passed else 1
    if args.output_format == "json":
        return _json_doc({"reports": [_report_doc(r) for r in result.reports]}), status
    rows = [_report_row(r) for r in result.reports]
    return _csv_doc(rows, delimiter="," if args.output_format == "csv" else "\t"), status


def _run_verify(g: Graph, args: argparse.Namespace) -> tuple[str, int]:
    result = verify_all(
        g,
        args.n,
        tol=args.tolerance,
        materialize_cap=min(args.explicit_cap, VERIFY_MATERIALIZE_CAP),
    )
    status = 0 if result.passed else 1
    if args.output_format == "json":
        doc = {
            "passed": result.passed,
            "tolerance": args.tolerance,
            "failures": list(result.failures),
            "reports": [_report_doc(r) for r in result.reports],
        }
        return _json_doc(doc), status
    if args.output_format == "csv":
        rows = [
            {"n": r.n, "kf_star_discrepancy": r.discrepancies["kf_star"],
             "kemeny_discrepancy": r.discrepancies["kemeny"],
             "spanning_trees_exact": r.discrepancies["spanning_trees"] == 0.0,
             "identity_residual": r.discrepancies["kf_kemeny_identity"]}
            for r in result.reports
        ]
        return _csv_doc(rows), status
    lines = []
    for report in result.reports:
        lines.append(f"n={report.n} ({report.num_vertices} vertices):")
        for invariant, by_route in report.routes.items():
            routes = ", ".join(f"{name}={value}" for name, value in sorted(by_route.items()))
            lines.append(f"  {invariant}: {routes}")
        lines.append(
            "  discrepancies: "
            + ", ".join(f"{k}={v:.3e}" for k, v in sorted(report.discrepancies.items()))
        )
    for failure in result.failures:
        lines.append(f"FAIL: {failure}")
    lines.append("PASS" if result.passed else "FAIL")
    return "\n".join(lines) + "\n", status


# Built once: a parser holds reference cycles that each build would leave to the gc.
_PARSER = build_parser()

if __name__ == "__main__":
    raise SystemExit(main())
