"""Command-line front end: analyze, triangulate, spectrum, invariants, verify.

Human-readable text goes to stdout, diagnostics to stderr; exit codes are the
machine contract (0 ok/pass, 1 verification failure, 2 input error, 3 cap
exceeded).  Output under --format json is a single JSON document and is
byte-identical across repeated runs on identical input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .graph import (
    DEFAULT_VERTEX_CAP,
    Graph,
    GraphInputError,
    VertexCapExceededError,
    analyze,
    format_edge_list,
    iterate_triangulation,
    parse_edge_list,
)
from .invariants import VERIFY_MATERIALIZE_CAP, InvariantReport, verify_all
from .spectra import ExpansionCapError, descriptor_for, expand_descriptor

_FORMATS = ("json", "csv", "text")


@dataclass(frozen=True)
class CliConfig:
    command: str
    input_path: Path
    n: int = 1
    tolerance: float = 1e-8
    output_format: str = "text"
    explicit_cap: int = DEFAULT_VERTEX_CAP
    output_path: Path | None = None
    expand: bool = False

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.n < 0:
            raise ValueError("iteration count must be nonnegative")
        if self.explicit_cap < 2:
            raise ValueError("explicit-construction cap must be at least 2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trispectral",
        description=(
            "Normalized Laplacian spectra and invariants of iterated graph "
            "triangulations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser, *, with_n: bool, default_format: str,
                   n_flags: tuple[str, ...] = ("-n", "--iterations")) -> None:
        sp.add_argument("input", type=Path, help="edge-list file ('u v' per line)")
        if with_n:
            sp.add_argument(*n_flags, dest="n", type=int, default=1)
        sp.add_argument("--tol", dest="tolerance", type=float, default=1e-8)
        sp.add_argument("--format", dest="output_format", choices=_FORMATS,
                        default=default_format)
        sp.add_argument("--cap", dest="explicit_cap", type=int,
                        default=DEFAULT_VERTEX_CAP,
                        help="explicit-construction vertex cap")
        sp.add_argument("-o", "--output", dest="output_path", type=Path, default=None)

    sp = sub.add_parser("analyze", help="structural report for the input graph")
    add_common(sp, with_n=False, default_format="text")

    sp = sub.add_parser("triangulate", help="materialize the n-fold triangulation")
    add_common(sp, with_n=True, default_format="text")

    sp = sub.add_parser("spectrum", help="symbolic spectrum of the n-fold triangulation")
    add_common(sp, with_n=True, default_format="json")
    sp.add_argument("--expand", action="store_true",
                    help="also materialize the full sorted eigenvalue multiset")

    sp = sub.add_parser("invariants", help="invariant table for depths 0..n")
    add_common(sp, with_n=True, default_format="text")

    sp = sub.add_parser(
        "verify",
        help="cross-validate all invariant routes for depths 0..n",
        description=(
            "Cross-validate all invariant routes for depths 0..n.  The dense "
            "oracle routes run only at depths whose graph has at most "
            f"min(--cap, {VERIFY_MATERIALIZE_CAP}) vertices."
        ),
    )
    add_common(sp, with_n=True, default_format="text",
               n_flags=("-n", "--iterations", "--max-n"))
    return parser


def config_from_args(args: argparse.Namespace) -> CliConfig:
    return CliConfig(
        command=args.command,
        input_path=args.input,
        n=getattr(args, "n", 0),
        tolerance=args.tolerance,
        output_format=args.output_format,
        explicit_cap=args.explicit_cap,
        output_path=args.output_path,
        expand=getattr(args, "expand", False),
    )


def run(config: CliConfig) -> int:
    try:
        text, status = _execute(config)
        _emit(text, config.output_path)
    except (GraphInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(
            f"error: value outside double-precision range at this depth ({exc})",
            file=sys.stderr,
        )
        return 2
    except (VertexCapExceededError, ExpansionCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            "hint: the spectrum command works symbolically and never "
            "materializes the iterated graph",
            file=sys.stderr,
        )
        return 3
    return status


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


def _emit(text: str, output_path: Path | None) -> None:
    if output_path is None:
        sys.stdout.write(text)
    else:
        output_path.write_text(text)


def _load_graph(config: CliConfig) -> Graph:
    return parse_edge_list(config.input_path.read_text())


def _execute(config: CliConfig) -> tuple[str, int]:
    g = _load_graph(config)
    if config.command == "analyze":
        return _run_analyze(g, config), 0
    if config.command == "triangulate":
        return _run_triangulate(g, config), 0
    if config.command == "spectrum":
        return _run_spectrum(g, config), 0
    if config.command == "invariants":
        return _run_invariants(g, config), 0
    if config.command == "verify":
        return _run_verify(g, config)
    raise ValueError(f"unknown command {config.command!r}")


def _json_doc(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_doc(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _run_analyze(g: Graph, config: CliConfig) -> str:
    info = analyze(g)
    fields = {
        "n_vertices": info.n_vertices,
        "n_edges": info.n_edges,
        "connected": True,  # from_edges rejects disconnected input
        "bipartite": info.bipartite,
        "min_degree": info.min_degree,
        "max_degree": info.max_degree,
    }
    if config.output_format == "json":
        return _json_doc(fields)
    if config.output_format == "csv":
        return _csv_doc(list(fields), [list(fields.values())])
    return "".join(f"{key}: {value}\n" for key, value in fields.items())


def _run_triangulate(g: Graph, config: CliConfig) -> str:
    tg = iterate_triangulation(g, config.n, cap=config.explicit_cap)
    if config.output_format == "json":
        return _json_doc(
            {"num_vertices": tg.num_vertices, "edges": [list(e) for e in tg.edges]}
        )
    if config.output_format == "csv":
        return _csv_doc(["u", "v"], [list(e) for e in tg.edges])
    return format_edge_list(tg)


def _run_spectrum(g: Graph, config: CliConfig) -> str:
    descriptor = descriptor_for(g, config.n)
    doc = descriptor.to_json_dict()
    if config.expand:
        doc["expanded"] = expand_descriptor(descriptor)
    if config.output_format == "json":
        return _json_doc(doc)
    classes = sorted(descriptor.eigenvalue_classes(), key=lambda pair: pair[0])
    if config.output_format == "csv":
        rows = [[value, str(mult)] for value, mult in classes]
        return _csv_doc(["value", "multiplicity"], rows)
    lines = [
        f"depth: {descriptor.n}",
        f"seed: {descriptor.n0} vertices, {descriptor.e0} edges, "
        f"bipartite={descriptor.bipartite_seed}",
        f"total eigenvalues: {descriptor.total_multiplicity}",
        "classes (value x multiplicity):",
    ]
    lines.extend(f"  {value!r} x {mult}" for value, mult in classes)
    if config.expand:
        lines.append("expanded: " + " ".join(repr(v) for v in doc["expanded"]))
    return "\n".join(lines) + "\n"


_REPORT_COLUMNS = (
    "n",
    "num_vertices",
    "num_edges",
    "kf_star",
    "kemeny",
    "spanning_trees",
    "kappa",
)


def _report_row(report: InvariantReport) -> list[object]:
    return [
        report.n,
        report.num_vertices,
        report.num_edges,
        repr(report.kf_star),
        repr(report.kemeny),
        report.spanning_trees.json_value(),
        report.kappa,
    ]


def _run_invariants(g: Graph, config: CliConfig) -> str:
    result = verify_all(g, config.n, tol=config.tolerance, materialize_cap=0)
    if config.output_format == "json":
        return _json_doc({"reports": [r.to_json_dict() for r in result.reports]})
    if config.output_format == "csv":
        return _csv_doc(_REPORT_COLUMNS, [_report_row(r) for r in result.reports])
    lines = ["\t".join(_REPORT_COLUMNS)]
    for report in result.reports:
        lines.append("\t".join(str(cell) for cell in _report_row(report)))
    return "\n".join(lines) + "\n"


def _run_verify(g: Graph, config: CliConfig) -> tuple[str, int]:
    result = verify_all(
        g,
        config.n,
        tol=config.tolerance,
        materialize_cap=min(config.explicit_cap, VERIFY_MATERIALIZE_CAP),
    )
    status = 0 if result.passed else 1
    if config.output_format == "json":
        doc = {
            "passed": result.passed,
            "tolerance": result.tolerance,
            "failures": list(result.failures),
            "reports": [r.to_json_dict() for r in result.reports],
        }
        return _json_doc(doc), status
    if config.output_format == "csv":
        header = (
            "n",
            "kf_star_discrepancy",
            "kemeny_discrepancy",
            "spanning_trees_exact",
            "identity_residual",
        )
        rows = [
            [
                r.n,
                repr(r.discrepancies["kf_star"]),
                repr(r.discrepancies["kemeny"]),
                r.discrepancies["spanning_trees"] == 0.0,
                repr(r.discrepancies["kf_kemeny_identity"]),
            ]
            for r in result.reports
        ]
        return _csv_doc(header, rows), status
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


if __name__ == "__main__":
    raise SystemExit(main())
