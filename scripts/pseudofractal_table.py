#!/usr/bin/env python3
"""Invariant table for iterated triangulations of the triangle graph.

The triangle seed generates the classic deterministic scale-free
pseudofractal family.  This script tabulates the degree-Kirchhoff index,
Kemeny constant, and spanning-tree count per depth, cross-validating every
value against all available routes.
"""

import argparse

from trispectral.graph import generate
from trispectral.invariants import VERIFY_MATERIALIZE_CAP, verify_all


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--tol", type=float, default=1e-8)
    parser.add_argument(
        "--materialize-cap",
        type=int,
        default=VERIFY_MATERIALIZE_CAP,
        help="largest graph materialized for the dense oracle routes",
    )
    args = parser.parse_args()

    result = verify_all(
        generate("complete", 3),
        args.max_n,
        tol=args.tol,
        materialize_cap=args.materialize_cap,
    )
    header = f"{'n':>3} {'vertices':>14} {'edges':>14} {'kf_star':>16} {'kemeny':>14} {'max disc':>10}  spanning trees"
    print(header)
    print("-" * len(header))
    for report in result.reports:
        disc = max(
            report.discrepancies["kf_star"],
            report.discrepancies["kemeny"],
            report.discrepancies["kf_kemeny_identity"],
        )
        print(
            f"{report.n:>3} {report.num_vertices:>14} {report.num_edges:>14} "
            f"{report.kf_star:>16.6g} {report.kemeny:>14.8g} {disc:>10.2e}  "
            f"{report.spanning_trees}"
        )
    for failure in result.failures:
        print(f"FAIL: {failure}")
    print("all routes agree" if result.passed else "ROUTE DISAGREEMENT")
    return 0 if result.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
