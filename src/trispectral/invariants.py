"""Closed-form and recursive invariants of iterated triangulations.

The degree-Kirchhoff index, Kemeny's constant, and the spanning-tree count of
the n-fold triangulation all admit closed forms in n and the seed's own
invariants.  Seed invariants are always obtained from first-principles
oracles (resistance distances, the seed spectrum's reciprocal sum, the
matrix-tree determinant); :func:`verify_all` recomputes every invariant by all
available routes, among them a direct oracle whose Kemeny value is Kf*/2E
from the same resistance solve, and reports their agreement.

Spanning-tree counts scale like 3^(sum of generation vertex counts): the
exponent alone exceeds 10^13 at depth 30, so the closed form is carried as an
exact factored value (3^a * 2^b * seed count) and only materialized into a
plain integer when that is physically feasible.  Decimal strings come from
exact decimal arithmetic (a rounded result raises), not from the int-to-str
conversion, which is quadratic in the digit count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, Context, Decimal, Inexact, Rounded, localcontext
from typing import Mapping

from .graph import Graph, analyze, triangulate
from .numeric import (
    eigenvalues_sym,
    kf_star_direct,
    normalized_laplacian,
    spanning_trees_matrix_tree,
)
from .spectra import build_descriptor, generations, reciprocal_sum

# Relative tolerance for the identity kf_star = 2 * E_n * kemeny.
IDENTITY_RTOL = 1e-12

# Largest count rendered as a decimal string; factored form beyond.
DECIMAL_DIGIT_CAP = 100_000

# Largest materialized graph for the dense oracle routes of `verify_all`.  The
# float oracle (the inverse of the grounded Laplacian's Schur complement, about
# N/3 rows on a triangulation, and the N x N resistance matrix) costs O(N^3)
# time and O(N^2) memory.
VERIFY_MATERIALIZE_CAP = 1200

_LOG10_3 = math.log10(3)
_LOG10_2 = math.log10(2)


@dataclass(frozen=True)
class SpanningTreeCount:
    """Exact spanning-tree count in factored form: 3^pow3 * 2^pow2 * seed_count.
    Equal when the three factors are; int() gives the plain value."""

    pow3: int
    pow2: int
    seed_count: int

    def __post_init__(self) -> None:
        if self.pow3 < 0 or self.pow2 < 0:
            raise ValueError("exponents must be nonnegative")
        if self.seed_count < 1:
            raise ValueError("seed spanning-tree count must be >= 1")

    def __int__(self) -> int:
        return 3**self.pow3 * 2**self.pow2 * self.seed_count

    def digits10(self) -> int:
        """Decimal digit count (accurate to +-1 for astronomically large values)."""
        estimate = (
            self.pow3 * _LOG10_3 + self.pow2 * _LOG10_2 + math.log10(self.seed_count)
        )
        return int(estimate) + 1

    def decimal(self) -> str:
        """Exact decimal string; raises OverflowError beyond DECIMAL_DIGIT_CAP.  One
        full-size power, 6^min(pow3, pow2), as the closed form's exponents differ by
        n(2 n0 - e0 - 2); the rest stays Decimal, as int-to-Decimal is quadratic."""
        digits = self.digits10()
        if digits > DECIMAL_DIGIT_CAP:
            raise OverflowError(
                f"count has about {digits} digits, above the {DECIMAL_DIGIT_CAP} limit"
            )
        low = min(self.pow3, self.pow2)
        with localcontext(Context(prec=digits + 10, Emax=MAX_EMAX, traps=[Inexact, Rounded])):
            leftover = Decimal(3) ** (self.pow3 - low) * Decimal(2) ** (self.pow2 - low)
            return str(Decimal(6) ** low * (leftover * self.seed_count))

    def factored(self) -> str:
        return f"3^{self.pow3} * 2^{self.pow2} * {self.seed_count}"

    def json_value(self) -> str:
        """Decimal string when feasible, otherwise the exact factored form."""
        if self.digits10() <= DECIMAL_DIGIT_CAP:
            return self.decimal()
        return self.factored()

    def __str__(self) -> str:
        if self.digits10() <= 40:
            return self.decimal()
        return self.factored()


def kf_star_closed(kf0: float, n0: int, e0: int, n: int) -> float:
    """Degree-Kirchhoff index of the depth-n triangulation, in closed form.

    Coefficients are exact integers; the only floating operations are the
    final scale-and-add.
    """
    if n < 0:
        raise ValueError("depth must be nonnegative")
    if n == 0:
        return float(kf0)
    p3, p6 = 3 ** (n - 1), 6 ** (n - 1)
    linear = 2 * p3 - 4 * p6
    quadratic = 15 * p3 * p3 - 8 * p6 - p3  # 5 * 3^(2n-1) = 15 * (3^(n-1))^2
    return 6 * p6 * kf0 + linear * n0 * e0 + quadratic * e0 * e0


def kf_star_recursive(prev: float, n0: int, e0: int, prev_edges: int) -> float:
    """One recursion step from the previous depth's degree-Kirchhoff index and
    edge count E: 6 * prev - 2 * n0 * E + (5E + e0) * E."""
    return 6 * prev - 2 * n0 * prev_edges + (5 * prev_edges + e0) * prev_edges


def kemeny_closed(k0: float, n0: int, e0: int, n: int) -> float:
    """Kemeny's constant of the depth-n triangulation, in closed form.

    The rational part is an exact integer count of sixths, divided once: int/int
    division rounds correctly, so this is the double nearest the rational.
    """
    if n < 0:
        raise ValueError("depth must be nonnegative")
    p2 = 2**n
    return p2 * k0 + (2 * (1 - p2) * n0 + (5 * 3**n - 4 * p2 - 1) * e0) / 6


def kemeny_recursive(prev: float, n0: int, e0: int, prev_edges: int) -> float:
    """One recursion step from the previous depth's Kemeny constant and edge
    count E: 2 * prev + (5E + e0)/6 - n0/3.

    Iterating from the seed value matches the closed form to floating
    rounding.  The constant is an exact integer count of sixths, divided once.
    """
    return 2 * prev + (5 * prev_edges + e0 - 2 * n0) / 6


def kappa(n0: int, e0: int, n: int) -> int:
    """Sum of vertex counts over generations 0..n-1 (the exponent driver in the
    spanning-tree closed form): n*n0 + (3^n - 1 - 2n)/4 * e0, exactly.  verify_all
    checks it against the summation that spanning_trees_step carries."""
    if n < 0:
        raise ValueError("depth must be nonnegative")
    return n * n0 + (3**n - 1 - 2 * n) // 4 * e0


def spanning_trees_closed(nst0: int, n0: int, e0: int, n: int) -> SpanningTreeCount:
    """Spanning-tree count of the depth-n triangulation in exact factored form,
    3^(kappa - n) * 2^(kappa - n(2 n0 - e0 - 1)) * nst0 (nst0 at depth 0).
    :func:`kappa` rejects a negative depth, SpanningTreeCount a seed count below 1."""
    k = kappa(n0, e0, n)
    return SpanningTreeCount(k - n, k - n * (2 * n0 - e0 - 1), nst0)


def spanning_trees_step(
    prev: SpanningTreeCount, n0: int, e0: int, prev_vertices: int
) -> SpanningTreeCount:
    """One recursion step from the previous depth's count and vertex count N:
    multiply by 3^(N - 1) * 2^(N - 2*n0 + e0 + 1)."""
    return SpanningTreeCount(
        prev.pow3 + prev_vertices - 1,
        prev.pow2 + prev_vertices - 2 * n0 + e0 + 1,
        prev.seed_count,
    )


@dataclass(frozen=True)
class SeedData:
    """Invariants of one explicit graph from two first-principles oracles."""

    kf_star: float  # resistance-distance sum over the grounded-Laplacian inverse
    kemeny: float  # kf_star / 2E: Kf* = 2E * Kemeny on every connected graph
    spanning_trees: int  # matrix-tree determinant


def seed_data(g: Graph) -> SeedData:
    kf = kf_star_direct(g)
    return SeedData(kf, kf / (2 * g.num_edges), spanning_trees_matrix_tree(g))


@dataclass(frozen=True)
class InvariantReport:
    """All invariants at one depth, each by every route that was available.

    ``routes`` maps invariant name -> route name -> value, and the
    ``closed_form`` route is each invariant's headline value;
    ``discrepancies`` records the maximum relative spread per invariant plus
    the kf/kemeny identity residual.
    """

    n: int
    num_vertices: int
    num_edges: int
    kappa: int
    routes: Mapping[str, Mapping[str, object]]
    discrepancies: Mapping[str, float]


@dataclass(frozen=True)
class VerificationResult:
    reports: tuple[InvariantReport, ...]
    passed: bool
    failures: tuple[str, ...]


def verify_all(
    g: Graph,
    max_n: int,
    tol: float = 1e-8,
    materialize_cap: int = VERIFY_MATERIALIZE_CAP,
) -> VerificationResult:
    """Cross-validate every invariant by all available routes for n <= max_n.

    Routes per invariant: closed form, iterated recursion, the spectrum sum
    over the symbolic descriptor, and a direct oracle (:func:`seed_data`) on
    the materialized graph while its vertex count stays within
    ``materialize_cap``.  Floating routes must agree within ``tol`` relative;
    spanning-tree routes must agree exactly.  The recursions step on the
    counts carried along :func:`generations`, which also carries the spectrum
    sum's exact part (integer thirds).  Its seed part is taken once, at depths 0
    and 1, before the walk, and is the depth-1 value times 2^(n-1) deeper.  So
    the recursion and spectrum-sum routes cost O(1) big-integer operations per
    depth, and the closed forms cost their powers of 2, 3 and 6.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tolerance must be a finite positive number")
    eigenvalues = eigenvalues_sym(normalized_laplacian(g)).eigenvalues
    seed = seed_data(g)
    kf0, k0 = seed.kf_star, math.fsum(1.0 / x for x in eigenvalues[1:])
    n0, e0 = g.num_vertices, g.num_edges
    bipartite = analyze(g).bipartite
    seed_part0, seed_part1 = (
        reciprocal_sum(build_descriptor(eigenvalues, e0, bipartite, n))[1] for n in (0, 1)
    )
    reports: list[InvariantReport] = []
    failures: list[str] = []

    kf_recursion, kemeny_recursion = kf0, k0
    trees_recursion = SpanningTreeCount(0, 0, seed.spanning_trees)
    materialized, oracle = g, seed
    walk = generations(n0, e0, bipartite)
    vertices, edges, thirds = n0, e0, 0

    for n in range(max_n + 1):
        if n > 0:
            kf_recursion = kf_star_recursive(kf_recursion, n0, e0, edges)
            kemeny_recursion = kemeny_recursive(kemeny_recursion, n0, e0, edges)
            trees_recursion = spanning_trees_step(trees_recursion, n0, e0, vertices)
            vertices, edges, (three_halves, unit) = next(walk)
            thirds = 2 * thirds + 2 * three_halves + 3 * unit
            if vertices <= materialize_cap:  # vertices grow: past the cap, None stays
                materialized = triangulate(materialized, cap=materialize_cap)
                oracle = seed_data(materialized)
            else:
                oracle = None
        kf = kf_star_closed(kf0, n0, e0, n)
        kemeny = kemeny_closed(k0, n0, e0, n)
        trees = spanning_trees_closed(seed.spanning_trees, n0, e0, n)
        kemeny_spectrum = thirds / 3 + (seed_part0 if n == 0 else math.ldexp(seed_part1, n - 1))

        routes: dict[str, dict[str, object]] = {
            "kf_star": {"closed_form": kf, "recursion": kf_recursion,
                        "spectrum_sum": 2 * edges * kemeny_spectrum},
            "kemeny": {"closed_form": kemeny, "recursion": kemeny_recursion,
                       "spectrum_sum": kemeny_spectrum},
            "spanning_trees": {"closed_form": trees, "recursion": trees_recursion},
        }
        if oracle is not None:
            for name, by_route in routes.items():
                by_route["direct_oracle"] = getattr(oracle, name)

        discrepancies: dict[str, float] = {}
        for name in ("kf_star", "kemeny"):
            float_routes = routes[name]
            values = list(float_routes.values())
            spread = (max(values) - min(values)) / abs(float_routes["closed_form"])
            discrepancies[name] = spread
            if spread > tol:
                table = ", ".join(f"{r}={v!r}" for r, v in sorted(float_routes.items()))
                failures.append(
                    f"n={n}: {name} routes disagree by {spread:.3e} > {tol:.1e} ({table})"
                )
        tree_routes = routes["spanning_trees"]
        trees_exact = trees_recursion == trees and (
            oracle is None or oracle.spanning_trees == int(trees))
        discrepancies["spanning_trees"] = 0.0 if trees_exact else math.inf
        if not trees_exact:
            table = ", ".join(f"{r}={v}" for r, v in sorted(tree_routes.items()))
            failures.append(f"n={n}: spanning-tree routes are not exactly equal ({table})")
        identity = abs(kf - 2 * edges * kemeny) / abs(kf)
        discrepancies["kf_kemeny_identity"] = identity
        if identity > IDENTITY_RTOL:
            failures.append(
                f"n={n}: kf_star vs 2*E_n*kemeny identity residual {identity:.3e} > {IDENTITY_RTOL:.1e}"
            )

        reports.append(
            InvariantReport(
                n=n,
                num_vertices=vertices,
                num_edges=edges,
                kappa=trees.pow3 + n,  # the closed form's 3-exponent is kappa - n
                routes=routes,
                discrepancies=discrepancies,
            )
        )

    return VerificationResult(
        reports=tuple(reports),
        passed=not failures,
        failures=tuple(failures),
    )
