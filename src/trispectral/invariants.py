"""Closed-form and recursive invariants of iterated triangulations.

The degree-Kirchhoff index, Kemeny's constant, and the spanning-tree count of
the n-fold triangulation all admit closed forms in n and the seed's own
invariants.  Seed invariants are always obtained from first-principles
oracles (resistance distances, spectrum sums, the matrix-tree determinant);
:func:`verify_all` recomputes every invariant by all available routes and
reports their agreement.

Spanning-tree counts scale like 3^(sum of generation vertex counts): the
exponent alone exceeds 10^13 at depth 30, so the closed form is carried as an
exact factored value (3^a * 2^b * seed count) and only materialized into a
plain integer when that is physically feasible.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .graph import Graph, analyze, predicted_counts, triangulate
from .numeric import (
    DEFAULT_EIG_TOL,
    eigenvalues_sym,
    kf_star_direct,
    normalized_laplacian,
    spanning_trees_matrix_tree,
)
from .spectra import build_descriptor, reciprocal_sum

# Relative tolerance for the identity kf_star = 2 * E_n * kemeny.
IDENTITY_RTOL = 1e-12

# Largest count rendered as a decimal string; factored form beyond.
DECIMAL_DIGIT_CAP = 100_000

# Largest materialized graph for the dense oracle routes of `verify_all`.  The
# float oracles (eigensolve, pseudoinverse) cost O(N^3) time and O(N^2) memory.
VERIFY_MATERIALIZE_CAP = 1200

_LOG10_3 = math.log10(3)
_LOG10_2 = math.log10(2)


@dataclass(frozen=True, eq=False)
class SpanningTreeCount:
    """Exact spanning-tree count in factored form: 3^pow3 * 2^pow2 * seed_count."""

    pow3: int
    pow2: int
    seed_count: int

    def __post_init__(self) -> None:
        if self.pow3 < 0 or self.pow2 < 0:
            raise ValueError("exponents must be nonnegative")
        if self.seed_count < 1:
            raise ValueError("seed spanning-tree count must be >= 1")

    def _normalized(self) -> tuple[int, int, int]:
        a, b, m = self.pow3, self.pow2, self.seed_count
        while m % 3 == 0:
            m //= 3
            a += 1
        while m % 2 == 0:
            m //= 2
            b += 1
        return a, b, m

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SpanningTreeCount):
            return self._normalized() == other._normalized()
        if isinstance(other, int):
            if other < 1:
                return False
            return self._normalized() == SpanningTreeCount(0, 0, other)._normalized()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._normalized())

    def digits10(self) -> int:
        """Decimal digit count (accurate to +-1 for astronomically large values)."""
        estimate = (
            self.pow3 * _LOG10_3 + self.pow2 * _LOG10_2 + math.log10(self.seed_count)
        )
        return int(estimate) + 1

    def to_int(self, max_digits: int = 10**7) -> int:
        if self.digits10() > max_digits:
            raise OverflowError(
                f"count has about {self.digits10()} digits, above the {max_digits} limit"
            )
        return 3**self.pow3 * 2**self.pow2 * self.seed_count

    __int__ = to_int

    def decimal(self, max_digits: int = DECIMAL_DIGIT_CAP) -> str:
        """Decimal string; raises OverflowError beyond max_digits."""
        value = self.to_int(max_digits=max_digits)
        return _int_to_decimal(value, self.digits10())

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

    def __repr__(self) -> str:
        return f"SpanningTreeCount(pow3={self.pow3}, pow2={self.pow2}, seed_count={self.seed_count})"


def _int_to_decimal(value: int, digits_hint: int) -> str:
    # CPython caps int -> str conversion length; lift it temporarily.
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if get_limit is None or set_limit is None:
        return str(value)
    old = get_limit()
    need = digits_hint + 10
    if need <= old:
        return str(value)
    set_limit(need)
    try:
        return str(value)
    finally:
        set_limit(old)


def kf_star_closed(kf0: float, n0: int, e0: int, n: int) -> float:
    """Degree-Kirchhoff index of the depth-n triangulation, in closed form.

    Coefficients are exact integers; the only floating operations are the
    final scale-and-add.
    """
    if n < 0:
        raise ValueError("depth must be nonnegative")
    if n == 0:
        return float(kf0)
    linear = 2 * 3 ** (n - 1) - 4 * 6 ** (n - 1)
    quadratic = 5 * 3 ** (2 * n - 1) - 8 * 6 ** (n - 1) - 3 ** (n - 1)
    return 6**n * kf0 + linear * n0 * e0 + quadratic * e0 * e0


def kf_star_recursive(prev: float, n0: int, e0: int, n: int) -> float:
    """One recursion step from the depth-(n-1) degree-Kirchhoff index."""
    if n < 1:
        raise ValueError("recursion step needs n >= 1")
    return (
        6 * prev
        - 2 * 3 ** (n - 1) * n0 * e0
        + (5 * 3 ** (2 * n - 2) + 3 ** (n - 1)) * e0 * e0
    )


def kemeny_closed(k0: float, n0: int, e0: int, n: int) -> float:
    """Kemeny's constant of the depth-n triangulation, in closed form.

    The rational part is carried exactly and converted to floating point only
    at the final addition.
    """
    if n < 0:
        raise ValueError("depth must be nonnegative")
    rational = Fraction(1 - 2**n, 3) * n0 + Fraction(5 * 3**n - 2 ** (n + 2) - 1, 6) * e0
    return 2**n * k0 + float(rational)


def kemeny_recursive(prev: float, n0: int, e0: int, n: int) -> float:
    """One recursion step from the depth-(n-1) Kemeny constant.

    The step constant is (5 * 3^(n-1) + 1)/6 * e0 - n0/3; iterating from the
    seed value matches the closed form to floating rounding.
    """
    if n < 1:
        raise ValueError("recursion step needs n >= 1")
    rational = Fraction(-n0, 3) + Fraction((5 * 3 ** (n - 1) + 1) * e0, 6)
    return 2 * prev + float(rational)


def kappa(n0: int, e0: int, n: int) -> int:
    """Sum of vertex counts over generations 0..n-1 (the exponent driver in
    the spanning-tree closed form); exact integer."""
    if n < 0:
        raise ValueError("depth must be nonnegative")
    total = 0
    vertices, edges = n0, e0
    for _ in range(n):
        total += vertices
        vertices += edges
        edges *= 3
    closed = Fraction(3**n - 1, 4) * e0 + n * (n0 - Fraction(e0, 2))
    if total != closed:
        raise RuntimeError(
            f"internal inconsistency: summation {total} != closed form {closed}"
        )
    return total


def spanning_trees_closed(nst0: int, n0: int, e0: int, n: int) -> SpanningTreeCount:
    """Spanning-tree count of the depth-n triangulation in exact factored form."""
    if nst0 < 1:
        raise ValueError("seed spanning-tree count must be >= 1")
    if n < 0:
        raise ValueError("depth must be nonnegative")
    if n == 0:
        return SpanningTreeCount(0, 0, nst0)
    k = kappa(n0, e0, n)
    pow3 = k - n
    pow2 = k - n * (2 * n0 - e0 - 1)
    if pow3 < 0 or pow2 < 0:
        raise RuntimeError(
            f"internal inconsistency: negative exponent (pow3={pow3}, pow2={pow2})"
        )
    return SpanningTreeCount(pow3, pow2, nst0)


def spanning_trees_step(
    prev: Union[SpanningTreeCount, int], n0: int, e0: int, n: int
) -> SpanningTreeCount:
    """One recursion step: multiply the depth-(n-1) count by
    3^(N_{n-1} - 1) * 2^(N_{n-1} - 2*n0 + e0 + 1)."""
    if n < 1:
        raise ValueError("recursion step needs n >= 1")
    if isinstance(prev, int):
        prev = SpanningTreeCount(0, 0, prev)
    prev_vertices, _ = predicted_counts(n0, e0, n - 1)
    return SpanningTreeCount(
        prev.pow3 + prev_vertices - 1,
        prev.pow2 + prev_vertices - 2 * n0 + e0 + 1,
        prev.seed_count,
    )


@dataclass(frozen=True)
class SeedData:
    """Seed-graph invariants, each from its own first-principles oracle."""

    graph: Graph
    eigenvalues: tuple[float, ...]
    bipartite: bool
    kf_star: float  # resistance-distance sum
    kemeny: float  # spectrum reciprocal sum
    spanning_trees: int  # matrix-tree determinant


def seed_data(g: Graph, tol: float = DEFAULT_EIG_TOL) -> SeedData:
    info = analyze(g)
    eig = eigenvalues_sym(normalized_laplacian(g), tol=tol)
    kemeny = math.fsum(1.0 / x for x in eig.eigenvalues[1:])
    return SeedData(
        graph=g,
        eigenvalues=eig.eigenvalues,
        bipartite=info.bipartite,
        kf_star=kf_star_direct(g),
        kemeny=kemeny,
        spanning_trees=spanning_trees_matrix_tree(g),
    )


@dataclass(frozen=True)
class InvariantReport:
    """All invariants at one depth, each by every route that was available.

    Headline values come from the closed forms; ``routes`` maps invariant
    name -> route name -> value, and ``discrepancies`` records the maximum
    relative spread per invariant plus the kf/kemeny identity residual.
    """

    n: int
    num_vertices: int
    num_edges: int
    kf_star: float
    kemeny: float
    spanning_trees: SpanningTreeCount
    kappa: int
    routes: Mapping[str, Mapping[str, object]]
    discrepancies: Mapping[str, float]

    def to_json_dict(self) -> dict:
        def route_value(value: object) -> object:
            if isinstance(value, SpanningTreeCount):
                return value.json_value()
            if isinstance(value, int):
                return str(value)
            return value

        return {
            "n": self.n,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "kf_star": self.kf_star,
            "kemeny": self.kemeny,
            "spanning_trees": self.spanning_trees.json_value(),
            "kappa": self.kappa,
            "routes": {
                invariant: {route: route_value(v) for route, v in by_route.items()}
                for invariant, by_route in self.routes.items()
            },
            "discrepancies": dict(self.discrepancies),
        }


@dataclass(frozen=True)
class VerificationResult:
    reports: tuple[InvariantReport, ...]
    tolerance: float
    passed: bool
    failures: tuple[str, ...]


def verify_all(
    g: Graph,
    max_n: int,
    tol: float = 1e-8,
    materialize_cap: int = VERIFY_MATERIALIZE_CAP,
    eig_tol: float = DEFAULT_EIG_TOL,
) -> VerificationResult:
    """Cross-validate every invariant by all available routes for n <= max_n.

    Routes per invariant: closed form, iterated recursion, the spectrum sum
    over the symbolic descriptor, and a direct oracle on the materialized
    graph while its vertex count stays within ``materialize_cap``.  Floating
    routes must agree within ``tol`` relative; spanning-tree routes must agree
    exactly.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    seed = seed_data(g, tol=eig_tol)
    n0, e0 = g.num_vertices, g.num_edges
    reports: list[InvariantReport] = []
    failures: list[str] = []

    kf_running = seed.kf_star
    kemeny_running = seed.kemeny
    trees_running = SpanningTreeCount(0, 0, seed.spanning_trees)
    materialized: Graph | None = g

    for n in range(max_n + 1):
        if n > 0:
            kf_running = kf_star_recursive(kf_running, n0, e0, n)
            kemeny_running = kemeny_recursive(kemeny_running, n0, e0, n)
            trees_running = spanning_trees_step(trees_running, n0, e0, n)
        vertices, edges = predicted_counts(n0, e0, n)
        if n > 0 and materialized is not None:
            if vertices <= materialize_cap:
                materialized = triangulate(materialized, cap=materialize_cap)
            else:
                materialized = None

        descriptor = build_descriptor(seed.eigenvalues, e0, seed.bipartite, n)
        exact_part, seed_part = reciprocal_sum(descriptor)
        kemeny_spectrum = float(exact_part) + seed_part

        kf_routes: dict[str, float] = {
            "closed_form": kf_star_closed(seed.kf_star, n0, e0, n),
            "recursion": kf_running,
            "spectrum_sum": 2 * edges * kemeny_spectrum,
        }
        kemeny_routes: dict[str, float] = {
            "closed_form": kemeny_closed(seed.kemeny, n0, e0, n),
            "recursion": kemeny_running,
            "spectrum_sum": kemeny_spectrum,
        }
        trees_closed = spanning_trees_closed(seed.spanning_trees, n0, e0, n)
        tree_routes: dict[str, object] = {
            "closed_form": trees_closed,
            "recursion": trees_running,
        }
        if n == 0:
            kf_routes["direct_oracle"] = seed.kf_star
            kemeny_routes["direct_oracle"] = seed.kemeny
            tree_routes["direct_oracle"] = seed.spanning_trees
        elif materialized is not None:
            kf_routes["direct_oracle"] = kf_star_direct(materialized)
            dense = eigenvalues_sym(normalized_laplacian(materialized), tol=eig_tol)
            kemeny_routes["direct_oracle"] = math.fsum(
                1.0 / x for x in dense.eigenvalues[1:]
            )
            tree_routes["direct_oracle"] = spanning_trees_matrix_tree(materialized)

        discrepancies: dict[str, float] = {}
        for name, float_routes in (("kf_star", kf_routes), ("kemeny", kemeny_routes)):
            values = list(float_routes.values())
            reference = abs(float_routes["closed_form"])
            spread = (max(values) - min(values)) / reference
            discrepancies[name] = spread
            if spread > tol:
                table = ", ".join(f"{r}={v!r}" for r, v in sorted(float_routes.items()))
                failures.append(
                    f"n={n}: {name} routes disagree by {spread:.3e} > {tol:.1e} ({table})"
                )
        trees_exact = all(value == trees_closed for value in tree_routes.values())
        discrepancies["spanning_trees"] = 0.0 if trees_exact else math.inf
        if not trees_exact:
            table = ", ".join(f"{r}={v}" for r, v in sorted(tree_routes.items(), key=lambda kv: kv[0]))
            failures.append(f"n={n}: spanning-tree routes are not exactly equal ({table})")
        identity = abs(
            kf_routes["closed_form"] - 2 * edges * kemeny_routes["closed_form"]
        ) / abs(kf_routes["closed_form"])
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
                kf_star=kf_routes["closed_form"],
                kemeny=kemeny_routes["closed_form"],
                spanning_trees=trees_closed,
                kappa=kappa(n0, e0, n),
                routes={
                    "kf_star": kf_routes,
                    "kemeny": kemeny_routes,
                    "spanning_trees": tree_routes,
                },
                discrepancies=discrepancies,
            )
        )

    return VerificationResult(
        reports=tuple(reports),
        tolerance=tol,
        passed=not failures,
        failures=tuple(failures),
    )
