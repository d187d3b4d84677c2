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
plain integer when that is physically feasible.  Decimal strings come from
exact decimal arithmetic (a rounded result raises), not from the int-to-str
conversion, which is quadratic in the digit count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, Decimal, Inexact, Rounded, localcontext
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
from .spectra import reciprocal_sums

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

    def _require_digits(self, max_digits: int) -> int:
        digits = self.digits10()
        if digits > max_digits:
            raise OverflowError(f"count has about {digits} digits, above the {max_digits} limit")
        return digits

    def to_int(self, max_digits: int = 10**7) -> int:
        self._require_digits(max_digits)
        return 3**self.pow3 * 2**self.pow2 * self.seed_count

    __int__ = to_int

    def decimal(self, max_digits: int = DECIMAL_DIGIT_CAP) -> str:
        """Exact decimal string; raises OverflowError beyond max_digits."""
        digits = self._require_digits(max_digits)
        with localcontext() as ctx:
            ctx.prec = digits + 10
            ctx.Emax = MAX_EMAX
            ctx.traps[Inexact] = ctx.traps[Rounded] = True
            return str(Decimal(3) ** self.pow3 * Decimal(2) ** self.pow2 * self.seed_count)

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
    """Sum of vertex counts over generations 0..n-1 (the exponent driver in the
    spanning-tree closed form): n*n0 + (3^n - 1 - 2n)/4 * e0, exactly.  verify_all
    checks it against the summation that spanning_trees_step carries."""
    if n < 0:
        raise ValueError("depth must be nonnegative")
    return n * n0 + (3**n - 1 - 2 * n) // 4 * e0


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
    """Invariants of one explicit graph, each from its own first-principles oracle."""

    eigenvalues: tuple[float, ...]
    bipartite: bool
    kf_star: float  # resistance-distance sum
    kemeny: float  # spectrum reciprocal sum
    spanning_trees: int  # matrix-tree determinant


def seed_data(g: Graph, tol: float = DEFAULT_EIG_TOL) -> SeedData:
    eigenvalues = eigenvalues_sym(normalized_laplacian(g), tol=tol).eigenvalues
    return SeedData(
        eigenvalues=eigenvalues,
        bipartite=analyze(g).bipartite,
        kf_star=kf_star_direct(g),
        kemeny=math.fsum(1.0 / x for x in eigenvalues[1:]),
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
    over the symbolic descriptor, and a direct oracle (:func:`seed_data`) on
    the materialized graph while its vertex count stays within
    ``materialize_cap``.  Floating routes must agree within ``tol`` relative;
    spanning-tree routes must agree exactly.  The spectrum sum is carried one
    generation at a time from the depth-0/1 descriptors (``reciprocal_sums``),
    so without the direct oracle each depth costs O(1) big-integer operations.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    seed = seed_data(g, tol=eig_tol)
    n0, e0 = g.num_vertices, g.num_edges
    reports: list[InvariantReport] = []
    failures: list[str] = []

    names = ("kf_star", "kemeny", "spanning_trees")
    running = (seed.kf_star, seed.kemeny, SpanningTreeCount(0, 0, seed.spanning_trees))
    materialized: Graph | None = g
    oracle: SeedData | None = seed
    spectrum_sums = reciprocal_sums(seed.eigenvalues, e0, seed.bipartite)

    for n in range(max_n + 1):
        vertices, edges = predicted_counts(n0, e0, n)
        if n > 0:
            running = (
                kf_star_recursive(running[0], n0, e0, n),
                kemeny_recursive(running[1], n0, e0, n),
                spanning_trees_step(running[2], n0, e0, n),
            )
            if materialized is not None and vertices <= materialize_cap:
                materialized = triangulate(materialized, cap=materialize_cap)
                oracle = seed_data(materialized, tol=eig_tol)
            else:
                materialized = oracle = None
        closed = (
            kf_star_closed(seed.kf_star, n0, e0, n),
            kemeny_closed(seed.kemeny, n0, e0, n),
            spanning_trees_closed(seed.spanning_trees, n0, e0, n),
        )
        kf, kemeny, trees = closed
        exact_part, seed_part = next(spectrum_sums)
        kemeny_spectrum = float(exact_part) + seed_part

        routes: dict[str, dict[str, object]] = {
            name: {"closed_form": value, "recursion": recursion}
            for name, value, recursion in zip(names, closed, running)
        }
        routes["kf_star"]["spectrum_sum"] = 2 * edges * kemeny_spectrum
        routes["kemeny"]["spectrum_sum"] = kemeny_spectrum
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
        trees_exact = all(value == trees for value in tree_routes.values())
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
                kf_star=kf,
                kemeny=kemeny,
                spanning_trees=trees,
                kappa=kappa(n0, e0, n),
                routes=routes,
                discrepancies=discrepancies,
            )
        )

    return VerificationResult(
        reports=tuple(reports),
        tolerance=tol,
        passed=not failures,
        failures=tuple(failures),
    )
