"""Symmetric linear algebra over graphs.

The normalized Laplacian, an eigensolver with a residual contract, two direct
oracles on Cholesky-checked inverses (resistance distances from the grounded
Laplacian, Kemeny's constant from the normalized Laplacian plus its
stationary rank-one term), and the exact matrix-tree determinant by sparse
fraction-free elimination, in minimum-degree order, of integer rows over
positive row denominators.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .graph import Graph

DEFAULT_EIG_TOL = 1e-10

# Smallest Cholesky pivot accepted, relative to the largest diagonal entry.  A
# smaller pivot puts the condition number above 2^26, so the inverse could not
# be trusted to 1e-8; and a singular Laplacian can round to a tiny positive pivot.
_PIVOT_RTOL = 2.0**-26


class NumericError(RuntimeError):
    """Base class for numerical failures in this module."""


class EigensolverError(NumericError):
    """Eigendecomposition failed or did not reach the requested residual."""


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """Dense real symmetric matrix with read-only float64 storage."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        if not np.array_equal(a, a.T):
            raise ValueError("matrix must be exactly symmetric")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def order(self) -> int:
        return int(self.entries.shape[0])


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues plus the achieved residual max |Av - lambda v|."""

    eigenvalues: tuple[float, ...]
    residual: float


def normalized_laplacian(g: Graph) -> SymmetricMatrix:
    """Identity minus the degree-normalized adjacency: 1 on the diagonal,
    -1/sqrt(d_i d_j) on edges, 0 elsewhere."""
    inv_sqrt = 1.0 / np.sqrt(np.array(g.degrees, dtype=float))
    m = np.zeros((g.num_vertices, g.num_vertices))
    us, vs = np.array(g.edges).T
    w = -inv_sqrt[us] * inv_sqrt[vs]
    m[us, vs] = w
    m[vs, us] = w
    np.fill_diagonal(m, 1.0)
    return SymmetricMatrix(m)


def eigenvalues_sym(m: SymmetricMatrix) -> EigenResult:
    """All eigenvalues of a symmetric matrix, ascending, with residual <=
    DEFAULT_EIG_TOL.

    Deterministic for fixed input.  Raises EigensolverError when the
    decomposition fails to converge or the residual exceeds the tolerance.
    """
    a = m.entries
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigendecomposition did not converge: {exc}") from exc
    r = a @ v
    r -= v * w
    residual = float(np.abs(r, out=r).max())
    if residual > DEFAULT_EIG_TOL:
        raise EigensolverError(
            f"achieved residual {residual:.3e} exceeds tolerance {DEFAULT_EIG_TOL:.1e}"
        )
    return EigenResult(tuple(float(x) for x in w), residual)


def _spd_inverse(a: np.ndarray, name: str) -> np.ndarray:
    """Inverse of a symmetric matrix that a Cholesky factorization shows to be
    positive definite, with every pivot at least _PIVOT_RTOL times the
    largest diagonal entry; raises NumericError naming the matrix otherwise."""
    try:
        pivot = float(np.linalg.cholesky(a).diagonal().min()) ** 2
    except np.linalg.LinAlgError:
        pivot = 0.0
    if pivot < _PIVOT_RTOL * float(a.diagonal().max()):
        raise NumericError(f"the {name} is not positive definite (is the graph connected?)")
    return np.linalg.inv(a)


def resistance_distances(g: Graph) -> np.ndarray:
    """Pairwise effective resistances with unit resistors on every edge.

    The combinatorial Laplacian with the last vertex grounded (its row and
    column replaced by the identity's) is inverted; with that vertex's diagonal
    entry then set to 0 the inverse M is a generalized inverse of the
    Laplacian, and r_ij = M_ii + M_jj - 2 M_ij.
    """
    lap = np.zeros((g.num_vertices, g.num_vertices))
    us, vs = np.array(g.edges).T
    lap[us, vs] = -1.0
    lap[vs, us] = -1.0
    np.fill_diagonal(lap, np.array(g.degrees, dtype=float))
    lap[-1] = lap[:, -1] = 0.0
    lap[-1, -1] = 1.0
    m = _spd_inverse(lap, "grounded Laplacian")
    m[-1, -1] = 0.0
    diag = np.diag(m).copy()
    r = diag[:, None] + diag[None, :]
    r -= m
    r -= m.T
    np.fill_diagonal(r, 0.0)
    return r


def kf_star_direct(g: Graph) -> float:
    """Multiplicative degree-Kirchhoff index from first principles:
    sum over unordered pairs of d_i * d_j * r_ij."""
    r = resistance_distances(g)
    d = np.array(g.degrees, dtype=float)
    return 0.5 * float(d @ r @ d)


def kemeny_direct(g: Graph) -> float:
    """Kemeny's constant from first principles: tr(Z) - 1 for the fundamental
    matrix Z = (I - P + 1 pi^T)^-1 of the random walk, which is similar to
    (L + u u^T)^-1 for the normalized Laplacian L and u = sqrt(d / 2E)."""
    d = np.array(g.degrees, dtype=float)
    u = np.sqrt(d / d.sum())
    m = np.outer(u, u)
    m += normalized_laplacian(g).entries
    return float(np.trace(_spd_inverse(m, "normalized Laplacian plus u u^T"))) - 1.0


def spanning_trees_matrix_tree(g: Graph) -> int:
    """Exact spanning-tree count: determinant of the combinatorial Laplacian
    with the last row and column deleted, by sparse exact elimination.

    Each grounded-Laplacian row is a dict of integers over a denominator.
    Vertices are eliminated in greedy minimum-degree order, which on an
    iterated triangulation is a perfect elimination order with no fill outside
    the seed block.  The order comes from the current degrees alone, so the
    count does not depend on how the graph was built.
    """
    size = g.num_vertices - 1
    rows = [{i: g.degrees[i]} for i in range(size)]
    for u, v in g.edges:
        if v < size:  # u < v, so u < size as well
            rows[u][v] = rows[v][u] = -1
    return _integer_determinant(rows, [1] * size)


def _integer_determinant(rows: list[dict[int, int]], den: list[int]) -> int:
    """Integer determinant of a symmetric positive definite matrix: row i is
    ``rows[i]`` over ``den[i] > 0``, sparse integers that hold the diagonal.

    Fraction-free symmetric elimination without pivoting (after Bareiss),
    fewest entries first (ties by index, lazy heap).  Consumes ``rows`` and
    ``den``.  Raises NumericError on a pivot <= 0 or a non-integer product.
    """
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    numerator = denominator = 1
    while heap:
        length, k = heapq.heappop(heap)
        if length != len(rows[k]):
            continue  # stale heap entry; an eliminated row is left empty
        row, rows[k] = rows[k], {}
        pivot = row.pop(k)
        if pivot <= 0:
            raise NumericError(
                f"pivot {Fraction(pivot, den[k])} at vertex {k} is not positive: "
                "the matrix is not positive definite"
            )
        common = gcd(pivot, den[k])
        numerator *= pivot // common
        denominator *= den[k] // common
        content = gcd(pivot, *row.values())
        for i in row:
            row_i = rows[i]
            a_ik = row_i.pop(k)
            h = pivot // gcd(pivot, a_ik * content)  # least integral scale
            if h != 1:
                row_i = {j: h * a_ij for j, a_ij in row_i.items()}
            for j, a_kj in row.items():
                row_i[j] = row_i.get(j, 0) - a_ik * h * a_kj // pivot  # exact division
            if h != 1:
                common = gcd(den[i] * h, *row_i.values())
                den[i] = den[i] * h // common
                rows[i] = row_i = {j: a_ij // common for j, a_ij in row_i.items()}
            heapq.heappush(heap, (len(row_i), i))
    if numerator % denominator:
        raise NumericError(f"pivot product {Fraction(numerator, denominator)} is not an integer")
    return numerator // denominator
