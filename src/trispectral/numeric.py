"""Symmetric linear algebra over graphs.

Normalized and combinatorial Laplacians, an eigensolver with a residual
contract, resistance distances through the Laplacian pseudoinverse, and the
exact matrix-tree determinant by sparse fraction-free elimination, in
minimum-degree order, of integer rows over positive row denominators.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .graph import Graph

DEFAULT_EIG_TOL = 1e-10

# Pseudoinverse kernel cutoff, relative to the largest eigenvalue.
_KERNEL_RTOL = 1e-9


class NumericError(RuntimeError):
    """Base class for numerical failures in this module."""


class EigensolverError(NumericError):
    """Eigendecomposition failed or did not reach the requested residual."""


class PseudoinverseError(NumericError):
    """Laplacian pseudoinverse found an unexpected kernel."""


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


def combinatorial_laplacian(g: Graph) -> SymmetricMatrix:
    """Degree matrix minus adjacency matrix; row sums are exactly zero."""
    m = np.zeros((g.num_vertices, g.num_vertices))
    us, vs = np.array(g.edges).T
    m[us, vs] = -1.0
    m[vs, us] = -1.0
    np.fill_diagonal(m, np.array(g.degrees, dtype=float))
    return SymmetricMatrix(m)


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


def resistance_distances(g: Graph) -> np.ndarray:
    """Pairwise effective resistances with unit resistors on every edge.

    Computed from the Moore-Penrose pseudoinverse of the combinatorial
    Laplacian: r_ij = L+_ii + L+_jj - 2 L+_ij.  Only eigenvalues above
    a relative cutoff are inverted; the kernel must be exactly rank one.
    """
    lap = combinatorial_laplacian(g).entries
    try:
        w, v = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as exc:
        raise PseudoinverseError(f"eigendecomposition failed: {exc}") from exc
    cutoff = _KERNEL_RTOL * float(w[-1])
    kernel = int(np.count_nonzero(w <= cutoff))
    if kernel != 1:
        raise PseudoinverseError(
            f"expected a rank-1 kernel, found {kernel} eigenvalues below {cutoff:.3e}"
        )
    inv = np.zeros_like(w)
    np.divide(1.0, w, out=inv, where=w > cutoff)
    pinv = (v * inv) @ v.T
    diag = np.diag(pinv).copy()
    r = diag[:, None] + diag[None, :]
    r -= pinv
    r -= pinv.T
    np.fill_diagonal(r, 0.0)
    return r


def kf_star_direct(g: Graph) -> float:
    """Multiplicative degree-Kirchhoff index from first principles:
    sum over unordered pairs of d_i * d_j * r_ij."""
    r = resistance_distances(g)
    d = np.array(g.degrees, dtype=float)
    return 0.5 * float(d @ r @ d)


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
