"""Symmetric linear algebra over graphs.

The normalized Laplacian, an eigensolver with a residual contract, the
resistance-distance oracle on a Cholesky-checked matrix (the grounded
Laplacian, whose greedy independent set is eliminated in closed form so that
only the Schur complement of the other vertices is inverted; Kemeny's direct
value is its Kf* over 2E), and the exact matrix-tree determinant by sparse
fraction-free elimination, in multiple-minimum-degree order, of integer rows
over positive row denominators.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .graph import Graph

DEFAULT_EIG_TOL = 1e-10

# Smallest Cholesky pivot accepted, relative to the largest diagonal entry.  A
# smaller pivot puts the condition number above 2^26, so the inverse could not
# be trusted to 1e-8; and a singular Laplacian can round to a tiny positive pivot.
_PIVOT_RTOL = 2.0**-26


class NumericError(RuntimeError):
    """A numerical failure: an eigendecomposition that did not converge or
    reach its residual, or a matrix that is not positive definite."""


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


def _endpoints(g: Graph) -> np.ndarray:
    """The edges as a 2 x E index array (rows u and v).  ``np.fromiter`` over
    the flattened pairs takes about a third of the time of ``np.array(g.edges)``
    on a few hundred edges."""
    flat = np.fromiter(itertools.chain.from_iterable(g.edges), np.intp, 2 * g.num_edges)
    return flat.reshape(-1, 2).T


def normalized_laplacian(g: Graph) -> SymmetricMatrix:
    """Identity minus the degree-normalized adjacency: 1 on the diagonal,
    -1/sqrt(d_i d_j) on edges, 0 elsewhere."""
    inv_sqrt = 1.0 / np.sqrt(np.array(g.degrees, dtype=float))
    m = np.zeros((g.num_vertices, g.num_vertices))
    us, vs = _endpoints(g)
    w = -inv_sqrt[us] * inv_sqrt[vs]
    m[us, vs] = w
    m[vs, us] = w
    np.fill_diagonal(m, 1.0)
    return SymmetricMatrix(m)


def eigenvalues_sym(m: SymmetricMatrix) -> EigenResult:
    """All eigenvalues of a symmetric matrix, ascending, with residual <=
    DEFAULT_EIG_TOL.

    Deterministic for fixed input.  Raises NumericError when the
    decomposition fails to converge or the residual exceeds the tolerance.
    """
    a = m.entries
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition did not converge: {exc}") from exc
    r = a @ v
    r -= v * w
    residual = float(np.abs(r, out=r).max())
    if residual > DEFAULT_EIG_TOL:
        raise NumericError(
            f"achieved residual {residual:.3e} exceeds tolerance {DEFAULT_EIG_TOL:.1e}"
        )
    return EigenResult(tuple(float(x) for x in w), residual)


def _independent_order(g: Graph, size: int) -> tuple[list[int], int]:
    """The vertices 0..size-1 with a greedy independent set of them first
    (fewest neighbours first, ties by index), then the rest in index order;
    returns the order and the size of the independent set."""
    chosen, blocked = [], [False] * g.num_vertices
    for v in sorted(range(size), key=g.degrees.__getitem__):
        if not blocked[v]:
            chosen.append(v)
            for w in g.adjacency[v]:
                blocked[w] = True
    return chosen + [v for v in range(size) if blocked[v]], len(chosen)


def resistance_distances(g: Graph) -> np.ndarray:
    """Pairwise effective resistances with unit resistors on every edge.

    The combinatorial Laplacian with the last vertex grounded (its row and
    column deleted) is inverted by blocks: a greedy independent set I of the
    other vertices comes first, so its block is the diagonal D_I, and only the
    Schur complement S = L_OO - L_OI D_I^-1 L_IO of the rest O is inverted.
    With zeros for the grounded vertex the inverse M is a generalized inverse
    of the Laplacian, and r_ij = M_ii + M_jj - 2 M_ij.
    """
    size = g.num_vertices - 1
    order, k = _independent_order(g, size)
    order.append(size)
    position = np.array(order).argsort()
    lap = np.zeros((size + 1, size + 1))
    us, vs = position[_endpoints(g)]
    lap[us, vs] = lap[vs, us] = -1.0
    degrees = np.array(g.degrees, dtype=float)[order]
    np.fill_diagonal(lap, degrees)
    d_inv = 1.0 / degrees[:k]
    l_io = lap[:k, k:size]
    w = l_io * d_inv[:, None]  # D_I^-1 L_IO
    schur = lap[k:size, k:size] - l_io.T @ w
    # Every Cholesky pivot of S must reach _PIVOT_RTOL times the largest
    # diagonal entry of the grounded Laplacian, before I was eliminated.
    try:
        pivots = np.linalg.cholesky(schur).diagonal()
    except np.linalg.LinAlgError:
        pivots = None
    if pivots is None or pivots.min(initial=np.inf) ** 2 < _PIVOT_RTOL * degrees[:size].max():
        raise NumericError("the grounded Laplacian is not positive definite (is the graph connected?)")
    # M_OO = S^-1, M_IO = -W S^-1 and M_II = D_I^-1 + W S^-1 W^T, with W = D_I^-1 L_IO.
    m = np.zeros_like(lap)
    m[k:size, k:size] = s_inv = np.linalg.inv(schur)
    ws = w @ s_inv
    m[:k, :k] = ws @ w.T
    m.flat[: k * (size + 2) : size + 2] += d_inv
    m[:k, k:size] = m_io = -ws
    m[k:size, :k] = m_io.T
    m = m.take(position, 0).take(position, 1)
    diag = m.diagonal()
    r = diag[:, None] + diag[None, :]
    r -= m
    r -= m.T  # the diagonal is exactly 0: 2x - x - x rounds to nothing
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
    Vertices are eliminated in multiple-minimum-degree order (each step takes
    mutually non-adjacent vertices of least current degree), which on an
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

    Fraction-free symmetric elimination without pivoting (after Bareiss), in
    multiple-minimum-degree order: each step takes the rows with the fewest
    entries (ties by index, lazy heap) that share no entry with one another
    and eliminates them as one batch, so a row they update is rescaled once,
    by the least common multiple of the scales its pivots need.  Consumes
    ``rows`` and ``den``.  Raises NumericError on a pivot <= 0 or a
    non-integer product.
    """
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    numerator = denominator = 1
    while heap:
        length, k = heapq.heappop(heap)
        if length != len(rows[k]):
            continue  # stale heap entry; an eliminated row is left empty
        batch, blocked = [k], set(rows[k])
        while heap and heap[0][0] == length:
            _, k = heapq.heappop(heap)
            # A row next to the batch is updated below and pushed again.
            if length == len(rows[k]) and k not in blocked:
                batch.append(k)
                blocked.update(rows[k])
        updates: dict[int, list[tuple[int, int, int, dict[int, int]]]] = {}
        for k in batch:
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
            entry = k, pivot, gcd(pivot, *row.values()), row
            for i in row:
                updates.setdefault(i, []).append(entry)
        for i, eliminated in updates.items():
            row_i, h = rows[i], 1
            for k, pivot, content, _ in eliminated:
                h = lcm(h, pivot // gcd(pivot, row_i[k] * content))  # least integral scale
            if h != 1:
                row_i = {j: h * a_ij for j, a_ij in row_i.items()}
            for k, pivot, _, row in eliminated:
                a_ik = row_i.pop(k)
                for j, a_kj in row.items():
                    row_i[j] = row_i.get(j, 0) - a_ik * a_kj // pivot  # exact division
            if h != 1:
                common = gcd(den[i] * h, *row_i.values())
                den[i] = den[i] * h // common
                if common != 1:
                    row_i = {j: a_ij // common for j, a_ij in row_i.items()}
                rows[i] = row_i
            heapq.heappush(heap, (len(row_i), i))
    if numerator % denominator:
        raise NumericError(f"pivot product {Fraction(numerator, denominator)} is not an integer")
    return numerator // denominator
