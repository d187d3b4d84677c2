"""Shared test fixtures: the seed corpus, independent oracles, and strategies."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Union

import numpy as np
from hypothesis import strategies as st

from trispectral.graph import Graph, generate
from trispectral.invariants import SpanningTreeCount
from trispectral.numeric import SymmetricMatrix
from trispectral.spectra import EXCEPTIONAL_VALUES, SEED_MATCH_TOL, SpectrumDescriptor

# Largest spanning-tree count materialized as a plain int.
INT_DIGIT_CAP = 10**7


def corpus() -> dict[str, Graph]:
    """The named seed graphs exercised throughout the suite."""
    return {
        "K2": generate("complete", 2),
        "K3": generate("complete", 3),
        "K4": generate("complete", 4),
        "P3": generate("path", 3),
        "P4": generate("path", 4),
        "C4": generate("cycle", 4),
        "C5": generate("cycle", 5),
        "S5": generate("star", 5),
        "petersen": generate("petersen", 10),
    }


def new_unit_multiplicity(n0: int, e0: int, g: int) -> int:
    """Closed-form count of eigenvalue-1 copies introduced at generation g >= 1,
    (3^(g-1) + 1)/2 * e0 - n0, before the bipartite +1 at g = 1 (may be
    negative only for g = 1, where that correction restores it)."""
    if g < 1:
        raise ValueError("generation must be >= 1")
    return (3 ** (g - 1) + 1) // 2 * e0 - n0


def multiplicity_of(d: SpectrumDescriptor, value: Union[Fraction, float, int]) -> int:
    """Exact multiplicity of a queried dyadic value in a descriptor.

    Exceptional classes match exactly in rational arithmetic; seed classes
    within SEED_MATCH_TOL at seed scale (the query times 2^n), zero only 0.
    """
    q = value if isinstance(value, Fraction) else Fraction(value)
    total = 0
    for i, mult in enumerate(d.exceptional):
        if EXCEPTIONAL_VALUES[i % 2] / (1 << (d.n - i // 2 - 1)) == q:
            total += mult
    scaled = q * 2**d.n
    for seed_value, mult in d.effective_seed():
        if abs(Fraction(seed_value) - scaled) <= (SEED_MATCH_TOL if seed_value else 0):
            total += mult
    return total


def to_int(count: SpanningTreeCount) -> int:
    """A factored spanning-tree count as a plain int; OverflowError past
    INT_DIGIT_CAP digits."""
    digits = count.digits10()
    if digits > INT_DIGIT_CAP:
        raise OverflowError(f"count has about {digits} digits, above the {INT_DIGIT_CAP} limit")
    return 3**count.pow3 * 2**count.pow2 * count.seed_count


def reciprocal_sum_fraction(d: SpectrumDescriptor) -> Fraction:
    """Exact part of the reciprocal sum, one Fraction per band: generation g's
    bands halve n - g times, so their count weighs 2^(n - g) over the value.
    The reference for the integer-thirds carry of `reciprocal_sum`."""
    exceptional = Fraction(0)
    for i, mult in enumerate(d.exceptional):
        weight = mult * (1 << (d.n - i // 2 - 1))
        exceptional += weight / EXCEPTIONAL_VALUES[i % 2]
    return exceptional


def kemeny_closed_fraction(k0: float, n0: int, e0: int, n: int) -> float:
    """Kemeny closed form with its rational part as a Fraction: the reference
    the integer-sixths arithmetic of `kemeny_closed` must match bit for bit."""
    rational = Fraction(1 - 2**n, 3) * n0 + Fraction(5 * 3**n - 2 ** (n + 2) - 1, 6) * e0
    return 2**n * k0 + float(rational)


def kemeny_recursive_fraction(prev: float, n0: int, e0: int, n: int) -> float:
    """Kemeny recursion step with its constant as a Fraction (reference for
    `kemeny_recursive`)."""
    rational = Fraction(-n0, 3) + Fraction((5 * 3 ** (n - 1) + 1) * e0, 6)
    return 2 * prev + float(rational)


def combinatorial_laplacian(g: Graph) -> SymmetricMatrix:
    """Degree matrix minus adjacency matrix; row sums are exactly zero."""
    m = np.zeros((g.num_vertices, g.num_vertices))
    us, vs = np.array(g.edges).T
    m[us, vs] = -1.0
    m[vs, us] = -1.0
    np.fill_diagonal(m, np.array(g.degrees, dtype=float))
    return SymmetricMatrix(m)


def pseudoinverse_resistances(g: Graph) -> np.ndarray:
    """Effective resistances from the Moore-Penrose pseudoinverse of the
    combinatorial Laplacian: an independent reference for the grounded inverse."""
    pinv = np.linalg.pinv(combinatorial_laplacian(g).entries, hermitian=True)
    diag = np.diag(pinv)
    return diag[:, None] + diag[None, :] - 2 * pinv


def kemeny_fraction(g: Graph) -> Fraction:
    """Kemeny's constant exactly: tr(Z) - 1 for the fundamental matrix
    Z = (I - P + 1 pi^T)^-1, by Gauss-Jordan elimination over Fractions."""
    n = g.num_vertices
    pi = [Fraction(d, 2 * g.num_edges) for d in g.degrees]
    m = [[Fraction(int(i == j)) + pi[j] for j in range(n)] for i in range(n)]
    for u, v in g.edges:
        m[u][v] -= Fraction(1, g.degrees[u])
        m[v][u] -= Fraction(1, g.degrees[v])
    inverse = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        p = next(r for r in range(k, n) if m[r][k])
        m[k], m[p] = m[p], m[k]
        inverse[k], inverse[p] = inverse[p], inverse[k]
        scale = m[k][k]
        m[k] = [x / scale for x in m[k]]
        inverse[k] = [x / scale for x in inverse[k]]
        for r in range(n):
            if r != k and m[r][k]:
                factor = m[r][k]
                m[r] = [x - factor * y for x, y in zip(m[r], m[k])]
                inverse[r] = [x - factor * y for x, y in zip(inverse[r], inverse[k])]
    return sum(inverse[i][i] for i in range(n)) - 1


def bareiss_spanning_trees(g: Graph) -> int:
    """Matrix-tree count by dense fraction-free elimination; O(N^3), so a
    reference for small graphs only."""
    size = g.num_vertices - 1
    m = [[0] * size for _ in range(size)]
    for i in range(size):
        m[i][i] = g.degrees[i]
    for u, v in g.edges:
        if v < size:  # u < v, so u < size as well
            m[u][v] -= 1
            m[v][u] -= 1
    return bareiss_determinant(m)


def bareiss_determinant(m: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination; exact for integer matrices."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                # Exact division: every intermediate is a minor of the input.
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def brute_force_spanning_trees(g: Graph) -> int:
    """Count spanning trees by enumerating all (N-1)-edge subsets."""
    n = g.num_vertices
    count = 0
    for subset in combinations(g.edges, n - 1):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            count += 1
    return count


@st.composite
def connected_graphs(draw, max_vertices: int = 10, max_extra_edges: int = 6) -> Graph:
    """Random connected simple graph: a random tree plus a few extra edges."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    edges = set()
    for child in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=child - 1))
        edges.add((parent, child))
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=max_extra_edges,
        )
    )
    for u, v in extra:
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(sorted(edges))


@st.composite
def fill_heavy_graphs(draw, max_vertices: int = 30) -> Graph:
    """Random connected simple graph: a random tree plus each other vertex
    pair with one drawn probability, dense enough that elimination fills in."""
    n = draw(st.integers(min_value=3, max_value=max_vertices))
    density = draw(st.floats(min_value=0.2, max_value=0.8))
    rng = draw(st.randoms(use_true_random=False))
    edges = {(rng.randrange(child), child) for child in range(1, n)}
    for u, v in combinations(range(n), 2):
        if rng.random() < density:
            edges.add((u, v))
    return Graph.from_edges(sorted(edges))


@st.composite
def spd_integer_matrices(draw, max_size: int = 25) -> list[list[int]]:
    """Random symmetric positive definite integer matrix: either a grounded
    Laplacian with edge weights 1-9 (sparse) or B B^T + I (dense)."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        m = [[0] * (n + 1) for _ in range(n + 1)]
        edges = {(rng.randrange(child), child) for child in range(1, n + 1)}
        edges |= {(u, v) for u, v in combinations(range(n + 1), 2) if rng.random() < 0.2}
        for u, v in edges:
            w = rng.randint(1, 9)
            m[u][v] -= w
            m[v][u] -= w
            m[u][u] += w
            m[v][v] += w
        return [row[:n] for row in m[:n]]
    width = rng.randint(1, n)
    b = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(n)]
    return [
        [sum(x * y for x, y in zip(b_i, b_j)) + (i == j) for j, b_j in enumerate(b)]
        for i, b_i in enumerate(b)
    ]
