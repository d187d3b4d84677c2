"""Laplacians, eigensolver contract, resistance distances, spanning-tree counters."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bareiss_determinant,
    bareiss_spanning_trees,
    brute_force_spanning_trees,
    combinatorial_laplacian,
    connected_graphs,
    corpus,
    fill_heavy_graphs,
    kemeny_fraction,
    pseudoinverse_resistances,
    spd_integer_matrices,
    to_int,
)
from trispectral.graph import Graph, analyze, generate, iterate_triangulation, triangulate
from trispectral.invariants import seed_data, spanning_trees_closed
from trispectral.numeric import (
    NumericError,
    SymmetricMatrix,
    _integer_determinant,
    eigenvalues_sym,
    kf_star_direct,
    normalized_laplacian,
    resistance_distances,
    spanning_trees_matrix_tree,
)


class TestMatrices:
    def test_symmetric_matrix_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymmetricMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_symmetric_matrix_rejects_non_square(self):
        with pytest.raises(ValueError, match="^matrix must be square$"):
            SymmetricMatrix(np.zeros((2, 3)))

    def test_normalized_laplacian_k2(self):
        m = normalized_laplacian(generate("complete", 2))
        assert np.array_equal(m.entries, np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_normalized_laplacian_k3(self):
        m = normalized_laplacian(generate("complete", 3)).entries
        assert np.allclose(np.diag(m), 1.0)
        off = m[~np.eye(3, dtype=bool)]
        assert np.allclose(off, -0.5)

    def test_normalized_laplacian_p3_entry(self):
        m = normalized_laplacian(generate("path", 3)).entries
        assert m[0, 1] == pytest.approx(-1 / math.sqrt(2), abs=1e-15)

    def test_combinatorial_laplacian_row_sums(self):
        m = combinatorial_laplacian(generate("petersen", 10)).entries
        assert np.allclose(m.sum(axis=1), 0.0)


# Textbook spectra used as independent oracles for the eigensolver.
def _cycle_spectrum(n):
    vals = [1 - math.cos(2 * math.pi * k / n) for k in range(n)]
    return sorted(vals)


def _path_spectrum(n):
    return sorted(1 - math.cos(math.pi * k / (n - 1)) for k in range(n))


class TestEigenvaluesSym:
    def test_k2(self):
        eig = eigenvalues_sym(normalized_laplacian(generate("complete", 2)))
        assert eig.eigenvalues == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_k3(self):
        eig = eigenvalues_sym(normalized_laplacian(generate("complete", 3)))
        assert eig.eigenvalues == pytest.approx([0.0, 1.5, 1.5], abs=1e-12)

    def test_p3(self):
        eig = eigenvalues_sym(normalized_laplacian(generate("path", 3)))
        assert eig.eigenvalues == pytest.approx([0.0, 1.0, 2.0], abs=1e-12)

    @pytest.mark.parametrize(
        "kind,size,expected",
        [
            ("complete", 4, [0.0] + [4 / 3] * 3),
            ("cycle", 4, _cycle_spectrum(4)),
            ("cycle", 5, _cycle_spectrum(5)),
            ("path", 4, _path_spectrum(4)),
            ("star", 5, [0.0, 1.0, 1.0, 1.0, 2.0]),
            ("petersen", 10, [0.0] + [2 / 3] * 5 + [5 / 3] * 4),
        ],
    )
    def test_known_families(self, kind, size, expected):
        eig = eigenvalues_sym(normalized_laplacian(generate(kind, size)))
        assert eig.eigenvalues == pytest.approx(expected, abs=1e-12)

    def test_residual_below_tolerance(self):
        eig = eigenvalues_sym(normalized_laplacian(generate("petersen", 10)))
        assert eig.residual <= 1e-10

    @given(connected_graphs())
    def test_spectrum_properties(self, g):
        eig = eigenvalues_sym(normalized_laplacian(g))
        lam = eig.eigenvalues
        assert list(lam) == sorted(lam)
        assert all(-1e-10 <= x <= 2 + 1e-10 for x in lam)
        assert abs(lam[0]) <= 1e-10
        # trace equals the vertex count
        assert math.fsum(lam) == pytest.approx(g.num_vertices, abs=1e-9 * g.num_vertices)

    @given(connected_graphs())
    def test_eigenvalue_two_iff_bipartite(self, g):
        lam = eigenvalues_sym(normalized_laplacian(g)).eigenvalues
        near_two = sum(1 for x in lam if abs(x - 2) <= 1e-6)
        assert near_two == (1 if analyze(g).bipartite else 0)


class TestResistanceDistances:
    def test_k2(self):
        # The only ungrounded vertex is the whole independent set: no Schur block.
        r = resistance_distances(generate("complete", 2))
        assert np.array_equal(r, [[0.0, 1.0], [1.0, 0.0]])

    def test_k3_series_parallel(self):
        r = resistance_distances(generate("complete", 3))
        for i in range(3):
            for j in range(i + 1, 3):
                assert r[i, j] == pytest.approx(2 / 3, abs=1e-12)

    def test_p3_series(self):
        r = resistance_distances(generate("path", 3))
        assert r[0, 2] == pytest.approx(2.0, abs=1e-12)

    def test_s5_leaves_eliminated_in_closed_form(self):
        # Three leaves form the independent set; the Schur block is the hub alone.
        r = resistance_distances(generate("star", 5))
        expected = np.full((5, 5), 2.0)
        expected[0, :] = expected[:, 0] = 1.0
        np.fill_diagonal(expected, 0.0)
        assert np.array_equal(r, expected)

    def test_c4_values(self):
        r = resistance_distances(generate("cycle", 4))
        assert r[0, 1] == pytest.approx(3 / 4, abs=1e-12)
        assert r[0, 2] == pytest.approx(1.0, abs=1e-12)

    @given(connected_graphs())
    def test_matrix_shape_properties(self, g):
        r = resistance_distances(g)
        assert np.allclose(r, r.T)
        assert np.all(np.diag(r) == 0.0)
        off = r[~np.eye(g.num_vertices, dtype=bool)]
        assert np.all(off > 0)

    @given(connected_graphs())
    def test_triangle_inequality(self, g):
        r = resistance_distances(g)
        n = g.num_vertices
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert r[i, j] <= r[i, k] + r[k, j] + 1e-9

    @given(connected_graphs())
    def test_foster_sum_over_edges(self, g):
        # Sum of resistances over the edges equals N - 1.
        r = resistance_distances(g)
        total = math.fsum(r[u, v] for u, v in g.edges)
        assert total == pytest.approx(g.num_vertices - 1, abs=1e-8)

    @given(connected_graphs())
    def test_matches_pseudoinverse(self, g):
        r = resistance_distances(g)
        assert np.allclose(r, pseudoinverse_resistances(g), rtol=1e-9, atol=1e-12)


def _disconnected(*blocks: list[tuple[int, int]]) -> Graph:
    """Disjoint union of edge lists, built without from_edges' connectivity check."""
    edges, offset = [], 0
    for block in blocks:
        edges += [(u + offset, v + offset) for u, v in block]
        offset += 1 + max(max(e) for e in block)
    adjacency = [[] for _ in range(offset)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return Graph(offset, tuple(edges), tuple(map(tuple, adjacency)),
                 tuple(map(len, adjacency)))


def kemeny_direct(g: Graph) -> float:
    """Kemeny's constant as the direct oracle reports it: Kf*/2E from the resistance solve."""
    return seed_data(g).kemeny


K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
C5_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]


class TestDirectOraclesRejectDisconnectedGraphs:
    # Rounding leaves a tiny positive pivot rather than zero on K4 + K4 (grounded
    # Laplacian), so a bare Cholesky would accept it.
    @pytest.mark.parametrize("blocks", [([(0, 1)], [(0, 1)]), (K4_EDGES, K4_EDGES),
                                        (C5_EDGES, C5_EDGES)])
    @pytest.mark.parametrize("oracle", [resistance_distances, kemeny_direct])
    def test_raises_numeric_error(self, blocks, oracle):
        with pytest.raises(NumericError, match="not positive definite"):
            oracle(_disconnected(*blocks))


class TestKemenyDirect:
    @pytest.mark.parametrize("name,g", sorted(corpus().items()))
    def test_matches_exact_fundamental_matrix(self, name, g):
        exact = kemeny_fraction(g)
        assert abs(Fraction(kemeny_direct(g)) - exact) <= Fraction(1e-13) * exact

    @given(connected_graphs())
    def test_both_oracles_match_exact_values(self, g):
        # Kf* = 2E * Kemeny exactly, so one exact fundamental matrix checks both.
        exact = kemeny_fraction(g)
        assert abs(Fraction(kemeny_direct(g)) - exact) <= Fraction(1e-13) * exact
        kf = 2 * g.num_edges * exact
        assert abs(Fraction(kf_star_direct(g)) - kf) <= Fraction(1e-13) * kf

    def test_triangle_at_depth_four(self):
        # 123 vertices: the Schur complement has 42 rows.
        g = iterate_triangulation(generate("complete", 3), 4)
        assert np.allclose(resistance_distances(g), pseudoinverse_resistances(g),
                           rtol=1e-12, atol=1e-12)
        lam = eigenvalues_sym(normalized_laplacian(g)).eigenvalues
        spectral = math.fsum(1 / x for x in lam[1:])
        assert kemeny_direct(g) == pytest.approx(spectral, rel=1e-13)
        assert kf_star_direct(g) == pytest.approx(2 * g.num_edges * spectral, rel=1e-13)

    @given(connected_graphs())
    def test_agrees_with_spectral_sum(self, g):
        lam = eigenvalues_sym(normalized_laplacian(g)).eigenvalues
        spectral = math.fsum(1 / x for x in lam[1:])
        assert kemeny_direct(g) == pytest.approx(spectral, rel=1e-9)
        assert kf_star_direct(g) == pytest.approx(2 * g.num_edges * kemeny_direct(g), rel=1e-9)


class TestKfStarDirect:
    @pytest.mark.parametrize(
        "kind,size,expected",
        [("complete", 2, 1.0), ("complete", 3, 8.0), ("path", 3, 6.0), ("star", 5, 28.0)],
    )
    def test_frozen_values(self, kind, size, expected):
        assert kf_star_direct(generate(kind, size)) == pytest.approx(expected, rel=1e-12)

    @given(connected_graphs(max_vertices=8))
    @settings(max_examples=30)
    def test_agrees_with_spectral_identity(self, g):
        # Independent route: kf_star = 2E * sum of reciprocal nonzero eigenvalues.
        lam = eigenvalues_sym(normalized_laplacian(g)).eigenvalues
        spectral = 2 * g.num_edges * math.fsum(1 / x for x in lam[1:])
        assert kf_star_direct(g) == pytest.approx(spectral, rel=1e-9)


class TestSpanningTreeCounters:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (generate("complete", 3), 3),
            (generate("complete", 4), 16),
            (generate("cycle", 5), 5),
            (generate("path", 4), 1),
            (generate("petersen", 10), 2000),
            (triangulate(generate("path", 3)), 9),
            (triangulate(generate("complete", 3)), 54),
        ],
    )
    def test_matrix_tree_known_counts(self, graph, expected):
        assert spanning_trees_matrix_tree(graph) == expected

    def test_matrix_tree_vs_brute_force_on_iterated_triangle(self):
        t = triangulate(generate("complete", 3))
        assert brute_force_spanning_trees(t) == spanning_trees_matrix_tree(t) == 54

    @given(connected_graphs(max_vertices=7, max_extra_edges=4))
    @settings(max_examples=40)
    def test_matrix_tree_vs_brute_force(self, g):
        assert spanning_trees_matrix_tree(g) == brute_force_spanning_trees(g)

    @given(fill_heavy_graphs(max_vertices=30))
    @settings(max_examples=60, deadline=None)
    def test_matrix_tree_vs_bareiss_on_fill_heavy_graphs(self, g):
        # Dense random graphs have no perfect elimination order, so the
        # minimum-degree elimination creates fill here.
        assert spanning_trees_matrix_tree(g) == bareiss_spanning_trees(g)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=20, deadline=None)
    def test_matrix_tree_invariant_under_relabeling(self, rng):
        t = iterate_triangulation(generate("petersen", 10), 2)
        perm = list(range(t.num_vertices))
        rng.shuffle(perm)
        relabeled = Graph.from_edges([(perm[u], perm[v]) for u, v in t.edges])
        assert spanning_trees_matrix_tree(relabeled) == spanning_trees_matrix_tree(t)

    def test_matrix_tree_deep_triangulation(self):
        g = generate("complete", 3)
        t = iterate_triangulation(g, 7)
        assert t.num_vertices == 3282
        closed = spanning_trees_closed(spanning_trees_matrix_tree(g), 3, 3, 7)
        assert spanning_trees_matrix_tree(t) == to_int(closed)

    @given(spd_integer_matrices(max_size=25), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_elimination_vs_bareiss_on_integer_matrices(self, m, rng):
        # Weighted and dense matrices force the row rescaling and the pivot
        # row's content; each row also enters over a random denominator.
        den = [rng.randint(1, 6) for _ in m]
        rows = [
            {j: d * a_ij for j, a_ij in enumerate(row) if a_ij or i == j}
            for i, (row, d) in enumerate(zip(m, den))
        ]
        assert _integer_determinant(rows, den) == bareiss_determinant([r[:] for r in m])

    def test_batch_rescales_shared_row_by_lcm(self):
        # Rows 0 and 1 share no entry, so they are eliminated as one batch;
        # row 2 needs scale 2 for the first pivot and 3 for the second.
        rows = [{0: 2, 2: 1}, {1: 3, 2: 1}, {0: 1, 1: 1, 2: 5}]
        assert _integer_determinant(rows, [1, 1, 1]) == 25

    def test_elimination_rejects_nonpositive_pivot(self):
        # [[1, 2], [2, 1]] is indefinite: the second pivot is 1 - 4 = -3.
        rows = [{0: 1, 1: 2}, {0: 2, 1: 1}]
        with pytest.raises(NumericError, match="pivot -3 at vertex 1"):
            _integer_determinant(rows, [1, 1])

    def test_elimination_rejects_non_integer_product(self):
        # diag(3/2, 1/3): integer rows over the denominators 2 and 3.
        rows = [{0: 3}, {1: 1}]
        with pytest.raises(NumericError, match="pivot product 1/2 is not an integer"):
            _integer_determinant(rows, [2, 3])
