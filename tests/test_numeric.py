"""Laplacians, eigensolver contract, resistance distances, spanning-tree counters."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bareiss_spanning_trees,
    brute_force_spanning_trees,
    connected_graphs,
    fill_heavy_graphs,
)
from trispectral.graph import Graph, analyze, generate, iterate_triangulation, triangulate
from trispectral.invariants import spanning_trees_closed
from trispectral.numeric import (
    NumericError,
    SymmetricMatrix,
    _integer_determinant,
    combinatorial_laplacian,
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
        r = resistance_distances(generate("complete", 2))
        assert r[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_k3_series_parallel(self):
        r = resistance_distances(generate("complete", 3))
        for i in range(3):
            for j in range(i + 1, 3):
                assert r[i, j] == pytest.approx(2 / 3, abs=1e-12)

    def test_p3_series(self):
        r = resistance_distances(generate("path", 3))
        assert r[0, 2] == pytest.approx(2.0, abs=1e-12)

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


class TestKfStarDirect:
    @pytest.mark.parametrize(
        "kind,size,expected",
        [("complete", 2, 1.0), ("complete", 3, 8.0), ("path", 3, 6.0)],
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
        assert spanning_trees_matrix_tree(t) == closed.to_int()

    def test_elimination_rejects_nonpositive_pivot(self):
        # [[1, 2], [2, 1]] is indefinite: the second pivot is 1 - 4 = -3.
        rows = [
            {0: Fraction(1), 1: Fraction(2)},
            {0: Fraction(2), 1: Fraction(1)},
        ]
        with pytest.raises(NumericError, match="pivot -3 at vertex 1"):
            _integer_determinant(rows)

    def test_elimination_rejects_non_integer_product(self):
        rows = [{0: Fraction(3, 2)}, {1: Fraction(1, 3)}]
        with pytest.raises(NumericError, match="pivot product 1/2 is not an integer"):
            _integer_determinant(rows)
