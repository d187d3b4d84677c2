"""Graph model, parsing, generators, and the triangulation operator."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import connected_graphs
from trispectral.graph import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    EdgeListFormatError,
    EmptyInputError,
    Graph,
    SelfLoopError,
    VertexCapExceededError,
    analyze,
    format_edge_list,
    generate,
    iterate_triangulation,
    parse_edge_list,
    predicted_counts,
    triangulate,
)


class TestParseEdgeList:
    def test_single_edge(self):
        g = parse_edge_list("0 1")
        assert g.num_vertices == 2
        assert g.edges == ((0, 1),)
        assert g.degrees == (1, 1)

    def test_triangle(self):
        g = parse_edge_list("0 1\n1 2\n0 2")
        assert g.num_vertices == 3
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# header\n\n0 1  # inline\n1 2\n")
        assert g.num_edges == 2

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            parse_edge_list("0 1\n0 1")

    def test_duplicate_edge_reversed(self):
        with pytest.raises(DuplicateEdgeError):
            parse_edge_list("0 1\n1 0")

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            parse_edge_list("1 1")

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            parse_edge_list("0 1\n2 3")

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            parse_edge_list("")

    def test_comment_only_input(self):
        with pytest.raises(EmptyInputError):
            parse_edge_list("# nothing here\n")

    def test_non_integer_token(self):
        with pytest.raises(EdgeListFormatError):
            parse_edge_list("0 x")

    def test_wrong_arity(self):
        with pytest.raises(EdgeListFormatError):
            parse_edge_list("0 1 2")

    def test_negative_label(self):
        with pytest.raises(EdgeListFormatError):
            parse_edge_list("-1 0")

    def test_roundtrip_through_writer(self):
        g = generate("petersen", 10)
        assert parse_edge_list(format_edge_list(g)) == g


class TestAnalyze:
    def test_triangle_not_bipartite(self):
        assert analyze(generate("complete", 3)).bipartite is False

    def test_path_bipartite(self):
        info = analyze(generate("path", 3))
        assert info.bipartite is True

    def test_even_cycle(self):
        info = analyze(generate("cycle", 4))
        assert info.bipartite is True
        assert info.min_degree == info.max_degree == 2

    def test_odd_cycle_not_bipartite(self):
        assert analyze(generate("cycle", 5)).bipartite is False


class TestTriangulate:
    def test_single_edge_becomes_triangle(self):
        assert triangulate(generate("complete", 2)) == generate("complete", 3)

    def test_triangle_counts(self):
        t = triangulate(generate("complete", 3))
        assert (t.num_vertices, t.num_edges) == (6, 9)

    def test_path_gives_two_shared_triangles(self):
        # By hand: new vertex 3 sits on edge (0,1), vertex 4 on edge (1,2).
        t = triangulate(generate("path", 3))
        assert t.num_vertices == 5
        assert t.edges == ((0, 1), (0, 3), (1, 2), (1, 3), (1, 4), (2, 4))

    def test_zero_iterations_is_identity(self):
        g = generate("complete", 3)
        assert iterate_triangulation(g, 0) is g

    def test_two_iterations_of_triangle(self):
        t = iterate_triangulation(generate("complete", 3), 2)
        assert (t.num_vertices, t.num_edges) == (15, 27)

    def test_two_iterations_of_edge(self):
        t = iterate_triangulation(generate("complete", 2), 2)
        assert (t.num_vertices, t.num_edges) == (6, 9)

    def test_cap_guard(self):
        with pytest.raises(VertexCapExceededError):
            triangulate(generate("complete", 4), cap=9)
        with pytest.raises(VertexCapExceededError):
            iterate_triangulation(generate("complete", 3), 10, cap=1000)

    def test_deterministic(self):
        text = "2 0\n0 1\n1 2\n3 1"
        assert triangulate(parse_edge_list(text)) == triangulate(parse_edge_list(text))


class TestPredictedCounts:
    @pytest.mark.parametrize(
        "n0,e0,n,expected",
        [
            (3, 3, 2, (15, 27)),
            (3, 3, 0, (3, 3)),
            (10, 15, 3, (205, 405)),
        ],
    )
    def test_values(self, n0, e0, n, expected):
        assert predicted_counts(n0, e0, n) == expected

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            predicted_counts(1, 1, 1)
        with pytest.raises(ValueError):
            predicted_counts(3, 0, 1)
        with pytest.raises(ValueError):
            predicted_counts(3, 3, -1)


class TestGenerate:
    def test_complete(self):
        assert generate("complete", 3).edges == ((0, 1), (0, 2), (1, 2))

    def test_path(self):
        assert generate("path", 3).edges == ((0, 1), (1, 2))

    def test_star(self):
        g = generate("star", 5)
        assert g.degrees == (4, 1, 1, 1, 1)

    def test_petersen(self):
        g = generate("petersen", 10)
        assert (g.num_vertices, g.num_edges) == (10, 15)
        assert set(g.degrees) == {3}

    def test_invalid_sizes(self):
        for kind, size in [("complete", 1), ("cycle", 2), ("path", 1), ("star", 1), ("petersen", 9)]:
            with pytest.raises(ValueError):
                generate(kind, size)
        with pytest.raises(ValueError):
            generate("hypercube", 8)


class TestTriangulationProperties:
    @given(connected_graphs())
    def test_counts_match_prediction(self, g):
        t = iterate_triangulation(g, 2)
        assert (t.num_vertices, t.num_edges) == predicted_counts(
            g.num_vertices, g.num_edges, 2
        )

    @given(connected_graphs())
    def test_original_edges_persist(self, g):
        t = triangulate(g)
        assert set(g.edges) <= set(t.edges)

    @given(connected_graphs())
    def test_degree_evolution(self, g):
        t = triangulate(g)
        for v in range(g.num_vertices):
            assert t.degrees[v] == 2 * g.degrees[v]
        for v in range(g.num_vertices, t.num_vertices):
            assert t.degrees[v] == 2

    @given(connected_graphs())
    def test_every_edge_on_a_triangle(self, g):
        t = triangulate(g)
        for u, v in t.edges:
            common = set(t.adjacency[u]) & set(t.adjacency[v])
            assert common, f"edge ({u},{v}) lies on no triangle"

    @given(connected_graphs())
    def test_degree_sum_invariant(self, g):
        assert sum(g.degrees) == 2 * g.num_edges
