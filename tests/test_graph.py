"""Graph model, parsing, generators, and the triangulation operator."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import connected_graphs
from trispectral.graph import (
    CapExceededError,
    Graph,
    GraphInputError,
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
        with pytest.raises(GraphInputError, match=r"^duplicate edge \(0, 1\)$"):
            parse_edge_list("0 1\n0 1")

    def test_duplicate_edge_reversed(self):
        with pytest.raises(GraphInputError, match=r"^duplicate edge \(0, 1\)$"):
            parse_edge_list("0 1\n1 0")

    def test_self_loop(self):
        with pytest.raises(GraphInputError, match="^self-loop at vertex 1$"):
            parse_edge_list("1 1")

    def test_disconnected(self):
        with pytest.raises(GraphInputError, match="^graph is disconnected: 4 vertices need"):
            parse_edge_list("0 1\n2 3")

    def test_label_beyond_edge_count_rejected_by_count(self):
        # Two edges cannot connect 10**6 + 1 vertices; no adjacency list is needed to say so.
        with pytest.raises(GraphInputError, match="need at least 1000000 edges, got 2"):
            Graph.from_edges([(0, 1), (1, 10**6)])

    def test_missing_label_counts_as_a_vertex(self):
        # The vertex count is the largest label plus 1, so the unused label 2 is a vertex.
        with pytest.raises(GraphInputError, match="4 vertices need at least 3 edges, got 2$"):
            parse_edge_list("0 1\n1 3")
        with pytest.raises(GraphInputError, match="reached 3 of 4 vertices from vertex 0$"):
            parse_edge_list("0 1\n1 3\n0 3")

    def test_empty_input(self):
        with pytest.raises(GraphInputError, match="^no edges in input$"):
            parse_edge_list("")

    def test_comment_only_input(self):
        with pytest.raises(GraphInputError, match="^no edges in input$"):
            parse_edge_list("# nothing here\n")

    def test_non_integer_token(self):
        # int() reads each of the last four as a number; a label is ASCII digits only.
        for line in ("0 x", "0 1_0", "+0 1", "\u0661 0", "\uff11 0"):
            message = f"^line 1: non-integer vertex label in {re.escape(repr(line))}$"
            with pytest.raises(GraphInputError, match=message):
                parse_edge_list(line)

    def test_wrong_arity(self):
        with pytest.raises(GraphInputError, match="^line 1: expected two vertex labels, got"):
            parse_edge_list("0 1 2")

    def test_negative_label(self):
        with pytest.raises(GraphInputError, match="^line 1: negative vertex label in '-1 0'$"):
            parse_edge_list("-1 0")

    def test_roundtrip_through_writer(self):
        g = generate("petersen", 10)
        assert parse_edge_list(format_edge_list(g)) == g


class TestFromEdges:
    # parse_edge_list rejects these two before from_edges sees the edges.
    @pytest.mark.parametrize(
        "edges,message",
        [
            ([(0, 1), (-1, 1)], r"^negative vertex label in edge \(-1, 1\)$"),
            ([], r"^a graph needs at least one edge$"),
        ],
    )
    def test_rejections(self, edges, message):
        with pytest.raises(GraphInputError, match=message):
            Graph.from_edges(edges)

    @given(connected_graphs(), st.randoms(use_true_random=False))
    def test_edge_order_and_orientation_do_not_matter(self, g, rng):
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
        rng.shuffle(edges)
        h = Graph.from_edges(edges)
        assert h == g
        neighbours = [sorted(w for e in g.edges if v in e for w in e if w != v)
                      for v in range(g.num_vertices)]
        assert [list(nbrs) for nbrs in h.adjacency] == neighbours


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
        with pytest.raises(CapExceededError, match="^triangulation needs 10 vertices, "):
            triangulate(generate("complete", 4), cap=9)
        with pytest.raises(CapExceededError, match="^10 iterations need 88575 vertices, "):
            iterate_triangulation(generate("complete", 3), 10, cap=1000)

    def test_cap_guard_forms_no_power_of_three(self):
        # N_n > 2^n decides the cap, and log10(3) the digit count, with no 3^n formed.
        with pytest.raises(
            CapExceededError, match=r"^100000000 iterations need about 10\^47712125 vertices, "
        ):
            iterate_triangulation(generate("complete", 3), 10**8)

    def test_negative_iteration_count(self):
        with pytest.raises(ValueError, match="^iteration count must be nonnegative$"):
            iterate_triangulation(generate("complete", 3), -1)

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
