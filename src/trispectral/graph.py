"""Simple connected graphs, edge-list I/O, generators, and the triangulation operator."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

DEFAULT_VERTEX_CAP = 20_000

GRAPH_KINDS = ("complete", "path", "cycle", "star", "petersen")


class GraphInputError(ValueError):
    """Base class for invalid edge-list input or graph structure."""


class EmptyInputError(GraphInputError):
    """The input contains no edges."""


class EdgeListFormatError(GraphInputError):
    """Malformed edge-list line: wrong arity, non-integer or negative label."""


class SelfLoopError(GraphInputError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GraphInputError):
    """The same undirected edge appears more than once."""


class DisconnectedGraphError(GraphInputError):
    """The vertex set does not form a single connected component."""


class VertexCapExceededError(RuntimeError):
    """Explicit construction would exceed the configured vertex cap."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple connected undirected graph.

    Edges are stored in canonical lexicographic order with ``u < v`` and
    adjacency lists are sorted, so identical inputs always produce identical
    labelings.  Instances are safe to share across threads.  Construct via
    :meth:`from_edges`, :func:`parse_edge_list`, or :func:`generate`, which
    enforce all structural invariants.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[int, int]], num_vertices: int | None = None
    ) -> "Graph":
        """Validate and canonicalize an edge collection into a Graph.

        Vertices are the labels 0..max-label (or 0..num_vertices-1 when given
        explicitly).  Raises a distinct GraphInputError subclass for each
        rejection reason.
        """
        canonical: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        max_label = -1
        for u, v in edges:
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            if u < 0 or v < 0:
                raise EdgeListFormatError(f"negative vertex label in edge ({u}, {v})")
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise DuplicateEdgeError(f"duplicate edge {pair}")
            seen.add(pair)
            canonical.append(pair)
            if pair[1] > max_label:
                max_label = pair[1]
        if not canonical:
            raise EmptyInputError("a graph needs at least one edge")
        n = max_label + 1 if num_vertices is None else num_vertices
        if n < max_label + 1:
            raise GraphInputError(
                f"num_vertices={n} is below the largest label {max_label}"
            )
        canonical.sort()
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for u, v in canonical:
            adjacency[u].append(v)
            adjacency[v].append(u)
        _require_connected(n, adjacency)
        degrees = tuple(len(nbrs) for nbrs in adjacency)
        return cls(
            num_vertices=n,
            edges=tuple(canonical),
            adjacency=tuple(tuple(sorted(nbrs)) for nbrs in adjacency),
            degrees=degrees,
        )


@dataclass(frozen=True)
class GraphAnalysis:
    """Structural report: counts, degree range, and combinatorial bipartiteness."""

    n_vertices: int
    n_edges: int
    bipartite: bool
    min_degree: int
    max_degree: int


def _require_connected(n: int, adjacency: Sequence[Sequence[int]]) -> None:
    visited = [False] * n
    visited[0] = True
    queue = deque([0])
    reached = 1
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if not visited[v]:
                visited[v] = True
                reached += 1
                queue.append(v)
    if reached != n:
        raise DisconnectedGraphError(
            f"graph is disconnected: reached {reached} of {n} vertices from vertex 0"
        )


def parse_edge_list(text: str) -> Graph:
    """Parse ``u v`` pairs (one per line, 0-based labels, ``#`` comments) into a Graph."""
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListFormatError(
                f"line {lineno}: expected two vertex labels, got {raw.strip()!r}"
            )
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListFormatError(
                f"line {lineno}: non-integer vertex label in {raw.strip()!r}"
            ) from None
        if u < 0 or v < 0:
            raise EdgeListFormatError(
                f"line {lineno}: negative vertex label in {raw.strip()!r}"
            )
        pairs.append((u, v))
    if not pairs:
        raise EmptyInputError("no edges in input")
    return Graph.from_edges(pairs)


def format_edge_list(g: Graph) -> str:
    """Serialize a graph in the same edge-list format the parser accepts."""
    lines = [f"# {g.num_vertices} vertices, {g.num_edges} edges"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def analyze(g: Graph) -> GraphAnalysis:
    """Structural report; bipartiteness decided by BFS 2-coloring, never numerically."""
    n = g.num_vertices
    color = [-1] * n
    color[0] = 0
    queue = deque([0])
    bipartite = True
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if color[v] == -1:
                color[v] = color[u] ^ 1
                queue.append(v)
            elif color[v] == color[u]:
                bipartite = False
    return GraphAnalysis(
        n_vertices=n,
        n_edges=g.num_edges,
        bipartite=bipartite,
        min_degree=min(g.degrees),
        max_degree=max(g.degrees),
    )


def predicted_counts(n0: int, e0: int, n: int) -> tuple[int, int]:
    """Exact vertex/edge counts after n triangulation steps from an (n0, e0) seed."""
    if n0 < 2:
        raise ValueError("seed needs at least 2 vertices")
    if e0 < 1:
        raise ValueError("seed needs at least 1 edge")
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    power = 3**n
    return n0 + (power - 1) // 2 * e0, power * e0


def triangulate(g: Graph, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """One triangulation step: a new vertex per edge, joined to both endpoints.

    The new vertex for edge index k (in canonical edge order) gets label
    ``num_vertices + k``; original vertices and edges are retained.
    """
    new_n = g.num_vertices + g.num_edges
    if new_n > cap:
        raise VertexCapExceededError(
            f"triangulation needs {new_n} vertices, explicit-construction cap is {cap}"
        )
    edges = list(g.edges)
    for k, (u, v) in enumerate(g.edges):
        w = g.num_vertices + k
        edges.append((u, w))
        edges.append((v, w))
    return Graph.from_edges(edges, num_vertices=new_n)


def iterate_triangulation(g: Graph, n: int, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Apply the triangulation operator n times (n = 0 returns the input)."""
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    final_vertices, _ = predicted_counts(g.num_vertices, g.num_edges, n)
    if final_vertices > cap:
        raise VertexCapExceededError(
            f"{n} iterations need {final_vertices} vertices, explicit-construction cap is {cap}"
        )
    out = g
    for _ in range(n):
        out = triangulate(out, cap=cap)
    return out


def generate(kind: str, size: int) -> Graph:
    """Canonical labeled instance of a small named family."""
    if kind == "complete":
        if size < 2:
            raise ValueError("complete graph needs size >= 2")
        edges = [(i, j) for i in range(size) for j in range(i + 1, size)]
    elif kind == "path":
        if size < 2:
            raise ValueError("path needs size >= 2")
        edges = [(i, i + 1) for i in range(size - 1)]
    elif kind == "cycle":
        if size < 3:
            raise ValueError("cycle needs size >= 3")
        edges = [(i, i + 1) for i in range(size - 1)] + [(0, size - 1)]
    elif kind == "star":
        if size < 2:
            raise ValueError("star needs size >= 2")
        edges = [(0, k) for k in range(1, size)]
    elif kind == "petersen":
        if size != 10:
            raise ValueError("the Petersen graph has exactly 10 vertices")
        edges = []
        for i in range(5):
            edges.append((i, (i + 1) % 5))  # outer cycle
            edges.append((i, i + 5))  # spokes
            edges.append((i + 5, (i + 2) % 5 + 5))  # inner pentagram
    else:
        raise ValueError(f"unknown graph kind {kind!r}; choose from {GRAPH_KINDS}")
    return Graph.from_edges(edges, num_vertices=size)
