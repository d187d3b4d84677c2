"""Simple connected graphs, edge-list I/O, generators, and the triangulation operator.

Rejected input raises GraphInputError, a construction past its cap CapExceededError."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

DEFAULT_VERTEX_CAP = 20_000

GRAPH_KINDS = ("complete", "path", "cycle", "star", "petersen")


class GraphInputError(ValueError):
    """Invalid edge-list input or graph structure; the message names the line,
    edge or count at fault."""


class CapExceededError(RuntimeError):
    """An explicit construction or a spectrum expansion would exceed its cap."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple connected undirected graph on the vertices 0..N-1.

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
    def from_edges(cls, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Validate and canonicalize an edge collection into a Graph.

        A connected graph has no isolated vertex, so the vertices are the
        labels 0..max-label.  Raises GraphInputError on a self-loop, a
        negative label, a duplicate edge, no edges, or a disconnected graph.
        """
        canonical: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        max_label = -1
        for u, v in edges:
            if u == v:
                raise GraphInputError(f"self-loop at vertex {u}")
            if u < 0 or v < 0:
                raise GraphInputError(f"negative vertex label in edge ({u}, {v})")
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise GraphInputError(f"duplicate edge {pair}")
            seen.add(pair)
            canonical.append(pair)
            if pair[1] > max_label:
                max_label = pair[1]
        if not canonical:
            raise GraphInputError("a graph needs at least one edge")
        n = max_label + 1
        if n - 1 > len(canonical):  # before allocating n lists for a huge label
            raise GraphInputError(
                f"graph is disconnected: {n} vertices need at least {n - 1} edges, "
                f"got {len(canonical)}"
            )
        canonical.sort()
        # In canonical order each vertex meets its smaller neighbours first,
        # then its larger ones, each in ascending order: the lists come out sorted.
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for u, v in canonical:
            adjacency[u].append(v)
            adjacency[v].append(u)
        reached = n - _two_colouring(n, adjacency).count(-1)
        if reached != n:
            raise GraphInputError(
                f"graph is disconnected: reached {reached} of {n} vertices from vertex 0"
            )
        return cls(
            num_vertices=n,
            edges=tuple(canonical),
            adjacency=tuple(map(tuple, adjacency)),
            degrees=tuple(map(len, adjacency)),
        )


@dataclass(frozen=True)
class GraphAnalysis:
    """Structural report beyond the graph's own vertex and edge counts: degree
    range and combinatorial bipartiteness."""

    bipartite: bool
    min_degree: int
    max_degree: int


def _two_colouring(n: int, adjacency: Sequence[Sequence[int]]) -> list[int]:
    """BFS from vertex 0: colour 0 or 1 for each reached vertex, -1 for the rest."""
    colour = [-1] * n
    colour[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        other = colour[u] ^ 1
        for v in adjacency[u]:
            if colour[v] < 0:
                colour[v] = other
                queue.append(v)
    return colour


def parse_edge_list(text: str) -> Graph:
    """Parse ``u v`` pairs (one per line, 0-based labels in ASCII digits,
    ``#`` comments) into a Graph."""
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphInputError(
                f"line {lineno}: expected two vertex labels, got {raw.strip()!r}"
            )
        u, v = tokens
        # A label is ASCII digits: int() would also take "1_0", "+1" and other scripts' digits.
        if not (u.isdigit() and v.isdigit() and u.isascii() and v.isascii()):
            signed = all(t.removeprefix("-").isdigit() and t.isascii() for t in tokens)
            fault = "negative" if signed else "non-integer"
            raise GraphInputError(f"line {lineno}: {fault} vertex label in {raw.strip()!r}")
        pairs.append((int(u), int(v)))
    if not pairs:
        raise GraphInputError("no edges in input")
    return Graph.from_edges(pairs)


def format_edge_list(g: Graph) -> str:
    """Serialize a graph in the same edge-list format the parser accepts."""
    lines = [f"# {g.num_vertices} vertices, {g.num_edges} edges"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def analyze(g: Graph) -> GraphAnalysis:
    """Structural report; bipartite when no edge joins two vertices of the same
    BFS colour, never decided numerically."""
    colour = _two_colouring(g.num_vertices, g.adjacency)
    return GraphAnalysis(
        bipartite=all(colour[u] != colour[v] for u, v in g.edges),
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


def count_text(n0: int, e0: int, n: int, cap: int) -> str | None:
    """Message text for N_n, the depth-n vertex count from an (n0, e0) seed, if
    above cap, else None: its digits, or "about 10^k" past 13,000 bits (str()
    refuses more than 4,300 digits).  N_n > 2^n, as a step takes N to N + E >=
    2N - 1, so from cap's bit length on no depth fits, and from 13,000 on
    k = floor(log10 N_n) comes from log10(e0 3^n / 2), with no 3^n formed."""
    if n >= max(cap.bit_length(), 13_000):
        return f"about 10^{math.floor(n * math.log10(3) + math.log10(e0 / 2))}"
    count, _ = predicted_counts(n0, e0, n)
    if count <= cap:
        return None
    return str(count) if count.bit_length() <= 13_000 else f"about 10^{math.floor(math.log10(count))}"


def triangulate(g: Graph, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """One triangulation step: a new vertex per edge, joined to both endpoints.

    The new vertex for edge index k (in canonical edge order) gets label
    ``num_vertices + k``; original vertices and edges are retained.
    """
    new_n = g.num_vertices + g.num_edges
    if new_n > cap:
        raise CapExceededError(
            f"triangulation needs {new_n} vertices, explicit-construction cap is {cap}"
        )
    edges = list(g.edges)
    for k, (u, v) in enumerate(g.edges):
        w = g.num_vertices + k
        edges.append((u, w))
        edges.append((v, w))
    return Graph.from_edges(edges)


def iterate_triangulation(g: Graph, n: int, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Apply the triangulation operator n times (n = 0 returns the input)."""
    need = count_text(g.num_vertices, g.num_edges, n, cap)
    if need is not None:
        raise CapExceededError(
            f"{n} iterations need {need} vertices, explicit-construction cap is {cap}"
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
    return Graph.from_edges(edges)
