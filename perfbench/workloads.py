"""Inputs, command lists and output checks for the three benchmark workloads.

Everything here is computed without the program: the seed graphs, their
iterated triangulations (for the inputs of `analyze` and `spectrum`), the
exact seed invariants, and the expected values every output is checked
against.  numpy is not imported, so that the set-up measurement in run.py
pays for numpy's import itself.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

REL_TOL = 1e-9

# Large primes for checking decimal spanning-tree counts without converting
# 100,000-digit strings to integers (Mersenne primes 2^61 - 1 and 2^89 - 1).
_PRIMES = (2**61 - 1, 2**89 - 1)

_FACTORED = re.compile(r"3\^(\d+) \* 2\^(\d+) \* (\d+)")
_VERIFY_DEPTH = re.compile(r"n=(\d+) \((\d+) vertices\):")


# ---------------------------------------------------------------- seed graphs


@dataclass(frozen=True)
class Seed:
    """A seed graph with the exact quantities the checks need."""

    name: str
    n0: int
    edges: tuple[tuple[int, int], ...]

    @property
    def e0(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n0
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def bipartite(self) -> bool:
        adj = _adjacency(self.n0, self.edges)
        color = [-1] * self.n0
        color[0] = 0
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if color[v] == -1:
                    color[v] = color[u] ^ 1
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
        return True


def _adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def named_seed(name: str) -> Seed:
    if name == "K2":
        edges = [(0, 1)]
    elif name in ("K3", "K4"):
        k = int(name[1])
        edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    elif name == "P4":
        edges = [(0, 1), (1, 2), (2, 3)]
    elif name in ("C4", "C5"):
        k = int(name[1])
        edges = [(i, (i + 1) % k) for i in range(k)]
    elif name == "S5":
        edges = [(0, k) for k in range(1, 5)]
    elif name == "Petersen":
        edges = []
        for i in range(5):
            edges += [(i, (i + 1) % 5), (i, i + 5), (i + 5, (i + 2) % 5 + 5)]
    else:
        raise ValueError(f"unknown seed {name!r}")
    n0 = 1 + max(max(e) for e in edges)
    return Seed(name, n0, tuple(edges))


def random_connected(name: str, rng: random.Random, n0: int, e0: int) -> Seed:
    """Uniform random recursive tree plus distinct random extra edges."""
    edges = {(rng.randrange(i), i) for i in range(1, n0)}
    while len(edges) < e0:
        u, v = sorted(rng.sample(range(n0), 2))
        edges.add((u, v))
    return Seed(name, n0, tuple(sorted(edges)))


def triangulated(seed: Seed, depth: int) -> Seed:
    """The benchmark's own triangulation: one new vertex per edge, joined to both ends."""
    n, edges = seed.n0, list(seed.edges)
    for _ in range(depth):
        grown = list(edges)
        for k, (u, v) in enumerate(edges):
            grown += [(u, n + k), (v, n + k)]
        n += len(edges)
        edges = grown
    return Seed(f"{seed.name}-d{depth}", n, tuple(edges))


def write_edge_list(seed: Seed, path: Path, rng: random.Random) -> None:
    """Write the seed under a random relabeling, in random line order and orientation."""
    perm = list(range(seed.n0))
    rng.shuffle(perm)
    lines = []
    for u, v in seed.edges:
        a, b = perm[u], perm[v]
        lines.append(f"{a} {b}" if rng.random() < 0.5 else f"{b} {a}")
    rng.shuffle(lines)
    path.write_text(f"# {seed.name}\n" + "\n".join(lines) + "\n")


# ------------------------------------------------------- exact seed invariants


def _solve_exact(matrix: list[list[Fraction]]) -> tuple[Fraction, list[list[Fraction]]]:
    """Determinant and inverse by Gauss-Jordan elimination over the rationals."""
    n = len(matrix)
    a = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    det = Fraction(1)
    for k in range(n):
        pivot = next(r for r in range(k, n) if a[r][k] != 0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        p = a[k][k]
        det *= p
        a[k] = [x / p for x in a[k]]
        for r in range(n):
            if r != k and a[r][k] != 0:
                f = a[r][k]
                a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return det, [row[n:] for row in a]


def spanning_tree_count(seed: Seed) -> int:
    """Matrix-tree theorem: determinant of the grounded combinatorial Laplacian."""
    deg = seed.degrees()
    size = seed.n0 - 1
    lap = [[Fraction(deg[i] if i == j else 0) for j in range(size)] for i in range(size)]
    for u, v in seed.edges:
        if u < size and v < size:
            lap[u][v] -= 1
            lap[v][u] -= 1
    det, _ = _solve_exact(lap)
    return int(det)


def kemeny_exact(seed: Seed) -> Fraction:
    """Kemeny's constant as trace(Z) - 1, Z = (I - P + 1 pi^T)^-1, P = D^-1 A."""
    deg = seed.degrees()
    total = sum(deg)
    n = seed.n0
    adj = set(seed.edges) | {(v, u) for u, v in seed.edges}
    m = [
        [
            Fraction(int(i == j))
            - (Fraction(1, deg[i]) if (i, j) in adj else 0)
            + Fraction(deg[j], total)
            for j in range(n)
        ]
        for i in range(n)
    ]
    _, z = _solve_exact(m)
    return sum(z[i][i] for i in range(n)) - 1


# Exact seed values the benchmark's own routines must reproduce.
KNOWN_KEMENY = {"K3": Fraction(4, 3), "P4": Fraction(19, 6), "Petersen": Fraction(99, 10)}
KNOWN_TREES = {"K3": 3, "P4": 1, "Petersen": 2000}


# ------------------------------------------------------ closed-form expectations


def counts(seed: Seed, n: int) -> tuple[int, int]:
    """Vertex and edge counts after n steps: N0 + (3^n - 1)/2 E0 and 3^n E0."""
    return seed.n0 + (3**n - 1) // 2 * seed.e0, 3**n * seed.e0


def kappa(seed: Seed, n: int) -> int:
    """Sum of the vertex counts of generations 0..n-1."""
    total = Fraction(n * seed.n0) + Fraction((3**n - 1) * seed.e0, 4) - Fraction(n * seed.e0, 2)
    if total.denominator != 1:
        raise ArithmeticError(f"kappa({seed.name}, {n}) is not an integer")
    return int(total)


def kemeny_at(seed: Seed, k0: Fraction, n: int) -> Fraction:
    return (
        2**n * k0
        + Fraction(1 - 2**n, 3) * seed.n0
        + Fraction(5 * 3**n - 2 ** (n + 2) - 1, 6) * seed.e0
    )


def tree_exponents(seed: Seed, trees0: int, n: int) -> tuple[int, int, int]:
    """Spanning-tree count 3^a * 2^b * trees0 with a = kappa - n, b = kappa - n(2N0 - E0 - 1)."""
    if n == 0:
        return 0, 0, trees0
    k = kappa(seed, n)
    return k - n, k - n * (2 * seed.n0 - seed.e0 - 1), trees0


def unit_band(seed: Seed, g: int) -> int:
    """Multiplicity of the eigenvalue-1 band of generation g: E_{g-1} - N_{g-1} (+1 once, bipartite)."""
    vertices, edges = counts(seed, g - 1)
    return edges - vertices + int(g == 1 and seed.bipartite())


# -------------------------------------------------------------------- checks
#
# Each check takes the command's stdout and returns None when it is right,
# or a one-line reason when it is not.


def _close(text: object, expected: Fraction) -> bool:
    try:
        value = Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        return False
    return abs(value - expected) <= REL_TOL * abs(expected)


def _normalized(a: int, b: int, c: int) -> tuple[int, int, int]:
    while c % 3 == 0:
        c //= 3
        a += 1
    while c % 2 == 0:
        c //= 2
        b += 1
    return a, b, c


def _tree_count_matches(text: str, a: int, b: int, c: int) -> bool:
    match = _FACTORED.fullmatch(text)
    if match:
        return _normalized(*map(int, match.groups())) == _normalized(a, b, c)
    if not text.isdigit() or text[0] == "0":
        return False
    digits = a * math.log10(3) + b * math.log10(2) + math.log10(c)
    if abs(len(text) - (int(digits) + 1)) > 1:
        return False
    for p in _PRIMES:
        residue = 0
        for i in range(0, len(text), 1000):
            chunk = text[i : i + 1000]
            residue = (residue * pow(10, len(chunk), p) + int(chunk)) % p
        if residue != pow(3, a, p) * pow(2, b, p) * c % p:
            return False
    return True


def check_invariants(seed: Seed, k0: Fraction, trees0: int, n: int, fmt: str,
                     out: str) -> Optional[str]:
    if fmt == "json":
        rows = [
            [r["n"], r["num_vertices"], r["num_edges"], r["kf_star"], r["kemeny"],
             r["spanning_trees"], r["kappa"]]
            for r in json.loads(out, parse_float=str)["reports"]
        ]
    else:
        lines = out.splitlines()
        if fmt == "csv":
            table = list(csv.reader(io.StringIO(out)))
        else:
            table = [line.split("\t") for line in lines]
        rows = table[1:]
    if len(rows) != n + 1:
        return f"{len(rows)} rows for depths 0..{n}"
    for depth, row in enumerate(rows):
        if len(row) != 7:
            return f"depth {depth}: {len(row)} columns"
        vertices, edges = counts(seed, depth)
        kem = kemeny_at(seed, k0, depth)
        if [int(row[0]), int(row[1]), int(row[2])] != [depth, vertices, edges]:
            return f"depth {depth}: counts {row[:3]}, expected {[depth, vertices, edges]}"
        if int(row[6]) != kappa(seed, depth):
            return f"depth {depth}: kappa {row[6]}, expected {kappa(seed, depth)}"
        if not _close(row[4], kem):
            return f"depth {depth}: kemeny {row[4]}, expected {float(kem)!r}"
        if not _close(row[3], 2 * edges * kem):
            return f"depth {depth}: kf_star {row[3]}, expected {float(2 * edges * kem)!r}"
        if not _tree_count_matches(str(row[5]), *tree_exponents(seed, trees0, depth)):
            return f"depth {depth}: spanning-tree count {str(row[5])[:60]} is wrong"
    return None


def check_spectrum(seed: Seed, n: int, expand: bool, out: str) -> Optional[str]:
    doc = json.loads(out)
    head = [doc["n"], doc["n0"], doc["e0"], doc["bipartite_seed"]]
    if head != [n, seed.n0, seed.e0, seed.bipartite()]:
        return f"header {head}, expected {[n, seed.n0, seed.e0, seed.bipartite()]}"
    seed_eigs = doc["seed_eigs"]
    if sum(m for _, m in seed_eigs) != seed.n0:
        return "seed multiplicities do not sum to N0"
    if seed_eigs[0] != [0.0, 1] or any(not 0.0 < v <= 2.0 for v, _ in seed_eigs[1:]):
        return "seed spectrum is not one 0 followed by values in (0, 2]"
    if seed.bipartite() and seed_eigs[-1][0] != 2.0:
        return "bipartite seed without the eigenvalue 2"
    # Traces of the normalized Laplacian and of its square.
    deg = seed.degrees()
    trace2 = seed.n0 + math.fsum(2.0 / (deg[u] * deg[v]) for u, v in seed.edges)
    if abs(math.fsum(v * m for v, m in seed_eigs) - seed.n0) > REL_TOL * seed.n0:
        return "seed eigenvalues do not sum to N0"
    if abs(math.fsum(v * v * m for v, m in seed_eigs) - trace2) > REL_TOL * trace2:
        return "seed eigenvalue squares do not sum to trace(L^2)"
    expected_bands = []
    for g in range(1, n + 1):
        expected_bands.append((g, "3/2", counts(seed, g - 1)[0]))
        expected_bands.append((g, "1", unit_band(seed, g)))
    bands = sorted((g, label, int(m)) for g, label, m in doc["exceptional"])
    if bands != sorted(expected_bands):
        return "exceptional band multiplicities differ from the counting rule"
    if not expand:
        return None
    values = doc["expanded"]
    total = counts(seed, n)[0]
    if len(values) != total:
        return f"expanded length {len(values)}, expected {total}"
    if any(a > b for a, b in zip(values, values[1:])):
        return "expanded values are not sorted"
    if values.count(0.0) != 1 or values[0] != 0.0:
        return "expanded values do not hold exactly one 0"
    if abs(math.fsum(values) - total) > REL_TOL * total:
        return "expanded values do not sum to the vertex count"
    if n >= 2 and (values.count(1.5) != counts(seed, n - 1)[0]
                   or values.count(1.0) != unit_band(seed, n)):
        return "expanded multiplicities of 3/2 and 1 are wrong"
    return None


def _degree_multiset(n: int, edges) -> Optional[Counter]:
    seen = set()
    deg = [0] * n
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n) or (min(u, v), max(u, v)) in seen:
            return None
        seen.add((min(u, v), max(u, v)))
        deg[u] += 1
        deg[v] += 1
    return Counter(deg)


def check_triangulate(seed: Seed, n: int, fmt: str, out: str) -> Optional[str]:
    big = triangulated(seed, n)
    if fmt == "json":
        doc = json.loads(out)
        vertices, edges = doc["num_vertices"], [tuple(e) for e in doc["edges"]]
    else:
        lines = out.splitlines()
        header = re.fullmatch(r"# (\d+) vertices, (\d+) edges", lines[0])
        if not header:
            return f"bad header {lines[0][:60]!r}"
        vertices = int(header.group(1))
        edges = [tuple(map(int, line.split())) for line in lines[1:]]
        if int(header.group(2)) != len(edges):
            return "header edge count differs from the edge lines"
    if (vertices, len(edges)) != (big.n0, big.e0):
        return f"{vertices} vertices, {len(edges)} edges; expected {big.n0}, {big.e0}"
    if _degree_multiset(vertices, edges) != Counter(big.degrees()):
        return "degree multiset differs from the iterated triangulation"
    return None


def check_analyze(seed: Seed, out: str) -> Optional[str]:
    deg = seed.degrees()
    expected = (f"n_vertices: {seed.n0}\nn_edges: {seed.e0}\nconnected: True\n"
                f"bipartite: {seed.bipartite()}\nmin_degree: {min(deg)}\n"
                f"max_degree: {max(deg)}\n")
    return None if out == expected else f"report {out!r}, expected {expected!r}"


def check_verify(seed: Seed, max_n: int, out: str) -> Optional[str]:
    lines = out.splitlines()
    if not lines or lines[-1] != "PASS":
        return "last line is not PASS"
    depths = [tuple(map(int, m.groups())) for m in map(_VERIFY_DEPTH.fullmatch, lines) if m]
    expected = [(n, counts(seed, n)[0]) for n in range(max_n + 1)]
    if depths != expected:
        return f"depth lines {depths}, expected {expected}"
    return None


# ------------------------------------------------------------------ workloads


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check of its stdout."""

    label: str
    argv: tuple[str, ...]
    check: Callable[[str], Optional[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]


WORKLOAD_NAMES = ("symbolic-ladder", "dense-verify", "large-graph")


class InputMaker:
    """Writes a workload's seed graphs into a directory, all drawn from one seed."""

    def __init__(self, seed: int, directory: Path) -> None:
        self.rng = random.Random(seed)
        self.directory = directory
        self.written = 0

    def file(self, graph: Seed) -> str:
        self.written += 1
        path = self.directory / f"{self.written:02d}-{graph.name}.edges"
        write_edge_list(graph, path, self.rng)
        return str(path)


def warmup_input(directory: Path) -> str:
    """Edge list for the set-up warm-up command (`spectrum` on K3)."""
    path = directory / "warmup-K3.edges"
    path.write_text("0 1\n1 2\n0 2\n")
    return str(path)


def _invariants(make: InputMaker, seed: Seed, n: int, fmt: str) -> Command:
    k0 = kemeny_exact(seed)
    trees0 = spanning_tree_count(seed)
    if seed.name in KNOWN_KEMENY and k0 != KNOWN_KEMENY[seed.name]:
        raise ArithmeticError(f"exact Kemeny constant of {seed.name} is {k0}")
    if seed.name in KNOWN_TREES and trees0 != KNOWN_TREES[seed.name]:
        raise ArithmeticError(f"exact spanning-tree count of {seed.name} is {trees0}")
    return Command(
        f"invariants {seed.name} -n {n} --format {fmt}",
        ("invariants", make.file(seed), "-n", str(n), "--format", fmt),
        lambda out: check_invariants(seed, k0, trees0, n, fmt, out),
    )


def _spectrum(make: InputMaker, seed: Seed, n: int, expand: bool = False) -> Command:
    argv = ("spectrum", make.file(seed), "-n", str(n)) + (("--expand",) if expand else ())
    return Command(
        f"spectrum {seed.name} -n {n}" + (" --expand" if expand else ""),
        argv,
        lambda out: check_spectrum(seed, n, expand, out),
    )


def _verify(make: InputMaker, seed: Seed, max_n: int) -> Command:
    return Command(
        f"verify {seed.name} --max-n {max_n}",
        ("verify", make.file(seed), "--max-n", str(max_n)),
        lambda out: check_verify(seed, max_n, out),
    )


def _triangulate(make: InputMaker, seed: Seed, n: int, fmt: str) -> Command:
    return Command(
        f"triangulate {seed.name} -n {n} --format {fmt}",
        ("triangulate", make.file(seed), "-n", str(n), "--format", fmt),
        lambda out: check_triangulate(seed, n, fmt, out),
    )


def _analyze(make: InputMaker, seed: Seed) -> Command:
    return Command(f"analyze {seed.name}", ("analyze", make.file(seed)),
                   lambda out: check_analyze(seed, out))


def build(name: str, seed: int, directory: Path) -> Workload:
    """The named workload's commands, with inputs written to `directory`."""
    make = InputMaker(seed, directory)
    k3, p4, petersen = named_seed("K3"), named_seed("P4"), named_seed("Petersen")
    if name == "symbolic-ladder":
        commands = [
            _invariants(make, k3, 250, "text"),
            _invariants(make, p4, 250, "csv"),
            _invariants(make, petersen, 150, "json"),
            _spectrum(make, k3, 2000),
            _spectrum(make, p4, 2000),
            _invariants(make, random_connected("random12", make.rng, 12, 20), 100, "text"),
            # Exits 2 at this commit (Kf* leaves double range near depth 323);
            # kept so that the defect shows in the failure count.
            _invariants(make, k3, 400, "text"),
        ]
        return Workload(name, tuple(commands))
    if name == "dense-verify":
        commands = [_verify(make, named_seed(s), 4) for s in ("K2", "K3", "K4", "P4", "C4", "C5")]
        commands += [_verify(make, named_seed(s), 3) for s in ("S5", "Petersen")]
        return Workload(name, tuple(commands))
    if name == "large-graph":
        commands = [
            _triangulate(make, k3, 8, "text"),
            _triangulate(make, petersen, 6, "json"),
            _spectrum(make, k3, 11, expand=True),
            _analyze(make, triangulated(k3, 8)),
            _spectrum(make, triangulated(k3, 6), 20),
            _spectrum(make, random_connected("random1000", make.rng, 1000, 3000), 20),
            _spectrum(make, random_connected("tree800", make.rng, 800, 799), 6, expand=True),
        ]
        return Workload(name, tuple(commands))
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}")
