"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single pass/fail line (visible with ``pytest -s`` or in captured
output).  The corpus covers K2, K3, K4, P3, P4, C4, C5, the 5-vertex star,
and the Petersen graph.
"""

import math
import time
from fractions import Fraction

from helpers import corpus, multiplicity_of, new_unit_multiplicity, to_int
from trispectral.graph import Graph, analyze, predicted_counts, triangulate
from trispectral.invariants import (
    kemeny_closed,
    kemeny_recursive,
    kf_star_closed,
    seed_data,
    spanning_trees_closed,
)
from trispectral.numeric import (
    eigenvalues_sym,
    kf_star_direct,
    normalized_laplacian,
    spanning_trees_matrix_tree,
)
from trispectral.spectra import (
    build_descriptor,
    descriptor_for,
    expand_descriptor,
    reciprocal_sum,
)

# Materialized corpus cases shared across criteria: (name, n) -> (graph, spectrum).
_DENSE_CACHE: dict[tuple[str, int], tuple[Graph, tuple[float, ...]]] = {}


def _dense_cases(max_vertices: int) -> dict[tuple[str, int], tuple[Graph, tuple[float, ...]]]:
    for name, g in corpus().items():
        tg = g
        n = 0
        while True:
            n += 1
            vertices, _ = predicted_counts(g.num_vertices, g.num_edges, n)
            if vertices > 500:
                break
            if (name, n) in _DENSE_CACHE:
                tg = _DENSE_CACHE[(name, n)][0]
                continue
            tg = triangulate(tg)
            eig = eigenvalues_sym(normalized_laplacian(tg))
            _DENSE_CACHE[(name, n)] = (tg, eig.eigenvalues)
    return {
        key: value
        for key, value in _DENSE_CACHE.items()
        if value[0].num_vertices <= max_vertices
    }


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance criterion {number} [{name}]: {status}{suffix}")


def test_criterion_1_spectrum_equivalence():
    """Analytic expansion equals the dense eigensolve elementwise (1e-8)."""
    _DENSE_CACHE.clear()
    start = time.perf_counter()
    seeds = corpus()
    cases = _dense_cases(500)
    worst = 0.0
    violations = []
    for (name, n), (tg, dense) in sorted(cases.items()):
        d = descriptor_for(seeds[name], n)
        analytic = expand_descriptor(d)
        if len(analytic) != len(dense):
            violations.append(f"{name} n={n}: size {len(analytic)} != {len(dense)}")
            continue
        deviation = max(abs(a - b) for a, b in zip(analytic, dense))
        worst = max(worst, deviation)
        if deviation > 1e-8:
            violations.append(f"{name} n={n}: max deviation {deviation:.3e}")
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 30.0
    _report(1, "spectrum equivalence", ok,
            f"{len(cases)} cases, max deviation {worst:.2e}, {elapsed:.1f}s")
    assert not violations, violations
    assert elapsed < 30.0


def test_criterion_2_exceptional_multiplicities():
    """m(3/2), m(1), m(0), m(2) match the exact counting rules, analytically
    and by 1e-6 windows on the dense spectra."""
    seeds = corpus()
    cases = _dense_cases(500)
    violations = []
    for (name, n), (tg, dense) in sorted(cases.items()):
        g = seeds[name]
        n0, e0 = g.num_vertices, g.num_edges
        prev_vertices, _ = predicted_counts(n0, e0, n - 1)
        unit = new_unit_multiplicity(n0, e0, n)
        if n == 1 and analyze(g).bipartite:
            unit += 1
        expected = {
            Fraction(3, 2): prev_vertices,
            Fraction(1): unit,
            Fraction(0): 1,
            Fraction(2): 0,
        }
        d = descriptor_for(g, n)
        for value, want in expected.items():
            analytic = multiplicity_of(d, value)
            window = sum(1 for x in dense if abs(x - float(value)) <= 1e-6)
            if analytic != want or window != want:
                violations.append(
                    f"{name} n={n} value={value}: want {want}, "
                    f"analytic {analytic}, dense-window {window}"
                )
    _report(2, "exceptional multiplicities", not violations,
            f"{4 * len(cases)} multiplicity checks")
    assert not violations, violations


def test_criterion_3_triangle_seed_values():
    """Triangle-seed invariants at depths 1 and 2 against oracle routes."""
    g = corpus()["K3"]
    t1 = triangulate(g)
    t2 = triangulate(t1)
    checks = []

    for n, want in ((1, Fraction(14, 3)), (2, Fraction(49, 3))):
        exact, seed_part = reciprocal_sum(descriptor_for(g, n))
        analytic = float(exact) + seed_part
        dense_eigs = eigenvalues_sym(normalized_laplacian(t1 if n == 1 else t2))
        dense = math.fsum(1 / x for x in dense_eigs.eigenvalues[1:])
        checks.append(abs(analytic - float(want)) / float(want) <= 1e-10)
        checks.append(abs(dense - float(want)) / float(want) <= 1e-10)

    kf0 = kf_star_direct(g)
    for n, graph, want in ((1, t1, 84.0), (2, t2, 882.0)):
        closed = kf_star_closed(kf0, 3, 3, n)
        direct = kf_star_direct(graph)
        checks.append(abs(closed - want) / want <= 1e-10)
        checks.append(abs(direct - want) / want <= 1e-10)

    nst = [spanning_trees_matrix_tree(x) for x in (g, t1, t2)]
    checks.append(nst == [3, 54, 209952])
    checks.append(spanning_trees_closed(3, 3, 3, 1) == 54)
    checks.append(spanning_trees_closed(3, 3, 3, 2) == 209952)

    ok = all(checks)
    _report(3, "triangle-seed invariant values", ok,
            "K=14/3,49/3; Kf*=84,882; Nst=3,54,209952")
    assert ok


def test_criterion_4_spanning_tree_exactness():
    """Closed form equals the matrix-tree determinant (N_n <= 500) and the
    one-step ratio law holds exactly through n = 10."""
    seeds = corpus()
    violations = []
    determinant_checks = 0
    for (name, n), (tg, _) in sorted(_dense_cases(500).items()):
        g = seeds[name]
        seed_trees = spanning_trees_matrix_tree(g)
        closed = spanning_trees_closed(seed_trees, g.num_vertices, g.num_edges, n)
        exact = spanning_trees_matrix_tree(tg)
        determinant_checks += 1
        if closed != exact:
            violations.append(f"{name} n={n}: closed {closed} != matrix-tree {exact}")

    ratio_checks = 0
    for name, g in seeds.items():
        n0, e0 = g.num_vertices, g.num_edges
        seed_trees = spanning_trees_matrix_tree(g)
        previous = to_int(spanning_trees_closed(seed_trees, n0, e0, 0))
        for n in range(1, 11):
            current = to_int(spanning_trees_closed(seed_trees, n0, e0, n))
            prev_vertices, _ = predicted_counts(n0, e0, n - 1)
            multiplier = 3 ** (prev_vertices - 1) * 2 ** (prev_vertices - 2 * n0 + e0 + 1)
            quotient, remainder = divmod(current, previous)
            ratio_checks += 1
            if remainder != 0 or quotient != multiplier:
                violations.append(f"{name} n={n}: step ratio violated")
            previous = current

    _report(4, "spanning-tree exactness", not violations,
            f"{determinant_checks} determinants (N_n <= 500), {ratio_checks} step ratios")
    assert not violations, violations


def test_criterion_5_kf_star_three_way():
    """Closed form, spectrum sum, and the resistance-distance oracle agree
    within 1e-7 relative (N_n <= 300)."""
    seeds = corpus()
    violations = []
    worst = 0.0
    cases = {key: value for key, value in _dense_cases(300).items()}
    for (name, n), (tg, _) in sorted(cases.items()):
        g = seeds[name]
        n0, e0 = g.num_vertices, g.num_edges
        kf0 = kf_star_direct(g)
        closed = kf_star_closed(kf0, n0, e0, n)
        exact, seed_part = reciprocal_sum(descriptor_for(g, n))
        _, edges = predicted_counts(n0, e0, n)
        spectrum = 2 * edges * (float(exact) + seed_part)
        direct = kf_star_direct(tg)
        values = [closed, spectrum, direct]
        spread = (max(values) - min(values)) / closed
        worst = max(worst, spread)
        if spread > 1e-7:
            violations.append(f"{name} n={n}: spread {spread:.3e}")
    _report(5, "kf_star three-way agreement", not violations,
            f"{len(cases)} cases, worst spread {worst:.2e}")
    assert not violations, violations


def test_criterion_6_kf_kemeny_identity():
    """kf_star = 2 * E_n * kemeny to 1e-12 relative for n <= 10."""
    violations = []
    worst = 0.0
    for name, g in corpus().items():
        seed = seed_data(g)
        n0, e0 = g.num_vertices, g.num_edges
        for n in range(11):
            kf = kf_star_closed(seed.kf_star, n0, e0, n)
            kem = kemeny_closed(seed.kemeny, n0, e0, n)
            _, edges = predicted_counts(n0, e0, n)
            residual = abs(kf - 2 * edges * kem) / kf
            worst = max(worst, residual)
            if residual > 1e-12:
                violations.append(f"{name} n={n}: identity residual {residual:.3e}")
    _report(6, "kf_star = 2 E_n kemeny identity", not violations,
            f"worst residual {worst:.2e}")
    assert not violations, violations


def test_criterion_7_recursion_coefficient_divergence():
    """The implemented recursion matches the closed form to 1e-12 through
    n = 10; the 5^(n-1) coefficient variant is off by more than 10% at n = 2."""
    violations = []
    for name, g in corpus().items():
        seed = seed_data(g)
        n0, e0 = g.num_vertices, g.num_edges
        running = seed.kemeny
        for n in range(1, 11):
            _, prev_edges = predicted_counts(n0, e0, n - 1)
            running = kemeny_recursive(running, n0, e0, prev_edges)
            closed = kemeny_closed(seed.kemeny, n0, e0, n)
            if abs(running - closed) / closed > 1e-12:
                violations.append(f"{name} n={n}: corrected recursion drifts")

    # Variant step with the coefficient growing as 5^(n-1) instead of
    # 5*3^(n-1), applied to the exact depth-1 value of the triangle seed.
    k3 = corpus()["K3"]
    k0 = seed_data(k3).kemeny
    depth1 = kemeny_closed(k0, 3, 3, 1)  # 14/3
    variant = 2 * depth1 - 3 / 3 + (5 ** (2 - 1) + 1) / 6 * 3
    closed2 = kemeny_closed(k0, 3, 3, 2)  # 49/3
    divergence = abs(variant - closed2) / closed2
    if not (abs(variant - 34 / 3) / (34 / 3) <= 1e-10 and divergence > 0.10):
        violations.append(
            f"pow5 variant {variant!r} vs closed {closed2!r}: divergence {divergence:.3f}"
        )
    _report(7, "recursion coefficient divergence", not violations,
            f"variant diverges by {divergence:.1%} at n=2")
    assert not violations, violations


def test_criterion_8_symbolic_route_performance():
    """Descriptor plus all three closed forms at depth 30 in under 100 ms,
    with exact big-integer counts throughout."""
    g = corpus()["K3"]
    eigenvalues_sym(normalized_laplacian(g))  # warm up the solver path

    start = time.perf_counter()
    info = analyze(g)
    eig = eigenvalues_sym(normalized_laplacian(g))
    d = build_descriptor(eig.eigenvalues, g.num_edges, info.bipartite, 30)
    kf = kf_star_closed(8.0, 3, 3, 30)
    kem = kemeny_closed(4 / 3, 3, 3, 30)
    trees = spanning_trees_closed(3, 3, 3, 30)
    elapsed = time.perf_counter() - start

    expected_vertices = 3 + (3**30 - 1) // 2 * 3
    ok = (
        elapsed < 0.1
        and d.total_multiplicity == expected_vertices
        and expected_vertices == 308836698141975
        and all(isinstance(mult, int) for mult in d.exceptional)
        and multiplicity_of(d, Fraction(3, 2)) == 3 + (3**29 - 1) // 2 * 3
        and kf > 0
        and kem > 0
        and trees.pow3 == kappa_sum(30) - 30
    )
    _report(8, "symbolic route performance", ok,
            f"{elapsed * 1000:.2f} ms for depth 30, N_30 = {expected_vertices}")
    assert ok
    assert elapsed < 0.1


def kappa_sum(n: int) -> int:
    total, vertices, edges = 0, 3, 3
    for _ in range(n):
        total += vertices
        vertices += edges
        edges *= 3
    return total
