"""Symbolic spectrum descriptors: construction, expansion, reciprocal sums."""

import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings

from helpers import connected_graphs, corpus
from trispectral.graph import generate, iterate_triangulation, predicted_counts
from trispectral.numeric import eigenvalues_sym, normalized_laplacian
from trispectral.spectra import (
    ExpansionCapError,
    build_descriptor,
    descriptor_for,
    expand_descriptor,
    multiplicity_of,
    new_unit_multiplicity,
    reciprocal_sum,
    reciprocal_sums,
)


class TestNewUnitMultiplicity:
    @pytest.mark.parametrize(
        "n0,e0,g,expected",
        [(3, 3, 1, 0), (3, 2, 1, -1), (3, 3, 2, 3)],
    )
    def test_values(self, n0, e0, g, expected):
        assert new_unit_multiplicity(n0, e0, g) == expected

    def test_rejects_generation_zero(self):
        with pytest.raises(ValueError):
            new_unit_multiplicity(3, 3, 0)


class TestBuildDescriptor:
    def test_triangle_depth_one(self):
        d = descriptor_for(generate("complete", 3), 1)
        assert expand_descriptor(d) == pytest.approx(
            [0.0, 0.75, 0.75, 1.5, 1.5, 1.5], abs=1e-12
        )

    def test_edge_seed_gives_triangle_spectrum(self):
        d = descriptor_for(generate("complete", 2), 1)
        dense = eigenvalues_sym(normalized_laplacian(generate("complete", 3)))
        assert expand_descriptor(d) == pytest.approx(dense.eigenvalues, abs=1e-10)

    def test_path_depth_one(self):
        d = descriptor_for(generate("path", 3), 1)
        assert expand_descriptor(d) == pytest.approx(
            [0.0, 0.5, 1.5, 1.5, 1.5], abs=1e-12
        )

    def test_triangle_depth_two(self):
        d = descriptor_for(generate("complete", 3), 2)
        expected = [0.0, 3 / 8, 3 / 8, 0.75, 0.75, 0.75, 1.0, 1.0, 1.0] + [1.5] * 6
        assert expand_descriptor(d) == pytest.approx(expected, abs=1e-12)

    def test_depth_zero_is_seed_spectrum(self):
        g = generate("petersen", 10)
        d = descriptor_for(g, 0)
        dense = eigenvalues_sym(normalized_laplacian(g))
        assert expand_descriptor(d) == pytest.approx(dense.eigenvalues, abs=1e-10)

    def test_inconsistent_seed_rejected(self):
        # 5 "eigenvalues" but a single edge: no connected graph looks like this.
        with pytest.raises(RuntimeError):
            build_descriptor([0.0, 0.2, 0.4, 0.6, 0.8], 1, False, 1)

    @given(connected_graphs(max_vertices=8), )
    @settings(max_examples=30)
    def test_cardinality(self, g):
        for n in (0, 1, 3, 6):
            d = descriptor_for(g, n)
            expected, _ = predicted_counts(g.num_vertices, g.num_edges, n)
            assert d.total_multiplicity == expected

    @given(connected_graphs(max_vertices=6, max_extra_edges=3))
    @settings(max_examples=20)
    def test_expansion_matches_dense_eigensolve(self, g):
        for n in (1, 2):
            expected_vertices, _ = predicted_counts(g.num_vertices, g.num_edges, n)
            if expected_vertices > 120:
                continue
            analytic = expand_descriptor(descriptor_for(g, n))
            dense = eigenvalues_sym(
                normalized_laplacian(iterate_triangulation(g, n))
            ).eigenvalues
            assert analytic == pytest.approx(dense, abs=1e-8)


class TestRecursionCoherence:
    @pytest.mark.parametrize("seed", ["complete3", "path4"])
    def test_step_rule(self, seed):
        g = generate("complete", 3) if seed == "complete3" else generate("path", 4)
        for n in range(2, 6):
            whole = expand_descriptor(descriptor_for(g, n))
            prev = expand_descriptor(descriptor_for(g, n - 1))
            prev_vertices, _ = predicted_counts(g.num_vertices, g.num_edges, n - 1)
            unit = new_unit_multiplicity(g.num_vertices, g.num_edges, n)
            rebuilt = sorted(
                [v / 2 for v in prev] + [1.5] * prev_vertices + [1.0] * unit
            )
            assert whole == pytest.approx(rebuilt, abs=1e-12)


class TestSeparation:
    def test_seed_part_below_exceptional_part(self):
        for kind, size in [("complete", 3), ("path", 4), ("cycle", 5), ("petersen", 10)]:
            g = generate(kind, size)
            for n in (1, 2, 3):
                d = descriptor_for(g, n)
                seed_max = max(
                    v * 0.5**n for v, _ in d.effective_seed()
                )
                exceptional_min = min(
                    float(b.eigenvalue_class.value) * 0.5 ** (n - b.generation)
                    for b in d.exceptional
                    if b.multiplicity > 0
                )
                assert seed_max < exceptional_min


class TestReciprocalSum:
    def test_triangle_depth_one(self):
        exact, seed_part = reciprocal_sum(descriptor_for(generate("complete", 3), 1))
        assert exact == Fraction(2)
        assert seed_part == pytest.approx(8 / 3, rel=1e-12)
        assert float(exact) + seed_part == pytest.approx(14 / 3, rel=1e-12)

    def test_triangle_depth_two(self):
        exact, seed_part = reciprocal_sum(descriptor_for(generate("complete", 3), 2))
        assert float(exact) + seed_part == pytest.approx(49 / 3, rel=1e-12)

    def test_path_depth_one(self):
        exact, seed_part = reciprocal_sum(descriptor_for(generate("path", 3), 1))
        assert float(exact) + seed_part == pytest.approx(4.0, rel=1e-12)

    def test_depth_zero_kemeny_of_cycle(self):
        # Kemeny constant of the N-cycle is (N^2 - 1)/6.
        exact, seed_part = reciprocal_sum(descriptor_for(generate("cycle", 5), 0))
        assert float(exact) + seed_part == pytest.approx(4.0, rel=1e-10)

    @given(connected_graphs(max_vertices=7, max_extra_edges=3))
    @settings(max_examples=20)
    def test_matches_expansion(self, g):
        d = descriptor_for(g, 2)
        exact, seed_part = reciprocal_sum(d)
        by_expansion = math.fsum(1 / v for v in expand_descriptor(d) if v != 0.0)
        assert float(exact) + seed_part == pytest.approx(by_expansion, rel=1e-10)


class TestReciprocalSums:
    @pytest.mark.parametrize("name", sorted(corpus()))
    def test_carry_equals_rebuilt_descriptor(self, name):
        # Exact parts equal as rationals, seed parts equal as doubles.
        g = corpus()[name]
        eig = eigenvalues_sym(normalized_laplacian(g)).eigenvalues
        d0 = descriptor_for(g, 0)
        carried = islice(reciprocal_sums(eig, g.num_edges, d0.bipartite_seed), 61)
        for n, (exact, seed_part) in enumerate(carried):
            d = build_descriptor(eig, g.num_edges, d0.bipartite_seed, n)
            assert (exact, seed_part) == reciprocal_sum(d)


class TestMultiplicityOf:
    def setup_method(self):
        self.d2 = descriptor_for(generate("complete", 3), 2)

    def test_three_halves(self):
        assert multiplicity_of(self.d2, Fraction(3, 2)) == 6

    def test_two_absent_above_depth_zero(self):
        assert multiplicity_of(self.d2, 2) == 0

    def test_zero_unique(self):
        assert multiplicity_of(self.d2, 0) == 1

    def test_one(self):
        assert multiplicity_of(self.d2, 1) == 3

    def test_halved_exceptional(self):
        assert multiplicity_of(self.d2, Fraction(3, 4)) == 3

    def test_seed_match_at_depth_zero(self):
        d0 = descriptor_for(generate("complete", 3), 0)
        assert multiplicity_of(d0, 1.5) == 2

    def test_bipartite_seed_retains_two_at_depth_zero(self):
        d0 = descriptor_for(generate("cycle", 4), 0)
        assert multiplicity_of(d0, 2) == 1

    @pytest.mark.parametrize("n", [31, 40])
    def test_zero_unique_at_depth_where_seed_classes_fall_below_tolerance(self, n):
        # The seed class 3/2 scaled by 2^-n is below SEED_MATCH_TOL here.
        d = descriptor_for(generate("complete", 3), n)
        assert multiplicity_of(d, 0) == 1
        assert multiplicity_of(d, Fraction(3, 2 ** (n + 1))) == 2


class TestSerialization:
    def test_json_schema(self):
        d = descriptor_for(generate("complete", 3), 1)
        doc = d.to_json_dict()
        assert doc["n"] == 1
        assert doc["n0"] == 3
        assert doc["e0"] == 3
        assert doc["bipartite_seed"] is False
        assert [1, "3/2", "3"] in doc["exceptional"]
        assert [1, "1", "0"] in doc["exceptional"]


class TestExpansionCap:
    def test_cap_exceeded(self):
        d = descriptor_for(generate("complete", 3), 20)
        with pytest.raises(ExpansionCapError):
            expand_descriptor(d)

    def test_construction_is_uncapped(self):
        d = descriptor_for(generate("complete", 3), 100)
        expected, _ = predicted_counts(3, 3, 100)
        assert d.total_multiplicity == expected
