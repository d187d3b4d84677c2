"""Symbolic spectrum descriptors: construction, expansion, reciprocal sums."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    connected_graphs,
    corpus,
    multiplicity_of,
    new_unit_multiplicity,
    reciprocal_sum_fraction,
)
from trispectral.graph import (
    CapExceededError,
    analyze,
    generate,
    iterate_triangulation,
    predicted_counts,
)
from trispectral.invariants import verify_all
from trispectral.numeric import eigenvalues_sym, normalized_laplacian
from trispectral.spectra import (
    build_descriptor,
    descriptor_for,
    expand_descriptor,
    reciprocal_sum,
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
                # Band i: value 3/2 (even i) or 1 (odd i), generation i // 2 + 1.
                exceptional_min = min(
                    (1.5 if i % 2 == 0 else 1.0) * 0.5 ** (n - i // 2 - 1)
                    for i, mult in enumerate(d.exceptional)
                    if mult > 0
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
        # verify_all's Kemeny spectrum sum, carried along the walk, is the
        # double of the rebuilt descriptor's reciprocal sum at every depth, and
        # its counts are the closed-form ones.
        g = corpus()[name]
        eig = eigenvalues_sym(normalized_laplacian(g)).eigenvalues
        bipartite = analyze(g).bipartite
        reports = verify_all(g, 60, materialize_cap=0).reports
        for n, report in enumerate(reports):
            exact, seed_part = reciprocal_sum(build_descriptor(eig, g.num_edges, bipartite, n))
            assert report.routes["kemeny"]["spectrum_sum"] == float(exact) + seed_part
            counts = predicted_counts(g.num_vertices, g.num_edges, n)
            assert (report.num_vertices, report.num_edges) == counts

    @given(connected_graphs(max_vertices=8, max_extra_edges=4), st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_thirds_carry_equals_per_band_fractions(self, g, n):
        d = descriptor_for(g, n)
        assert reciprocal_sum(d)[0] == reciprocal_sum_fraction(d)


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


def _band_strings(d):
    return [mult for _, _, mult in d.to_json_dict()["exceptional"]]


class TestBandMultiplicityStrings:
    # Band counts print through exact decimals; they must equal str(int).
    @pytest.mark.parametrize("name", sorted(corpus()))
    def test_equal_int_rendering_for_corpus(self, name):
        g = corpus()[name]
        eig = eigenvalues_sym(normalized_laplacian(g)).eigenvalues
        bipartite = descriptor_for(g, 0).bipartite_seed
        for n in [*range(301), 2000]:
            d = build_descriptor(eig, g.num_edges, bipartite, n)
            assert _band_strings(d) == [str(mult) for mult in d.exceptional]

    @given(connected_graphs(max_vertices=9, max_extra_edges=5), st.integers(0, 300))
    @settings(max_examples=30)
    def test_equal_int_rendering_property(self, g, n):
        d = descriptor_for(g, n)
        assert _band_strings(d) == [str(mult) for mult in d.exceptional]

    @pytest.mark.parametrize("name", sorted(corpus()))
    def test_carried_bands_equal_closed_form(self, name):
        # The carried counts against the closed forms N_{g-1} and
        # (3^(g-1) + 1)/2 * e0 - n0 (+1 at g = 1 for bipartite seeds).
        g = corpus()[name]
        n0, e0 = g.num_vertices, g.num_edges
        d = descriptor_for(g, 300)
        for gen in range(1, 301):
            three_halves, unit = d.exceptional[2 * gen - 2 : 2 * gen]
            assert three_halves == predicted_counts(n0, e0, gen - 1)[0]
            bipartite_fix = int(gen == 1 and d.bipartite_seed)
            assert unit == new_unit_multiplicity(n0, e0, gen) + bipartite_fix

    @pytest.mark.parametrize("name", sorted(corpus()))
    def test_band_layout_is_two_ints_per_generation(self, name):
        # perfbench's tracer counts len(d.exceptional) as the bands built.
        g = corpus()[name]
        eig = eigenvalues_sym(normalized_laplacian(g)).eigenvalues
        bipartite = descriptor_for(g, 0).bipartite_seed
        for n in range(301):
            d = build_descriptor(eig, g.num_edges, bipartite, n)
            assert len(d.exceptional) == 2 * n
            assert all(type(mult) is int for mult in d.exceptional)


class TestExpansionCap:
    def test_cap_exceeded(self):
        d = descriptor_for(generate("complete", 3), 20)
        with pytest.raises(CapExceededError, match="^expansion needs 5230176603 values, cap is"):
            expand_descriptor(d)

    def test_construction_is_uncapped(self):
        d = descriptor_for(generate("complete", 3), 100)
        expected, _ = predicted_counts(3, 3, 100)
        assert d.total_multiplicity == expected
