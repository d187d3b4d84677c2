"""Closed forms, recursions, factored spanning-tree counts, and verify_all."""

import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import connected_graphs, corpus
from trispectral import invariants, spectra
from trispectral.graph import generate, predicted_counts, triangulate
from trispectral.invariants import (
    DECIMAL_DIGIT_CAP,
    SpanningTreeCount,
    kappa,
    kemeny_closed,
    kemeny_recursive,
    kf_star_closed,
    kf_star_recursive,
    seed_data,
    spanning_trees_closed,
    spanning_trees_step,
    verify_all,
)
from trispectral.numeric import kf_star_direct, spanning_trees_matrix_tree
from trispectral.spectra import descriptor_for, reciprocal_sum


class TestKfStar:
    def test_closed_triangle(self):
        assert kf_star_closed(8.0, 3, 3, 1) == pytest.approx(84.0, rel=1e-12)
        assert kf_star_closed(8.0, 3, 3, 2) == pytest.approx(882.0, rel=1e-12)

    def test_closed_depth_zero(self):
        assert kf_star_closed(27.0, 4, 6, 0) == 27.0

    def test_recursive_steps(self):
        assert kf_star_recursive(8.0, 3, 3, 1) == pytest.approx(84.0, rel=1e-12)
        assert kf_star_recursive(84.0, 3, 3, 2) == pytest.approx(882.0, rel=1e-12)

    def test_recursive_edge_seed_matches_oracle(self):
        value = kf_star_recursive(1.0, 2, 1, 1)
        assert value == pytest.approx(8.0, rel=1e-12)
        assert value == pytest.approx(
            kf_star_direct(triangulate(generate("complete", 2))), rel=1e-10
        )

    def test_closed_equals_iterated_recursion(self):
        for g in corpus().values():
            n0, e0 = g.num_vertices, g.num_edges
            kf0 = kf_star_direct(g)
            running = kf0
            for n in range(1, 11):
                running = kf_star_recursive(running, n0, e0, n)
                assert running == pytest.approx(
                    kf_star_closed(kf0, n0, e0, n), rel=1e-12
                )


class TestKemeny:
    def test_closed_triangle(self):
        assert kemeny_closed(4 / 3, 3, 3, 1) == pytest.approx(14 / 3, rel=1e-12)
        assert kemeny_closed(4 / 3, 3, 3, 2) == pytest.approx(49 / 3, rel=1e-12)

    def test_closed_path_seed(self):
        assert kemeny_closed(3 / 2, 3, 2, 1) == pytest.approx(4.0, rel=1e-12)

    def test_recursive_steps(self):
        assert kemeny_recursive(4 / 3, 3, 3, 1) == pytest.approx(14 / 3, rel=1e-12)
        assert kemeny_recursive(14 / 3, 3, 3, 2) == pytest.approx(49 / 3, rel=1e-12)
        assert kemeny_recursive(3 / 2, 3, 2, 1) == pytest.approx(4.0, rel=1e-12)

    def test_literal_pow5_coefficient_diverges(self):
        # The step constant must grow like 5*3^(n-1); a 5^(n-1) coefficient
        # applied to the exact depth-1 value already misses depth 2 by >10%.
        def step_pow5(prev, n0, e0, n):
            return 2 * prev - n0 / 3 + (5 ** (n - 1) + 1) / 6 * e0

        wrong = step_pow5(14 / 3, 3, 3, 2)
        assert wrong == pytest.approx(34 / 3, rel=1e-12)
        right = kemeny_closed(4 / 3, 3, 3, 2)
        assert right == pytest.approx(49 / 3, rel=1e-12)
        assert abs(wrong - right) / right > 0.10

    def test_monotone_in_depth(self):
        for g in corpus().values():
            k0 = seed_data(g).kemeny
            values = [
                kemeny_closed(k0, g.num_vertices, g.num_edges, n) for n in range(9)
            ]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_spectrum_sum_matches_closed_forms(self):
        # The reciprocal sum over the symbolic descriptor reproduces both
        # closed forms to 1e-9 relative without materializing anything.
        for g in corpus().values():
            seed = seed_data(g)
            n0, e0 = g.num_vertices, g.num_edges
            for n in range(11):
                exact, seed_part = reciprocal_sum(descriptor_for(g, n))
                kemeny_spectrum = float(exact) + seed_part
                assert kemeny_spectrum == pytest.approx(
                    kemeny_closed(seed.kemeny, n0, e0, n), rel=1e-9
                )
                _, edges = predicted_counts(n0, e0, n)
                assert 2 * edges * kemeny_spectrum == pytest.approx(
                    kf_star_closed(seed.kf_star, n0, e0, n), rel=1e-9
                )


class TestKappa:
    @pytest.mark.parametrize(
        "n0,e0,n,expected", [(3, 3, 1, 3), (3, 3, 2, 9), (3, 2, 2, 8), (3, 3, 0, 0)]
    )
    def test_values(self, n0, e0, n, expected):
        assert kappa(n0, e0, n) == expected

    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=25),
    )
    def test_summation_equals_closed_form(self, n0, e0, n):
        summed = sum(predicted_counts(n0, e0, g)[0] for g in range(n))
        assert kappa(n0, e0, n) == summed

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            kappa(3, 3, -1)


class TestSpanningTreeCount:
    def test_equality_normalizes_factors(self):
        assert SpanningTreeCount(2, 1, 3) == 54
        assert SpanningTreeCount(2, 1, 3) == SpanningTreeCount(0, 0, 54)
        assert SpanningTreeCount(2, 1, 3) != 55
        assert SpanningTreeCount(2, 1, 3) != 0

    def test_hash_consistent_with_eq(self):
        assert hash(SpanningTreeCount(2, 1, 3)) == hash(SpanningTreeCount(0, 0, 54))

    def test_decimal_and_str(self):
        count = SpanningTreeCount(7, 5, 3)
        assert count.decimal() == "209952"
        assert str(count) == "209952"

    # (pow3, pow2, seed_count): small, mid-size, and within 1% of the cap.
    DECIMAL_CASES = [
        (0, 0, 1),
        (0, 0, 2000),
        (1, 0, 6),
        (40, 17, 12),
        (1000, 999, 54),
        (30_000, 20_000, 18),
        (200_000, 10_000, 96),
        (207_500, 3_000, 3**4 * 2**3),
        (0, 330_000, 3**7 * 2),
    ]

    @pytest.fixture
    def unlimited_int_str(self):
        get_limit = getattr(sys, "get_int_max_str_digits", None)
        if get_limit is None:
            yield
            return
        old = get_limit()
        sys.set_int_max_str_digits(0)
        try:
            yield
        finally:
            sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("pow3,pow2,seed_count", DECIMAL_CASES)
    def test_decimal_equals_integer_rendering(self, unlimited_int_str, pow3, pow2, seed_count):
        count = SpanningTreeCount(pow3, pow2, seed_count)
        assert count.digits10() <= DECIMAL_DIGIT_CAP
        assert count.decimal() == str(count.to_int())

    def test_decimal_cases_reach_the_cap(self):
        largest = max(SpanningTreeCount(*case).digits10() for case in self.DECIMAL_CASES)
        assert 0.99 * DECIMAL_DIGIT_CAP <= largest <= DECIMAL_DIGIT_CAP

    def test_decimal_above_max_digits_overflows(self):
        count = SpanningTreeCount(209_600, 0, 1)
        assert count.digits10() > DECIMAL_DIGIT_CAP
        with pytest.raises(OverflowError, match="above the 100000 limit"):
            count.decimal()
        with pytest.raises(OverflowError, match="above the 20 limit"):
            SpanningTreeCount(50, 0, 1).decimal(max_digits=20)
        assert count.json_value() == count.factored()

    def test_factored_rendering_for_huge_values(self):
        huge = spanning_trees_closed(3, 3, 3, 30)
        assert huge.digits10() > 10**13
        assert huge.json_value().startswith("3^")
        with pytest.raises(OverflowError):
            huge.to_int()


class TestSpanningTreesClosed:
    def test_triangle_values(self):
        assert spanning_trees_closed(3, 3, 3, 1) == 54
        assert spanning_trees_closed(3, 3, 3, 2) == 209952

    def test_path_seed(self):
        assert spanning_trees_closed(1, 3, 2, 1) == 9

    def test_depth_zero(self):
        assert spanning_trees_closed(2000, 10, 15, 0) == 2000

    def test_step_law_exponents(self):
        for g in corpus().values():
            n0, e0 = g.num_vertices, g.num_edges
            for n in range(1, 11):
                current = spanning_trees_closed(1, n0, e0, n)
                previous = spanning_trees_closed(1, n0, e0, n - 1)
                prev_vertices, _ = predicted_counts(n0, e0, n - 1)
                assert current.pow3 - previous.pow3 == prev_vertices - 1
                assert (
                    current.pow2 - previous.pow2
                    == prev_vertices - 2 * n0 + e0 + 1
                )

    def test_closed_equals_iterated_steps(self):
        for g in corpus().values():
            n0, e0 = g.num_vertices, g.num_edges
            running = SpanningTreeCount(0, 0, 1)
            for n in range(1, 11):
                running = spanning_trees_step(running, n0, e0, n)
                assert running == spanning_trees_closed(1, n0, e0, n)

    @given(connected_graphs(max_vertices=7, max_extra_edges=3))
    @settings(max_examples=15)
    def test_depth_one_matches_matrix_tree(self, g):
        nst0 = spanning_trees_matrix_tree(g)
        closed = spanning_trees_closed(nst0, g.num_vertices, g.num_edges, 1)
        assert closed == spanning_trees_matrix_tree(triangulate(g))


class TestSeedData:
    def test_triangle(self):
        seed = seed_data(generate("complete", 3))
        assert seed.kf_star == pytest.approx(8.0, rel=1e-12)
        assert seed.kemeny == pytest.approx(4 / 3, rel=1e-12)
        assert seed.spanning_trees == 3
        assert seed.bipartite is False

    def test_petersen(self):
        seed = seed_data(generate("petersen", 10))
        assert seed.kemeny == pytest.approx(9.9, rel=1e-12)
        assert seed.kf_star == pytest.approx(297.0, rel=1e-10)
        assert seed.spanning_trees == 2000


class TestVerifyAll:
    def test_triangle_passes(self):
        result = verify_all(generate("complete", 3), 2, tol=1e-8)
        assert result.passed
        routes = result.reports[2].routes["kf_star"]
        assert set(routes) == {"closed_form", "recursion", "spectrum_sum", "direct_oracle"}
        for value in routes.values():
            assert value == pytest.approx(882.0, rel=1e-9)

    def test_path_spanning_tree_routes(self):
        result = verify_all(generate("path", 3), 2, tol=1e-8)
        assert result.passed
        trees = result.reports[1].routes["spanning_trees"]
        assert trees["closed_form"] == 9
        assert trees["direct_oracle"] == 9

    def test_petersen_passes(self):
        result = verify_all(generate("petersen", 10), 1, tol=1e-8)
        assert result.passed
        assert result.reports[0].routes["spanning_trees"]["direct_oracle"] == 2000

    def test_identity_residual_recorded(self):
        result = verify_all(generate("cycle", 5), 6, tol=1e-8, materialize_cap=0)
        for report in result.reports:
            assert report.discrepancies["kf_kemeny_identity"] <= 1e-12

    def test_unreachable_tolerance_reports_failure(self):
        result = verify_all(generate("petersen", 10), 1, tol=1e-18)
        assert not result.passed
        assert result.failures

    def test_report_json_uses_decimal_strings(self):
        result = verify_all(generate("complete", 3), 2, tol=1e-8)
        doc = result.reports[2].to_json_dict()
        assert doc["spanning_trees"] == "209952"
        assert doc["routes"]["spanning_trees"]["direct_oracle"] == "209952"
        json.dumps(doc)  # must be serializable as-is

    @pytest.mark.parametrize("name", sorted(corpus()))
    def test_carried_spectrum_sum_equals_rebuilt_descriptor(self, name):
        # Bit-exact: the carried route must print the same digits.
        g = corpus()[name]
        reports = verify_all(g, 60, materialize_cap=0).reports
        for n in range(61):
            exact, seed_part = reciprocal_sum(descriptor_for(g, n))
            assert reports[n].routes["kemeny"]["spectrum_sum"] == float(exact) + seed_part

    @given(connected_graphs(max_vertices=9, max_extra_edges=5), st.integers(0, 40))
    @settings(max_examples=25)
    def test_carried_spectrum_sum_property(self, g, n):
        exact, seed_part = reciprocal_sum(descriptor_for(g, n))
        report = verify_all(g, n, materialize_cap=0).reports[n]
        assert report.routes["kemeny"]["spectrum_sum"] == float(exact) + seed_part

    def test_symbolic_work_does_not_grow_with_depth(self, monkeypatch):
        calls = {"build_descriptor": 0, "reciprocal_sum": 0}
        for name in calls:
            original = getattr(spectra, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in (spectra, invariants):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        per_max_n = {}
        for max_n in (10, 200):
            for name in calls:
                calls[name] = 0
            assert verify_all(generate("complete", 3), max_n, materialize_cap=0).passed
            per_max_n[max_n] = dict(calls)
        assert per_max_n[10] == per_max_n[200]
        assert per_max_n[10]["build_descriptor"] > 0
        assert per_max_n[10]["reciprocal_sum"] > 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_all(generate("complete", 3), -1)
        with pytest.raises(ValueError):
            verify_all(generate("complete", 3), 1, tol=0.0)
