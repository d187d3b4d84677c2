"""Closed forms, recursions, factored spanning-tree counts, and verify_all."""

import dataclasses
import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    connected_graphs,
    corpus,
    kemeny_closed_fraction,
    kemeny_recursive_fraction,
    to_int,
)
from trispectral import invariants, spectra
from trispectral.cli import _report_doc, main
from trispectral.graph import (
    analyze,
    format_edge_list,
    generate,
    predicted_counts,
    triangulate,
)
from trispectral.invariants import (
    DECIMAL_DIGIT_CAP,
    IDENTITY_RTOL,
    InvariantReport,
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
from trispectral.spectra import descriptor_for, generations, reciprocal_sum


class TestKfStar:
    def test_closed_triangle(self):
        assert kf_star_closed(8.0, 3, 3, 1) == pytest.approx(84.0, rel=1e-12)
        assert kf_star_closed(8.0, 3, 3, 2) == pytest.approx(882.0, rel=1e-12)

    def test_closed_depth_zero(self):
        assert kf_star_closed(27.0, 4, 6, 0) == 27.0

    def test_recursive_steps(self):
        # The last argument is the previous depth's edge count: 3, then 9.
        assert kf_star_recursive(8.0, 3, 3, 3) == pytest.approx(84.0, rel=1e-12)
        assert kf_star_recursive(84.0, 3, 3, 9) == pytest.approx(882.0, rel=1e-12)

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
                _, prev_edges = predicted_counts(n0, e0, n - 1)
                running = kf_star_recursive(running, n0, e0, prev_edges)
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
        # The last argument is the previous depth's edge count.
        assert kemeny_recursive(4 / 3, 3, 3, 3) == pytest.approx(14 / 3, rel=1e-12)
        assert kemeny_recursive(14 / 3, 3, 3, 9) == pytest.approx(49 / 3, rel=1e-12)
        assert kemeny_recursive(3 / 2, 3, 2, 2) == pytest.approx(4.0, rel=1e-12)

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

    @pytest.mark.parametrize("name", sorted(corpus()))
    def test_integer_sixths_bit_identical_to_fraction_reference(self, name):
        # Depths 0-1100 pass both overflow points: the rational part leaves
        # double range near depth 646, and 2**n * k0 raises from depth 1024.
        def outcome(fn, *args):
            try:
                return fn(*args).hex()
            except OverflowError as exc:
                return type(exc), str(exc)

        g = corpus()[name]
        n0, e0, k0 = g.num_vertices, g.num_edges, seed_data(g).kemeny
        prev = k0
        seen = set()
        for n in range(1101):
            closed = outcome(kemeny_closed, k0, n0, e0, n)
            assert closed == outcome(kemeny_closed_fraction, k0, n0, e0, n), n
            seen.add(closed if isinstance(closed, tuple) else "value")
            if n == 0:
                continue
            _, prev_edges = predicted_counts(n0, e0, n - 1)
            step = outcome(kemeny_recursive, prev, n0, e0, prev_edges)
            assert step == outcome(kemeny_recursive_fraction, prev, n0, e0, n), n
            if isinstance(step, str):
                prev = float.fromhex(step)
        assert seen == {
            "value",
            (OverflowError, "integer division result too large for a float"),
            (OverflowError, "int too large to convert to float"),
        }

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


@pytest.mark.parametrize("call, message", [
    (lambda: kf_star_closed(8.0, 3, 3, -1), "^depth must be nonnegative$"),
    (lambda: kemeny_closed(2.0, 3, 3, -1), "^depth must be nonnegative$"),
    (lambda: SpanningTreeCount(-1, 0, 1), "^exponents must be nonnegative$"),
], ids=["kf_star_closed-depth", "kemeny_closed-depth", "SpanningTreeCount-exponent"])
def test_rejects_invalid_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestSpanningTreeCount:
    def test_equality_normalizes_factors(self):
        # Equality compares the factors, not the value; int() gives the value.
        assert SpanningTreeCount(2, 1, 3) == SpanningTreeCount(2, 1, 3)
        assert SpanningTreeCount(2, 1, 3) != SpanningTreeCount(0, 0, 54)
        assert int(SpanningTreeCount(2, 1, 3)) == int(SpanningTreeCount(0, 0, 54)) == 54
        assert SpanningTreeCount(0, 0, 54) != 54  # never equal to a plain int
        assert SpanningTreeCount(2, 1, 3) != 0

    def test_hash_consistent_with_eq(self):
        assert hash(SpanningTreeCount(2, 1, 3)) == hash(SpanningTreeCount(2, 1, 3))
        assert len({SpanningTreeCount(2, 1, 3), SpanningTreeCount(0, 0, 54)}) == 2
        assert repr(SpanningTreeCount(2, 1, 3)) == "SpanningTreeCount(pow3=2, pow2=1, seed_count=3)"

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
        # Equal exponents and pow2 > pow3, with seed counts divisible by 6.
        (900, 900, 6),
        (700, 1200, 3**2 * 2**3 * 5),
    ]
    # Closed-form counts (nst0, n0, e0, n): pow2 > pow3 (K5), equal exponents
    # (K4), pow3 > pow2 (P4, Petersen) and a seed count of 3 (K3).
    DECIMAL_CASES += [
        tuple(vars(spanning_trees_closed(*seed_and_depth)).values())
        for seed_and_depth in [
            (125, 5, 10, 8), (16, 4, 6, 9), (1, 4, 3, 10), (2000, 10, 15, 7), (3, 3, 3, 9)
        ]
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
        assert count.decimal() == str(to_int(count))

    def test_decimal_cases_reach_the_cap(self):
        largest = max(SpanningTreeCount(*case).digits10() for case in self.DECIMAL_CASES)
        assert 0.99 * DECIMAL_DIGIT_CAP <= largest <= DECIMAL_DIGIT_CAP

    def test_decimal_above_max_digits_overflows(self):
        count = SpanningTreeCount(209_600, 0, 1)
        assert count.digits10() > DECIMAL_DIGIT_CAP
        with pytest.raises(OverflowError, match="above the 100000 limit"):
            count.decimal()
        assert count.json_value() == count.factored()

    def test_factored_rendering_for_huge_values(self):
        huge = spanning_trees_closed(3, 3, 3, 30)
        assert huge.digits10() > 10**13
        assert huge.json_value().startswith("3^")
        with pytest.raises(OverflowError):
            to_int(huge)


class TestSpanningTreesClosed:
    def test_triangle_values(self):
        assert to_int(spanning_trees_closed(3, 3, 3, 1)) == 54
        assert to_int(spanning_trees_closed(3, 3, 3, 2)) == 209952

    def test_path_seed(self):
        assert to_int(spanning_trees_closed(1, 3, 2, 1)) == 9

    def test_depth_zero(self):
        assert to_int(spanning_trees_closed(2000, 10, 15, 0)) == 2000

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="^seed spanning-tree count must be >= 1$"):
            spanning_trees_closed(0, 3, 3, 1)
        with pytest.raises(ValueError, match="^depth must be nonnegative$"):
            spanning_trees_closed(3, 3, 3, -1)

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
                prev_vertices, _ = predicted_counts(n0, e0, n - 1)
                running = spanning_trees_step(running, n0, e0, prev_vertices)
                assert running == spanning_trees_closed(1, n0, e0, n)

    @given(connected_graphs(max_vertices=7, max_extra_edges=3))
    @settings(max_examples=15)
    def test_depth_one_matches_matrix_tree(self, g):
        nst0 = spanning_trees_matrix_tree(g)
        closed = spanning_trees_closed(nst0, g.num_vertices, g.num_edges, 1)
        assert to_int(closed) == spanning_trees_matrix_tree(triangulate(g))


def test_recursions_on_carried_counts_match_power_forms():
    # Each recursion steps on the previous depth's counts from `generations`;
    # the references below rebuild those counts from powers of 3 in n.  The
    # closed forms take each power once; their references take every power
    # as the formula writes it.  Depths 0-700 pass where Kf* (near 322) and
    # Kemeny (near 648) overflow.
    def kf_star_powers(prev, n0, e0, n):
        return (
            6 * prev
            - 2 * 3 ** (n - 1) * n0 * e0
            + (5 * 3 ** (2 * n - 2) + 3 ** (n - 1)) * e0 * e0
        )

    def kemeny_powers(prev, n0, e0, n):
        return 2 * prev + ((5 * 3 ** (n - 1) + 1) * e0 - 2 * n0) / 6

    def kf_star_closed_powers(kf0, n0, e0, n):
        if n == 0:
            return float(kf0)
        linear = 2 * 3 ** (n - 1) - 4 * 6 ** (n - 1)
        quadratic = 5 * 3 ** (2 * n - 1) - 8 * 6 ** (n - 1) - 3 ** (n - 1)
        return 6**n * kf0 + linear * n0 * e0 + quadratic * e0 * e0

    def kemeny_closed_powers(k0, n0, e0, n):
        return 2**n * k0 + (2 * (1 - 2**n) * n0 + (5 * 3**n - 2 ** (n + 2) - 1) * e0) / 6

    def trees_powers(prev, n0, e0, n):
        prev_vertices = n0 + (3 ** (n - 1) - 1) // 2 * e0
        return SpanningTreeCount(
            prev.pow3 + prev_vertices - 1,
            prev.pow2 + prev_vertices - 2 * n0 + e0 + 1,
            prev.seed_count,
        )

    def outcome(fn, *args):
        """The step's value and how it compares: .hex() of a float, the fields
        of a count, or the OverflowError message (value None)."""
        try:
            value = fn(*args)
        except OverflowError as exc:
            return None, str(exc)
        return value, value.hex() if isinstance(value, float) else vars(value)

    steps = (  # (recursion, its power form, index of its count in (N, E))
        (kf_star_recursive, kf_star_powers, 1),
        (kemeny_recursive, kemeny_powers, 1),
        (spanning_trees_step, trees_powers, 0),
    )
    overflows = set()
    for name, g in corpus().items():
        n0, e0 = g.num_vertices, g.num_edges
        seed = seed_data(g)
        prev = [seed.kf_star, seed.kemeny, SpanningTreeCount(0, 0, seed.spanning_trees)]
        counts = (n0, e0)
        walk = generations(n0, e0, analyze(g).bipartite)
        for n in range(701):
            for closed, reference, value0 in (
                (kf_star_closed, kf_star_closed_powers, seed.kf_star),
                (kemeny_closed, kemeny_closed_powers, seed.kemeny),
            ):
                value, got = outcome(closed, value0, n0, e0, n)
                assert got == outcome(reference, value0, n0, e0, n)[1], (name, n, closed)
                if value is None:
                    overflows.add(got)
            if n == 0:
                continue
            for i, (step, reference, which) in enumerate(steps):
                value, got = outcome(step, prev[i], n0, e0, counts[which])
                assert got == outcome(reference, prev[i], n0, e0, n)[1], (name, n, step)
                if value is None:
                    overflows.add(got)
                else:
                    prev[i] = value
            counts = next(walk)[:2]
    assert overflows == {
        "int too large to convert to float",
        "integer division result too large for a float",
    }


class TestSeedData:
    def test_triangle(self):
        seed = seed_data(generate("complete", 3))
        assert seed.kf_star == pytest.approx(8.0, rel=1e-12)
        assert seed.kemeny == pytest.approx(4 / 3, rel=1e-12)
        assert seed.spanning_trees == 3

    def test_petersen(self):
        seed = seed_data(generate("petersen", 10))
        assert seed.kemeny == pytest.approx(9.9, rel=1e-12)
        assert seed.kf_star == pytest.approx(297.0, rel=1e-10)
        assert seed.spanning_trees == 2000


class TestVerifyAll:
    def test_tree_routes_must_agree_factor_for_factor(self, monkeypatch):
        # The recursion keeps the count's value but moves the seed's factor 3
        # into pow3: the routes then disagree, as no route is normalized.
        def moved(prev, n0, e0, prev_vertices):
            step = spanning_trees_step(prev, n0, e0, prev_vertices)
            return SpanningTreeCount(step.pow3 + 1, step.pow2, step.seed_count // 3)

        monkeypatch.setattr(invariants, "spanning_trees_step", moved)
        result = verify_all(generate("complete", 3), 1, materialize_cap=0)
        trees = result.reports[1].routes["spanning_trees"]
        assert int(trees["recursion"]) == int(trees["closed_form"]) == 54
        assert not result.passed
        assert result.reports[1].discrepancies["spanning_trees"] == math.inf
        assert result.failures == (
            "n=1: spanning-tree routes are not exactly equal "
            "(closed_form=54, recursion=54)",)

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
        assert to_int(trees["closed_form"]) == 9
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

    @staticmethod
    def _k3_failures(tmp_path, capsys):
        """verify_all's failures on K3 through depth 2 without oracles; `invariants`
        must exit 1 and print each to stderr."""
        result = verify_all(generate("complete", 3), 2, materialize_cap=0)
        assert not result.passed
        path = tmp_path / "k3.edges"
        path.write_text(format_edge_list(generate("complete", 3)))
        assert main(["invariants", str(path), "-n", "2"]) == 1
        assert capsys.readouterr().err == "".join(f"FAIL: {f}\n" for f in result.failures)
        return result

    def test_inexact_tree_route_fails(self, tmp_path, capsys, monkeypatch):
        # The recursion's count gains a factor 3 per step.
        step = invariants.spanning_trees_step
        monkeypatch.setattr(invariants, "spanning_trees_step", lambda *a: dataclasses.replace(
            step(*a), pow3=step(*a).pow3 + 1))
        result = self._k3_failures(tmp_path, capsys)
        assert [r.discrepancies["spanning_trees"] for r in result.reports] == [0.0, math.inf,
                                                                               math.inf]
        assert result.failures == (
            "n=1: spanning-tree routes are not exactly equal (closed_form=54, recursion=162)",
            "n=2: spanning-tree routes are not exactly equal "
            "(closed_form=209952, recursion=1889568)",
        )

    def test_identity_residual_over_bound_fails(self, tmp_path, capsys, monkeypatch):
        # A seed Kf* off by 1e-9 relative: every route agrees within tol, but
        # Kf* = 2E * Kemeny fails at each depth by more than IDENTITY_RTOL.
        direct = invariants.seed_data
        monkeypatch.setattr(invariants, "seed_data", lambda g: dataclasses.replace(
            direct(g), kf_star=direct(g).kf_star * (1 + 1e-9)))
        result = self._k3_failures(tmp_path, capsys)
        residuals = [r.discrepancies["kf_kemeny_identity"] for r in result.reports]
        assert all(IDENTITY_RTOL < residual < 1e-8 for residual in residuals)
        assert result.failures == tuple(
            f"n={n}: kf_star vs 2*E_n*kemeny identity residual {residual:.3e} > 1.0e-12"
            for n, residual in enumerate(residuals)
        )

    def test_report_json_uses_decimal_strings(self):
        result = verify_all(generate("complete", 3), 2, tol=1e-8)
        doc = _report_doc(result.reports[2])
        assert doc["spanning_trees"] == "209952"
        assert doc["routes"]["spanning_trees"]["direct_oracle"] == "209952"
        json.dumps(doc)  # must be serializable as-is

    def test_report_json_renders_each_tree_count_once(self, monkeypatch):
        rendered = []
        original = SpanningTreeCount.json_value

        def counted(self):
            rendered.append(self)
            return original(self)

        monkeypatch.setattr(SpanningTreeCount, "json_value", counted)
        for report in verify_all(generate("petersen", 10), 30, materialize_cap=0).reports:
            doc = _report_doc(report)
            assert len(rendered) == 1
            rendered.clear()
            for route in ("closed_form", "recursion"):
                assert doc["routes"]["spanning_trees"][route] == doc["spanning_trees"]

    def test_report_json_renders_equal_value_with_other_factors_separately(self):
        # 3^300000 * 3 == 3^299999 * 9, but past the decimal cap each prints
        # its own factored form.
        headline = SpanningTreeCount(300_000, 0, 3)
        other = SpanningTreeCount(299_999, 0, 9)
        assert int(headline) == int(other)
        report = InvariantReport(
            n=1, num_vertices=1, num_edges=1, kappa=1,
            routes={"kf_star": {"closed_form": 1.0}, "kemeny": {"closed_form": 1.0},
                    "spanning_trees": {"closed_form": headline, "recursion": other}},
            discrepancies={},
        )
        doc = _report_doc(report)
        assert doc["spanning_trees"] == "3^300000 * 2^0 * 3"
        assert doc["routes"]["spanning_trees"] == {
            "closed_form": "3^300000 * 2^0 * 3",
            "recursion": "3^299999 * 2^0 * 9",
        }

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
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                verify_all(generate("complete", 3), 1, tol=tol)
