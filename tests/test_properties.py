"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.boolean.complement import complement_cover
from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.boolean.function import BooleanFunction
from repro.boolean.minimize import minimize_cover
from repro.crossbar.simulator import evaluate_two_level
from repro.crossbar.two_level import TwoLevelDesign, two_level_area_cost
from repro.defects.injection import inject_uniform
from repro.mapping.crossbar_matrix import CrossbarMatrix
from repro.mapping.exact import ExactMapper
from repro.mapping.function_matrix import FunctionMatrix
from repro.mapping.hybrid import HybridMapper
from repro.mapping.munkres import solve_assignment
from repro.mapping.validate import validate_assignment
from repro.synth.area import multilevel_area_report
from repro.synth.tech_map import best_network, verify_network

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def cube_strings(num_inputs: int):
    return st.text(alphabet="01-", min_size=num_inputs, max_size=num_inputs)


def covers(num_inputs: int, max_cubes: int = 6):
    return st.lists(cube_strings(num_inputs), min_size=1, max_size=max_cubes).map(
        lambda rows: Cover.from_strings(num_inputs, rows)
    )


def assignments(num_inputs: int):
    return st.lists(
        st.integers(min_value=0, max_value=1),
        min_size=num_inputs,
        max_size=num_inputs,
    )


SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Boolean substrate invariants
# ----------------------------------------------------------------------
class TestCubeProperties:
    @given(cube_strings(5), cube_strings(5))
    @SETTINGS
    def test_containment_implies_intersection(self, a, b):
        cube_a, cube_b = Cube.from_string(a), Cube.from_string(b)
        if cube_a.contains(cube_b):
            assert cube_a.intersects(cube_b)
            assert set(cube_b.minterms()) <= set(cube_a.minterms())

    @given(cube_strings(5))
    @SETTINGS
    def test_minterm_count_matches_enumeration(self, text):
        cube = Cube.from_string(text)
        assert cube.num_minterms() == len(list(cube.minterms()))

    @given(cube_strings(4), cube_strings(4))
    @SETTINGS
    def test_intersection_is_conjunction(self, a, b):
        cube_a, cube_b = Cube.from_string(a), Cube.from_string(b)
        overlap = cube_a.intersection(cube_b)
        expected = set(cube_a.minterms()) & set(cube_b.minterms())
        if overlap is None:
            assert not expected
        else:
            assert set(overlap.minterms()) == expected


class TestCoverProperties:
    @given(covers(4))
    @SETTINGS
    def test_complement_is_exact(self, cover):
        complement = complement_cover(cover)
        table = cover.truth_table()
        complement_table = complement.truth_table()
        assert all(a != b for a, b in zip(table, complement_table))

    @given(covers(4))
    @SETTINGS
    def test_minimize_preserves_semantics_and_never_grows(self, cover):
        minimized = minimize_cover(cover)
        assert minimized.equivalent(cover)
        assert minimized.num_products() <= cover.num_products()

    @given(covers(4), assignments(4))
    @SETTINGS
    def test_evaluation_matches_any_cube(self, cover, assignment):
        assert cover.evaluate(assignment) == any(
            cube.evaluate(assignment) for cube in cover
        )


# ----------------------------------------------------------------------
# Synthesis and crossbar invariants
# ----------------------------------------------------------------------
class TestSynthesisProperties:
    @given(covers(4, max_cubes=5))
    @SETTINGS
    def test_nand_mapping_is_function_preserving(self, cover):
        if cover.has_full_dont_care():
            return
        function = BooleanFunction.single_output(cover)
        network = best_network(function)
        assert verify_network(function, network)

    @given(covers(4, max_cubes=5))
    @SETTINGS
    def test_area_report_consistency(self, cover):
        if cover.has_full_dont_care():
            return
        function = BooleanFunction.single_output(cover)
        network = best_network(function)
        report = multilevel_area_report(network)
        assert report.area == report.rows * report.columns
        assert 0.0 <= report.inclusion_ratio <= 1.0


class TestCrossbarProperties:
    @given(covers(4, max_cubes=5), assignments(4))
    @SETTINGS
    def test_two_level_layout_computes_the_function(self, cover, assignment):
        if cover.has_full_dont_care() or cover.is_empty():
            return
        function = BooleanFunction.single_output(cover)
        design = TwoLevelDesign(function)
        result = evaluate_two_level(design.layout, assignment)
        assert result.outputs == [1 if function.evaluate(assignment)[0] else 0]

    @given(st.integers(1, 20), st.integers(1, 20), st.integers(1, 50))
    @SETTINGS
    def test_area_formula_is_monotone(self, inputs, outputs, products):
        base = two_level_area_cost(inputs, outputs, products)
        assert two_level_area_cost(inputs, outputs, products + 1) > base
        assert two_level_area_cost(inputs + 1, outputs, products) > base


# ----------------------------------------------------------------------
# Mapping invariants
# ----------------------------------------------------------------------
class TestMappingProperties:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.0, max_value=0.25),
    )
    @SETTINGS
    def test_mappers_agree_with_validation(self, seed, rate):
        function = BooleanFunction.single_output(
            Cover.from_strings(4, ["11--", "-01-", "0--1"])
        )
        fm = FunctionMatrix(function)
        defect_map = inject_uniform(fm.num_rows, fm.num_columns, rate, seed=seed)
        cm = CrossbarMatrix(defect_map)
        hybrid = HybridMapper().map(fm, cm)
        exact = ExactMapper().map(fm, cm)
        # Exactness: EA succeeds whenever HBA does.
        if hybrid.success:
            assert exact.success
        # Any reported success must be a genuinely valid assignment.
        for result in (hybrid, exact):
            if result.success:
                assert validate_assignment(fm, cm, result)

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=9), min_size=4, max_size=4),
            min_size=4,
            max_size=4,
        )
    )
    @SETTINGS
    def test_munkres_optimality_against_bruteforce(self, rows):
        import itertools

        cost = rows
        result = solve_assignment(cost)
        best = min(
            sum(cost[i][permutation[i]] for i in range(4))
            for permutation in itertools.permutations(range(4))
        )
        assert result.total_cost == best
