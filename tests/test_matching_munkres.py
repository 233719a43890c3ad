"""Unit tests for FM/CM construction, row matching and the Munkres solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.defects.defect_map import DefectMap
from repro.defects.injection import inject_uniform
from repro.defects.types import Defect, DefectType
from repro.exceptions import MappingError
from repro.mapping import munkres
from repro.mapping.crossbar_matrix import CrossbarMatrix
from repro.mapping.function_matrix import FunctionMatrix
from repro.mapping.matching import (
    MATCH,
    NO_MATCH,
    compatibility_matrix,
    feasible_rows_for,
    matching_matrix,
    quick_infeasibility_check,
    rows_compatible,
)
from repro.mapping.munkres import (
    AssignmentResult,
    solve_assignment,
    zero_cost_assignment,
)


class TestFunctionMatrix:
    def test_fig8_shape_and_blocks(self, paper_two_output):
        fm = FunctionMatrix(paper_two_output)
        assert fm.shape == (6, 10)
        assert fm.num_minterm_rows == 4
        assert fm.num_output_rows == 2
        assert fm.minterm_rows().shape == (4, 10)
        assert fm.output_rows().shape == (2, 10)

    def test_row_weights_match_products(self, paper_two_output):
        fm = FunctionMatrix(paper_two_output)
        for index, product in enumerate(paper_two_output.products):
            assert fm.row_weight(index) == (
                product.literal_count() + product.connection_count()
            )
        # Output rows need the f / f̄ device pair.
        assert fm.row_weight(4) == 2
        assert fm.row_weight(5) == 2

    def test_labels_and_ir(self, paper_two_output):
        fm = FunctionMatrix(paper_two_output)
        assert fm.row_label(0) == "m1"
        assert fm.row_label(4) == "O1"
        assert fm.inclusion_ratio() == pytest.approx(fm.required_devices() / 60)

    def test_row_out_of_range(self, paper_two_output):
        with pytest.raises(MappingError):
            FunctionMatrix(paper_two_output).row(10)

    def test_requires_products(self):
        from repro.boolean.function import BooleanFunction

        with pytest.raises(MappingError):
            FunctionMatrix(BooleanFunction(["a"], ["f"], []))


class TestCrossbarMatrix:
    def test_perfect(self):
        cm = CrossbarMatrix.perfect(4, 6)
        assert cm.shape == (4, 6)
        assert cm.functional_count() == 24
        assert cm.usable_rows() == [0, 1, 2, 3]
        assert cm.columns_are_usable()

    def test_defects_reflected(self):
        defect_map = DefectMap(
            4, 4,
            [Defect(0, 1, DefectType.STUCK_OPEN),
             Defect(2, 3, DefectType.STUCK_CLOSED)],
        )
        cm = CrossbarMatrix(defect_map)
        assert cm.matrix[0, 1] == 0
        assert cm.stuck_closed_rows == frozenset({2})
        assert not cm.row_is_usable(2)
        assert not cm.columns_are_usable()
        assert cm.columns_are_usable(required_columns=3)
        assert cm.defect_rate() == pytest.approx(2 / 16)

    def test_row_out_of_range(self):
        with pytest.raises(MappingError):
            CrossbarMatrix.perfect(2, 2).row(5)


class TestRowMatching:
    def test_rows_compatible_rule(self):
        assert rows_compatible([1, 0, 1], [1, 1, 1])
        assert rows_compatible([0, 0, 0], [0, 0, 0])
        assert not rows_compatible([1, 0], [0, 1])
        with pytest.raises(MappingError):
            rows_compatible([1, 0], [1, 0, 1])

    def test_compatibility_matrix(self):
        fm = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        cm = np.array([[1, 1], [1, 0], [0, 1]], dtype=np.uint8)
        compatible = compatibility_matrix(fm, cm)
        assert compatible.shape == (3, 2)
        assert compatible[0].tolist() == [True, True]
        assert compatible[1].tolist() == [True, False]
        assert compatible[2].tolist() == [False, True]

    def test_matching_matrix_fig8_style(self, paper_two_output):
        fm = FunctionMatrix(paper_two_output)
        cm = CrossbarMatrix.perfect(6, 10)
        costs = matching_matrix(fm, cm)
        assert costs.shape == (6, 6)
        assert (costs == MATCH).all()

    def test_matching_matrix_marks_poisoned_rows(self, paper_two_output):
        fm = FunctionMatrix(paper_two_output)
        defect_map = DefectMap(6, 10, [Defect(3, 0, DefectType.STUCK_CLOSED)])
        costs = matching_matrix(fm, CrossbarMatrix(defect_map))
        assert (costs[3] == NO_MATCH).all()

    def test_matching_matrix_sub_blocks(self, paper_two_output):
        fm = FunctionMatrix(paper_two_output)
        cm = CrossbarMatrix.perfect(6, 10)
        block = matching_matrix(fm, cm, fm_row_indices=[4, 5], cm_row_indices=[0, 5])
        assert block.shape == (2, 2)

    def test_feasible_rows_for(self, paper_two_output):
        fm = FunctionMatrix(paper_two_output)
        defect_map = inject_uniform(6, 10, 0.3, seed=1)
        cm = CrossbarMatrix(defect_map)
        for row_index in range(fm.num_rows):
            feasible = feasible_rows_for(fm.row(row_index), cm)
            for crossbar_row in feasible:
                assert rows_compatible(fm.row(row_index), cm.row(crossbar_row))

    def test_quick_infeasibility_check(self, paper_two_output):
        fm = FunctionMatrix(paper_two_output)
        assert quick_infeasibility_check(fm, CrossbarMatrix.perfect(6, 10)) is None
        assert quick_infeasibility_check(fm, CrossbarMatrix.perfect(5, 10)) is not None
        assert quick_infeasibility_check(fm, CrossbarMatrix.perfect(6, 8)) is not None
        poisoned = DefectMap(6, 10, [Defect(0, 0, DefectType.STUCK_CLOSED)])
        assert quick_infeasibility_check(fm, CrossbarMatrix(poisoned)) is not None


class TestMunkres:
    def test_simple_known_instance(self):
        cost = [[4, 1, 3], [2, 0, 5], [3, 2, 2]]
        result = solve_assignment(cost)
        assert result.total_cost == 5
        assert len(result.pairs) == 3

    def test_rectangular_instances(self):
        wide = solve_assignment([[1, 2, 3], [3, 1, 2]])
        assert wide.total_cost == 2
        tall = solve_assignment([[1, 2], [3, 1], [2, 2]])
        assert tall.total_cost == 2
        assert len(tall.pairs) == 2

    def test_matches_scipy_on_random_instances(self):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(7)
        for _ in range(30):
            rows, columns = rng.integers(1, 15), rng.integers(1, 15)
            cost = rng.integers(0, 50, size=(rows, columns))
            mine = solve_assignment(cost).total_cost
            reference_rows, reference_columns = linear_sum_assignment(cost)
            assert mine == cost[reference_rows, reference_columns].sum()

    def test_scipy_backend_agrees(self, monkeypatch):
        cost = [[3, 1], [2, 4]]
        python_result = solve_assignment(cost)
        monkeypatch.setattr(munkres, "AUTO_SCIPY_THRESHOLD", 0)
        scipy_result = solve_assignment(cost)
        assert python_result.total_cost == scipy_result.total_cost

    def test_invalid_inputs(self):
        with pytest.raises(MappingError):
            solve_assignment([])
        with pytest.raises(MappingError):
            solve_assignment([[float("inf")]])

    def test_assignment_result_helpers(self):
        result = AssignmentResult(pairs=((0, 1), (1, 0)), total_cost=0.0)
        assert result.column_of_row() == {0: 1, 1: 0}
        assert result.row_of_column() == {1: 0, 0: 1}

    def test_zero_cost_assignment_success_and_failure(self):
        feasible = [[0, 1], [1, 0], [0, 0]]
        assignment = zero_cost_assignment(feasible)
        assert assignment is not None
        assert set(assignment.keys()) == {0, 1}
        infeasible = [[1, 1], [1, 0]]
        assert zero_cost_assignment(infeasible) is None
        # More columns than rows can never be fully assigned.
        assert zero_cost_assignment([[0, 0, 0]]) is None
