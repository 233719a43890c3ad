"""The exact mapping algorithm (EA) the paper compares HBA against.

EA builds the matching matrix for *every* row of the function matrix —
products and outputs alike — against every usable crossbar row and solves
the resulting assignment problem with Munkres' algorithm.  A valid
mapping exists iff the optimum assignment has zero cost.  EA finds a
mapping whenever one exists (it is exact), but the full matching matrix
and the larger assignment make it one to two orders of magnitude slower
than HBA on the bigger benchmarks, which is precisely the trade-off
Table II quantifies.
"""

from __future__ import annotations

import time

from repro.boolean.function import BooleanFunction
from repro.defects.defect_map import DefectMap
from repro.mapping.crossbar_matrix import CrossbarMatrix
from repro.mapping.function_matrix import FunctionMatrix
from repro.mapping.hybrid import _coerce_crossbar_matrix, _coerce_function_matrix
from repro.mapping.matching import matching_matrix, quick_infeasibility_check
from repro.mapping.munkres import zero_cost_assignment
from repro.mapping.result import MappingResult, MappingStatistics


class ExactMapper:
    """EA: full matching matrix + Munkres assignment over all rows."""

    algorithm_name = "exact"

    def map(
        self,
        function_matrix: FunctionMatrix | BooleanFunction,
        crossbar: CrossbarMatrix | DefectMap,
    ) -> MappingResult:
        """Find a defect-avoiding row assignment, or prove none exists."""
        start = time.perf_counter()
        fm = _coerce_function_matrix(function_matrix)
        cm = _coerce_crossbar_matrix(crossbar)
        statistics = MappingStatistics()

        reason = quick_infeasibility_check(fm, cm)
        if reason is not None:
            return MappingResult(
                success=False,
                algorithm=self.algorithm_name,
                failure_reason=reason,
                runtime_seconds=time.perf_counter() - start,
                statistics=statistics,
            )

        usable_rows = cm.usable_rows()
        costs = matching_matrix(fm, cm, cm_row_indices=usable_rows)
        statistics.matching_matrix_entries = int(costs.size)
        statistics.assignment_size = tuple(costs.shape)
        statistics.compatibility_checks = int(costs.size)

        assignment = zero_cost_assignment(costs)
        if assignment is None:
            return MappingResult(
                success=False,
                algorithm=self.algorithm_name,
                failure_reason="no zero-cost assignment exists for the full matrix",
                runtime_seconds=time.perf_counter() - start,
                statistics=statistics,
            )

        row_assignment = {
            fm_row: usable_rows[cm_local_row]
            for fm_row, cm_local_row in assignment.items()
        }
        return MappingResult(
            success=True,
            algorithm=self.algorithm_name,
            row_assignment=row_assignment,
            runtime_seconds=time.perf_counter() - start,
            statistics=statistics,
        )
