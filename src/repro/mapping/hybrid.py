"""The paper's proposed hybrid defect-tolerant mapper (HBA, Algorithm 1).

The hybrid algorithm combines a cheap heuristic with an exact assignment
where it matters most:

1. *(optional, done by the caller or via* :func:`map_with_dual_selection`
   *)* the area cost of the function and its complement are compared and
   the cheaper implementation is mapped;
2. the minterm (product) rows of the function matrix are matched to
   crossbar rows by the greedy-with-backtracking heuristic
   (:class:`~repro.mapping.heuristic.HeuristicMatcher`);
3. the output rows — where a single defect would discard an entire output
   — are assigned to the remaining crossbar rows by Munkres' algorithm,
   and the mapping is valid only when that assignment has zero cost.
"""

from __future__ import annotations

import time

from repro.boolean.function import BooleanFunction
from repro.crossbar.metrics import choose_dual
from repro.defects.defect_map import DefectMap
from repro.exceptions import MappingError
from repro.mapping.crossbar_matrix import CrossbarMatrix
from repro.mapping.function_matrix import FunctionMatrix
from repro.mapping.heuristic import GreedyMatcher, HeuristicMatcher
from repro.mapping.matching import matching_matrix, quick_infeasibility_check
from repro.mapping.munkres import zero_cost_assignment
from repro.mapping.result import MappingResult, MappingStatistics


class HybridMapper:
    """HBA: heuristic minterm matching + exact output assignment.

    Parameters
    ----------
    backtracking:
        Disable to obtain the pure-greedy ablation variant.
    """

    algorithm_name = "hybrid"

    def __init__(self, *, backtracking: bool = True):
        self._backtracking = bool(backtracking)

    def map(
        self,
        function_matrix: FunctionMatrix | BooleanFunction,
        crossbar: CrossbarMatrix | DefectMap,
    ) -> MappingResult:
        """Find a defect-avoiding row assignment for a function.

        Accepts either pre-built matrices or the raw function / defect map
        for convenience.
        """
        start = time.perf_counter()
        fm = _coerce_function_matrix(function_matrix)
        cm = _coerce_crossbar_matrix(crossbar)

        reason = quick_infeasibility_check(fm, cm)
        if reason is not None:
            return self._failure(reason, start)

        matcher_class = HeuristicMatcher if self._backtracking else GreedyMatcher
        matcher = matcher_class(cm)
        minterm_outcome = matcher.match_minterms(fm.minterm_rows())
        statistics = minterm_outcome.statistics
        if not minterm_outcome.success:
            return self._failure(
                f"no crossbar row can host product row m{minterm_outcome.failed_row + 1}",
                start,
                statistics=statistics,
            )

        used_rows = minterm_outcome.matched_crossbar_rows()
        unmatched_rows = [
            row for row in cm.usable_rows() if row not in used_rows
        ]
        output_indices = list(
            range(fm.num_minterm_rows, fm.num_rows)
        )
        if len(unmatched_rows) < len(output_indices):
            return self._failure(
                "not enough unmatched crossbar rows remain for the outputs",
                start,
                statistics=statistics,
            )

        if output_indices:
            costs = matching_matrix(
                fm, cm, fm_row_indices=output_indices, cm_row_indices=unmatched_rows
            )
            statistics.matching_matrix_entries += int(costs.size)
            statistics.assignment_size = tuple(costs.shape)
            assignment = zero_cost_assignment(costs)
            if assignment is None:
                return self._failure(
                    "Munkres found no zero-cost assignment for the output rows",
                    start,
                    statistics=statistics,
                )
        else:
            # Output-free matrices (the multi-level gate stages) are fully
            # settled by the minterm matcher; there is nothing to assign.
            assignment = {}

        row_assignment = dict(minterm_outcome.assignment)
        for local_column, local_row in assignment.items():
            row_assignment[output_indices[local_column]] = unmatched_rows[local_row]

        elapsed = time.perf_counter() - start
        return MappingResult(
            success=True,
            algorithm=self.algorithm_name,
            row_assignment=row_assignment,
            runtime_seconds=elapsed,
            statistics=statistics,
        )

    def _failure(
        self,
        reason: str,
        start: float,
        *,
        statistics: MappingStatistics | None = None,
    ) -> MappingResult:
        return MappingResult(
            success=False,
            algorithm=self.algorithm_name,
            failure_reason=reason,
            runtime_seconds=time.perf_counter() - start,
            statistics=statistics or MappingStatistics(),
        )


class GreedyMapper(HybridMapper):
    """Ablation variant of HBA with backtracking disabled."""

    algorithm_name = "greedy"

    def __init__(self):
        super().__init__(backtracking=False)


def map_with_dual_selection(
    function: BooleanFunction,
    defect_map_factory,
    mapper: HybridMapper | None = None,
) -> tuple[MappingResult, BooleanFunction]:
    """Full Algorithm 1 including the dual (f vs f̄) selection step.

    ``defect_map_factory`` is a callable ``(rows, columns) -> DefectMap``
    because the crossbar is only fabricated/selected once the cheaper
    implementation (and therefore the optimum crossbar size) is known.
    Returns the mapping result and the implementation actually mapped.
    """
    mapper = mapper or HybridMapper()
    selection = choose_dual(function)
    implementation = selection.implementation
    fm = FunctionMatrix(implementation)
    defect_map = defect_map_factory(fm.num_rows, fm.num_columns)
    if not isinstance(defect_map, DefectMap):
        raise MappingError("defect_map_factory must return a DefectMap")
    result = mapper.map(fm, CrossbarMatrix(defect_map))
    result.used_complement = selection.used_complement
    return result, implementation


def _coerce_function_matrix(
    value: FunctionMatrix | BooleanFunction,
) -> FunctionMatrix:
    if isinstance(value, FunctionMatrix):
        return value
    if isinstance(value, BooleanFunction):
        return FunctionMatrix(value)
    raise MappingError(
        f"expected a FunctionMatrix or BooleanFunction, got {type(value)!r}"
    )


def _coerce_crossbar_matrix(
    value: CrossbarMatrix | DefectMap,
) -> CrossbarMatrix:
    if isinstance(value, CrossbarMatrix):
        return value
    if isinstance(value, DefectMap):
        return CrossbarMatrix(value)
    raise MappingError(
        f"expected a CrossbarMatrix or DefectMap, got {type(value)!r}"
    )
