"""Validation of defect-tolerant mappings.

Two independent checks are provided:

* :func:`validate_assignment` — the matrix-level check the paper's
  algorithms themselves use: every required device of every function-
  matrix row must land on a functional crosspoint of its assigned
  crossbar row, rows must be distinct and must avoid stuck-closed lines;
* :func:`validate_functionally` — an end-to-end check that programs the
  permuted layout onto a defective array and simulates it, confirming
  that the mapped crossbar still computes the original Boolean function.
  This is stronger than anything in the paper and guards the whole
  pipeline (function → design → mapping → physical array → simulation).

:func:`map_banks` is the one walk over a sample's row banks: it maps
each bank in turn and checks every success with
:func:`validate_assignment`.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.boolean.function import BooleanFunction
from repro.crossbar.simulator import verify_layout
from repro.crossbar.two_level import TwoLevelDesign
from repro.defects.defect_map import DefectMap
from repro.engines import canonical_engine
from repro.mapping.crossbar_matrix import CrossbarMatrix
from repro.mapping.function_matrix import FunctionMatrix
from repro.mapping.matching import rows_compatible
from repro.mapping.result import MappingResult


def validate_assignment(
    function_matrix: FunctionMatrix,
    crossbar_matrix: CrossbarMatrix,
    result: MappingResult,
) -> bool:
    """Matrix-level validity check of a mapping result."""
    if not result.success:
        return False
    assignment = result.row_assignment
    if len(assignment) != function_matrix.num_rows:
        return False
    if not result.validate_injective():
        return False
    closed_rows = crossbar_matrix.stuck_closed_rows
    if not crossbar_matrix.columns_are_usable(function_matrix.num_columns):
        return False
    for fm_row, cm_row in assignment.items():
        if not 0 <= cm_row < crossbar_matrix.rows:
            return False
        if cm_row in closed_rows:
            return False
        if not rows_compatible(
            function_matrix.row(fm_row), crossbar_matrix.row(cm_row)
        ):
            return False
    return True


def map_banks(
    mapper, banks: Iterable[tuple[FunctionMatrix, CrossbarMatrix]]
) -> list[tuple[MappingResult, bool]]:
    """Map one sample's row banks in order, up to the first that fails.

    ``banks`` yields ``(function_matrix, crossbar_matrix)`` pairs: one
    for a two-level design, one per stage for a multi-level one.  Each
    success is checked with :func:`validate_assignment`, and the walk
    stops after the first bank that fails to map or fails the check.
    Returns ``(result, valid)`` for every bank attempted; ``valid`` is
    False only for a success the check rejected.
    """
    attempts = []
    for function_matrix, crossbar_matrix in banks:
        result = mapper.map(function_matrix, crossbar_matrix)
        valid = not result.success or validate_assignment(
            function_matrix, crossbar_matrix, result
        )
        attempts.append((result, valid))
        if not (result.success and valid):
            break
    return attempts


def validate_functionally(
    function: BooleanFunction,
    defect_map: DefectMap,
    result: MappingResult,
    *,
    exhaustive_limit: int = 10,
    samples: int = 128,
    engine: str = "auto",
) -> bool:
    """End-to-end check: simulate the mapped design on the defective array.

    The two-level layout is permuted according to the mapping, programmed
    onto an array carrying the defect map, and checked against the
    source function by :func:`~repro.crossbar.simulator.verify_layout`
    on exhaustive (small inputs) or sampled assignments.  ``engine``
    selects its batched tensor simulation or the scalar object walk
    (``"reference"``); both answer identically.
    """
    canonical_engine(engine)
    if not result.success:
        return False
    design = TwoLevelDesign(function)
    try:
        permuted = design.layout.with_row_assignment(result.row_assignment)
    except Exception:
        return False
    array = defect_map.to_array()
    array.program_active(permuted.active_crosspoints)
    return verify_layout(
        permuted,
        function,
        array=array,
        exhaustive_limit=exhaustive_limit,
        samples=samples,
        engine=engine,
    )


def validate_both(
    function: BooleanFunction,
    defect_map: DefectMap,
    result: MappingResult,
    *,
    exhaustive_limit: int = 10,
    samples: int = 128,
) -> bool:
    """Run the matrix-level and functional checks together."""
    function_matrix = FunctionMatrix(function)
    crossbar_matrix = CrossbarMatrix(defect_map)
    if not validate_assignment(function_matrix, crossbar_matrix, result):
        return False
    return validate_functionally(
        function,
        defect_map,
        result,
        exhaustive_limit=exhaustive_limit,
        samples=samples,
    )
