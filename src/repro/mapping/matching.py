"""Row-matching rules and matching-matrix construction (§IV-B, Fig. 8).

A function-matrix row can be placed on a crossbar row iff every crosspoint
the design needs (a 1 in the FM row) is functional (a 1 in the CM row):
functional devices can satisfy both 1 and 0 requirements, stuck-open
devices only 0 requirements.  The *matching matrix* collects the outcome
of this test for every (crossbar row, function row) pair as a cost matrix
— 0 where a placement is possible, 1 where it is not — which is exactly
the input of the assignment step (Fig. 8(c)/(d)).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import MappingError
from repro.mapping.crossbar_matrix import CrossbarMatrix
from repro.mapping.function_matrix import FunctionMatrix

#: Cost-matrix value marking a feasible placement.
MATCH = 0
#: Cost-matrix value marking an infeasible placement.
NO_MATCH = 1


def rows_compatible(fm_row: np.ndarray, cm_row: np.ndarray) -> bool:
    """True when the FM row can be realised on the CM row.

    Element-wise rule: an FM requirement of 1 needs a functional (1) CM
    entry; an FM 0 is satisfied by both functional and stuck-open entries.
    """
    fm_row = np.asarray(fm_row, dtype=np.uint8)
    cm_row = np.asarray(cm_row, dtype=np.uint8)
    if fm_row.shape != cm_row.shape:
        raise MappingError(
            f"row width mismatch: FM {fm_row.shape} vs CM {cm_row.shape}"
        )
    return not bool(np.any(fm_row & ~cm_row))


def compatibility_matrix(
    fm_rows: np.ndarray, cm_rows: np.ndarray
) -> np.ndarray:
    """Boolean matrix ``[h, r]`` = CM row ``h`` can host FM row ``r``."""
    fm_rows = np.asarray(fm_rows, dtype=np.uint8)
    cm_rows = np.asarray(cm_rows, dtype=np.uint8)
    if fm_rows.ndim != 2 or cm_rows.ndim != 2:
        raise MappingError("expected 2-D matrices")
    if fm_rows.shape[1] != cm_rows.shape[1]:
        raise MappingError(
            f"column count mismatch: FM has {fm_rows.shape[1]}, CM has "
            f"{cm_rows.shape[1]}"
        )
    # conflict[h, r] — does CM row h miss a device FM row r needs?
    conflicts = np.einsum(
        "rc,hc->hr", fm_rows.astype(bool), (~cm_rows.astype(bool))
    )
    return conflicts == 0


def compatibility_tensor(
    fm_rows: np.ndarray,
    cm_stack: np.ndarray,
    *,
    closed: np.ndarray | None = None,
    kernels=None,
) -> np.ndarray:
    """Batched :func:`compatibility_matrix` over a stack of crossbars.

    ``fm_rows`` is the ``(R, C)`` function matrix, ``cm_stack`` a
    ``(samples, H, C)`` stack of crossbar matrices; the result is the
    boolean ``(samples, R, H)`` tensor ``[s, r, h]`` = crossbar row ``h``
    of sample ``s`` can host FM row ``r``, laid out one FM row at a
    time as the mappers scan it.  One broadcasted matmul replaces the
    per-sample ``fm & ~cm`` einsum, which is where the vectorized
    Monte-Carlo engine gets its throughput.  ``closed``, a ``(samples,
    H)`` mask of stuck-closed rows, clears those rows: they can never
    host anything.

    ``kernels`` is a loaded :mod:`repro.compiled` backend; when given,
    its native kernel builds the same cells without a BLAS call, packed
    as its settle kernels read them: ``uint64 (samples, R, ceil(H /
    64))``, bit ``h % 64`` of word ``h // 64`` holding cell ``[s, r, h]``.
    """
    fm_rows = np.asarray(fm_rows)
    cm_stack = np.asarray(cm_stack)
    if fm_rows.ndim != 2 or cm_stack.ndim != 3:
        raise MappingError(
            f"expected a 2-D FM and a 3-D CM stack, got {fm_rows.shape} "
            f"and {cm_stack.shape}"
        )
    if fm_rows.shape[1] != cm_stack.shape[2]:
        raise MappingError(
            f"column count mismatch: FM has {fm_rows.shape[1]}, CM stack "
            f"has {cm_stack.shape[2]}"
        )
    if kernels is not None:
        return kernels.compatibility_tensor(fm_rows, cm_stack, closed)
    # conflicts[s, r, h] — number of devices FM row r needs that CM row h
    # of sample s misses; float32 matmul hits BLAS and the counts (< 2^24)
    # stay exact.
    missing = (cm_stack == 0).astype(np.float32)
    needed = (fm_rows != 0).astype(np.float32)
    conflicts = needed @ missing.transpose(0, 2, 1)
    compatible = conflicts == 0
    if closed is not None:
        compatible &= ~np.asarray(closed, dtype=bool)[:, None, :]
    return compatible


def matching_matrix(
    function_matrix: FunctionMatrix | np.ndarray,
    crossbar_matrix: CrossbarMatrix | np.ndarray,
    *,
    fm_row_indices: list[int] | None = None,
    cm_row_indices: list[int] | None = None,
) -> np.ndarray:
    """The paper's matching matrix: rows = crossbar lines, columns = FM rows.

    Entries are :data:`MATCH` (0) where placement is possible and
    :data:`NO_MATCH` (1) otherwise, so it can be fed directly to the
    assignment algorithm as a cost matrix.  Optional index lists restrict
    the construction to sub-blocks (the hybrid algorithm only builds the
    output-rows × unmatched-crossbar-rows block).
    """
    if isinstance(function_matrix, FunctionMatrix):
        fm = function_matrix.matrix
    else:
        fm = np.asarray(function_matrix, dtype=np.uint8)
    if isinstance(crossbar_matrix, CrossbarMatrix):
        cm = crossbar_matrix.matrix
        unusable = crossbar_matrix.stuck_closed_rows
    else:
        cm = np.asarray(crossbar_matrix, dtype=np.uint8)
        unusable = frozenset()

    if fm_row_indices is not None:
        fm = fm[list(fm_row_indices)]
    if cm_row_indices is not None:
        cm_rows = list(cm_row_indices)
    else:
        cm_rows = list(range(cm.shape[0]))
    cm_selected = cm[cm_rows]

    compatible = compatibility_matrix(fm, cm_selected)
    costs = np.where(compatible, MATCH, NO_MATCH).astype(np.int64)
    # Rows poisoned by stuck-closed defects can never host anything.
    for local_index, cm_row in enumerate(cm_rows):
        if cm_row in unusable:
            costs[local_index, :] = NO_MATCH
    return costs


def feasible_rows_for(
    fm_row: np.ndarray, crossbar_matrix: CrossbarMatrix
) -> list[int]:
    """All usable crossbar rows that can host one FM row."""
    result = []
    for row_index in crossbar_matrix.usable_rows():
        if rows_compatible(fm_row, crossbar_matrix.row(row_index)):
            result.append(row_index)
    return result


def quick_infeasibility_check(
    function_matrix: FunctionMatrix, crossbar_matrix: CrossbarMatrix
) -> str | None:
    """Cheap necessary-condition screen before running a mapper.

    Returns a human-readable reason when mapping is impossible, or ``None``
    when no quick objection was found (a mapper must still run).
    """
    if crossbar_matrix.rows < function_matrix.num_rows:
        return (
            f"crossbar has {crossbar_matrix.rows} rows but the design needs "
            f"{function_matrix.num_rows}"
        )
    if crossbar_matrix.columns < function_matrix.num_columns:
        return (
            f"crossbar has {crossbar_matrix.columns} columns but the design "
            f"needs {function_matrix.num_columns}"
        )
    if not crossbar_matrix.columns_are_usable(function_matrix.num_columns):
        return "a required column is poisoned by a stuck-closed defect"
    usable = len(crossbar_matrix.usable_rows())
    if usable < function_matrix.num_rows:
        return (
            f"only {usable} usable rows remain but the design needs "
            f"{function_matrix.num_rows}"
        )
    return None
