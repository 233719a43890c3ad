"""Munkres (Hungarian) assignment algorithm, implemented from scratch.

The paper relies on Munkres' algorithm [21] to assign output rows of the
function matrix to crossbar rows with zero total cost; the exact
algorithm (EA) uses the same solver on the full matching matrix.  This
module provides a dependency-free O(n³) implementation using the
potential/shortest-augmenting-path formulation, handles rectangular cost
matrices (rows ≤ columns after an internal transpose), and optionally
delegates to SciPy's ``linear_sum_assignment`` for very large instances —
the result is identical, only faster; the pure-Python path is the
reference implementation and is cross-checked against SciPy in the
test-suite.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import MappingError

#: Smaller-side size above which a solve goes to SciPy when it imports.
AUTO_SCIPY_THRESHOLD = 96


@dataclass(frozen=True)
class AssignmentResult:
    """Outcome of an assignment-problem solve.

    ``pairs`` holds ``(row, column)`` index pairs of the chosen assignment
    (one per assigned row), ``total_cost`` their summed cost.
    """

    pairs: tuple[tuple[int, int], ...]
    total_cost: float

    def column_of_row(self) -> dict[int, int]:
        """Mapping from assigned row index to its column."""
        return {row: column for row, column in self.pairs}

    def row_of_column(self) -> dict[int, int]:
        """Mapping from assigned column index to its row."""
        return {column: row for row, column in self.pairs}


def _hungarian_potentials(cost: np.ndarray) -> list[int]:
    """Core O(n³) Hungarian algorithm; requires rows ≤ columns.

    Returns, for every row, the column assigned to it.
    """
    num_rows, num_columns = cost.shape
    infinity = float("inf")
    row_potential = [0.0] * (num_rows + 1)
    column_potential = [0.0] * (num_columns + 1)
    column_assignment = [0] * (num_columns + 1)  # 1-based row assigned to column
    predecessor = [0] * (num_columns + 1)

    for row in range(1, num_rows + 1):
        column_assignment[0] = row
        current_column = 0
        minimum_values = [infinity] * (num_columns + 1)
        visited = [False] * (num_columns + 1)
        while True:
            visited[current_column] = True
            current_row = column_assignment[current_column]
            delta = infinity
            next_column = -1
            for column in range(1, num_columns + 1):
                if visited[column]:
                    continue
                reduced = (
                    float(cost[current_row - 1, column - 1])
                    - row_potential[current_row]
                    - column_potential[column]
                )
                if reduced < minimum_values[column]:
                    minimum_values[column] = reduced
                    predecessor[column] = current_column
                if minimum_values[column] < delta:
                    delta = minimum_values[column]
                    next_column = column
            for column in range(num_columns + 1):
                if visited[column]:
                    row_potential[column_assignment[column]] += delta
                    column_potential[column] -= delta
                else:
                    minimum_values[column] -= delta
            current_column = next_column
            if column_assignment[current_column] == 0:
                break
        # Augment along the alternating path.
        while current_column:
            previous_column = predecessor[current_column]
            column_assignment[current_column] = column_assignment[previous_column]
            current_column = previous_column

    assignment = [-1] * num_rows
    for column in range(1, num_columns + 1):
        if column_assignment[column]:
            assignment[column_assignment[column] - 1] = column - 1
    return assignment


def solve_assignment(
    cost_matrix: Sequence[Sequence[float]] | np.ndarray,
) -> AssignmentResult:
    """Solve the rectangular assignment problem, minimising total cost.

    ``cost_matrix`` holds arbitrary (finite) costs; with ``r`` rows and
    ``c`` columns, ``min(r, c)`` pairs are assigned.  Instances whose
    smaller side exceeds :data:`AUTO_SCIPY_THRESHOLD` go to
    :func:`scipy.optimize.linear_sum_assignment` when SciPy imports; all
    others use the from-scratch Hungarian implementation.
    """
    cost = np.asarray(cost_matrix, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise MappingError("cost matrix must be a non-empty 2-D array")
    if not np.isfinite(cost).all():
        raise MappingError("cost matrix entries must be finite")

    use_scipy = min(cost.shape) > AUTO_SCIPY_THRESHOLD
    if use_scipy:
        try:
            from scipy.optimize import linear_sum_assignment
        except ImportError:  # pragma: no cover - scipy is an optional speed-up
            use_scipy = False
    if use_scipy:
        row_indices, column_indices = linear_sum_assignment(cost)
        pairs = tuple(zip(row_indices.tolist(), column_indices.tolist()))
        total = float(cost[row_indices, column_indices].sum())
        return AssignmentResult(pairs=pairs, total_cost=total)

    transposed = cost.shape[0] > cost.shape[1]
    working = cost.T if transposed else cost
    assignment = _hungarian_potentials(working)
    pairs = []
    total = 0.0
    for row, column in enumerate(assignment):
        if column < 0:
            continue
        if transposed:
            pairs.append((column, row))
            total += float(cost[column, row])
        else:
            pairs.append((row, column))
            total += float(cost[row, column])
    pairs.sort()
    return AssignmentResult(pairs=tuple(pairs), total_cost=total)


def zero_cost_assignment(
    cost_matrix: Sequence[Sequence[float]] | np.ndarray,
) -> dict[int, int] | None:
    """Assign every *column* to a distinct row at zero cost, if possible.

    The matching matrices of the paper put crossbar rows on the rows and
    function rows on the columns; a valid mapping needs every function row
    (column of the matrix) assigned to some crossbar row with zero total
    cost.  Returns ``{column: row}`` or ``None`` when impossible.
    """
    cost = np.asarray(cost_matrix, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise MappingError("cost matrix must be a non-empty 2-D array")
    num_rows, num_columns = cost.shape
    if num_columns > num_rows:
        return None
    result = solve_assignment(cost)
    if result.total_cost != 0:
        return None
    assignment = result.row_of_column()
    if len(assignment) < num_columns:
        return None
    return assignment
