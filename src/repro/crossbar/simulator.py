"""Behavioural simulation of programmed crossbar layouts.

The simulator evaluates a :class:`~repro.crossbar.layout.CrossbarLayout`
on an input assignment using the Snider Boolean logic semantics of the
paper:

* a **row** (NAND plane / gate row) evaluates to the NAND of the logic
  values presented on its active crosspoints;
* an **output column** evaluates to the NAND of the values of the rows
  connected to it (the AND-plane EVR step); when only the ``f̄`` column is
  driven, the INR step recovers ``f`` by inversion;
* multi-level **connection columns** carry the copied result of their
  gate row (the CR phase).

When a :class:`~repro.crossbar.array.CrossbarArray` is supplied the
simulation becomes defect-aware:

* a crosspoint required to be ACTIVE but stuck open always reads logic 1
  (its literal/connection silently disappears from the NAND);
* a stuck-closed crosspoint reads logic 0, forcing its row's NAND to 1,
  and poisons its entire column — every read from that column returns 0
  (the paper's §IV-A analysis of why neither line of a stuck-closed
  device is usable);
* a crosspoint the layout relies on being *disabled* (or simply unused)
  behaves correctly if stuck open — the defect is indistinguishable from
  a disabled device, which is exactly why stuck-open defects are
  tolerable by placement.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.crossbar.array import CrossbarArray
from repro.crossbar.device import DeviceMode
from repro.crossbar.layout import ColumnKind, CrossbarLayout, RowKind
from repro.engines import canonical_engine
from repro.exceptions import CrossbarError


@dataclass
class SimulationResult:
    """Everything a simulation run produced.

    ``outputs`` holds one bit per output index (``f`` values);
    ``complemented_outputs`` the corresponding ``f̄`` values.
    """

    outputs: list[int]
    complemented_outputs: list[int]
    row_values: dict[int, int] = field(default_factory=dict)
    connection_values: dict[int, int] = field(default_factory=dict)
    poisoned_rows: set[int] = field(default_factory=set)
    poisoned_columns: set[int] = field(default_factory=set)


def _check_array(layout: CrossbarLayout, array: CrossbarArray | None) -> None:
    if array is None:
        return
    if array.rows < layout.rows or array.columns < layout.columns:
        raise CrossbarError(
            f"array {array.rows}x{array.columns} is smaller than layout "
            f"{layout.rows}x{layout.columns}"
        )


def _poisoned_lines(
    layout: CrossbarLayout, array: CrossbarArray | None
) -> tuple[set[int], set[int]]:
    """Rows and columns made unusable by stuck-closed devices."""
    poisoned_rows: set[int] = set()
    poisoned_columns: set[int] = set()
    if array is None:
        return poisoned_rows, poisoned_columns
    for row, column, mode in array.defect_positions():
        if mode == DeviceMode.STUCK_CLOSED:
            if row < layout.rows:
                poisoned_rows.add(row)
            if column < layout.columns:
                poisoned_columns.add(column)
    return poisoned_rows, poisoned_columns


def _crosspoint_reads_value(
    layout: CrossbarLayout,
    array: CrossbarArray | None,
    row: int,
    column: int,
    nominal_value: int,
    poisoned_columns: set[int],
) -> int:
    """The logic value a row actually senses through one active crosspoint."""
    if column in poisoned_columns:
        return 0
    if array is None:
        return nominal_value
    mode = array.mode(row, column)
    if mode == DeviceMode.STUCK_OPEN:
        return 1
    if mode == DeviceMode.STUCK_CLOSED:
        return 0
    return nominal_value


def _nand(values: list[int]) -> int:
    """NAND of a list of bits (NAND of nothing is defined as 1)."""
    if not values:
        return 1
    return 0 if all(values) else 1


def _input_column_value(
    role, assignment: Sequence[int]
) -> int:
    value = 1 if assignment[role.index] else 0
    return value if role.polarity else 1 - value


def evaluate_two_level(
    layout: CrossbarLayout,
    assignment: Sequence[int] | Sequence[bool],
    *,
    array: CrossbarArray | None = None,
) -> SimulationResult:
    """Evaluate a two-level layout (optionally on a defective array)."""
    _check_array(layout, array)
    num_inputs = len(layout.columns_of_kind(ColumnKind.INPUT)) // 2
    if len(assignment) != num_inputs:
        raise CrossbarError(
            f"assignment has {len(assignment)} bits, layout expects {num_inputs}"
        )
    poisoned_rows, poisoned_columns = _poisoned_lines(layout, array)

    # EVM: every product row computes the NAND of its input-latch devices.
    row_values: dict[int, int] = {}
    for row in range(layout.rows):
        role = layout.row_roles[row]
        if role.kind not in (RowKind.PRODUCT, RowKind.GATE):
            continue
        sensed: list[int] = []
        for column in layout.active_in_row(row):
            column_role = layout.column_roles[column]
            if column_role.kind != ColumnKind.INPUT:
                continue
            nominal = _input_column_value(column_role, assignment)
            sensed.append(
                _crosspoint_reads_value(
                    layout, array, row, column, nominal, poisoned_columns
                )
            )
        value = _nand(sensed)
        if row in poisoned_rows:
            value = 1
        row_values[row] = value

    # EVR + INR: output columns take the NAND of their connected rows.
    outputs, complements = _evaluate_output_columns(
        layout, array, row_values, poisoned_rows, poisoned_columns
    )
    return SimulationResult(
        outputs=outputs,
        complemented_outputs=complements,
        row_values=row_values,
        poisoned_rows=poisoned_rows,
        poisoned_columns=poisoned_columns,
    )


def evaluate_multi_level(
    layout: CrossbarLayout,
    assignment: Sequence[int] | Sequence[bool],
    *,
    array: CrossbarArray | None = None,
) -> SimulationResult:
    """Evaluate a multi-level layout gate-by-gate (EVM/CR loop)."""
    _check_array(layout, array)
    num_inputs = len(layout.columns_of_kind(ColumnKind.INPUT)) // 2
    if len(assignment) != num_inputs:
        raise CrossbarError(
            f"assignment has {len(assignment)} bits, layout expects {num_inputs}"
        )
    poisoned_rows, poisoned_columns = _poisoned_lines(layout, array)

    connection_column_of_gate = {
        layout.column_roles[column].index: column
        for column in layout.columns_of_kind(ColumnKind.CONNECTION)
    }
    connection_values: dict[int, int] = {}
    row_values: dict[int, int] = {}

    gate_rows = [
        row
        for row in range(layout.rows)
        if layout.row_roles[row].kind == RowKind.GATE
    ]
    for row in gate_rows:
        gate_id = layout.row_roles[row].index
        own_connection = connection_column_of_gate.get(gate_id)
        sensed: list[int] = []
        for column in layout.active_in_row(row):
            column_role = layout.column_roles[column]
            if column_role.kind == ColumnKind.OUTPUT:
                continue
            if column == own_connection:
                continue  # The copy target, not a fan-in.
            if column_role.kind == ColumnKind.INPUT:
                nominal = _input_column_value(column_role, assignment)
            else:  # Connection column of an earlier gate.
                nominal = connection_values.get(column_role.index, 1)
            sensed.append(
                _crosspoint_reads_value(
                    layout, array, row, column, nominal, poisoned_columns
                )
            )
        value = _nand(sensed)
        if row in poisoned_rows:
            value = 1
        row_values[row] = value
        # CR phase: copy the result into the gate's own connection column.
        if own_connection is not None:
            copied = _crosspoint_reads_value(
                layout, array, row, own_connection, value, poisoned_columns
            )
            if own_connection in poisoned_columns:
                copied = 0
            connection_values[gate_id] = copied

    outputs, complements = _evaluate_output_columns(
        layout, array, row_values, poisoned_rows, poisoned_columns
    )
    return SimulationResult(
        outputs=outputs,
        complemented_outputs=complements,
        row_values=row_values,
        connection_values=connection_values,
        poisoned_rows=poisoned_rows,
        poisoned_columns=poisoned_columns,
    )


def _evaluate_output_columns(
    layout: CrossbarLayout,
    array: CrossbarArray | None,
    row_values: dict[int, int],
    poisoned_rows: set[int],
    poisoned_columns: set[int],
) -> tuple[list[int], list[int]]:
    output_indices = sorted(
        {
            layout.column_roles[column].index
            for column in layout.columns_of_kind(ColumnKind.OUTPUT)
        }
    )
    outputs: list[int] = []
    complements: list[int] = []
    for output in output_indices:
        positive_column = layout.column_index(ColumnKind.OUTPUT, output, True)
        negative_column = layout.column_index(ColumnKind.OUTPUT, output, False)
        positive_drivers = [
            row
            for row in layout.active_in_column(positive_column)
            if row in row_values
        ]
        negative_drivers = [
            row
            for row in layout.active_in_column(negative_column)
            if row in row_values
        ]
        if positive_drivers:
            sensed = [
                _crosspoint_reads_value(
                    layout,
                    array,
                    row,
                    positive_column,
                    row_values[row],
                    poisoned_columns,
                )
                for row in positive_drivers
            ]
            value = _nand(sensed)
            if positive_column in poisoned_columns:
                value = 0
        elif negative_drivers:
            sensed = [
                _crosspoint_reads_value(
                    layout,
                    array,
                    row,
                    negative_column,
                    row_values[row],
                    poisoned_columns,
                )
                for row in negative_drivers
            ]
            complement_value = _nand(sensed)
            if negative_column in poisoned_columns:
                complement_value = 0
            value = 1 - complement_value
        else:
            value = 0
        outputs.append(value)
        complements.append(1 - value)
    return outputs, complements


# ----------------------------------------------------------------------
# Batched two-level evaluation: the whole assignment batch in one
# vectorized pass over an (assignments × rows × columns) view.
# ----------------------------------------------------------------------
def evaluate_two_level_batch(
    layout: CrossbarLayout,
    assignments,
    *,
    array: CrossbarArray | None = None,
) -> np.ndarray:
    """Evaluate a two-level layout on a whole batch of assignments.

    ``assignments`` is an ``(A, num_inputs)`` array-like of bits; the
    return value is the ``(A, num_outputs)`` uint8 matrix of ``f``
    values, row-for-row identical to calling :func:`evaluate_two_level`
    on each assignment (the differential tests pin the two together).
    Defect awareness matches the scalar path exactly: stuck-open devices
    read 1, stuck-closed devices read 0 and poison their whole row and
    column, and a poisoned output column is forced to 0.
    """
    _check_array(layout, array)
    batch = np.asarray(assignments, dtype=np.uint8)
    if batch.ndim == 1:
        batch = batch[None, :]
    num_inputs = len(layout.columns_of_kind(ColumnKind.INPUT)) // 2
    if batch.shape[1] != num_inputs:
        raise CrossbarError(
            f"assignments have {batch.shape[1]} bits, layout expects "
            f"{num_inputs}"
        )
    num_rows, num_columns = layout.rows, layout.columns
    num_samples = batch.shape[0]

    active = np.zeros((num_rows, num_columns), dtype=bool)
    if layout.active_crosspoints:
        rows, columns = zip(*layout.active_crosspoints)
        active[list(rows), list(columns)] = True

    stuck_open = np.zeros((num_rows, num_columns), dtype=bool)
    stuck_closed = np.zeros((num_rows, num_columns), dtype=bool)
    poisoned_column = np.zeros(num_columns, dtype=bool)
    poisoned_row = np.zeros(num_rows, dtype=bool)
    if array is not None:
        for row, column, mode in array.defect_positions():
            if mode == DeviceMode.STUCK_CLOSED:
                if row < num_rows:
                    poisoned_row[row] = True
                if column < num_columns:
                    poisoned_column[column] = True
            if row < num_rows and column < num_columns:
                if mode == DeviceMode.STUCK_OPEN:
                    stuck_open[row, column] = True
                elif mode == DeviceMode.STUCK_CLOSED:
                    stuck_closed[row, column] = True

    # Nominal input-column values for the whole batch.
    input_columns = layout.columns_of_kind(ColumnKind.INPUT)
    column_values = np.zeros((num_samples, num_columns), dtype=np.uint8)
    for column in input_columns:
        role = layout.column_roles[column]
        value = batch[:, role.index]
        column_values[:, column] = value if role.polarity else 1 - value

    # EVM: every product/gate row NANDs its active input-latch devices.
    is_input_column = np.zeros(num_columns, dtype=bool)
    is_input_column[input_columns] = True
    sensed = active & is_input_column[None, :]
    static_zero = sensed & (poisoned_column[None, :] | stuck_closed)
    nominal = sensed & ~static_zero & ~stuck_open
    has_device = sensed.any(axis=1)
    row_forced_one = static_zero.any(axis=1)
    nominal_counts = nominal.sum(axis=1, dtype=np.int64)
    ones_read = column_values.astype(np.int64) @ nominal.T.astype(np.int64)
    all_ones = ones_read == nominal_counts[None, :]
    row_values = np.where(
        ~has_device[None, :] | row_forced_one[None, :] | poisoned_row[None, :],
        np.uint8(1),
        (1 - all_ones).astype(np.uint8),
    )

    is_pg_row = np.array(
        [role.kind in (RowKind.PRODUCT, RowKind.GATE) for role in layout.row_roles]
    )

    # EVR + INR: output columns NAND their connected product rows.
    output_indices = sorted(
        {
            layout.column_roles[column].index
            for column in layout.columns_of_kind(ColumnKind.OUTPUT)
        }
    )
    outputs = np.zeros((num_samples, len(output_indices)), dtype=np.uint8)

    def column_nand(column: int) -> np.ndarray | None:
        """Batched NAND of the rows driving one output column."""
        drivers = [
            row for row in layout.active_in_column(column) if is_pg_row[row]
        ]
        if not drivers:
            return None
        drivers = np.array(drivers)
        driver_zero = poisoned_column[column] | stuck_closed[drivers, column]
        driver_nominal = ~driver_zero & ~stuck_open[drivers, column]
        all_one = (row_values[:, drivers[driver_nominal]] == 1).all(axis=1)
        if driver_zero.any():
            all_one[:] = False
        value = (1 - all_one).astype(np.uint8)
        if poisoned_column[column]:
            value[:] = 0
        return value

    for position, output in enumerate(output_indices):
        positive_column = layout.column_index(ColumnKind.OUTPUT, output, True)
        negative_column = layout.column_index(ColumnKind.OUTPUT, output, False)
        positive = column_nand(positive_column)
        if positive is not None:
            outputs[:, position] = positive
            continue
        complement = column_nand(negative_column)
        if complement is not None:
            outputs[:, position] = 1 - complement
        # else: no drivers at all — the column reads 0, already the default.
    return outputs


def verify_layout(
    layout: CrossbarLayout,
    reference,
    *,
    multi_level: bool = False,
    array: CrossbarArray | None = None,
    exhaustive_limit: int = 10,
    samples: int = 256,
    engine: str = "auto",
) -> bool:
    """Check a layout against a reference Boolean function.

    ``reference`` is a :class:`~repro.boolean.function.BooleanFunction`;
    evaluation is exhaustive for small input counts and sampled otherwise.
    ``engine`` is a :data:`repro.engines.ENGINES` name: ``"reference"``
    runs the scalar object walk, any other name the batched tensor
    evaluation of a two-level layout — both answer identically.  A
    multi-level layout has only the object walk: ``"auto"`` falls back
    to it, an explicit ``"compiled"`` or ``"vectorized"`` is an error.
    """
    from repro.boolean.truth_table import (
        verification_assignment_matrix,
        verification_assignments,
    )

    engine = canonical_engine(engine)
    if multi_level and engine in ("compiled", "vectorized"):
        raise CrossbarError(
            f"engine={engine!r} does not support multi-level layouts; use "
            "engine='auto' (falls back to the object walk) or 'reference'"
        )
    if engine != "reference" and not multi_level:
        batch = verification_assignment_matrix(
            reference.num_inputs,
            exhaustive_limit=exhaustive_limit,
            samples=samples,
        )
        from repro.boolean.packed import evaluate_function_batch

        simulated = evaluate_two_level_batch(layout, batch, array=array)
        expected = evaluate_function_batch(reference, batch)
        return bool((simulated == expected).all())

    evaluate = evaluate_multi_level if multi_level else evaluate_two_level
    for assignment in verification_assignments(
        reference.num_inputs, exhaustive_limit=exhaustive_limit, samples=samples
    ):
        result = evaluate(layout, assignment, array=array)
        expected = [1 if v else 0 for v in reference.evaluate(assignment)]
        if result.outputs != expected:
            return False
    return True
