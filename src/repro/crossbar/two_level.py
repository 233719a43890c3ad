"""Two-level (NAND–AND plane) crossbar designs (paper §II, Fig. 2/3).

A :class:`TwoLevelDesign` turns a multi-output Boolean function into a
crossbar layout:

* one horizontal line per shared product (the NAND plane row computes the
  *complement* of the product as a NAND of its literals);
* one horizontal line per output (the output-latch row);
* vertical lines: the input latch in both polarities (``x`` block then
  ``x̄`` block), then the ``f`` block and the ``f̄`` block — the same
  column order as the paper's Fig. 8 function matrix;
* each product row additionally carries one AND-plane device per output
  it drives, sitting in that output's ``f`` column.

The design's area is ``(P + O) · (2I + 2O)``, which reproduces the area
figures of the paper's Tables I and II (see the "Deviations" section
of ``docs/paper_map.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.boolean.function import BooleanFunction
from repro.crossbar.layout import (
    ColumnKind,
    ColumnRole,
    CrossbarLayout,
    RowKind,
    RowRole,
)
from repro.exceptions import CrossbarError


@dataclass(frozen=True)
class TwoLevelAreaReport:
    """Size breakdown of a two-level crossbar design."""

    rows: int
    columns: int
    product_rows: int
    output_rows: int
    input_columns: int
    output_columns: int
    active_devices: int

    @property
    def area(self) -> int:
        """Total crossbar area (rows × columns)."""
        return self.rows * self.columns

    @property
    def inclusion_ratio(self) -> float:
        """Used memristors / area (the paper's IR)."""
        if self.area == 0:
            return 0.0
        return self.active_devices / self.area


def two_level_area_cost(
    num_inputs: int, num_outputs: int, num_products: int, *, extra_rows: int = 0
) -> int:
    """Closed-form two-level area: ``(P + O + extra) · (2I + 2O)``.

    ``extra_rows`` defaults to 0, which matches every benchmark entry of
    the paper's Tables I/II; the §II running example counts one extra
    bookkeeping row (see the "Deviations" section of
    ``docs/paper_map.md``).
    """
    if num_inputs < 0 or num_outputs < 0 or num_products < 0:
        raise CrossbarError("I, O and P must be non-negative")
    rows = num_products + num_outputs + extra_rows
    columns = 2 * num_inputs + 2 * num_outputs
    return rows * columns


def two_level_area_cost_batch(
    num_inputs: int, num_outputs: int, num_products, *, extra_rows: int = 0
):
    """Vectorized :func:`two_level_area_cost` over a product-count array.

    ``num_products`` is any array-like of per-sample product counts; the
    return value is the matching ``int64`` area array.  One broadcasted
    multiply replaces the per-sample calls of batched area studies.
    """
    import numpy as np

    products = np.asarray(num_products, dtype=np.int64)
    if num_inputs < 0 or num_outputs < 0 or (products.size and products.min() < 0):
        raise CrossbarError("I, O and P must be non-negative")
    rows = products + num_outputs + extra_rows
    return rows * (2 * num_inputs + 2 * num_outputs)


class TwoLevelDesign:
    """A Boolean function mapped onto the two-level crossbar architecture."""

    def __init__(self, function: BooleanFunction, *, extra_rows: int = 0):
        if function.num_products == 0:
            raise CrossbarError(
                "cannot build a two-level design for a function with no products"
            )
        self._function = function
        self._extra_rows = int(extra_rows)
        self._layout = self._build_layout()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_layout(self) -> CrossbarLayout:
        function = self._function
        num_inputs = function.num_inputs
        num_outputs = function.num_outputs

        column_roles: list[ColumnRole] = []
        column_roles.extend(
            ColumnRole(ColumnKind.INPUT, i, True) for i in range(num_inputs)
        )
        column_roles.extend(
            ColumnRole(ColumnKind.INPUT, i, False) for i in range(num_inputs)
        )
        column_roles.extend(
            ColumnRole(ColumnKind.OUTPUT, o, True) for o in range(num_outputs)
        )
        column_roles.extend(
            ColumnRole(ColumnKind.OUTPUT, o, False) for o in range(num_outputs)
        )

        row_roles: list[RowRole] = []
        row_roles.extend(
            RowRole(RowKind.PRODUCT, p) for p in range(function.num_products)
        )
        row_roles.extend(RowRole(RowKind.OUTPUT, o) for o in range(num_outputs))
        row_roles.extend(
            RowRole(RowKind.OUTPUT, -1) for _ in range(self._extra_rows)
        )

        positive_input_column = {i: i for i in range(num_inputs)}
        negative_input_column = {i: num_inputs + i for i in range(num_inputs)}
        positive_output_column = {
            o: 2 * num_inputs + o for o in range(num_outputs)
        }
        negative_output_column = {
            o: 2 * num_inputs + num_outputs + o for o in range(num_outputs)
        }

        active: set[tuple[int, int]] = set()
        for row, product in enumerate(function.products):
            for index, polarity in product.cube.literals():
                column = (
                    positive_input_column[index]
                    if polarity
                    else negative_input_column[index]
                )
                active.add((row, column))
            for output in product.outputs:
                active.add((row, positive_output_column[output]))
        for output in range(num_outputs):
            output_row = function.num_products + output
            active.add((output_row, positive_output_column[output]))
            active.add((output_row, negative_output_column[output]))

        return CrossbarLayout(
            row_roles, column_roles, active, name=function.name or "two-level"
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def function(self) -> BooleanFunction:
        """The source Boolean function."""
        return self._function

    @property
    def layout(self) -> CrossbarLayout:
        """The crossbar programming plan."""
        return self._layout

    @property
    def area(self) -> int:
        """Crossbar area (rows × columns)."""
        return self._layout.area

    @property
    def inclusion_ratio(self) -> float:
        """Used memristors / area."""
        return self._layout.inclusion_ratio

    def area_report(self) -> TwoLevelAreaReport:
        """Detailed size breakdown."""
        function = self._function
        return TwoLevelAreaReport(
            rows=self._layout.rows,
            columns=self._layout.columns,
            product_rows=function.num_products,
            output_rows=function.num_outputs + self._extra_rows,
            input_columns=2 * function.num_inputs,
            output_columns=2 * function.num_outputs,
            active_devices=self._layout.active_count(),
        )

    def __repr__(self) -> str:
        return (
            f"TwoLevelDesign({self._function.name or '<anonymous>'}: "
            f"{self._layout.rows}x{self._layout.columns}, area={self.area}, "
            f"IR={self.inclusion_ratio:.2%})"
        )
