"""The physical crossbar array: a grid of memristor devices.

The array knows nothing about logic functions — it is the fabric the
designs are programmed onto.  It supports the operations the CMOS
controller needs (initialising, programming device modes, writing and
reading logic values) plus defect bookkeeping: fabrication defects are
attached to the array, not to the design, so the same defective array can
be reused across many mapping attempts in the Monte-Carlo experiments.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.crossbar.device import (
    DeviceMode,
    DeviceParameters,
    Memristor,
)
from repro.exceptions import CrossbarError


class CrossbarArray:
    """A ``rows × columns`` grid of memristor crosspoints."""

    def __init__(
        self,
        rows: int,
        columns: int,
        *,
        parameters: DeviceParameters | None = None,
    ):
        if rows <= 0 or columns <= 0:
            raise CrossbarError("crossbar dimensions must be positive")
        self._rows = int(rows)
        self._columns = int(columns)
        self._parameters = parameters or DeviceParameters()
        self._devices = [
            [Memristor(self._parameters) for _ in range(self._columns)]
            for _ in range(self._rows)
        ]

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        """Number of horizontal lines."""
        return self._rows

    @property
    def columns(self) -> int:
        """Number of vertical lines."""
        return self._columns

    @property
    def area(self) -> int:
        """Number of crosspoints (the paper's area-cost unit)."""
        return self._rows * self._columns

    @property
    def parameters(self) -> DeviceParameters:
        """Electrical parameters shared by all devices."""
        return self._parameters

    def _check_position(self, row: int, column: int) -> None:
        if not (0 <= row < self._rows and 0 <= column < self._columns):
            raise CrossbarError(
                f"crosspoint ({row}, {column}) outside a "
                f"{self._rows}x{self._columns} array"
            )

    def device(self, row: int, column: int) -> Memristor:
        """The memristor at a crosspoint."""
        self._check_position(row, column)
        return self._devices[row][column]

    def positions(self) -> Iterator[tuple[int, int]]:
        """Iterate all crosspoint coordinates row-major."""
        for row in range(self._rows):
            for column in range(self._columns):
                yield row, column

    # ------------------------------------------------------------------
    # Programming and defects
    # ------------------------------------------------------------------
    def mode(self, row: int, column: int) -> DeviceMode:
        """Programming/defect mode of a crosspoint."""
        return self.device(row, column).mode

    def inject_defect(self, row: int, column: int, mode: DeviceMode) -> None:
        """Attach a fabrication defect to a crosspoint.

        Overwrites any previous programming; injecting on top of another
        defect replaces it (useful for constructing worst-case patterns in
        tests).
        """
        if not mode.is_defective:
            raise CrossbarError(f"{mode} is not a defect mode")
        self._check_position(row, column)
        self._devices[row][column] = Memristor(self._parameters, mode=mode)

    def defect_positions(self) -> list[tuple[int, int, DeviceMode]]:
        """All defective crosspoints as ``(row, column, mode)``."""
        return [
            (row, column, self._devices[row][column].mode)
            for row, column in self.positions()
            if self._devices[row][column].mode.is_defective
        ]

    def functional_positions(self) -> list[tuple[int, int]]:
        """All non-defective crosspoints."""
        return [
            (row, column)
            for row, column in self.positions()
            if not self._devices[row][column].mode.is_defective
        ]

    def defect_count(self) -> int:
        """Number of defective crosspoints."""
        return len(self.defect_positions())

    def program_active(self, positions: Iterable[tuple[int, int]]) -> None:
        """Mark the given crosspoints ACTIVE and all others DISABLED.

        Defective crosspoints keep their defect mode — programming cannot
        repair silicon.
        """
        active = set(positions)
        for row, column in self.positions():
            device = self._devices[row][column]
            if device.mode.is_defective:
                continue
            device.mode = (
                DeviceMode.ACTIVE if (row, column) in active else DeviceMode.DISABLED
            )

    # ------------------------------------------------------------------
    # Logic-level access (used by the controller / simulator)
    # ------------------------------------------------------------------
    def initialize_all(self) -> None:
        """INA phase: RESET every device towards ``R_OFF`` (logic 1)."""
        for row, column in self.positions():
            self._devices[row][column].reset()

    def write_logic(self, row: int, column: int, value: int | bool) -> None:
        """Program a logic value into an (active) crosspoint."""
        self.device(row, column).write_logic(value)

    def read_logic(self, row: int, column: int) -> int:
        """Read the Snider logic value stored at a crosspoint."""
        return self.device(row, column).logic_value

    def row_logic_values(self, row: int, columns: Iterable[int]) -> list[int]:
        """Logic values along one horizontal line at selected columns."""
        return [self.read_logic(row, column) for column in columns]

    def logic_snapshot(self) -> list[list[int]]:
        """Logic value of every crosspoint (row-major nested lists)."""
        return [
            [self._devices[row][column].logic_value for column in range(self._columns)]
            for row in range(self._rows)
        ]

    def mode_snapshot(self) -> list[list[DeviceMode]]:
        """Mode of every crosspoint (row-major nested lists)."""
        return [
            [self._devices[row][column].mode for column in range(self._columns)]
            for row in range(self._rows)
        ]

    def count_mode(self, mode: DeviceMode) -> int:
        """Number of crosspoints currently in ``mode``."""
        return sum(
            1
            for row, column in self.positions()
            if self._devices[row][column].mode == mode
        )

    def __repr__(self) -> str:
        return (
            f"CrossbarArray({self._rows}x{self._columns}, "
            f"defects={self.defect_count()})"
        )
