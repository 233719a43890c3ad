"""Defect maps: the per-crossbar record of which crosspoints are broken.

A :class:`DefectMap` is the post-fabrication test result the mapper works
from — the paper calls its matrix form the *crossbar matrix* (CM).  The
map can be converted to and from a physical
:class:`~repro.crossbar.array.CrossbarArray`, rendered as the 0/1 matrix
used by the matching algorithms, and queried for the usable-line
book-keeping that stuck-closed defects require.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

import numpy as np

from repro.crossbar.array import CrossbarArray
from repro.defects.types import Defect, DefectType, defect_type_from_mode
from repro.exceptions import DefectError


class DefectMap:
    """Defect locations and kinds for a ``rows × columns`` crossbar."""

    def __init__(
        self,
        rows: int,
        columns: int,
        defects: Iterable[Defect] | Mapping[tuple[int, int], DefectType] = (),
    ):
        if rows <= 0 or columns <= 0:
            raise DefectError("defect map dimensions must be positive")
        self._rows = int(rows)
        self._columns = int(columns)
        self._defects: dict[tuple[int, int], DefectType] = {}
        if isinstance(defects, Mapping):
            items: Iterable[Defect] = (
                Defect(row, column, kind)
                for (row, column), kind in defects.items()
            )
        else:
            items = defects
        for defect in items:
            self._add(defect)

    def _add(self, defect: Defect) -> None:
        if defect.row >= self._rows or defect.column >= self._columns:
            raise DefectError(
                f"defect at ({defect.row}, {defect.column}) outside a "
                f"{self._rows}x{self._columns} crossbar"
            )
        self._defects[(defect.row, defect.column)] = defect.kind

    # ------------------------------------------------------------------
    # Basic queries
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
        """Number of crosspoints."""
        return self._rows * self._columns

    def __len__(self) -> int:
        return len(self._defects)

    def __iter__(self) -> Iterator[Defect]:
        for (row, column), kind in sorted(self._defects.items()):
            yield Defect(row, column, kind)

    def defect_at(self, row: int, column: int) -> DefectType | None:
        """The defect at a crosspoint, or ``None`` when it is functional."""
        return self._defects.get((row, column))

    def is_functional(self, row: int, column: int) -> bool:
        """True when the crosspoint carries no defect."""
        return (row, column) not in self._defects

    def defect_count(self, kind: DefectType | None = None) -> int:
        """Number of defects, optionally restricted to one kind."""
        if kind is None:
            return len(self._defects)
        return sum(1 for k in self._defects.values() if k == kind)

    def defect_rate(self) -> float:
        """Observed fraction of defective crosspoints."""
        return len(self._defects) / self.area

    # ------------------------------------------------------------------
    # Line-level analysis (stuck-closed poisoning)
    # ------------------------------------------------------------------
    def stuck_closed_rows(self) -> set[int]:
        """Rows containing at least one stuck-closed defect (unusable)."""
        return {
            row
            for (row, _), kind in self._defects.items()
            if kind == DefectType.STUCK_CLOSED
        }

    def stuck_closed_columns(self) -> set[int]:
        """Columns containing at least one stuck-closed defect (unusable)."""
        return {
            column
            for (_, column), kind in self._defects.items()
            if kind == DefectType.STUCK_CLOSED
        }

    def usable_rows(self) -> list[int]:
        """Rows not poisoned by stuck-closed defects."""
        poisoned = self.stuck_closed_rows()
        return [row for row in range(self._rows) if row not in poisoned]

    def usable_columns(self) -> list[int]:
        """Columns not poisoned by stuck-closed defects."""
        poisoned = self.stuck_closed_columns()
        return [column for column in range(self._columns) if column not in poisoned]

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def functional_matrix(self) -> list[list[int]]:
        """The paper's crossbar matrix: 1 = functional, 0 = defective.

        Both defect kinds appear as 0; rows and columns poisoned by
        stuck-closed defects additionally have to be excluded wholesale,
        which :class:`repro.mapping.crossbar_matrix.CrossbarMatrix`
        handles.
        """
        matrix = [[1] * self._columns for _ in range(self._rows)]
        for (row, column) in self._defects:
            matrix[row][column] = 0
        return matrix

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Array form for the batched kernel: no intermediate Python lists.

        Returns ``(functional, closed_rows, closed_columns)`` where
        ``functional`` is the uint8 crossbar matrix (1 = functional) and
        the two boolean vectors mark lines poisoned by stuck-closed
        defects.  Semantically identical to :meth:`functional_matrix` /
        :meth:`stuck_closed_rows` / :meth:`stuck_closed_columns`, but
        fills pre-allocated ndarrays directly so converting a whole
        Monte-Carlo chunk stays cheap.
        """
        functional = np.ones((self._rows, self._columns), dtype=np.uint8)
        closed_rows = np.zeros(self._rows, dtype=bool)
        closed_columns = np.zeros(self._columns, dtype=bool)
        for (row, column), kind in self._defects.items():
            functional[row, column] = 0
            if kind == DefectType.STUCK_CLOSED:
                closed_rows[row] = True
                closed_columns[column] = True
        return functional, closed_rows, closed_columns

    def apply_to_array(self, array: CrossbarArray) -> CrossbarArray:
        """Inject these defects into a physical array (in place)."""
        if array.rows < self._rows or array.columns < self._columns:
            raise DefectError("array is smaller than the defect map")
        for (row, column), kind in self._defects.items():
            array.inject_defect(row, column, kind.device_mode)
        return array

    def to_array(self) -> CrossbarArray:
        """Create a fresh array of the right size with these defects."""
        return self.apply_to_array(CrossbarArray(self._rows, self._columns))

    @classmethod
    def from_array(cls, array: CrossbarArray) -> "DefectMap":
        """Extract the defect map of a physical array."""
        defects = [
            Defect(row, column, defect_type_from_mode(mode))
            for row, column, mode in array.defect_positions()
        ]
        return cls(array.rows, array.columns, defects)

    def restricted_to_columns(self, columns: list[int]) -> "DefectMap":
        """A smaller map keeping only the given physical columns, in order.

        Used by the redundancy extension: when spare columns exist, the
        periphery can steer the design's logical columns onto any subset
        of functional vertical lines; the returned map renumbers the kept
        columns 0…len(columns)-1.
        """
        if not columns:
            raise DefectError("at least one column must be kept")
        position = {column: index for index, column in enumerate(columns)}
        if len(position) != len(columns):
            raise DefectError("duplicate column indices")
        for column in columns:
            if not 0 <= column < self._columns:
                raise DefectError(f"column {column} out of range")
        defects = [
            Defect(row, position[column], kind)
            for (row, column), kind in self._defects.items()
            if column in position
        ]
        return DefectMap(self._rows, len(columns), defects)

    def restricted_to_rows(self, start: int, stop: int) -> "DefectMap":
        """The map of the contiguous physical row bank ``[start, stop)``.

        The multi-level pipeline partitions one physical array into
        per-stage row banks sharing every vertical line; each stage is
        mapped against its own bank, so the returned map renumbers the
        kept rows 0…stop-start-1 and keeps all columns.  A bank spanning
        every row is this map itself (a two-level design's one bank).
        """
        if (start, stop) == (0, self._rows):
            return self
        if not 0 <= start < stop <= self._rows:
            raise DefectError(
                f"row bank [{start}, {stop}) outside a map of {self._rows} rows"
            )
        defects = [
            Defect(row - start, column, kind)
            for (row, column), kind in self._defects.items()
            if start <= row < stop
        ]
        return DefectMap(stop - start, self._columns, defects)

    def padded(self, extra_rows: int, extra_columns: int) -> "DefectMap":
        """A larger map with the same defects (for redundancy studies)."""
        if extra_rows < 0 or extra_columns < 0:
            raise DefectError("padding must be non-negative")
        return DefectMap(
            self._rows + extra_rows,
            self._columns + extra_columns,
            list(self),
        )

    def __repr__(self) -> str:
        return (
            f"DefectMap({self._rows}x{self._columns}, defects={len(self._defects)}, "
            f"rate={self.defect_rate():.1%})"
        )
