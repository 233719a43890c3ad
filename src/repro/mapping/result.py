"""Result objects returned by the defect-tolerant mapping algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import MappingError


@dataclass
class MappingStatistics:
    """Counters describing how hard the mapper had to work."""

    compatibility_checks: int = 0
    backtracks: int = 0
    assignment_size: tuple[int, int] | None = None
    matching_matrix_entries: int = 0

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "compatibility_checks": self.compatibility_checks,
            "backtracks": self.backtracks,
            "assignment_size": (
                list(self.assignment_size) if self.assignment_size else None
            ),
            "matching_matrix_entries": self.matching_matrix_entries,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MappingStatistics":
        """Rebuild statistics serialized by :meth:`to_dict`."""
        size = payload.get("assignment_size")
        return cls(
            compatibility_checks=payload.get("compatibility_checks", 0),
            backtracks=payload.get("backtracks", 0),
            assignment_size=tuple(size) if size else None,
            matching_matrix_entries=payload.get("matching_matrix_entries", 0),
        )


@dataclass
class MappingResult:
    """Outcome of one defect-tolerant mapping attempt.

    Attributes
    ----------
    success:
        True when a complete, defect-avoiding row assignment was found.
    algorithm:
        ``"hybrid"`` (HBA), ``"exact"`` (EA), ``"greedy"`` or
        ``"naive"`` — whichever mapper produced the result.
    row_assignment:
        Mapping from function-matrix row index (products first, then
        outputs) to the physical crossbar row hosting it; empty when the
        attempt failed.
    failure_reason:
        Human-readable reason when ``success`` is False.
    runtime_seconds:
        Wall-clock time of the mapping attempt.
    used_complement:
        True when the mapped implementation is the complemented circuit
        (the paper's dual optimisation).
    statistics:
        Work counters (backtracks, matrix sizes, …) for the ablation and
        runtime analyses.
    """

    success: bool
    algorithm: str
    row_assignment: dict[int, int] = field(default_factory=dict)
    failure_reason: str = ""
    runtime_seconds: float = 0.0
    used_complement: bool = False
    statistics: MappingStatistics = field(default_factory=MappingStatistics)

    def assignment_vector(self, num_rows: int) -> list[int]:
        """Physical row of every function-matrix row, as a dense list.

        Raises when the mapping is incomplete for the requested size.
        """
        if not self.success:
            raise MappingError("cannot materialise a failed mapping")
        missing = [row for row in range(num_rows) if row not in self.row_assignment]
        if missing:
            raise MappingError(f"mapping is missing rows {missing}")
        return [self.row_assignment[row] for row in range(num_rows)]

    def validate_injective(self) -> bool:
        """True when no two function rows share a physical row."""
        targets = list(self.row_assignment.values())
        return len(targets) == len(set(targets))

    def __bool__(self) -> bool:
        return self.success

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "OK" if self.success else f"FAIL ({self.failure_reason})"
        dual = " [dual]" if self.used_complement else ""
        return (
            f"{self.algorithm}: {status}{dual}, rows={len(self.row_assignment)}, "
            f"time={self.runtime_seconds * 1e3:.2f} ms, "
            f"backtracks={self.statistics.backtracks}"
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe representation.

        The row assignment is stored as sorted ``[function_row,
        crossbar_row]`` pairs because JSON object keys must be strings.
        """
        return {
            "success": self.success,
            "algorithm": self.algorithm,
            "row_assignment": sorted(
                [fm_row, cm_row] for fm_row, cm_row in self.row_assignment.items()
            ),
            "failure_reason": self.failure_reason,
            "runtime_seconds": self.runtime_seconds,
            "used_complement": self.used_complement,
            "statistics": self.statistics.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MappingResult":
        """Rebuild a result serialized by :meth:`to_dict`."""
        return cls(
            success=payload["success"],
            algorithm=payload["algorithm"],
            row_assignment={
                int(fm_row): int(cm_row)
                for fm_row, cm_row in payload.get("row_assignment", [])
            },
            failure_reason=payload.get("failure_reason", ""),
            runtime_seconds=payload.get("runtime_seconds", 0.0),
            used_complement=payload.get("used_complement", False),
            statistics=MappingStatistics.from_dict(payload.get("statistics", {})),
        )
