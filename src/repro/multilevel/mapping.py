"""Per-stage defect-tolerant mapping of one staged design.

One multi-level sample is mapped stage by stage in evaluation order:
every stage's requirement rows are placed onto its physical row bank by
an unmodified two-level mapper, and the network survives iff **every**
stage maps (and validates).  The walk stops at the first non-surviving
stage.  It is :func:`~repro.mapping.validate.map_banks`, the walk the
Monte-Carlo chunk runner of :mod:`repro.experiments.monte_carlo` makes
over a sample's row banks and replays over the batched engines'
per-bank arrays, so backtrack counts agree sample for sample between
the engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.defects.defect_map import DefectMap
from repro.exceptions import MappingError
from repro.mapping.crossbar_matrix import CrossbarMatrix
from repro.mapping.result import MappingResult
from repro.mapping.validate import map_banks
from repro.multilevel.staging import MultiLevelStagePlan


@dataclass
class StageMappingOutcome:
    """One stage's mapping attempt within a multi-level sample."""

    stage_label: str
    #: Physical row bank ``[lo, hi)`` the stage was mapped against.
    bank: tuple[int, int]
    result: MappingResult
    #: False when the mapper succeeded but validation rejected it.
    valid: bool = True

    @property
    def survived(self) -> bool:
        """True when the stage mapped successfully and validated."""
        return self.result.success and self.valid

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "stage_label": self.stage_label,
            "bank": list(self.bank),
            "valid": self.valid,
            "result": self.result.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StageMappingOutcome":
        """Rebuild an outcome serialized by :meth:`to_dict`."""
        return cls(
            stage_label=payload["stage_label"],
            bank=tuple(payload["bank"]),
            valid=payload.get("valid", True),
            result=MappingResult.from_dict(payload["result"]),
        )


@dataclass
class MultiLevelMappingResult:
    """Whole-network outcome of one per-stage mapping walk.

    ``stages`` holds the attempted stages in evaluation order; the walk
    stops at the first failing (or invalid) stage, so a failed result
    may cover fewer stages than the plan has.
    """

    success: bool
    stages: list[StageMappingOutcome] = field(default_factory=list)
    failure_stage: str | None = None
    failure_reason: str | None = None

    @property
    def total_backtracks(self) -> int:
        """Backtracks summed over the attempted stages."""
        return sum(s.result.statistics.backtracks for s in self.stages)

    @property
    def runtime_seconds(self) -> float:
        """Mapper wall-clock summed over the attempted stages."""
        return sum(s.result.runtime_seconds for s in self.stages)

    def stage(self, label: str) -> StageMappingOutcome:
        """The attempted stage with a given label."""
        for outcome in self.stages:
            if outcome.stage_label == label:
                return outcome
        raise MappingError(
            f"no stage {label!r} was attempted; this walk covered "
            f"{[s.stage_label for s in self.stages]}"
        )

    def summary(self) -> str:
        """One-line human-readable rendering."""
        if self.success:
            return (
                f"mapped {len(self.stages)} stages "
                f"({self.total_backtracks} backtracks)"
            )
        return (
            f"failed at stage {self.failure_stage!r} after "
            f"{len(self.stages)} attempts: {self.failure_reason}"
        )

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "success": self.success,
            "failure_stage": self.failure_stage,
            "failure_reason": self.failure_reason,
            "stages": [s.to_dict() for s in self.stages],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MultiLevelMappingResult":
        """Rebuild a result serialized by :meth:`to_dict`."""
        return cls(
            success=payload["success"],
            failure_stage=payload.get("failure_stage"),
            failure_reason=payload.get("failure_reason"),
            stages=[
                StageMappingOutcome.from_dict(entry)
                for entry in payload.get("stages", [])
            ],
        )


def map_multilevel(
    plan: MultiLevelStagePlan,
    mapper,
    defect_map: DefectMap,
    *,
    extra_rows: int = 0,
) -> MultiLevelMappingResult:
    """Map one staged design onto one (repaired) physical defect map.

    ``defect_map`` must already cover exactly the plan's column width —
    spare-column repair, when any, happens on the full array *before*
    this call because every bank shares the vertical lines.  Its height
    must equal :meth:`MultiLevelStagePlan.physical_rows` for the given
    per-bank ``extra_rows``.
    """
    if defect_map.columns != plan.num_columns:
        raise MappingError(
            f"defect map has {defect_map.columns} columns but the plan "
            f"needs exactly {plan.num_columns} (repair spares first)"
        )
    expected_rows = plan.physical_rows(extra_rows)
    if defect_map.rows != expected_rows:
        raise MappingError(
            f"defect map has {defect_map.rows} rows but {plan.num_stages} "
            f"banks with {extra_rows} spare rows each need {expected_rows}"
        )

    bounds = plan.bank_bounds(extra_rows)
    attempts = map_banks(
        mapper,
        (
            (stage.matrix, CrossbarMatrix(defect_map.restricted_to_rows(lo, hi)))
            for stage, (lo, hi) in zip(plan.stages, bounds)
        ),
    )
    stages = [
        StageMappingOutcome(
            stage_label=stage.label, bank=bank, result=result, valid=valid
        )
        for stage, bank, (result, valid) in zip(plan.stages, bounds, attempts)
    ]
    last = stages[-1]
    if last.survived:
        return MultiLevelMappingResult(success=True, stages=stages)
    return MultiLevelMappingResult(
        success=False,
        stages=stages,
        failure_stage=last.stage_label,
        failure_reason=(
            last.result.failure_reason
            if not last.result.success
            else "mapping failed matrix-level validation"
        ),
    )
