"""Stage decomposition of a multi-level design for per-stage mapping.

The multi-level crossbar (paper §III) evaluates its NAND network one
gate row at a time, level by level, so the rows of one logic level form
a natural *stage*: the controller's row addressing stays local to a
level, and a mapping problem over one level's rows is much smaller than
one over the whole network (mapping cost grows superlinearly in rows).
The defect-tolerant multi-level pipeline therefore partitions the
physical array into contiguous per-stage **row banks** — one bank per
logic level plus one for the output latches — sharing every vertical
line, and maps each stage's requirement rows onto its own bank with the
unmodified two-level mappers.

Row permutation within a bank is free for the same reason it is free in
the two-level architecture: a gate's fan-in and connection devices live
in *columns* identified by role (input latch, connection, output), so
moving a gate row to another physical row moves its devices with it
without disturbing any other row.  Columns are shared across all banks,
which is why spare-*column* repair happens once on the full array while
spare rows are granted per bank.

A stage's requirement matrix is a genuine
:class:`~repro.mapping.function_matrix.FunctionMatrix`
(:class:`StageMatrix`), with **all** rows in the minterm block: gate
rows and output-latch rows are homogeneous row-placement problems, so
the hybrid mapper's heuristic matcher handles them all and its Munkres
output-assignment stage has nothing left to do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.boolean.function import BooleanFunction
from repro.crossbar.multi_level import MultiLevelDesign
from repro.exceptions import ExperimentError, MappingError
from repro.mapping.function_matrix import FunctionMatrix
from repro.synth.tech_map import STRATEGIES, MappingOptions, technology_map

#: Keys a multi-level spec may carry, with their defaults.
MULTILEVEL_SPEC_DEFAULTS = {
    "strategy": "best",
    "max_fanin": None,
    "share_gates": True,
}


def normalize_multilevel_spec(spec) -> dict:
    """Validate a multi-level spec and fill in the defaults.

    A spec is the JSON-safe dict carried by ``options["multilevel"]`` of
    a :class:`~repro.api.scenarios.Scenario` (or passed directly to
    ``run_mapping_monte_carlo(multilevel=...)``): ``strategy`` /
    ``max_fanin`` / ``share_gates``, all optional.  Raises
    :class:`~repro.exceptions.ExperimentError` on unknown keys or bad
    values so a typo fails at spec-construction time, not inside a pool
    worker.
    """
    if spec is None:
        spec = {}
    try:
        items = dict(spec)
    except (TypeError, ValueError):
        raise ExperimentError(
            f"a multi-level spec must be a mapping, got {spec!r}"
        ) from None
    unknown = sorted(set(items) - set(MULTILEVEL_SPEC_DEFAULTS))
    if unknown:
        raise ExperimentError(
            f"unknown multi-level spec keys {unknown}; expected a subset of "
            f"{sorted(MULTILEVEL_SPEC_DEFAULTS)}"
        )
    normalized = {**MULTILEVEL_SPEC_DEFAULTS, **items}
    if normalized["strategy"] not in STRATEGIES:
        raise ExperimentError(
            f"unknown multi-level strategy {normalized['strategy']!r}; "
            f"expected one of {STRATEGIES}"
        )
    max_fanin = normalized["max_fanin"]
    if max_fanin is not None:
        if not isinstance(max_fanin, int) or isinstance(max_fanin, bool):
            raise ExperimentError(
                f"max_fanin must be an integer or None, got {max_fanin!r}"
            )
        if max_fanin < 2:
            raise ExperimentError(f"max_fanin must be at least 2, got {max_fanin}")
    normalized["share_gates"] = bool(normalized["share_gates"])
    return normalized


class StageMatrix(FunctionMatrix):
    """The requirement matrix of one stage, as a first-class FM.

    Built from a row slice of the multi-level layout matrix rather than
    from a :class:`BooleanFunction`; every row sits in the minterm block
    (``num_output_rows == 0``) so the existing mappers treat the stage as
    a homogeneous row-placement problem.
    """

    def __init__(self, matrix: np.ndarray, *, label: str):
        matrix = np.ascontiguousarray(matrix, dtype=np.uint8)
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise MappingError(
                f"a stage matrix needs at least one row, got shape {matrix.shape}"
            )
        self._function = None
        self._cover = None
        self._cover_kwargs = {"name": label}
        self._layout = None
        self._matrix = matrix
        self._num_minterm_rows = int(matrix.shape[0])
        self._num_output_rows = 0

    @property
    def function(self) -> BooleanFunction:
        raise MappingError(
            "a StageMatrix has no backing BooleanFunction; it is a row "
            "slice of a multi-level layout"
        )


@dataclass(frozen=True, eq=False)
class Stage:
    """One stage of the plan: a logic level (or the output latches)."""

    index: int
    label: str
    #: Rows of the full layout matrix belonging to this stage (ascending).
    row_indices: tuple[int, ...]
    matrix: StageMatrix = field(repr=False)

    @property
    def num_rows(self) -> int:
        """Rows this stage must place (= its matrix's row count)."""
        return len(self.row_indices)


class MultiLevelStagePlan:
    """The per-stage decomposition of one :class:`MultiLevelDesign`.

    Stages are the network's logic levels in ascending order followed by
    one output-latch stage.  :meth:`bank_bounds` lays the stages out as
    contiguous physical row banks, each padded with ``extra_rows`` spare
    rows — the multi-level counterpart of the two-level redundancy
    parameter.
    """

    def __init__(self, design: MultiLevelDesign):
        self._design = design
        network = design.network
        layout_matrix = np.asarray(design.layout.to_matrix(), dtype=np.uint8)

        levels = network.levels()
        by_level: dict[int, list[int]] = {}
        for position, gate in enumerate(network.gates):
            by_level.setdefault(levels[gate.gate_id], []).append(position)

        stages: list[Stage] = []
        for level in sorted(by_level):
            rows = tuple(sorted(by_level[level]))
            stages.append(
                Stage(
                    index=len(stages),
                    label=f"level-{level}",
                    row_indices=rows,
                    matrix=StageMatrix(
                        layout_matrix[list(rows)], label=f"level-{level}"
                    ),
                )
            )
        gate_count = network.gate_count()
        output_rows = tuple(range(gate_count, gate_count + network.num_outputs))
        stages.append(
            Stage(
                index=len(stages),
                label="outputs",
                row_indices=output_rows,
                matrix=StageMatrix(
                    layout_matrix[list(output_rows)], label="outputs"
                ),
            )
        )
        self._stages = tuple(stages)
        self._num_columns = int(layout_matrix.shape[1])

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def design(self) -> MultiLevelDesign:
        """The staged multi-level design."""
        return self._design

    @property
    def network(self):
        """The underlying NAND network."""
        return self._design.network

    @property
    def stages(self) -> tuple[Stage, ...]:
        """All stages, evaluation order (levels ascending, outputs last)."""
        return self._stages

    @property
    def num_stages(self) -> int:
        """Number of stages (logic levels + the output-latch stage)."""
        return len(self._stages)

    @property
    def num_columns(self) -> int:
        """Shared column count of every stage (the full layout width)."""
        return self._num_columns

    @property
    def total_rows(self) -> int:
        """Rows over all stages without redundancy (= layout rows)."""
        return sum(stage.num_rows for stage in self._stages)

    def physical_rows(self, extra_rows: int = 0) -> int:
        """Physical array height with ``extra_rows`` spare rows per bank."""
        if extra_rows < 0:
            raise ExperimentError("extra_rows must be non-negative")
        return self.total_rows + extra_rows * self.num_stages

    def bank_bounds(self, extra_rows: int = 0) -> list[tuple[int, int]]:
        """Per-stage physical row banks ``[lo, hi)``, contiguous in order."""
        if extra_rows < 0:
            raise ExperimentError("extra_rows must be non-negative")
        bounds = []
        offset = 0
        for stage in self._stages:
            height = stage.num_rows + extra_rows
            bounds.append((offset, offset + height))
            offset += height
        return bounds

    def extra_rows_for(self, physical_rows: int) -> int:
        """Recover the per-bank spare-row count from a physical height."""
        spare_total = physical_rows - self.total_rows
        if spare_total < 0 or spare_total % self.num_stages:
            raise ExperimentError(
                f"{physical_rows} physical rows do not split into "
                f"{self.num_stages} banks over {self.total_rows} stage rows"
            )
        return spare_total // self.num_stages

    def describe(self) -> str:
        """One-line human-readable rendering of the stage structure."""
        parts = ", ".join(
            f"{stage.label}:{stage.num_rows}" for stage in self._stages
        )
        return (
            f"{self.num_stages} stages x {self.num_columns} columns "
            f"({parts})"
        )

    def __repr__(self) -> str:
        return f"MultiLevelStagePlan({self.describe()})"


def stage_plan_for(function: BooleanFunction, spec=None) -> MultiLevelStagePlan:
    """Technology-map a function and stage the resulting design.

    ``spec`` is a multi-level spec dict (see
    :func:`normalize_multilevel_spec`); the mapping is deterministic, so
    every Monte-Carlo chunk worker rebuilding the plan from the same
    ``(function, spec)`` pair stages identically.
    """
    spec = normalize_multilevel_spec(spec)
    options = MappingOptions(
        max_fanin=spec["max_fanin"],
        strategy=spec["strategy"],
        share_gates=spec["share_gates"],
    )
    network = technology_map(function, options=options)
    return MultiLevelStagePlan(MultiLevelDesign(network))
