"""Multi-level pipeline subsystem: decompose → tech-map → per-stage mapping.

The package stages a technology-mapped NAND network
(:mod:`repro.synth`) realised as a multi-level crossbar
(:mod:`repro.crossbar.multi_level`) into per-level row banks and runs
the existing defect-tolerant mappers independently on each bank,
reporting whole-network survival.  It plugs into the Monte-Carlo
harness via the ``multilevel=`` spec of
:func:`repro.experiments.monte_carlo.run_mapping_monte_carlo`, whose
chunk runner maps a two-level design as one bank and a staged design as
one bank per stage, and into the fluent API via
``Design.decompose().tech_map()``.
"""

from repro.multilevel.mapping import (
    MultiLevelMappingResult,
    StageMappingOutcome,
    map_multilevel,
)
from repro.multilevel.staging import (
    MULTILEVEL_SPEC_DEFAULTS,
    MultiLevelStagePlan,
    Stage,
    StageMatrix,
    normalize_multilevel_spec,
    stage_plan_for,
)

__all__ = [
    "MULTILEVEL_SPEC_DEFAULTS",
    "MultiLevelMappingResult",
    "MultiLevelStagePlan",
    "Stage",
    "StageMappingOutcome",
    "StageMatrix",
    "map_multilevel",
    "normalize_multilevel_spec",
    "stage_plan_for",
]
