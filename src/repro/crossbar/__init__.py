"""Memristive crossbar substrate: devices, arrays, designs and simulation.

Implements the architecture of §II–III of the paper: the Snider-logic
memristor device model, the crossbar array fabric, two-level (NAND–AND
plane) and multi-level (connection-column) designs, the phase state
machines of Figs. 2(b)/4(b), a behavioural simulator that is defect-aware,
and the area/inclusion-ratio metrics used throughout the evaluation.
"""

from repro.crossbar.array import CrossbarArray
from repro.crossbar.controller import CrossbarController, PhaseTrace
from repro.crossbar.device import (
    DeviceMode,
    DeviceParameters,
    LOGIC_OF_STATE,
    Memristor,
    ResistiveState,
    STATE_OF_LOGIC,
)
from repro.crossbar.layout import (
    ColumnKind,
    ColumnRole,
    CrossbarLayout,
    RowKind,
    RowRole,
)
from repro.crossbar.metrics import (
    DualSelection,
    choose_dual,
    inclusion_ratio,
    two_level_area_of,
)
from repro.crossbar.multi_level import MultiLevelDesign, OutputTap
from repro.crossbar.simulator import (
    SimulationResult,
    evaluate_multi_level,
    evaluate_two_level,
    evaluate_two_level_batch,
    verify_layout,
)
from repro.crossbar.states import (
    MULTI_LEVEL_TRANSITIONS,
    Phase,
    PhaseStateMachine,
    TWO_LEVEL_SEQUENCE,
    TWO_LEVEL_TRANSITIONS,
    multi_level_sequence,
)
from repro.crossbar.two_level import (
    TwoLevelAreaReport,
    TwoLevelDesign,
    two_level_area_cost,
    two_level_area_cost_batch,
)

__all__ = [
    "Memristor",
    "DeviceMode",
    "DeviceParameters",
    "ResistiveState",
    "LOGIC_OF_STATE",
    "STATE_OF_LOGIC",
    "CrossbarArray",
    "CrossbarLayout",
    "ColumnKind",
    "ColumnRole",
    "RowKind",
    "RowRole",
    "TwoLevelDesign",
    "TwoLevelAreaReport",
    "two_level_area_cost",
    "two_level_area_cost_batch",
    "MultiLevelDesign",
    "OutputTap",
    "Phase",
    "PhaseStateMachine",
    "TWO_LEVEL_SEQUENCE",
    "TWO_LEVEL_TRANSITIONS",
    "MULTI_LEVEL_TRANSITIONS",
    "multi_level_sequence",
    "CrossbarController",
    "PhaseTrace",
    "SimulationResult",
    "evaluate_two_level",
    "evaluate_two_level_batch",
    "evaluate_multi_level",
    "verify_layout",
    "DualSelection",
    "choose_dual",
    "two_level_area_of",
    "inclusion_ratio",
]
