"""Defect model of the paper's §IV: stuck-at defects, maps and injection."""

from repro.defects.analysis import (
    CapacityReport,
    capacity_report,
    minimum_required_functional_fraction,
    naive_mapping_survives,
    naive_survival_probability,
)
from repro.defects.batch import DefectBatch, repair_spare_columns
from repro.defects.defect_map import DefectMap
from repro.defects.injection import (
    inject_clustered,
    inject_exact_count,
    inject_line_defects,
    inject_uniform,
)
from repro.defects.types import Defect, DefectProfile, DefectType, defect_type_from_mode

__all__ = [
    "DefectType",
    "Defect",
    "DefectProfile",
    "defect_type_from_mode",
    "DefectMap",
    "DefectBatch",
    "repair_spare_columns",
    "inject_uniform",
    "inject_exact_count",
    "inject_clustered",
    "inject_line_defects",
    "CapacityReport",
    "capacity_report",
    "naive_mapping_survives",
    "naive_survival_probability",
    "minimum_required_functional_fraction",
]
