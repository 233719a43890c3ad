"""repro — Logic Synthesis and Defect Tolerance for Memristive Crossbar Arrays.

A from-scratch Python reproduction of Tunali & Altun, DATE 2018.  The
package is organised by substrate:

* :mod:`repro.boolean` — cubes, covers, multi-output functions,
  minimisation and complementation;
* :mod:`repro.synth` — NAND technology mapping (the ABC stand-in) used by
  the multi-level designs;
* :mod:`repro.crossbar` — memristor devices, crossbar arrays, two-level
  and multi-level designs, phase state machines and the behavioural
  simulator;
* :mod:`repro.defects` — the stuck-at defect model and defect injection;
* :mod:`repro.mapping` — the defect-tolerant mapping algorithms (hybrid
  HBA, exact EA) built on function/crossbar matrices and Munkres
  assignment;
* :mod:`repro.circuits` — benchmark circuits and PLA I/O;
* :mod:`repro.experiments` — harnesses regenerating every table and
  figure of the paper plus the future-work extensions;
* :mod:`repro.api` — the unified public face: the fluent
  :class:`~repro.api.pipeline.Design` pipeline
  (``Design.from_benchmark("misex1").minimize().choose_dual()
  .map(defects=0.10).evaluate()``), the pluggable mapper registry
  (:func:`~repro.api.registry.register_mapper`) and the parallel batch
  engine (:class:`~repro.api.batch.BatchRunner`) behind
  ``run_mapping_monte_carlo(..., workers=N)``.

* :mod:`repro.analysis` — the adaptive yield-analysis layer: binomial
  confidence intervals, the CI-driven adaptive sampler
  (``Design.yield_analysis()``, ``Scenario(tolerance=...)``), yield
  curves/surfaces with threshold solving, and the spare-allocation
  optimizer behind ``python -m repro analyze``.

The most common entry points are re-exported here.
"""

from repro.analysis import (
    AdaptiveResult,
    BinomialInterval,
    YieldCurve,
    YieldSurface,
    compute_yield_curve,
    compute_yield_surface,
    optimize_spares,
    run_adaptive_monte_carlo,
    wilson_interval,
    yield_estimate,
)
from repro.api.artifacts import ArtifactStore
from repro.api.batch import BatchRunner
from repro.api.defect_models import (
    DefectModel,
    create_defect_model,
    list_defect_models,
    register_defect_model,
)
from repro.api.pipeline import Design, MappedDesign, MultiLevelMappedDesign
from repro.api.registry import (
    Mapper,
    MapperRegistry,
    create_mapper,
    list_mappers,
    register_mapper,
)
from repro.api.results import EvaluationResult
from repro.api.runner import ScenarioResult, SuiteResult, run_scenario, run_suite
from repro.api.scenarios import FunctionSource, Scenario, ScenarioSuite
from repro.api.seeding import derive_seed
from repro.boolean import (
    BooleanFunction,
    Cover,
    Cube,
    PackedCover,
    PackedTruthTable,
    minimize_cover,
    parse_sop,
)
from repro.circuits import get_benchmark, list_benchmarks, parse_pla
from repro.crossbar import (
    CrossbarArray,
    CrossbarController,
    MultiLevelDesign,
    TwoLevelDesign,
    choose_dual,
    evaluate_multi_level,
    evaluate_two_level,
    evaluate_two_level_batch,
    two_level_area_cost,
    two_level_area_cost_batch,
    verify_layout,
)
from repro.defects import DefectMap, DefectProfile, DefectType, inject_uniform
from repro.exceptions import ReproError
from repro.experiments import (
    run_defect_sweep,
    run_figure6,
    run_mapping_monte_carlo,
    run_redundancy_analysis,
    run_table1,
    run_table2,
)
from repro.mapping import (
    CrossbarMatrix,
    ExactMapper,
    FunctionMatrix,
    HybridMapper,
    MappingResult,
    map_with_dual_selection,
    validate_both,
)
from repro.multilevel import (
    MultiLevelMappingResult,
    MultiLevelStagePlan,
    map_multilevel,
    stage_plan_for,
)
from repro.synth import NandNetwork, best_network, technology_map

__version__ = "1.2.0"

__all__ = [
    "__version__",
    "ReproError",
    "Design",
    "MappedDesign",
    "MultiLevelMappedDesign",
    "MultiLevelMappingResult",
    "MultiLevelStagePlan",
    "map_multilevel",
    "stage_plan_for",
    "EvaluationResult",
    "Mapper",
    "MapperRegistry",
    "register_mapper",
    "create_mapper",
    "list_mappers",
    "DefectModel",
    "register_defect_model",
    "create_defect_model",
    "list_defect_models",
    "FunctionSource",
    "Scenario",
    "ScenarioSuite",
    "ScenarioResult",
    "SuiteResult",
    "run_scenario",
    "run_suite",
    "ArtifactStore",
    "BatchRunner",
    "derive_seed",
    "Cube",
    "Cover",
    "PackedCover",
    "PackedTruthTable",
    "minimize_cover",
    "BooleanFunction",
    "parse_sop",
    "parse_pla",
    "TwoLevelDesign",
    "MultiLevelDesign",
    "CrossbarArray",
    "CrossbarController",
    "two_level_area_cost",
    "two_level_area_cost_batch",
    "choose_dual",
    "evaluate_two_level",
    "evaluate_two_level_batch",
    "evaluate_multi_level",
    "verify_layout",
    "NandNetwork",
    "technology_map",
    "best_network",
    "DefectType",
    "DefectProfile",
    "DefectMap",
    "inject_uniform",
    "FunctionMatrix",
    "CrossbarMatrix",
    "HybridMapper",
    "ExactMapper",
    "MappingResult",
    "map_with_dual_selection",
    "validate_both",
    "get_benchmark",
    "list_benchmarks",
    "run_figure6",
    "run_table1",
    "run_table2",
    "run_mapping_monte_carlo",
    "run_defect_sweep",
    "run_redundancy_analysis",
    "AdaptiveResult",
    "BinomialInterval",
    "YieldCurve",
    "YieldSurface",
    "compute_yield_curve",
    "compute_yield_surface",
    "optimize_spares",
    "run_adaptive_monte_carlo",
    "wilson_interval",
    "yield_estimate",
]
