"""repro.api — the unified public face of the reproduction.

Three pieces compose into one discoverable surface:

* the fluent :class:`Design` pipeline
  (``Design.from_benchmark("misex1").minimize().choose_dual()
  .map(defects=0.10).evaluate()``) in :mod:`repro.api.pipeline`;
* the pluggable mapper registry (:func:`register_mapper`,
  :func:`list_mappers`, :func:`create_mapper`) in
  :mod:`repro.api.registry` and its defect-model counterpart
  (:func:`register_defect_model`, :class:`DefectModel`) in
  :mod:`repro.api.defect_models`;
* the declarative scenario layer — serializable :class:`Scenario` /
  :class:`ScenarioSuite` specs (:mod:`repro.api.scenarios`), the
  unified :func:`run_scenario` / :func:`run_suite` runner
  (:mod:`repro.api.runner`) and the content-hash-keyed JSONL
  :class:`ArtifactStore` cache (:mod:`repro.api.artifacts`) behind
  ``python -m repro run``;
* the parallel batch engine (:class:`BatchRunner`) and the
  collision-free seed streams (:func:`derive_seed`) in
  :mod:`repro.api.batch` / :mod:`repro.api.seeding` that power
  ``run_mapping_monte_carlo(..., workers=N)``.

Attributes are resolved lazily (PEP 562) so that low-level packages —
``repro.defects``, ``repro.experiments`` — can import the submodule they
need (``repro.api.seeding``, ``repro.api.registry``) without dragging in
the pipeline layer built on top of them.
"""

from __future__ import annotations

_EXPORTS = {
    # pipeline
    "Design": "repro.api.pipeline",
    "MappedDesign": "repro.api.pipeline",
    "MultiLevelMappedDesign": "repro.api.pipeline",
    # multi-level staging
    "MultiLevelMappingResult": "repro.multilevel",
    "MultiLevelStagePlan": "repro.multilevel",
    "build_stage_plan": "repro.multilevel",
    "map_multilevel": "repro.multilevel",
    "normalize_multilevel_spec": "repro.multilevel",
    "stage_plan_for": "repro.multilevel",
    # registry
    "Mapper": "repro.api.registry",
    "MapperRegistry": "repro.api.registry",
    "default_registry": "repro.api.registry",
    "register_mapper": "repro.api.registry",
    "unregister_mapper": "repro.api.registry",
    "create_mapper": "repro.api.registry",
    "list_mappers": "repro.api.registry",
    "resolve_mappers": "repro.api.registry",
    # defect models
    "DefectModel": "repro.api.defect_models",
    "DefectModelRegistry": "repro.api.defect_models",
    "register_defect_model": "repro.api.defect_models",
    "unregister_defect_model": "repro.api.defect_models",
    "create_defect_model": "repro.api.defect_models",
    "list_defect_models": "repro.api.defect_models",
    "resolve_defect_model": "repro.api.defect_models",
    # scenarios
    "FunctionSource": "repro.api.scenarios",
    "Scenario": "repro.api.scenarios",
    "ScenarioSuite": "repro.api.scenarios",
    # runner + artifacts
    "ScenarioResult": "repro.api.runner",
    "SuiteResult": "repro.api.runner",
    "run_scenario": "repro.api.runner",
    "run_suite": "repro.api.runner",
    "ArtifactStore": "repro.api.artifacts",
    "ArtifactRecord": "repro.api.artifacts",
    # batch engine
    "BatchRunner": "repro.api.batch",
    "BatchPlan": "repro.api.batch",
    "auto_workers": "repro.api.batch",
    "chunk_ranges": "repro.api.batch",
    # seeding
    "derive_seed": "repro.api.seeding",
    # results
    "EvaluationResult": "repro.api.results",
    "function_to_dict": "repro.api.results",
    "function_from_dict": "repro.api.results",
    "defect_map_to_dict": "repro.api.results",
    "defect_map_from_dict": "repro.api.results",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
