"""Tests for the multi-level pipeline subsystem (``repro.multilevel``).

Covers the stage decomposition, per-stage defect-tolerant mapping, the
Monte-Carlo integration (reference vs vectorized parity, worker/chunk
invariance, merge/serialization), the scenario/service/adaptive wiring,
the fluent ``Design.decompose().tech_map()`` pipeline, the trade-off
suite and the radial defect model.
"""

from __future__ import annotations

import pytest

from repro.api.defect_models import create_defect_model, list_defect_models
from repro.api.pipeline import Design, MultiLevelMappedDesign
from repro.api.runner import run_scenario
from repro.api.scenarios import FunctionSource, Scenario
from repro.boolean import BooleanFunction, Cover, function_from_expressions
from repro.circuits import get_benchmark
from repro.defects.defect_map import DefectMap
from repro.defects.injection import inject_radial, inject_uniform
from repro.defects.types import Defect, DefectType
from repro.exceptions import DefectError, ExperimentError, MappingError
from repro.experiments.monte_carlo import MonteCarloResult, run_mapping_monte_carlo
from repro.experiments.tradeoff import TradeoffResult, paper_suite, run_tradeoff
from repro.mapping.function_matrix import FunctionMatrix
from repro.mapping.hybrid import HybridMapper
from repro.multilevel import (
    MULTILEVEL_SPEC_DEFAULTS,
    MultiLevelMappingResult,
    map_multilevel,
    normalize_multilevel_spec,
    stage_plan_for,
)


@pytest.fixture(scope="module")
def rd53():
    return get_benchmark("rd53")


@pytest.fixture(scope="module")
def rd53_plan(rd53):
    return stage_plan_for(rd53, None)


def clean_map(rows: int, columns: int) -> DefectMap:
    return DefectMap(rows, columns)


def strip_runtimes(result: MonteCarloResult) -> dict:
    """The engine-invariant projection: drop wall-clock fields."""
    payload = result.to_dict()
    payload.pop("engine", None)
    payload.pop("elapsed_seconds", None)
    payload.pop("workers", None)
    for outcome in payload["outcomes"].values():
        outcome.pop("total_runtime")
    return payload


class TestSpecValidation:
    def test_none_fills_defaults(self):
        assert normalize_multilevel_spec(None) == MULTILEVEL_SPEC_DEFAULTS

    def test_partial_spec_keeps_defaults(self):
        spec = normalize_multilevel_spec({"strategy": "factored"})
        assert spec["strategy"] == "factored"
        assert spec["max_fanin"] is None
        assert spec["share_gates"] is True

    def test_unknown_key_rejected(self):
        with pytest.raises(ExperimentError) as error:
            normalize_multilevel_spec({"strategee": "best"})
        assert "strategee" in str(error.value)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ExperimentError):
            normalize_multilevel_spec({"strategy": "alien"})

    def test_non_mapping_rejected(self):
        with pytest.raises(ExperimentError):
            normalize_multilevel_spec(41)

    @pytest.mark.parametrize("bad", [True, 1, "3", 1.5])
    def test_bad_max_fanin_rejected(self, bad):
        with pytest.raises(ExperimentError):
            normalize_multilevel_spec({"max_fanin": bad})

    def test_max_fanin_two_accepted(self):
        assert normalize_multilevel_spec({"max_fanin": 2})["max_fanin"] == 2


class TestStagePlan:
    def test_rd53_structure(self, rd53_plan):
        labels = [stage.label for stage in rd53_plan.stages]
        assert labels[-1] == "outputs"
        assert labels[:-1] == [f"level-{i}" for i in range(1, len(labels))]
        assert rd53_plan.total_rows == sum(
            stage.num_rows for stage in rd53_plan.stages
        )
        assert rd53_plan.stages[-1].num_rows == rd53_plan.network.num_outputs

    def test_bank_bounds_contiguous(self, rd53_plan):
        for extra in (0, 2):
            bounds = rd53_plan.bank_bounds(extra)
            assert bounds[0][0] == 0
            assert bounds[-1][1] == rd53_plan.physical_rows(extra)
            for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                assert hi == lo

    def test_extra_rows_roundtrip(self, rd53_plan):
        for extra in (0, 1, 3):
            assert rd53_plan.extra_rows_for(rd53_plan.physical_rows(extra)) == extra
        with pytest.raises(ExperimentError):
            rd53_plan.extra_rows_for(rd53_plan.total_rows + 1)
        with pytest.raises(ExperimentError):
            rd53_plan.extra_rows_for(rd53_plan.total_rows - 1)

    def test_negative_extra_rows_rejected(self, rd53_plan):
        with pytest.raises(ExperimentError):
            rd53_plan.physical_rows(-1)
        with pytest.raises(ExperimentError):
            rd53_plan.bank_bounds(-1)

    def test_stage_matrices_slice_the_layout(self, rd53_plan):
        import numpy as np

        layout = np.asarray(rd53_plan.design.layout.to_matrix(), dtype=np.uint8)
        seen = []
        for stage in rd53_plan.stages:
            assert np.array_equal(
                stage.matrix.matrix, layout[list(stage.row_indices)]
            )
            seen.extend(stage.row_indices)
        assert sorted(seen) == list(range(layout.shape[0]))

    def test_stage_matrix_is_a_function_matrix(self, rd53_plan):
        matrix = rd53_plan.stages[0].matrix
        assert isinstance(matrix, FunctionMatrix)
        assert matrix.num_output_rows == 0
        with pytest.raises(MappingError):
            matrix.function

    def test_describe_mentions_every_stage(self, rd53_plan):
        text = rd53_plan.describe()
        for stage in rd53_plan.stages:
            assert f"{stage.label}:{stage.num_rows}" in text
        assert repr(rd53_plan).startswith("MultiLevelStagePlan(")

    def test_max_fanin_deepens_the_network(self, rd53):
        deep = stage_plan_for(rd53, {"max_fanin": 3})
        default = stage_plan_for(rd53, None)
        assert deep.num_stages > default.num_stages


class TestSynthEdgeCases:
    def test_single_gate_network(self):
        function = function_from_expressions(
            {"f": "a b"}, input_names=["a", "b"], name="andgate"
        )
        plan = stage_plan_for(function, None)
        assert [stage.label for stage in plan.stages] == ["level-1", "outputs"]
        assert plan.total_rows == 2

    def test_literal_driven_output(self):
        function = function_from_expressions(
            {"f": "a"}, input_names=["a"], name="buffer"
        )
        plan = stage_plan_for(function, None)
        assert plan.stages[-1].label == "outputs"
        assert plan.total_rows == plan.design.network.gate_count() + 1

    def test_constant_output(self):
        cover = Cover.from_strings(2, ["--"])  # tautology
        function = BooleanFunction.from_covers(
            {"f": cover}, input_names=["a", "b"], name="const1"
        )
        plan = stage_plan_for(function, None)
        assert plan.num_stages >= 2
        assert plan.stages[-1].num_rows == 1

    def test_fanout_taps_become_connection_columns(self):
        function = function_from_expressions(
            {"g": "a b + c", "h": "a b + ~c"},
            input_names=["a", "b", "c"],
            name="fanout",
        )
        plan = stage_plan_for(function, {"strategy": "factored"})
        report = Design(function).decompose(strategy="factored").tech_map()
        report = report.multilevel_area_report()
        assert report.connection_columns == len(plan.network.internal_gate_ids())
        assert report.rows == plan.total_rows
        assert report.columns == plan.num_columns

    def test_area_report_matches_plan_for_rd53(self, rd53, rd53_plan):
        from repro.synth.area import multilevel_area_report

        report = multilevel_area_report(rd53_plan.network)
        assert report.rows == rd53_plan.total_rows
        assert report.columns == rd53_plan.num_columns
        assert report.num_levels == rd53_plan.num_stages - 1


class TestMapMultilevel:
    def test_clean_array_maps_every_stage(self, rd53_plan):
        defect_map = clean_map(rd53_plan.physical_rows(0), rd53_plan.num_columns)
        result = map_multilevel(rd53_plan, HybridMapper(), defect_map)
        assert result.success
        assert len(result.stages) == rd53_plan.num_stages
        assert all(outcome.survived for outcome in result.stages)
        assert "mapped" in result.summary()
        assert result.stage("outputs").bank == rd53_plan.bank_bounds(0)[-1]

    def test_column_mismatch_rejected(self, rd53_plan):
        defect_map = clean_map(rd53_plan.physical_rows(0), rd53_plan.num_columns + 1)
        with pytest.raises(MappingError) as error:
            map_multilevel(rd53_plan, HybridMapper(), defect_map)
        assert "repair spares first" in str(error.value)

    def test_row_mismatch_rejected(self, rd53_plan):
        defect_map = clean_map(rd53_plan.physical_rows(0) + 1, rd53_plan.num_columns)
        with pytest.raises(MappingError):
            map_multilevel(rd53_plan, HybridMapper(), defect_map)

    def test_dead_bank_fails_at_that_stage(self, rd53_plan):
        # Kill one entire row of the single-row last logic level (no
        # spares), so that stage cannot map while earlier stages can.
        bounds = rd53_plan.bank_bounds(0)
        stage_index = rd53_plan.num_stages - 2  # last logic level
        lo, hi = bounds[stage_index]
        defects = [
            Defect(row, column, DefectType.STUCK_OPEN)
            for row in range(lo, hi)
            for column in range(rd53_plan.num_columns)
        ]
        defect_map = DefectMap(
            rd53_plan.physical_rows(0), rd53_plan.num_columns, defects
        )
        result = map_multilevel(rd53_plan, HybridMapper(), defect_map)
        assert not result.success
        assert result.failure_stage == rd53_plan.stages[stage_index].label
        # The walk stopped there: the outputs stage was never attempted.
        assert len(result.stages) == stage_index + 1
        with pytest.raises(MappingError):
            result.stage("outputs")

    def test_result_roundtrips_through_json(self, rd53_plan):
        defect_map = clean_map(rd53_plan.physical_rows(1), rd53_plan.num_columns)
        result = map_multilevel(
            rd53_plan, HybridMapper(), defect_map, extra_rows=1
        )
        clone = MultiLevelMappingResult.from_dict(result.to_dict())
        assert clone.success == result.success
        assert [s.stage_label for s in clone.stages] == [
            s.stage_label for s in result.stages
        ]
        assert clone.total_backtracks == result.total_backtracks


class TestMonteCarloMultilevel:
    SETTINGS = dict(
        defect_rate=0.10,
        sample_size=40,
        algorithms=("hybrid", "exact"),
        seed=5,
        extra_rows=1,
        extra_columns=2,
        multilevel={"strategy": "best"},
    )

    def test_engines_agree_sample_for_sample(self, rd53):
        reference = run_mapping_monte_carlo(
            rd53, engine="reference", workers=1, **self.SETTINGS
        )
        vectorized = run_mapping_monte_carlo(
            rd53, engine="vectorized", workers=1, **self.SETTINGS
        )
        assert strip_runtimes(reference) == strip_runtimes(vectorized)

    def test_worker_and_chunk_invariance(self, rd53):
        baseline = run_mapping_monte_carlo(
            rd53, engine="vectorized", workers=1, **self.SETTINGS
        )
        sharded = run_mapping_monte_carlo(
            rd53, engine="vectorized", workers=2, chunk_size=7, **self.SETTINGS
        )
        assert strip_runtimes(baseline) == strip_runtimes(sharded)

    def test_offset_merge_equals_single_run(self, rd53):
        settings = dict(self.SETTINGS)
        settings["sample_size"] = 30
        whole = run_mapping_monte_carlo(rd53, engine="vectorized", **settings)
        first = run_mapping_monte_carlo(
            rd53,
            engine="vectorized",
            **{**settings, "sample_size": 18},
        )
        second = run_mapping_monte_carlo(
            rd53,
            engine="vectorized",
            sample_offset=18,
            **{**settings, "sample_size": 12},
        )
        first.merge(second)
        assert strip_runtimes(first) == strip_runtimes(whole)

    def test_merge_rejects_mismatched_specs(self, rd53):
        multi = run_mapping_monte_carlo(
            rd53, sample_size=4, algorithms=("hybrid",), multilevel={}
        )
        flat = run_mapping_monte_carlo(
            rd53, sample_size=4, algorithms=("hybrid",)
        )
        with pytest.raises(ExperimentError):
            multi.merge(flat)

    def test_result_json_preserves_spec(self, rd53):
        result = run_mapping_monte_carlo(
            rd53, sample_size=4, algorithms=("hybrid",), multilevel={}
        )
        assert result.multilevel == MULTILEVEL_SPEC_DEFAULTS
        clone = MonteCarloResult.from_dict(result.to_dict())
        assert clone.multilevel == result.multilevel
        flat = run_mapping_monte_carlo(rd53, sample_size=4, algorithms=("hybrid",))
        assert "multilevel" not in flat.to_dict()

    def test_rate_extremes_behave(self, rd53):
        clean = run_mapping_monte_carlo(
            rd53, defect_rate=0.0, sample_size=4, algorithms=("hybrid",),
            multilevel={}, seed=1,
        )
        assert clean.outcomes["hybrid"].successes == 4
        hopeless = run_mapping_monte_carlo(
            rd53, defect_rate=0.95, sample_size=4, algorithms=("hybrid",),
            multilevel={}, seed=1,
        )
        assert hopeless.outcomes["hybrid"].successes == 0

    def test_opaque_mapper_uses_object_path(self, rd53):
        # A wrapper the kernel cannot recognise runs on the reference
        # walk even under a batched engine, over row banks cut from a
        # column-repaired sample; results must equal the reference
        # engine's whichever path ran.
        class Wrapped:
            def __init__(self):
                self._inner = HybridMapper()

            def map(self, function_matrix, crossbar_matrix):
                return self._inner.map(function_matrix, crossbar_matrix)

        settings = dict(
            sample_size=15,
            seed=9,
            extra_rows=1,
            extra_columns=2,
            multilevel={"strategy": "best"},
        )
        reference = run_mapping_monte_carlo(
            rd53, algorithms={"hybrid": HybridMapper()}, engine="reference",
            **settings,
        )
        native = run_mapping_monte_carlo(
            rd53, algorithms={"hybrid": HybridMapper()}, **settings
        )
        opaque = run_mapping_monte_carlo(
            rd53, algorithms={"hybrid": Wrapped()}, **settings
        )
        assert strip_runtimes(native) == strip_runtimes(reference)
        assert strip_runtimes(opaque) == strip_runtimes(reference)


class TestScenarioIntegration:
    def multilevel_scenario(self, **overrides) -> Scenario:
        settings = dict(
            name="ml-small",
            source=FunctionSource.benchmark("rd53"),
            mappers=("hybrid",),
            samples=12,
            seed=3,
            redundancy=((0, 0), (1, 1)),
            options={"multilevel": {"strategy": "best"}},
        )
        settings.update(overrides)
        return Scenario(**settings)

    def test_invalid_spec_fails_at_construction(self):
        with pytest.raises(ExperimentError):
            self.multilevel_scenario(options={"multilevel": {"strategy": "alien"}})

    def test_spec_only_valid_for_mapping_protocol(self):
        with pytest.raises(ExperimentError):
            self.multilevel_scenario(protocol="area", mappers=())

    def test_spec_accessor_normalizes(self):
        scenario = self.multilevel_scenario()
        assert scenario.multilevel_spec() == normalize_multilevel_spec(
            {"strategy": "best"}
        )
        flat = self.multilevel_scenario(options={})
        assert flat.multilevel_spec() is None

    def test_describe_mentions_multilevel(self):
        assert "multi-level (best)" in self.multilevel_scenario().describe()

    def test_scenario_roundtrip_keeps_options(self):
        scenario = self.multilevel_scenario()
        clone = Scenario.from_dict(scenario.to_dict())
        assert clone.multilevel_spec() == scenario.multilevel_spec()
        assert clone.content_hash() == scenario.content_hash()

    def test_runner_parity_across_engines(self):
        scenario = self.multilevel_scenario()
        vectorized = run_scenario(scenario, workers=1, engine="vectorized")
        reference = run_scenario(scenario, workers=1, engine="reference")
        assert vectorized.counting_statistics() == reference.counting_statistics()

    def test_adaptive_accepts_multilevel(self, rd53):
        from repro.analysis import run_adaptive_monte_carlo

        adaptive = run_adaptive_monte_carlo(
            rd53,
            tolerance=0.2,
            algorithms=("hybrid",),
            seed=2,
            max_samples=60,
            multilevel={"strategy": "best"},
        )
        interval = adaptive.estimate("hybrid")
        assert interval.samples > 0
        assert 0.0 <= interval.point <= 1.0


class TestServiceIntegration:
    def test_chunked_execution_matches_direct_run(self):
        from repro.service.jobs import (
            ChunkJob,
            execute_chunk,
            merge_mapping_chunks,
            plan_range_chunks,
        )

        scenario = Scenario(
            name="ml-svc",
            source=FunctionSource.benchmark("rd53"),
            mappers=("hybrid",),
            samples=18,
            seed=4,
            redundancy=((1, 1),),
            options={"multilevel": {"strategy": "best"}},
        )
        direct = run_scenario(scenario, workers=1).monte_carlo((1, 1))
        merged = {}
        for chunk_size in (5, 9):
            payloads = [
                execute_chunk(
                    ChunkJob(
                        spec_hash=scenario.content_hash(),
                        scenario_payload=scenario.to_dict(),
                        chunk=chunk,
                    )
                )
                for chunk in plan_range_chunks(0, 0, scenario.samples, chunk_size)
            ]
            merged[chunk_size] = merge_mapping_chunks(payloads)
        for result in merged.values():
            assert result.multilevel == scenario.multilevel_spec()
            assert strip_runtimes(result) == strip_runtimes(direct)


class TestDesignPipeline:
    def test_decompose_then_tech_map_stages(self):
        design = Design.from_benchmark("rd53").decompose().tech_map()
        assert design.is_staged
        plan = design.stage_plan()
        assert design.crossbar_shape == (plan.physical_rows(0), plan.num_columns)
        assert "stages:" in design.describe()

    def test_redundancy_is_per_bank(self):
        design = (
            Design.from_benchmark("rd53")
            .decompose()
            .tech_map()
            .with_redundancy(rows=1, columns=1)
        )
        plan = design.stage_plan()
        assert design.crossbar_shape == (
            plan.physical_rows(1),
            plan.num_columns + 1,
        )

    def test_decomposed_but_unstaged_guard(self):
        design = Design.from_benchmark("rd53").decompose()
        with pytest.raises(ExperimentError) as error:
            design.map(defects=0.0)
        assert "tech_map" in str(error.value)

    def test_tech_map_requires_decompose(self):
        with pytest.raises(ExperimentError):
            Design.from_benchmark("rd53").tech_map()

    def test_stage_plan_requires_staging(self):
        with pytest.raises(ExperimentError):
            Design.from_benchmark("rd53").stage_plan()

    def test_staged_map_returns_multilevel_result(self):
        design = Design.from_benchmark("rd53").decompose().tech_map()
        mapped = design.map(defects=0.0, seed=1)
        assert isinstance(mapped, MultiLevelMappedDesign)
        assert mapped.success
        assert bool(mapped)
        assert "mapped" in mapped.summary()

    def test_staged_snapshot_roundtrip(self):
        design = (
            Design.from_benchmark("rd53")
            .decompose()
            .tech_map()
            .with_redundancy(rows=1, columns=1)
        )
        mapped = design.map(defects=0.05, seed=3)
        clone = MultiLevelMappedDesign.from_dict(mapped.to_dict())
        assert clone.success == mapped.success
        assert clone.design.is_staged
        assert clone.design.multilevel == design.multilevel
        assert clone.result.to_dict() == mapped.result.to_dict()

    def test_staged_monte_carlo_carries_the_spec(self):
        design = Design.from_benchmark("rd53").decompose(strategy="best").tech_map()
        result = design.monte_carlo(sample_size=6, defect_rate=0.1, seed=2)
        assert result.multilevel == normalize_multilevel_spec({"strategy": "best"})

    def test_flat_monte_carlo_is_unstaged(self):
        result = Design.from_benchmark("rd53").monte_carlo(
            sample_size=4, defect_rate=0.1, seed=2
        )
        assert result.multilevel is None


class TestRadialDefectModel:
    def test_registered(self):
        assert "radial" in list_defect_models()

    def test_deterministic_per_seed(self):
        first = inject_radial(20, 20, 0.1, seed=7)
        second = inject_radial(20, 20, 0.1, seed=7)
        assert dict(
            ((d.row, d.column), d.kind) for d in first
        ) == dict(((d.row, d.column), d.kind) for d in second)
        assert inject_radial(20, 20, 0.1, seed=8).defect_rate() > 0.0

    def test_mean_rate_is_preserved(self):
        rates = [
            inject_radial(40, 40, 0.1, seed=seed).defect_rate()
            for seed in range(20)
        ]
        assert sum(rates) / len(rates) == pytest.approx(0.1, abs=0.01)

    def test_edge_is_more_defective_than_centre(self):
        rows = columns = 31
        edge = centre = 0
        for seed in range(40):
            defect_map = inject_radial(rows, columns, 0.15, seed=seed)
            for defect in defect_map:
                radius = max(
                    abs(defect.row - rows // 2), abs(defect.column - columns // 2)
                )
                if radius > rows // 3:
                    edge += 1
                elif radius < rows // 6:
                    centre += 1
        assert edge > centre

    def test_invalid_edge_factor_rejected(self):
        with pytest.raises(DefectError):
            create_defect_model("radial", rate=0.1, edge_factor=0.0)

    def test_model_runs_through_monte_carlo(self, rd53):
        model = create_defect_model("radial", rate=0.1, edge_factor=2.0)
        result = run_mapping_monte_carlo(
            rd53,
            sample_size=6,
            algorithms=("hybrid",),
            defect_model=model,
            multilevel={},
            seed=1,
        )
        assert result.outcomes["hybrid"].samples == 6

    def test_uniform_and_radial_differ(self):
        radial = inject_radial(30, 30, 0.1, seed=3)
        uniform = inject_uniform(30, 30, 0.1, seed=3)
        assert dict(
            ((d.row, d.column), d.kind) for d in radial
        ) != dict(((d.row, d.column), d.kind) for d in uniform)


class TestTradeoffSuite:
    def test_paper_suite_shape(self):
        suite = paper_suite()
        names = [scenario.name for scenario in suite]
        assert names == [
            "tradeoff-rd53-two-level",
            "tradeoff-rd53-multi-level",
            "tradeoff-misex1-two-level",
            "tradeoff-misex1-multi-level",
        ]
        for scenario in suite:
            is_multi = scenario.name.endswith("multi-level")
            assert (scenario.multilevel_spec() is not None) == is_multi

    def test_run_tradeoff_engine_parity(self):
        settings = dict(
            circuits=("rd53",),
            sample_size=8,
            redundancy=((0, 0),),
            seed=11,
            workers=1,
        )
        vectorized = run_tradeoff(engine="vectorized", **settings)
        reference = run_tradeoff(engine="reference", **settings)
        for a, b in zip(vectorized.points, reference.points):
            assert (a.circuit, a.variant, a.yield_point, a.samples) == (
                b.circuit,
                b.variant,
                b.yield_point,
                b.samples,
            )
        multi = vectorized.point("rd53", "multi-level")
        flat = vectorized.point("rd53", "two-level")
        assert multi.area != flat.area
        assert "trade-off" in vectorized.render()

    def test_missing_point_raises(self):
        result = TradeoffResult(
            defect_rate=0.1, sample_size=1, seed=0, strategy="best"
        )
        with pytest.raises(ExperimentError):
            result.point("rd53", "two-level")
