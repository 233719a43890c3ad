"""Tests for the unified ``repro.api`` surface.

Covers the fluent Design pipeline end-to-end, the mapper registry
(registration, override, unknown-name errors), seed-stream derivation,
the BatchRunner determinism contract (``workers=1`` vs ``workers=2``),
the warm pool's lifetime and failure paths, and serialization
round-trips of every result object.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import (
    BatchRunner,
    Design,
    EvaluationResult,
    MappedDesign,
    derive_seed,
    list_mappers,
    register_mapper,
)
from repro.api import batch
from repro.api.batch import chunk_ranges, default_chunk_size, warm_pool
from repro.api.registry import (
    MapperRegistry,
    create_mapper,
    resolve_mappers,
    unregister_mapper,
)
from repro.api.results import (
    defect_map_from_dict,
    defect_map_to_dict,
    function_from_dict,
    function_to_dict,
)
from repro.circuits import get_benchmark
from repro.defects import DefectType, inject_uniform
from repro.exceptions import ExperimentError, RegistryError
from repro.experiments.monte_carlo import run_mapping_monte_carlo
from repro.mapping import HybridMapper, MappingResult, MappingStatistics


# ----------------------------------------------------------------------
# Seed streams
# ----------------------------------------------------------------------
class TestSeeding:
    def test_deterministic_and_in_range(self):
        a = derive_seed(42, 7)
        assert a == derive_seed(42, 7)
        assert 0 <= a < 2**63

    def test_distinct_paths_differ(self):
        seeds = {derive_seed(s, i) for s in range(20) for i in range(50)}
        assert len(seeds) == 20 * 50

    def test_no_affine_aliasing(self):
        # The old scheme collided: 1 * 1_000_003 + 0 == 0 * 1_000_003 + 1_000_003.
        assert derive_seed(1, 0) != derive_seed(0, 1_000_003)

    def test_path_length_matters(self):
        assert derive_seed(3) != derive_seed(3, 0)
        assert derive_seed(3, 1, 2) != derive_seed(3, 12)

    def test_negative_roots_supported(self):
        assert derive_seed(-1, 0) != derive_seed(1, 0)


# ----------------------------------------------------------------------
# Mapper registry
# ----------------------------------------------------------------------
class _StubMapper:
    algorithm_name = "stub"

    def map(self, function_matrix, crossbar):
        return MappingResult(
            success=False, algorithm=self.algorithm_name, failure_reason="stub"
        )


class TestRegistry:
    def test_builtins_registered(self):
        assert {"hybrid", "exact", "greedy"} <= set(list_mappers())

    def test_create_by_name_forwards_options(self):
        mapper = create_mapper("hybrid", backtracking=False)
        assert isinstance(mapper, HybridMapper)

    def test_unknown_name_lists_known(self):
        with pytest.raises(RegistryError) as excinfo:
            create_mapper("alien")
        message = str(excinfo.value)
        assert "alien" in message and "hybrid" in message

    def test_register_decorator_and_unregister(self):
        @register_mapper("stub-decorated")
        class Stub(_StubMapper):
            algorithm_name = "stub-decorated"

        try:
            assert "stub-decorated" in list_mappers()
            assert isinstance(create_mapper("stub-decorated"), Stub)
        finally:
            unregister_mapper("stub-decorated")
        assert "stub-decorated" not in list_mappers()

    def test_duplicate_requires_override(self):
        register_mapper("stub-dup", _StubMapper)
        try:
            with pytest.raises(RegistryError):
                register_mapper("stub-dup", _StubMapper)
            register_mapper("stub-dup", HybridMapper, override=True)
            assert isinstance(create_mapper("stub-dup"), HybridMapper)
        finally:
            unregister_mapper("stub-dup")

    def test_isolated_registry(self):
        registry = MapperRegistry()
        registry.register("only", _StubMapper)
        assert registry.names() == ["only"]
        assert "only" not in list_mappers()

    def test_resolve_names_and_instances(self):
        resolved = resolve_mappers(("hybrid", "exact"))
        assert list(resolved) == ["hybrid", "exact"]
        instance = _StubMapper()
        assert resolve_mappers({"mine": instance})["mine"] is instance

    def test_registered_mapper_usable_in_monte_carlo_by_name(self):
        register_mapper("stub-mc", _StubMapper)
        try:
            function = get_benchmark("rd53")
            result = run_mapping_monte_carlo(
                function, sample_size=3, algorithms=("stub-mc",), workers=1
            )
            outcome = result.outcome("stub-mc")
            assert outcome.samples == 3 and outcome.successes == 0
        finally:
            unregister_mapper("stub-mc")


# ----------------------------------------------------------------------
# Batch engine
# ----------------------------------------------------------------------
def _square(x: int) -> int:
    return x * x


class TestBatchRunner:
    def test_chunk_ranges_cover_everything(self):
        chunks = chunk_ranges(10, 3)
        assert [list(c) for c in chunks] == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
        assert chunk_ranges(0, 3) == []
        with pytest.raises(ExperimentError):
            chunk_ranges(5, 0)

    def test_default_chunk_size_bounds(self):
        assert default_chunk_size(0, 4) == 1
        assert 1 <= default_chunk_size(100, 4) <= 100

    def test_serial_matches_parallel(self):
        payloads = list(range(20))
        serial = BatchRunner(1).run(_square, payloads)
        parallel = BatchRunner(2).run(_square, payloads)
        assert serial == parallel == [x * x for x in payloads]

    def test_auto_stays_serial_for_small_batches(self):
        runner = BatchRunner(None, min_parallel_items=64)
        assert runner.resolved_workers(10) == 1

    def test_invalid_workers(self):
        with pytest.raises(ExperimentError):
            BatchRunner(0)

    def test_plan_reports_shape(self):
        plan = BatchRunner(2).plan(100)
        assert plan.workers == 2
        assert plan.num_chunks >= 2
        assert plan.parallel


def _exit_worker(x: int) -> int:
    os._exit(1)


class _Stop(BaseException):
    """Not an ``Exception``, like the start-up probe's stop signal."""


def _stop(x: int) -> int:
    raise _Stop


@pytest.fixture
def pool_starts(monkeypatch):
    """The worker count of every pool started, in order."""
    starts = []
    start = batch.start_process_pool

    def counting(workers):
        starts.append(workers)
        return start(workers)

    monkeypatch.setattr(batch, "start_process_pool", counting)
    return starts


class TestWarmPool:
    def test_one_pool_per_cli_command(self, pool_starts, tmp_path, capsys):
        from repro.cli import main

        def curve_points(workers: int) -> list[dict]:
            code = main([
                "analyze", "curve", "--circuit", "misex1",
                "--rates", "0.05,0.1", "--tolerance", "0.01",
                "--workers", str(workers),
                "--jsonl", str(tmp_path / f"workers-{workers}.jsonl"), "--json",
            ])
            assert code == 0
            return json.loads(capsys.readouterr().out)["result"]["points"]

        pooled = curve_points(2)
        # Every adaptive round of both curve points ran on one pool,
        # which ended with the command.
        assert pool_starts == [2]
        assert multiprocessing.active_children() == []
        assert pooled == curve_points(1)
        assert pool_starts == [2]

    def test_failed_run_leaves_a_fresh_pool_for_the_next(self, pool_starts):
        payloads = list(range(6))
        with warm_pool():
            with pytest.raises(BrokenProcessPool):
                BatchRunner(2).run(_exit_worker, payloads)
            assert BatchRunner(2).run(_square, payloads) == [x * x for x in payloads]
        assert pool_starts == [2, 2]
        assert multiprocessing.active_children() == []

    def test_base_exception_propagates_and_the_scope_joins_its_workers(self):
        with pytest.raises(_Stop):
            with warm_pool():
                BatchRunner(2).run(_stop, list(range(6)))
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Parallel Monte-Carlo determinism
# ----------------------------------------------------------------------
def _counting_stats(result):
    return {
        name: (o.successes, o.samples, o.total_backtracks, o.invalid_mappings)
        for name, o in result.outcomes.items()
    }


class TestParallelMonteCarlo:
    def test_workers_1_vs_2_identical_statistics(self):
        function = get_benchmark("misex1")
        serial = run_mapping_monte_carlo(
            function, defect_rate=0.1, sample_size=14, seed=5, workers=1
        )
        parallel = run_mapping_monte_carlo(
            function, defect_rate=0.1, sample_size=14, seed=5, workers=2
        )
        assert _counting_stats(serial) == _counting_stats(parallel)
        # workers reports what actually ran: 2 with a pool, 1 when the
        # environment cannot spawn processes and the serial fallback kicks
        # in (the statistics equality above is the real contract).
        assert parallel.workers in (1, 2)
        assert serial.workers == 1

    def test_chunk_size_does_not_change_statistics(self):
        function = get_benchmark("rd53")
        base = run_mapping_monte_carlo(
            function, sample_size=11, seed=9, workers=1, chunk_size=11
        )
        chunked = run_mapping_monte_carlo(
            function, sample_size=11, seed=9, workers=1, chunk_size=2
        )
        assert _counting_stats(base) == _counting_stats(chunked)

    def test_redundant_columns_parallel_consistency(self):
        function = get_benchmark("rd53")
        kwargs = dict(
            defect_rate=0.1,
            stuck_open_fraction=0.9,
            sample_size=10,
            seed=4,
            extra_rows=2,
            extra_columns=2,
        )
        serial = run_mapping_monte_carlo(function, workers=1, **kwargs)
        parallel = run_mapping_monte_carlo(function, workers=2, **kwargs)
        assert _counting_stats(serial) == _counting_stats(parallel)

    def test_outcome_unknown_algorithm_message(self):
        function = get_benchmark("rd53")
        result = run_mapping_monte_carlo(function, sample_size=2, workers=1)
        with pytest.raises(ExperimentError) as excinfo:
            result.outcome("nope")
        assert "hybrid" in str(excinfo.value)

    def test_monte_carlo_result_round_trip(self):
        function = get_benchmark("rd53")
        result = run_mapping_monte_carlo(function, sample_size=3, workers=1)
        payload = json.loads(json.dumps(result.to_dict()))
        rebuilt = type(result).from_dict(payload)
        assert rebuilt == result


# ----------------------------------------------------------------------
# Fluent pipeline
# ----------------------------------------------------------------------
class TestDesignPipeline:
    def test_end_to_end_chain(self):
        report = (
            Design.from_benchmark("misex1")
            .minimize()
            .choose_dual()
            .map(defects=0.10, algorithm="hybrid", seed=7)
            .evaluate()
        )
        assert isinstance(report, EvaluationResult)
        assert report.algorithm == "hybrid"
        assert report.steps[0] == "from_benchmark(misex1)"
        assert "map[hybrid]" in report.steps
        if report.success:
            assert report.valid_assignment
            assert report.functionally_valid
        assert report.summary()

    def test_clean_crossbar_always_maps(self):
        report = Design.from_benchmark("rd53").map(defects=None).evaluate()
        assert report.ok
        assert report.defect_count == 0

    def test_from_sop_and_shape(self):
        design = Design.from_sop("x1 + x2 x3", name="tiny")
        assert design.function.name == "tiny"
        rows, columns = design.crossbar_shape
        assert rows == design.function.num_products + 1
        assert design.area == rows * columns

    def test_from_pla_text(self):
        text = "\n".join(
            [".i 2", ".o 1", ".ilb a b", ".ob f", ".p 2", "1- 1", "-1 1", ".e"]
        )
        design = Design.from_pla(text, name="orgate")
        assert design.function.num_inputs == 2

    def test_with_redundancy_changes_shape_and_chains(self):
        base = Design.from_benchmark("rd53")
        redundant = base.with_redundancy(rows=2, columns=3)
        assert redundant.crossbar_shape == (
            base.crossbar_shape[0] + 2,
            base.crossbar_shape[1] + 3,
        )
        # the original design is untouched (immutability)
        assert base.extra_rows == 0 and base.extra_columns == 0

    def test_map_with_prebuilt_defect_map_and_shape_check(self):
        design = Design.from_benchmark("rd53")
        rows, columns = design.crossbar_shape
        defect_map = inject_uniform(rows, columns, 0.05, seed=1)
        mapped = design.map(defects=defect_map)
        assert mapped.defect_map is defect_map
        wrong = inject_uniform(rows + 1, columns, 0.05, seed=1)
        with pytest.raises(ExperimentError):
            design.map(defects=wrong)

    def test_map_with_mapper_instance_and_exact_name(self):
        design = Design.from_benchmark("rd53")
        by_name = design.map(defects=0.05, algorithm="exact", seed=3)
        by_instance = design.map(defects=0.05, algorithm=HybridMapper(), seed=3)
        assert by_name.result.algorithm == "exact"
        assert by_instance.result.algorithm == "hybrid"

    def test_map_unknown_algorithm(self):
        with pytest.raises(RegistryError):
            Design.from_benchmark("rd53").map(defects=0.0, algorithm="alien")

    def test_choose_dual_records_selection(self):
        design = Design.from_benchmark("rd53").choose_dual()
        assert design.dual_selection is not None
        assert any(step.startswith("choose_dual") for step in design.steps)

    def test_monte_carlo_matches_free_function(self):
        design = Design.from_benchmark("rd53")
        via_design = design.monte_carlo(sample_size=6, seed=2, workers=1)
        direct = run_mapping_monte_carlo(
            design.function, sample_size=6, seed=2, workers=1
        )
        assert _counting_stats(via_design) == _counting_stats(direct)

    def test_spare_columns_single_map(self):
        design = Design.from_benchmark("rd53").with_redundancy(rows=2, columns=2)
        mapped = design.map(
            defects=0.08, seed=11, algorithm="hybrid"
        )
        # The effective map is restricted back to the design's column count.
        assert (
            mapped.effective_map.columns
            == design.function_matrix().num_columns
        )
        report = mapped.evaluate()
        assert report.extra_rows == 2 and report.extra_columns == 2

    def test_describe_mentions_steps(self):
        text = Design.from_benchmark("rd53").minimize().describe()
        assert "minimize" in text and "crossbar" in text


# ----------------------------------------------------------------------
# Serialization round-trips
# ----------------------------------------------------------------------
class TestSerialization:
    def test_mapping_result_round_trip(self):
        design = Design.from_benchmark("rd53")
        result = design.map(defects=0.05, seed=2).result
        payload = json.loads(json.dumps(result.to_dict()))
        rebuilt = MappingResult.from_dict(payload)
        assert rebuilt == result

    def test_mapping_statistics_round_trip(self):
        stats = MappingStatistics(
            compatibility_checks=5,
            backtracks=2,
            assignment_size=(3, 4),
            matching_matrix_entries=12,
        )
        assert MappingStatistics.from_dict(stats.to_dict()) == stats

    def test_function_round_trip_preserves_semantics(self):
        function = get_benchmark("rd53")
        rebuilt = function_from_dict(
            json.loads(json.dumps(function_to_dict(function)))
        )
        assert rebuilt.equivalent(function)
        assert rebuilt.name == function.name

    def test_defect_map_round_trip(self):
        defect_map = inject_uniform(6, 8, 0.3, seed=5)
        rebuilt = defect_map_from_dict(
            json.loads(json.dumps(defect_map_to_dict(defect_map)))
        )
        assert rebuilt.rows == 6 and rebuilt.columns == 8
        assert {(d.row, d.column, d.kind) for d in rebuilt} == {
            (d.row, d.column, d.kind) for d in defect_map
        }
        assert any(d.kind in DefectType for d in rebuilt) or len(rebuilt) == 0

    def test_mapped_design_round_trip(self):
        mapped = (
            Design.from_benchmark("misex1")
            .minimize()
            .map(defects=0.1, seed=6)
        )
        payload = json.loads(json.dumps(mapped.to_dict()))
        rebuilt = MappedDesign.from_dict(payload)
        assert rebuilt.result == mapped.result
        assert rebuilt.design.function.equivalent(mapped.design.function)
        # The rebuilt snapshot evaluates to the same verdicts.
        assert (
            rebuilt.evaluate().to_dict() == mapped.evaluate().to_dict()
        )

    def test_evaluation_result_rejects_unknown_fields(self):
        report = Design.from_benchmark("rd53").map(defects=0.0).evaluate()
        payload = report.to_dict()
        payload["bogus"] = 1
        with pytest.raises(ExperimentError):
            EvaluationResult.from_dict(payload)


# ----------------------------------------------------------------------
# Wrapper passthrough
# ----------------------------------------------------------------------
class TestWorkersPassthrough:
    def test_table2_row_accepts_workers(self):
        from repro.experiments.table2 import run_table2_row

        function = get_benchmark("rd53")
        row = run_table2_row(function, sample_size=4, seed=1, workers=1)
        assert 0.0 <= row.hba_success <= 1.0

    def test_defect_sweep_accepts_workers(self):
        from repro.experiments.defect_sweep import run_defect_sweep

        result = run_defect_sweep(
            "rd53", rates=(0.0,), sample_size=3, seed=1, workers=1
        )
        assert result.points[0].success_rates["hybrid"] == 1.0

    def test_redundancy_accepts_workers(self):
        from repro.experiments.redundancy import run_redundancy_analysis

        result = run_redundancy_analysis(
            "rd53",
            sample_size=3,
            redundancy_levels=((0, 0),),
            seed=1,
            workers=1,
        )
        assert len(result.points) == 1
