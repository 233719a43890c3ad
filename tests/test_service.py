"""Tests for the ``repro.service`` job orchestration + HTTP layer."""

from __future__ import annotations

import asyncio
import gc
import json
import threading
import time
import warnings

import pytest

from repro.api.artifacts import ArtifactStore
from repro.api.results import function_to_dict
from repro.api.runner import run_scenario, sample_stream_length
from repro.api.scenarios import FunctionSource, Scenario
from repro.exceptions import ExperimentError, ReproError
from repro.experiments.monte_carlo import MonteCarloResult, run_mapping_monte_carlo
from repro.service.client import ServiceClient, ServiceError
from repro.service import jobs
from repro.service.http import ServiceRuntime, make_server
from repro.service.jobs import (
    ChunkJob,
    ChunkSpec,
    default_chunk_size,
    execute_chunk,
    merge_mapping_chunks,
    plan_range_chunks,
)
from repro.service.orchestrator import Orchestrator
from repro.service.store import CheckpointStore


def tiny_scenario(**overrides) -> Scenario:
    spec = {
        "name": "svc-tiny",
        "source": FunctionSource.benchmark("rd53"),
        "mappers": ("hybrid",),
        "samples": 24,
        "seed": 3,
    }
    spec.update(overrides)
    return Scenario(**spec)


def run(coroutine):
    return asyncio.run(coroutine)


async def submit_and_wait(orchestrator: Orchestrator, scenario: Scenario):
    """Run one job to completion, then release the orchestrator's pool."""
    try:
        job = await orchestrator.submit(scenario)
        await orchestrator.wait(job.job_id)
    finally:
        orchestrator.shutdown()
    return job


def execute_all(scenario: Scenario, plan: list[ChunkSpec]) -> dict:
    """Every chunk of ``plan`` executed in process, keyed by chunk."""
    return {
        chunk: execute_chunk(
            ChunkJob(
                spec_hash=scenario.content_hash(),
                scenario_payload=scenario.to_dict(),
                chunk=chunk,
                engine="vectorized",
            )
        )
        for chunk in plan
    }


# ----------------------------------------------------------------------
# Chunk planning
# ----------------------------------------------------------------------
class TestChunkPlanning:
    def test_default_chunk_size_is_machine_invariant_and_floored(self):
        assert default_chunk_size(10) == 10  # tiny budgets stay one chunk
        assert default_chunk_size(64) == 32  # floored at the vectorized min
        assert default_chunk_size(16_000) == 1000  # ~16 chunks per row

    def test_default_chunk_size_rejects_empty(self):
        with pytest.raises(ExperimentError, match="positive"):
            default_chunk_size(0)

    def test_cells_floor_splits_small_crossbars_evenly(self):
        # rd53's function matrix has 34 x 16 = 544 cells, so a chunk
        # floors at ceil(2^16 / 544) = 121 samples: 200 run as 2 x 100.
        assert default_chunk_size(200, 544) == 100
        assert default_chunk_size(200, 858) == 67  # squar5: 3 chunks
        assert default_chunk_size(100, 544) == 100  # never past the row
        # Large arrays keep the sample-count rule: alu4 (583 x 44).
        assert default_chunk_size(200, 25_652) == default_chunk_size(200) == 32
        # The 16-chunk cap still sizes big budgets.
        assert default_chunk_size(100_000, 544) == 6250

    def test_default_chunk_size_rejects_empty_crossbars(self):
        with pytest.raises(ExperimentError, match="cells"):
            default_chunk_size(200, 0)

    def test_crossbar_cells_takes_the_smallest_redundancy_row(self):
        from repro.mapping.function_matrix import FunctionMatrix

        scenario = tiny_scenario(redundancy=((2, 2), (1, 0)))
        matrix = FunctionMatrix(jobs.chunk_function(scenario))
        assert jobs.crossbar_cells(scenario) == (
            (matrix.num_rows + 1) * matrix.num_columns
        )

    def test_area_and_multilevel_jobs_have_no_cells(self):
        area = Scenario(
            name="svc-area-cells",
            source=FunctionSource.random(4, max_products=3),
            protocol="area",
            samples=200,
        )
        multilevel = tiny_scenario(options={"multilevel": {"strategy": "best"}})
        assert jobs.crossbar_cells(area) is None
        assert jobs.crossbar_cells(multilevel) is None

    def test_plan_covers_every_row_disjointly(self):
        for row_index in (0, 1):
            plan = plan_range_chunks(row_index, 0, 50, 16)
            assert {chunk.row_index for chunk in plan} == {row_index}
            spans = [(c.start, c.stop) for c in plan]
            assert spans == [(0, 16), (16, 32), (32, 48), (48, 50)]

    def test_area_fixed_function_plans_one_chunk(self, tmp_path):
        scenario = Scenario(
            name="svc-area-fixed",
            source=FunctionSource.sop("x1 + x2 x3"),
            protocol="area",
            samples=100,
        )
        checkpoints = CheckpointStore(tmp_path / "ckpt")
        job = run(
            submit_and_wait(Orchestrator(checkpoints, workers=1), scenario)
        )
        assert job.status == "done", job.error
        assert job.total_chunks == 1
        assert checkpoints.completed_chunks(job.job_id) == {
            ChunkSpec(0, 0, 1).key
        }

    def test_chunk_keys_sort_in_range_order(self):
        plan = plan_range_chunks(1, 0, 2048, 100)
        keys = [chunk.key for chunk in plan]
        assert keys == sorted(keys)

    def test_chunk_spec_validation(self):
        with pytest.raises(ExperimentError):
            ChunkSpec(0, 5, 5)
        with pytest.raises(ExperimentError):
            ChunkSpec(-1, 0, 5)


# ----------------------------------------------------------------------
# The default plan a job records
# ----------------------------------------------------------------------
def recorded_chunk_size(checkpoints: CheckpointStore, scenario: Scenario) -> int:
    return checkpoints.read_spec(scenario.content_hash())["chunk_size"]


def paper_protocol_rd53(**overrides) -> Scenario:
    """The service's paper-protocol job: rd53, HBA + EA, 200 samples."""
    spec = {"name": "svc-paper", "mappers": ("hybrid", "exact"), "samples": 200}
    spec.update(overrides)
    return tiny_scenario(**spec)


class TestDefaultPlan:
    TWO_HALVES = {ChunkSpec(0, 0, 100).key, ChunkSpec(0, 100, 200).key}

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_rd53_plans_two_chunks_of_100_on_any_machine(
        self, tmp_path, monkeypatch, workers
    ):
        from repro.service import orchestrator as orchestrator_module

        # The pool size the machine would pick; threads stand in for
        # processes, so nothing forks.
        monkeypatch.setattr(orchestrator_module, "auto_workers", lambda: workers)
        monkeypatch.setattr(
            orchestrator_module, "start_process_pool", lambda workers: None
        )
        scenario = paper_protocol_rd53()
        checkpoints = CheckpointStore(tmp_path / "ckpt")
        job = run(submit_and_wait(Orchestrator(checkpoints), scenario))
        assert job.status == "done", job.error
        assert job.total_chunks == job.executed_chunks == 2
        assert recorded_chunk_size(checkpoints, scenario) == 100
        assert checkpoints.completed_chunks(job.job_id) == self.TWO_HALVES
        direct = run_scenario(scenario, workers=1)
        assert job.result.counting_statistics() == direct.counting_statistics()

    def test_cells_are_worked_out_off_the_loop_thread(self, tmp_path, monkeypatch):
        from repro.service import orchestrator as orchestrator_module

        threads = []

        def recording_cells(scenario):
            threads.append(threading.current_thread())
            return jobs.crossbar_cells(scenario)

        monkeypatch.setattr(orchestrator_module, "crossbar_cells", recording_cells)

        async def plan_on_this_loop():
            orchestrator = Orchestrator(CheckpointStore(tmp_path / "ckpt"), workers=1)
            job = await submit_and_wait(orchestrator, paper_protocol_rd53())
            return job, threading.current_thread()

        job, loop_thread = run(plan_on_this_loop())
        assert job.status == "done", job.error
        assert job.total_chunks == 2
        assert len(threads) == 1 and threads[0] is not loop_thread

    def test_pool_never_forks_while_a_circuit_builds(self, tmp_path, monkeypatch):
        from repro.service import orchestrator as orchestrator_module

        building = threading.Event()
        forks_during_a_build = []

        def slow_cells(scenario):
            building.set()
            time.sleep(0.3)
            building.clear()
            return jobs.crossbar_cells(scenario)

        def recording_pool(workers):
            forks_during_a_build.append(building.is_set())
            return None  # threads stand in for the pool

        monkeypatch.setattr(orchestrator_module, "crossbar_cells", slow_cells)
        monkeypatch.setattr(orchestrator_module, "start_process_pool", recording_pool)
        checkpoints = CheckpointStore(tmp_path / "ckpt")
        # A resumed job needs no build, so it reaches the pool at once.
        resumed = paper_protocol_rd53(name="svc-resumed")
        checkpoints.write_spec(
            resumed.content_hash(),
            {
                "scenario": resumed.to_dict(),
                "spec_hash": resumed.content_hash(),
                "chunk_size": 100,
                "engine": "auto",
            },
        )

        async def submit_both():
            orchestrator = Orchestrator(checkpoints, workers=2)
            try:
                new = await orchestrator.submit(paper_protocol_rd53())
                await asyncio.sleep(0.05)  # its build is under way
                old = await orchestrator.submit(resumed)
                for job in (new, old):
                    await orchestrator.wait(job.job_id)
                return new, old
            finally:
                orchestrator.shutdown()

        new, old = run(submit_both())
        assert new.status == old.status == "done", (new.error, old.error)
        assert forks_during_a_build == [False]

    def test_area_job_plans_on_sample_count(self, tmp_path):
        scenario = Scenario(
            name="svc-area-plan",
            source=FunctionSource.random(3, max_products=2),
            protocol="area",
            samples=200,
        )
        checkpoints = CheckpointStore(tmp_path / "ckpt")
        job = run(submit_and_wait(Orchestrator(checkpoints, workers=1), scenario))
        assert job.status == "done", job.error
        assert recorded_chunk_size(checkpoints, scenario) == 32
        assert job.total_chunks == 7

    def test_adaptive_budget_plans_on_the_chunk_cap(self, tmp_path):
        scenario = tiny_scenario(samples=100_000, tolerance=0.08)
        checkpoints = CheckpointStore(tmp_path / "ckpt")
        job = run(submit_and_wait(Orchestrator(checkpoints, workers=1), scenario))
        assert job.status == "done", job.error
        assert recorded_chunk_size(checkpoints, scenario) == 6250

    def test_explicit_chunk_size_wins(self, tmp_path):
        scenario = paper_protocol_rd53(mappers=("hybrid",))
        checkpoints = CheckpointStore(tmp_path / "ckpt")
        job = run(
            submit_and_wait(
                Orchestrator(checkpoints, workers=1, chunk_size=32), scenario
            )
        )
        assert job.status == "done", job.error
        assert recorded_chunk_size(checkpoints, scenario) == 32
        assert job.total_chunks == 7

    def test_old_spec_resumes_with_its_own_chunk_keys(self, tmp_path):
        # A job first planned under the sample-count rule: chunk_size 32,
        # so 7 chunks, and a kill after 3 of them were checkpointed.
        scenario = paper_protocol_rd53()
        checkpoints = CheckpointStore(tmp_path / "ckpt")
        spec_hash = scenario.content_hash()
        checkpoints.write_spec(
            spec_hash,
            {
                "scenario": scenario.to_dict(),
                "spec_hash": spec_hash,
                "chunk_size": 32,
                "engine": "auto",
            },
        )
        plan = plan_range_chunks(0, 0, 200, 32)
        assert len(plan) == 7
        done = [plan[0], plan[3], plan[6]]
        for chunk, payload in execute_all(scenario, done).items():
            checkpoints.write_chunk(spec_hash, chunk.key, payload)

        job = run(submit_and_wait(Orchestrator(checkpoints, workers=1), scenario))
        assert job.status == "done", job.error
        assert job.total_chunks == 7
        assert job.loaded_chunks == 3 and job.executed_chunks == 4
        assert checkpoints.completed_chunks(spec_hash) == {c.key for c in plan}
        assert recorded_chunk_size(checkpoints, scenario) == 32
        direct = run_scenario(scenario, workers=1)
        assert job.result.counting_statistics() == direct.counting_statistics()


# ----------------------------------------------------------------------
# Chunk execution + merge
# ----------------------------------------------------------------------
class TestChunkExecution:
    def test_merged_chunks_match_uninterrupted_run(self):
        scenario = tiny_scenario(samples=40)
        payloads = execute_all(scenario, plan_range_chunks(0, 0, 40, 16))
        merged = merge_mapping_chunks(
            [payloads[chunk] for chunk in sorted(payloads)]
        )
        baseline = run_scenario(scenario, workers=1).monte_carlo()
        assert merged.counting_statistics() == baseline.counting_statistics()
        assert merged.sample_ranges == [[0, 40]]

    @pytest.mark.parametrize(
        "source",
        [FunctionSource.random(5, max_products=4), FunctionSource.sop("x1 + x2 x3")],
        ids=["random", "fixed"],
    )
    def test_area_chunks_match_runner_rows(self, source):
        scenario = Scenario(
            name="svc-area",
            source=source,
            protocol="area",
            samples=6,
            seed=2,
        )
        plan = plan_range_chunks(0, 0, sample_stream_length(scenario), 4)
        payloads = execute_all(scenario, plan)
        rows = [row for chunk in plan for row in payloads[chunk]["rows"]]
        direct = run_scenario(scenario, workers=1)
        assert rows == direct.rows
        assert len(rows) == (6 if source.kind == "random" else 1)

    def test_merge_rejects_empty(self):
        with pytest.raises(ExperimentError, match="empty"):
            merge_mapping_chunks([])


class TestCircuitMemo:
    """``execute_chunk`` builds a job's circuit once per process."""

    @pytest.fixture(autouse=True)
    def builds(self, monkeypatch):
        """Count ``FunctionSource.build`` calls on an empty memo."""
        calls = []
        original = FunctionSource.build

        def counting(source, *, seed=0):
            calls.append((source.kind, seed))
            return original(source, seed=seed)

        monkeypatch.setattr(FunctionSource, "build", counting)
        jobs._built_function.cache_clear()
        yield calls
        jobs._built_function.cache_clear()

    def test_one_build_for_every_chunk_of_a_job(self, builds):
        scenario = tiny_scenario(samples=32)
        payloads = execute_all(scenario, plan_range_chunks(0, 0, 32, 16))
        assert len(payloads) == 2
        assert builds == [("benchmark", 0)]
        merged = merge_mapping_chunks([payloads[chunk] for chunk in sorted(payloads)])
        direct = run_scenario(scenario, workers=1).monte_carlo()
        assert merged.counting_statistics() == direct.counting_statistics()

    def test_jobs_on_one_circuit_share_the_build(self, builds):
        for seed in (1, 2):
            execute_all(tiny_scenario(seed=seed), plan_range_chunks(0, 0, 8, 8))
        assert builds == [("benchmark", 0)]

    def test_random_sources_build_once_per_seed(self, builds):
        source = FunctionSource.random(5, max_products=4)
        functions = {}
        for seed in (1, 2, 1):
            scenario = tiny_scenario(source=source, seed=seed, samples=8)
            functions.setdefault(seed, []).append(jobs.chunk_function(scenario))
        assert builds == [("random", 1), ("random", 2)]
        assert functions[1][0] is functions[1][1]
        assert function_to_dict(functions[1][0]) != function_to_dict(functions[2][0])

    def test_unknown_circuit_raises_on_every_call(self, builds):
        scenario = tiny_scenario(source=FunctionSource.benchmark("no-such-circuit"))
        chunk = ChunkSpec(0, 0, 8)
        job = ChunkJob(scenario.content_hash(), scenario.to_dict(), chunk)
        for _ in range(2):
            with pytest.raises(ReproError, match="no-such-circuit"):
                execute_chunk(job)
        assert len(builds) == 2


# ----------------------------------------------------------------------
# Merge overlap validation (the sample_ranges satellite)
# ----------------------------------------------------------------------
class TestMergeOverlapValidation:
    @staticmethod
    def slice_result(start: int, size: int) -> MonteCarloResult:
        scenario = tiny_scenario()
        return run_mapping_monte_carlo(
            scenario.source.build(),
            sample_size=size,
            sample_offset=start,
            algorithms=scenario.mappers,
            seed=scenario.seed,
            workers=1,
        )

    def test_overlapping_ranges_raise_named_error(self):
        first = self.slice_result(0, 16)
        second = self.slice_result(8, 16)
        with pytest.raises(
            ExperimentError,
            match=r"\[0, 16\) overlaps \[8, 24\)",
        ):
            first.merge(second)

    def test_identical_ranges_raise(self):
        first = self.slice_result(0, 8)
        with pytest.raises(ExperimentError, match="double-counted"):
            first.merge(self.slice_result(0, 8))

    def test_disjoint_ranges_coalesce(self):
        first = self.slice_result(0, 8)
        first.merge(self.slice_result(16, 8))
        first.merge(self.slice_result(8, 8))  # fills the gap
        assert first.sample_ranges == [[0, 24]]

    def test_legacy_payload_without_ranges_merges_unchecked(self):
        first = self.slice_result(0, 8)
        payload = self.slice_result(0, 8).to_dict()
        del payload["sample_ranges"]
        legacy = MonteCarloResult.from_dict(payload)
        assert legacy.sample_ranges is None
        first.merge(legacy)  # provenance unknown: no overlap check possible
        assert first.sample_ranges is None

    def test_ranges_round_trip_serialization(self):
        result = self.slice_result(8, 8)
        rebuilt = MonteCarloResult.from_dict(result.to_dict())
        assert rebuilt.sample_ranges == [[8, 16]]
        assert rebuilt.to_dict() == result.to_dict()


# ----------------------------------------------------------------------
# Orchestrator
# ----------------------------------------------------------------------
class TestOrchestrator:
    @pytest.mark.parametrize("chunk_size", [0, -3])
    def test_non_positive_chunk_size_rejected(self, tmp_path, chunk_size):
        # Refused where it enters, not by every job it would fail.
        with pytest.raises(ExperimentError, match="chunk_size"):
            Orchestrator(
                CheckpointStore(tmp_path / "ckpt"), workers=1,
                chunk_size=chunk_size,
            )

    def test_job_matches_direct_run_and_checkpoints(self, tmp_path):
        scenario = tiny_scenario(redundancy=((0, 0), (1, 1)), samples=30)
        checkpoints = CheckpointStore(tmp_path / "ckpt")

        async def main():
            orchestrator = Orchestrator(
                checkpoints, workers=1, chunk_size=10
            )
            job = await orchestrator.submit(scenario)
            await orchestrator.wait(job.job_id)
            orchestrator.shutdown()
            return job

        job = run(main())
        assert job.status == "done", job.error
        assert job.executed_chunks == job.total_chunks == 6
        direct = run_scenario(scenario, workers=1)
        assert job.result.counting_statistics() == direct.counting_statistics()
        # every chunk and the merged result were checkpointed
        assert len(checkpoints.completed_chunks(job.job_id)) == 6
        assert checkpoints.read_result(job.job_id) is not None

    def test_concurrent_submissions_share_one_job(self, tmp_path):
        scenario = tiny_scenario()

        async def main():
            orchestrator = Orchestrator(
                CheckpointStore(tmp_path / "ckpt"), workers=1, chunk_size=8
            )
            first, second = await asyncio.gather(
                orchestrator.submit(scenario), orchestrator.submit(scenario)
            )
            await orchestrator.wait(first.job_id)
            orchestrator.shutdown()
            return first, second

        first, second = run(main())
        assert first is second
        assert first.executed_chunks == 3  # computed exactly once

    def test_resume_executes_only_missing_chunks(self, tmp_path):
        scenario = tiny_scenario(samples=40)
        checkpoints = CheckpointStore(tmp_path / "ckpt")
        spec_hash = scenario.content_hash()
        plan = plan_range_chunks(0, 0, 40, 8)
        # Simulate a killed campaign: two chunks already checkpointed.
        for chunk in plan[:2]:
            payload = execute_chunk(
                ChunkJob(
                    spec_hash=spec_hash,
                    scenario_payload=scenario.to_dict(),
                    chunk=chunk,
                    engine="vectorized",
                )
            )
            checkpoints.write_chunk(spec_hash, chunk.key, payload)

        async def main():
            orchestrator = Orchestrator(checkpoints, workers=1, chunk_size=8)
            job = await orchestrator.submit(scenario)
            await orchestrator.wait(job.job_id)
            orchestrator.shutdown()
            return job

        job = run(main())
        assert job.status == "done", job.error
        assert job.loaded_chunks == 2
        assert job.executed_chunks == len(plan) - 2
        direct = run_scenario(scenario, workers=1)
        assert job.result.counting_statistics() == direct.counting_statistics()

    def test_completed_result_checkpoint_short_circuits(self, tmp_path):
        scenario = tiny_scenario()
        checkpoints = CheckpointStore(tmp_path / "ckpt")

        async def once():
            orchestrator = Orchestrator(checkpoints, workers=1, chunk_size=8)
            job = await orchestrator.submit(scenario)
            await orchestrator.wait(job.job_id)
            orchestrator.shutdown()
            return job

        first = run(once())
        assert not first.cached
        second = run(once())  # fresh orchestrator, same checkpoints
        assert second.cached and second.result.cached
        assert second.executed_chunks == 0
        assert (
            second.result.counting_statistics()
            == first.result.counting_statistics()
        )

    def test_cached_spec_is_done_when_submit_returns(self, tmp_path):
        scenario = tiny_scenario()
        checkpoints = CheckpointStore(tmp_path / "ckpt")
        first = run(
            submit_and_wait(
                Orchestrator(checkpoints, workers=1, chunk_size=8), scenario
            )
        )
        assert first.status == "done", first.error

        async def submit_only():
            orchestrator = Orchestrator(checkpoints, workers=1, chunk_size=8)
            try:
                job = await orchestrator.submit(scenario)
                # Before the loop runs anything else.
                return job, job.status_payload()
            finally:
                orchestrator.shutdown()

        # A fresh orchestrator answers from result.json in submit itself.
        job, answer = run(submit_only())
        assert answer["status"] == "done" and answer["cached"], answer
        assert answer["executed_chunks"] == 0 and answer["finished_at"]
        assert (
            job.result.counting_statistics()
            == first.result.counting_statistics()
        )

    def test_artifact_store_cache_and_publication(self, tmp_path):
        scenario = tiny_scenario()
        artifacts = ArtifactStore(tmp_path / "artifacts.jsonl")
        # Warm the shared cache through the ordinary runner...
        direct = run_scenario(scenario, workers=1, store=artifacts)

        async def main():
            orchestrator = Orchestrator(
                CheckpointStore(tmp_path / "ckpt"),
                artifacts=artifacts,
                workers=1,
            )
            job = await orchestrator.submit(scenario)
            await orchestrator.wait(job.job_id)
            orchestrator.shutdown()
            return job

        job = run(main())
        # ...and the service answers from it without computing anything.
        assert job.cached
        assert job.executed_chunks == 0
        assert job.result.counting_statistics() == direct.counting_statistics()

    def test_published_blocks_are_valid_jsonl(self, tmp_path):
        scenario = tiny_scenario()
        path = tmp_path / "artifacts.jsonl"
        artifacts = ArtifactStore(path)

        async def main():
            orchestrator = Orchestrator(
                CheckpointStore(tmp_path / "ckpt"),
                artifacts=artifacts,
                workers=1,
            )
            job = await orchestrator.submit(scenario)
            await orchestrator.wait(job.job_id)
            orchestrator.shutdown()
            return job

        job = run(main())
        assert job.status == "done", job.error
        kinds = [
            json.loads(line)["kind"] for line in path.read_text().splitlines()
        ]
        assert kinds == ["begin", "row", "end"]
        # A CLI re-run of the same spec is served from the shared store.
        rerun = run_scenario(scenario, workers=1, store=artifacts)
        assert rerun.cached

    def test_cli_curve_point_is_cached_at_submit(self, tmp_path, capsys):
        from repro.api.defect_models import create_defect_model
        from repro.cli import main

        store = tmp_path / "artifacts.jsonl"
        assert main(["analyze", "curve", "--circuit", "misex1", "--rates",
                     "0.1", "--samples", "8", "--workers", "1",
                     "--jsonl", str(store)]) == 0
        capsys.readouterr()
        # The curve point, spelled as a client spells the scenario.
        scenario = Scenario(
            name="misex1@0.1",
            source=FunctionSource.benchmark("misex1"),
            defect_model=create_defect_model("uniform", rate=0.1),
            samples=8,
        )

        async def submit_only():
            orchestrator = Orchestrator(
                CheckpointStore(tmp_path / "ckpt"),
                artifacts=ArtifactStore(store),
                workers=1,
            )
            try:
                job = await orchestrator.submit(scenario)
                return job.status_payload()
            finally:
                orchestrator.shutdown()

        answer = run(submit_only())
        assert answer["status"] == "done" and answer["cached"], answer
        assert answer["executed_chunks"] == 0

    def test_failed_job_reports_error(self, tmp_path):
        scenario = tiny_scenario(mappers=("no-such-mapper",))

        async def main():
            orchestrator = Orchestrator(
                CheckpointStore(tmp_path / "ckpt"), workers=1
            )
            job = await orchestrator.submit(scenario)
            await orchestrator.wait(job.job_id)
            orchestrator.shutdown()
            return job

        job = run(main())
        assert job.status == "failed"
        assert "no-such-mapper" in job.error
        assert job.result is None

    @pytest.mark.parametrize(
        "options",
        [{}, {"confidence": 0.9, "ci_method": "jeffreys"}],
        ids=["defaults", "jeffreys-90"],
    )
    def test_adaptive_job_matches_direct_run(self, tmp_path, options):
        scenario = tiny_scenario(samples=300, tolerance=0.08, options=options)

        async def main():
            orchestrator = Orchestrator(
                CheckpointStore(tmp_path / "ckpt"), workers=1, chunk_size=16
            )
            job = await orchestrator.submit(scenario)
            await orchestrator.wait(job.job_id)
            orchestrator.shutdown()
            return job

        job = run(main())
        assert job.status == "done", job.error
        direct = run_scenario(scenario, workers=1)
        assert job.result.counting_statistics() == direct.counting_statistics()
        assert job.result.rows[0]["adaptive"] == direct.rows[0]["adaptive"]

    def test_adaptive_resume_stops_at_the_same_sample_count(self, tmp_path):
        scenario = tiny_scenario(samples=300, tolerance=0.08)
        checkpoints = CheckpointStore(tmp_path / "ckpt")
        spec_hash = scenario.content_hash()
        # Checkpoint the whole first wave (the 64-sample initial batch).
        for chunk in plan_range_chunks(0, 0, 64, 16):
            payload = execute_chunk(
                ChunkJob(
                    spec_hash=spec_hash,
                    scenario_payload=scenario.to_dict(),
                    chunk=chunk,
                    engine="vectorized",
                )
            )
            checkpoints.write_chunk(spec_hash, chunk.key, payload)

        async def main():
            orchestrator = Orchestrator(checkpoints, workers=1, chunk_size=16)
            job = await orchestrator.submit(scenario)
            await orchestrator.wait(job.job_id)
            orchestrator.shutdown()
            return job

        job = run(main())
        assert job.status == "done", job.error
        assert job.loaded_chunks == 4
        direct = run_scenario(scenario, workers=1)
        assert job.result.counting_statistics() == direct.counting_statistics()
        assert (
            job.result.rows[0]["adaptive"]["samples_used"]
            == direct.rows[0]["adaptive"]["samples_used"]
        )

    def test_fixed_job_resumes_from_row_range_chunk_keys(self, tmp_path):
        # A fixed row is one wave over [0, samples), so checkpoints keyed
        # r{row}_s{start}_e{stop} over that range are all found again.
        scenario = tiny_scenario(redundancy=((0, 0), (1, 1)), samples=24)
        checkpoints = CheckpointStore(tmp_path / "ckpt")
        spec_hash = scenario.content_hash()
        for row_index in (0, 1):
            for start in (0, 8, 16):
                chunk = ChunkSpec(row_index, start, start + 8)
                key = f"r{row_index:03d}_s{start:010d}_e{start + 8:010d}"
                payload = execute_all(scenario, [chunk])[chunk]
                checkpoints.write_chunk(spec_hash, key, payload)

        job = run(
            submit_and_wait(
                Orchestrator(checkpoints, workers=1, chunk_size=8), scenario
            )
        )
        assert job.status == "done", job.error
        assert job.loaded_chunks == job.total_chunks == 6
        assert job.executed_chunks == 0
        direct = run_scenario(scenario, workers=1)
        assert "adaptive" not in job.result.rows[0]
        assert job.result.counting_statistics() == direct.counting_statistics()

    def test_partial_fixed_job_keeps_surviving_ranges(
        self, tmp_path, monkeypatch
    ):
        from repro.service import orchestrator as orchestrator_module

        def poisoned(chunk_job):
            if chunk_job.chunk.key.startswith("r001_s0000000008"):
                raise ExperimentError("poisoned chunk spec")
            return execute_chunk(chunk_job)

        monkeypatch.setattr(orchestrator_module, "execute_chunk", poisoned)
        scenario = tiny_scenario(redundancy=((0, 0), (1, 1)), samples=24)
        job = run(
            submit_and_wait(
                Orchestrator(
                    CheckpointStore(tmp_path / "ckpt"),
                    workers=1,
                    chunk_size=8,
                    retry_delay=0.0,
                    partial_policy="partial",
                ),
                scenario,
            )
        )
        assert job.status == "done" and job.partial, job.error
        assert job.total_chunks == 6
        [quarantined] = job.quarantined
        assert quarantined.chunk == ChunkSpec(1, 8, 16)
        direct = run_scenario(scenario, workers=1)
        complete = job.result.monte_carlo((0, 0))
        assert complete.sample_ranges == [[0, 24]]
        assert (
            complete.counting_statistics()
            == direct.monte_carlo((0, 0)).counting_statistics()
        )
        gapped = job.result.monte_carlo((1, 1))
        assert gapped.sample_ranges == [[0, 8], [16, 24]]
        assert gapped.sample_size == 16

    def test_row_without_surviving_chunks_fails(self, tmp_path, monkeypatch):
        from repro.service import orchestrator as orchestrator_module

        def poisoned(chunk_job):
            raise ExperimentError("poisoned chunk spec")

        monkeypatch.setattr(orchestrator_module, "execute_chunk", poisoned)
        job = run(
            submit_and_wait(
                Orchestrator(
                    CheckpointStore(tmp_path / "ckpt"),
                    workers=1,
                    chunk_size=8,
                    retry_delay=0.0,
                    partial_policy="partial",
                ),
                tiny_scenario(),
            )
        )
        assert job.status == "failed"
        assert "every chunk of redundancy row 0" in job.error

    def test_area_job_matches_runner_and_resumes(self, tmp_path):
        scenario = Scenario(
            name="svc-area-job",
            source=FunctionSource.random(5, max_products=4),
            protocol="area",
            samples=6,
            seed=2,
        )
        checkpoints = CheckpointStore(tmp_path / "ckpt")

        def submit():
            return run(
                submit_and_wait(
                    Orchestrator(checkpoints, workers=1, chunk_size=4), scenario
                )
            )

        job = submit()
        assert job.status == "done", job.error
        assert job.result.rows == run_scenario(scenario, workers=1).rows
        keys = {chunk.key for chunk in plan_range_chunks(0, 0, 6, 4)}
        assert checkpoints.completed_chunks(job.job_id) == keys
        # Lose the merged result, as a kill after the last chunk would:
        # the resubmission rebuilds the rows from the chunk checkpoints.
        (checkpoints.job_dir(job.job_id) / "result.json").unlink()
        resumed = submit()
        assert resumed.status == "done", resumed.error
        assert not resumed.cached
        assert resumed.loaded_chunks == resumed.total_chunks == len(keys)
        assert resumed.executed_chunks == 0
        assert resumed.result.rows == job.result.rows


# ----------------------------------------------------------------------
# HTTP service
# ----------------------------------------------------------------------
@pytest.fixture
def service(tmp_path):
    """A running service on an ephemeral port + a client bound to it."""
    server = make_server(
        Orchestrator(
            CheckpointStore(tmp_path / "ckpt"),
            artifacts=ArtifactStore(tmp_path / "artifacts.jsonl"),
            workers=1,
            chunk_size=8,
        )
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        yield client
    finally:
        server.shutdown()
        server.runtime.stop()
        server.server_close()
        thread.join(timeout=10)


class TestServiceRuntime:
    def test_stop_closes_the_event_loop(self, tmp_path):
        # Started and stopped, or never started: either way the loop is
        # closed, so collecting the runtime warns about nothing.
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for started in (True, False):
                runtime = ServiceRuntime(
                    Orchestrator(CheckpointStore(tmp_path / "ckpt"), workers=1)
                )
                if started:
                    runtime.start()
                runtime.stop()
                assert runtime.loop.is_closed()
                del runtime
                gc.collect()
        assert not [
            warning
            for warning in caught
            if "unclosed event loop" in str(warning.message)
        ]


class TestHTTPService:
    def test_health(self, service):
        assert service.health() == {"status": "ok"}

    def test_submit_poll_result_roundtrip(self, service):
        scenario = tiny_scenario()
        status = service.submit(scenario)
        assert status["job_id"] == scenario.content_hash()
        status = service.wait(status["job_id"])
        assert status["total_chunks"] == status["completed_chunks"] == 3
        result = service.result(status["job_id"])
        direct = run_scenario(scenario, workers=1)
        assert result.counting_statistics() == direct.counting_statistics()
        assert scenario.content_hash() in [
            job["job_id"] for job in service.jobs()
        ]

    def test_resubmit_is_shared_and_cached(self, service):
        scenario = tiny_scenario()
        first = service.submit(scenario)
        second = service.submit(scenario)  # while possibly still running
        assert second["job_id"] == first["job_id"]
        done = service.wait(first["job_id"])
        resubmit = service.submit(scenario)
        assert resubmit["status"] == "done"
        assert resubmit["executed_chunks"] == done["executed_chunks"]

    def test_spec_in_the_store_is_answered_done_at_submit(
        self, service, tmp_path
    ):
        scenario = tiny_scenario()
        # Another writer (a CLI run, another server) published the spec
        # to the store the service reads.
        direct = run_scenario(
            scenario, workers=1, store=ArtifactStore(tmp_path / "artifacts.jsonl")
        )
        status = service.submit(scenario)
        assert status["status"] == "done" and status["cached"], status
        assert status["executed_chunks"] == 0
        result = service.result(status["job_id"])
        assert result.counting_statistics() == direct.counting_statistics()

    def test_artifact_lookup_serves_the_shared_cache(self, service):
        scenario = tiny_scenario()
        job_id = service.submit(scenario)["job_id"]
        service.wait(job_id)
        artifact = service.artifact(job_id)
        assert artifact["hash"] == job_id
        assert len(artifact["rows"]) == len(scenario.redundancy)

    def test_unknown_job_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.status("deadbeef")
        assert excinfo.value.status == 404

    def test_unknown_artifact_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.artifact("deadbeef")
        assert excinfo.value.status == 404

    def test_invalid_submission_is_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.submit({"not": "a scenario"})
        assert excinfo.value.status == 400

    def test_unknown_endpoint_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service._request("/v2/nope")
        assert excinfo.value.status == 404

    def test_failed_job_result_is_409(self, service):
        scenario = tiny_scenario(mappers=("no-such-mapper",))
        job_id = service.submit(scenario)["job_id"]
        with pytest.raises(ExperimentError):
            service.wait(job_id)
        with pytest.raises(ServiceError) as excinfo:
            service.result(job_id)
        assert excinfo.value.status == 409
