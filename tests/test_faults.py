"""Chaos suite: deterministic fault injection drives every recovery path.

Every test arms a :class:`repro.faults.FaultPlan` (the same ``REPRO_FAULTS``
mechanism an operator would use against a live server) and asserts the
orchestrator recovers to **bit-for-bit golden counting statistics** — the
service layer is held to the same determinism contract as the engines:

* worker crash -> transient classification -> retry -> parity;
* hang past the per-chunk timeout -> retry -> parity;
* exhausted retries -> quarantine (``fail`` and ``partial`` policies);
* deterministic failures -> immediate quarantine, no retries burned;
* broken process pool -> generation-guarded rebuild -> parity;
* corrupt checkpoint writes -> warned quarantine on resume -> parity;
* corrupt/legacy ``spec.json`` -> plan regeneration, job not bricked;
* graceful drain -> in-flight chunks checkpointed, 503 for new work,
  resume parity (orchestrator-level, HTTP-level and SIGTERM-level).
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro import faults
from repro.api.runner import run_scenario
from repro.api.scenarios import FunctionSource, Scenario
from repro.exceptions import ExperimentError
from repro.faults import FaultInjected, FaultPlan, FaultSpec
from repro.service.client import ServiceClient, ServiceError
from repro.service.http import make_server
from repro.service.orchestrator import (
    DONE,
    DRAINED,
    FAILED,
    Orchestrator,
    ServiceUnavailable,
)
from repro.service.resilience import (
    DETERMINISTIC,
    TRANSIENT,
    backoff_delay,
    classify_failure,
)
from repro.service.store import CheckpointStore

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    """Every test starts and ends with no plan armed and fresh counters."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reset()
    yield
    faults.reset()


def tiny_scenario(**overrides) -> Scenario:
    spec = {
        "name": "chaos-tiny",
        "source": FunctionSource.benchmark("rd53"),
        "mappers": ("hybrid",),
        "samples": 24,
        "seed": 11,
    }
    spec.update(overrides)
    return Scenario(**spec)


def golden_stats(scenario: Scenario) -> dict:
    return run_scenario(scenario, workers=1).counting_statistics()


def run_job(orchestrator: Orchestrator, scenario: Scenario):
    async def _run():
        job = await orchestrator.submit(scenario)
        await orchestrator.wait(job.job_id)
        return job

    try:
        return asyncio.run(_run())
    finally:
        orchestrator.shutdown()


def arm(monkeypatch, *specs: FaultSpec) -> None:
    monkeypatch.setenv(faults.ENV_VAR, FaultPlan(faults=specs).to_json())


# ----------------------------------------------------------------------
# The fault-plan mechanics
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_plan_round_trips_through_json(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(point="worker.crash", match="r000*", times=2),
                FaultSpec(point="worker.hang", seconds=0.5),
                FaultSpec(point="checkpoint.corrupt", match="*_s0000000008*"),
            )
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_fault_point_rejected(self):
        with pytest.raises(ExperimentError, match="unknown fault point"):
            FaultSpec(point="worker.nope")

    def test_times_budget_is_attempt_based_for_worker_points(self, monkeypatch):
        arm(monkeypatch, FaultSpec(point="worker.crash", match="k1", times=1))
        with pytest.raises(FaultInjected):
            faults.trip("worker.crash", key="k1", attempt=0)
        # The retry (attempt 1) is past the budget; other keys never fire.
        faults.trip("worker.crash", key="k1", attempt=1)
        faults.trip("worker.crash", key="k2", attempt=0)

    def test_corrupt_uses_in_process_counter(self, monkeypatch):
        arm(monkeypatch, FaultSpec(point="checkpoint.corrupt", match="*", times=2))
        assert faults.should_corrupt("any")
        assert faults.should_corrupt("any")
        assert not faults.should_corrupt("any")
        faults.reset()
        assert faults.should_corrupt("any")

    def test_nothing_armed_is_a_no_op(self):
        faults.trip("worker.crash", key="k", attempt=0)
        assert not faults.should_corrupt("k")

    def test_unparseable_plan_raises_named_error(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "{not json")
        with pytest.raises(ExperimentError, match=faults.ENV_VAR):
            faults.active_plan()


# ----------------------------------------------------------------------
# The failure taxonomy + backoff determinism
# ----------------------------------------------------------------------
class TestResilienceHelpers:
    def test_classification(self):
        from concurrent.futures.process import BrokenProcessPool

        assert classify_failure(BrokenProcessPool("dead")) == TRANSIENT
        assert classify_failure(OSError("io")) == TRANSIENT
        assert classify_failure(TimeoutError()) == TRANSIENT
        assert classify_failure(FaultInjected("injected")) == TRANSIENT
        assert classify_failure(ExperimentError("bad spec")) == DETERMINISTIC
        assert classify_failure(ValueError("bug")) == DETERMINISTIC

    def test_backoff_is_deterministic_and_bounded(self):
        first = backoff_delay(11, "r000_k", 0, base=0.05)
        assert first == backoff_delay(11, "r000_k", 0, base=0.05)
        assert 0.025 <= first < 0.075  # base * [0.5, 1.5)
        assert backoff_delay(11, "r000_k", 1, base=0.05) != first
        assert backoff_delay(11, "r001_k", 0, base=0.05) != first
        assert backoff_delay(11, "r000_k", 10, base=1.0, cap=2.0) == 2.0
        assert backoff_delay(11, "r000_k", 3, base=0.0) == 0.0


# ----------------------------------------------------------------------
# Retry recovery: crash, hang/timeout, escalation to quarantine
# ----------------------------------------------------------------------
class TestRetryRecovery:
    def test_worker_crash_is_retried_to_golden_parity(self, tmp_path, monkeypatch):
        arm(
            monkeypatch,
            FaultSpec(point="worker.crash", match="r000_s0000000008*", times=1),
        )
        scenario = tiny_scenario()
        orchestrator = Orchestrator(
            CheckpointStore(tmp_path), workers=1, chunk_size=8, retry_delay=0.0
        )
        job = run_job(orchestrator, scenario)
        assert job.status == DONE, job.error
        assert job.retries == 1 and not job.partial
        assert job.result.counting_statistics() == golden_stats(scenario)

    def test_hang_past_chunk_timeout_is_retried(self, tmp_path, monkeypatch):
        arm(
            monkeypatch,
            FaultSpec(
                point="worker.hang",
                match="r000_s0000000000*",
                times=1,
                seconds=0.8,
            ),
        )
        scenario = tiny_scenario()
        orchestrator = Orchestrator(
            CheckpointStore(tmp_path),
            workers=1,
            chunk_size=8,
            chunk_timeout=0.15,
            retry_delay=0.0,
        )
        job = run_job(orchestrator, scenario)
        assert job.status == DONE, job.error
        assert job.retries >= 1
        assert job.result.counting_statistics() == golden_stats(scenario)

    def test_timeout_escalates_to_quarantine_under_fail_policy(
        self, tmp_path, monkeypatch
    ):
        arm(
            monkeypatch,
            FaultSpec(
                point="worker.hang",
                match="r000_s0000000008*",
                times=99,
                seconds=0.5,
            ),
        )
        orchestrator = Orchestrator(
            CheckpointStore(tmp_path),
            workers=1,
            chunk_size=8,
            chunk_timeout=0.1,
            chunk_retries=1,
            retry_delay=0.0,
        )
        job = run_job(orchestrator, tiny_scenario())
        assert job.status == FAILED
        assert "quarantined" in job.error
        assert "r000_s0000000008" in job.error

    def test_timeout_escalates_to_quarantine_under_partial_policy(
        self, tmp_path, monkeypatch
    ):
        arm(
            monkeypatch,
            FaultSpec(
                point="worker.hang",
                match="r000_s0000000008*",
                times=99,
                seconds=0.5,
            ),
        )
        scenario = tiny_scenario()
        checkpoints = CheckpointStore(tmp_path)
        orchestrator = Orchestrator(
            checkpoints,
            workers=1,
            chunk_size=8,
            chunk_timeout=0.1,
            chunk_retries=1,
            retry_delay=0.0,
            partial_policy="partial",
        )
        job = run_job(orchestrator, scenario)
        assert job.status == DONE and job.partial
        [quarantined] = job.quarantined
        assert (quarantined.chunk.start, quarantined.chunk.stop) == (8, 16)
        assert quarantined.attempts == 2
        payload = job.status_payload()
        assert payload["partial"] and payload["quarantined"][0]["start"] == 8
        # The partial result covers only the surviving ranges...
        partial = job.result.monte_carlo()
        assert partial.sample_size == scenario.samples - 8
        # ...and is never cached, so a resubmission (faults disarmed)
        # re-executes exactly the quarantined range and reaches parity.
        assert checkpoints.read_result(job.job_id) is None
        monkeypatch.delenv(faults.ENV_VAR)
        retry = run_job(
            Orchestrator(checkpoints, workers=1, retry_delay=0.0), scenario
        )
        assert retry.status == DONE and not retry.partial
        assert retry.loaded_chunks == 2 and retry.executed_chunks == 1
        assert retry.result.counting_statistics() == golden_stats(scenario)

    def test_deterministic_failure_quarantines_without_retries(
        self, tmp_path, monkeypatch
    ):
        from repro.service import orchestrator as orchestrator_module
        from repro.service.jobs import execute_chunk

        def poisoned(job):
            if job.chunk.key.startswith("r000_s0000000016"):
                raise ExperimentError("poisoned chunk spec")
            return execute_chunk(job)

        monkeypatch.setattr(orchestrator_module, "execute_chunk", poisoned)
        orchestrator = Orchestrator(
            CheckpointStore(tmp_path),
            workers=1,
            chunk_size=8,
            retry_delay=0.0,
            partial_policy="partial",
        )
        job = run_job(orchestrator, tiny_scenario())
        assert job.status == DONE and job.partial
        assert job.retries == 0  # deterministic failures never retry
        [quarantined] = job.quarantined
        assert quarantined.attempts == 1
        assert "poisoned chunk spec" in quarantined.error


# ----------------------------------------------------------------------
# Broken process pool -> rebuild
# ----------------------------------------------------------------------
class TestProcessPoolRebuild:
    def test_exit_code_degrades_to_raise_outside_a_pool_child(
        self, tmp_path, monkeypatch
    ):
        """An armed ``exit_code`` must never kill the main process.

        Under the thread-pool fallback the "worker" shares the
        orchestrator's process; the crash degrades to FaultInjected and
        the retry path recovers instead of the service dying.
        """
        arm(
            monkeypatch,
            FaultSpec(
                point="worker.crash",
                match="r000_s0000000008*",
                times=1,
                exit_code=3,
            ),
        )
        with pytest.raises(FaultInjected):
            faults.trip("worker.crash", key="r000_s0000000008_x", attempt=0)
        scenario = tiny_scenario()
        job = run_job(
            Orchestrator(
                CheckpointStore(tmp_path), workers=1, chunk_size=8, retry_delay=0.0
            ),
            scenario,
        )
        assert job.status == DONE, job.error
        assert job.retries == 1
        assert job.result.counting_statistics() == golden_stats(scenario)

    def test_hard_worker_death_rebuilds_the_pool(self, tmp_path, monkeypatch):
        # os._exit in a worker is only survivable under a process pool;
        # skip (rather than kill pytest) where pools are unavailable.
        arm(
            monkeypatch,
            FaultSpec(
                point="worker.crash",
                match="r000_s0000000008*",
                times=1,
                exit_code=3,
            ),
        )
        scenario = tiny_scenario()
        orchestrator = Orchestrator(
            CheckpointStore(tmp_path), workers=2, chunk_size=8, retry_delay=0.0
        )
        if isinstance(orchestrator._ensure_executor(), ThreadPoolExecutor):
            orchestrator.shutdown()
            pytest.skip("process pools unavailable in this sandbox")
        generation = orchestrator._generation
        job = run_job(orchestrator, scenario)
        assert job.status == DONE, job.error
        assert job.retries >= 1
        assert orchestrator._generation > generation  # the pool was rebuilt
        assert job.result.counting_statistics() == golden_stats(scenario)


# ----------------------------------------------------------------------
# The acceptance campaign: crash + hang + corrupt checkpoint, one run
# ----------------------------------------------------------------------
class TestCombinedChaos:
    def test_single_campaign_survives_crash_hang_and_corruption(
        self, tmp_path, monkeypatch
    ):
        arm(
            monkeypatch,
            FaultSpec(point="worker.crash", match="r000_s0000000000*", times=1),
            FaultSpec(
                point="worker.hang",
                match="r000_s0000000008*",
                times=1,
                seconds=0.8,
            ),
            FaultSpec(point="checkpoint.corrupt", match="r000_s0000000016*"),
        )
        scenario = tiny_scenario()
        checkpoints = CheckpointStore(tmp_path)
        orchestrator = Orchestrator(
            checkpoints,
            workers=1,
            chunk_size=8,
            chunk_timeout=0.2,
            retry_delay=0.0,
        )
        job = run_job(orchestrator, scenario)
        assert job.status == DONE, job.error
        assert job.retries >= 2  # one crash retry + one timeout retry
        assert job.result.counting_statistics() == golden_stats(scenario)

        # The corrupt fault tore the third chunk's checkpoint on disk.
        # Force a full resume: the quarantine warning names the file,
        # only the torn chunk re-executes, and parity holds again.
        (tmp_path / job.job_id / "result.json").unlink()
        with pytest.warns(RuntimeWarning, match="quarantined corrupt"):
            resumed = run_job(
                Orchestrator(checkpoints, workers=1, retry_delay=0.0), scenario
            )
        assert resumed.status == DONE, resumed.error
        assert resumed.loaded_chunks == 2 and resumed.executed_chunks == 1
        assert resumed.result.counting_statistics() == golden_stats(scenario)


# ----------------------------------------------------------------------
# Corrupt / legacy job metadata (the satellite fixes)
# ----------------------------------------------------------------------
class TestCheckpointRecovery:
    def test_legacy_spec_json_regenerates_instead_of_keyerror(self, tmp_path):
        scenario = tiny_scenario()
        checkpoints = CheckpointStore(tmp_path)
        job_id = scenario.content_hash()
        # A legacy spec: valid JSON, no chunk_size/engine plan fields.
        checkpoints.write_spec(job_id, {"scenario": scenario.to_dict()})
        with pytest.warns(RuntimeWarning, match="regenerating"):
            job = run_job(
                Orchestrator(checkpoints, workers=1, retry_delay=0.0), scenario
            )
        assert job.status == DONE, job.error
        rewritten = checkpoints.read_spec(job_id)
        assert rewritten["chunk_size"] >= 1 and "engine" in rewritten
        assert job.result.counting_statistics() == golden_stats(scenario)

    def test_unparseable_spec_json_is_quarantined_and_regenerated(self, tmp_path):
        scenario = tiny_scenario()
        checkpoints = CheckpointStore(tmp_path)
        job_id = scenario.content_hash()
        spec_path = tmp_path / job_id / "spec.json"
        spec_path.parent.mkdir(parents=True)
        spec_path.write_text('{"chunk_size": 8, "eng')  # torn write
        with pytest.warns(RuntimeWarning, match="quarantined corrupt"):
            job = run_job(
                Orchestrator(checkpoints, workers=1, retry_delay=0.0), scenario
            )
        assert job.status == DONE, job.error
        assert spec_path.with_name("spec.json.corrupt").exists()
        assert checkpoints.read_spec(job_id)["chunk_size"] >= 1

    def test_corrupt_chunk_checkpoint_warns_and_reexecutes(self, tmp_path):
        scenario = tiny_scenario()
        checkpoints = CheckpointStore(tmp_path)
        first = run_job(
            Orchestrator(checkpoints, workers=1, chunk_size=8, retry_delay=0.0),
            scenario,
        )
        assert first.status == DONE
        job_dir = tmp_path / first.job_id
        (job_dir / "result.json").unlink()
        victim = next(iter(sorted((job_dir / "chunks").glob("*.json"))))
        victim.write_text('{"protocol": "mapping", "monte_ca')
        with pytest.warns(RuntimeWarning, match=str(victim.name)):
            resumed = run_job(
                Orchestrator(checkpoints, workers=1, retry_delay=0.0), scenario
            )
        assert resumed.status == DONE, resumed.error
        assert resumed.loaded_chunks == 2 and resumed.executed_chunks == 1
        assert resumed.result.counting_statistics() == golden_stats(scenario)

    def test_failing_chunk_does_not_orphan_sibling_results(
        self, tmp_path, monkeypatch
    ):
        """A failed wave checkpoints every chunk that completed."""
        from repro.service import orchestrator as orchestrator_module
        from repro.service.jobs import execute_chunk

        def poisoned(job):
            if job.chunk.key.startswith("r000_s0000000016"):
                raise ExperimentError("poisoned chunk spec")
            return execute_chunk(job)

        monkeypatch.setattr(orchestrator_module, "execute_chunk", poisoned)
        scenario = tiny_scenario()
        checkpoints = CheckpointStore(tmp_path)
        job = run_job(
            Orchestrator(checkpoints, workers=1, chunk_size=8, retry_delay=0.0),
            scenario,
        )
        assert job.status == FAILED
        # Both healthy siblings of the poisoned chunk were checkpointed;
        # nothing was cancelled mid-write or silently dropped.
        surviving = checkpoints.completed_chunks(job.job_id)
        assert surviving == {
            "r000_s0000000000_e0000000008",
            "r000_s0000000008_e0000000016",
        }


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_orchestrator_drain_checkpoints_and_resumes_to_parity(
        self, tmp_path, monkeypatch
    ):
        arm(monkeypatch, FaultSpec(point="chunk.slow", seconds=0.05, times=1))
        scenario = tiny_scenario(samples=48, seed=5)
        checkpoints = CheckpointStore(tmp_path)
        orchestrator = Orchestrator(
            checkpoints, workers=1, chunk_size=4, retry_delay=0.0
        )

        async def drained_campaign():
            job = await orchestrator.submit(scenario)
            await asyncio.sleep(0.15)
            await orchestrator.drain()
            with pytest.raises(ServiceUnavailable, match="draining"):
                await orchestrator.submit(scenario)
            return job

        try:
            job = asyncio.run(drained_campaign())
        finally:
            orchestrator.shutdown()
        assert job.status == DRAINED
        assert "drained" in job.error
        surviving = checkpoints.completed_chunks(job.job_id)
        assert 0 < len(surviving) < 12  # interrupted mid-campaign
        assert checkpoints.read_result(job.job_id) is None

        monkeypatch.delenv(faults.ENV_VAR)
        resumed = run_job(
            Orchestrator(checkpoints, workers=1, retry_delay=0.0), scenario
        )
        assert resumed.status == DONE, resumed.error
        assert resumed.loaded_chunks == len(surviving)
        assert resumed.executed_chunks == 12 - len(surviving)
        assert resumed.result.counting_statistics() == golden_stats(scenario)

    def test_http_drain_returns_clean_503_with_retry_after(self, tmp_path):
        server = make_server(
            Orchestrator(CheckpointStore(tmp_path / "ckpt"), workers=1)
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}", retries=0)
        try:
            assert client.health() == {"status": "ok"}
            server.runtime.begin_drain()
            with pytest.raises(ServiceError) as excinfo:
                client.submit(tiny_scenario())
            assert excinfo.value.status == 503
            assert "draining" in str(excinfo.value)
            # Reads stay available throughout the drain window.
            assert client.health() == {"status": "ok"}
            assert client.jobs() == []
        finally:
            server.shutdown()
            server.runtime.stop()
            server.server_close()
            thread.join(timeout=10)

    def test_client_retries_through_a_drain_window(self, tmp_path):
        server = make_server(
            Orchestrator(CheckpointStore(tmp_path / "ckpt"), workers=1)
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            server.runtime.begin_drain()
            # The drain window closes shortly (e.g. a rolling restart
            # finished); the client's 503 retry loop rides it out.
            timer = threading.Timer(
                0.3,
                lambda: setattr(server.runtime.orchestrator, "_draining", False),
            )
            timer.start()
            client = ServiceClient(
                f"http://{host}:{port}", retries=5, backoff=0.1
            )
            status = client.submit(tiny_scenario(samples=8))
            assert status["job_id"]
            timer.join()
        finally:
            server.shutdown()
            server.runtime.stop()
            server.server_close()
            thread.join(timeout=10)

    def test_client_wait_stops_at_a_drained_job(self, tmp_path, monkeypatch):
        # Slow chunks keep the job in flight while the drain lands.
        arm(monkeypatch, FaultSpec(point="chunk.slow", seconds=0.05, times=1))
        server = make_server(
            Orchestrator(
                CheckpointStore(tmp_path / "ckpt"), workers=1, chunk_size=4
            )
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}", retries=0)
        try:
            job_id = client.submit(tiny_scenario(samples=48))["job_id"]
            assert server.runtime.drain(timeout=30)
            assert client.status(job_id)["status"] == DRAINED
            began = time.monotonic()
            with pytest.raises(ExperimentError, match="drained") as excinfo:
                client.wait(job_id, timeout=5)
            assert time.monotonic() - began < 2
            assert job_id in str(excinfo.value)
            assert "resubmit" in str(excinfo.value)
        finally:
            server.shutdown()
            server.runtime.stop()
            server.server_close()
            thread.join(timeout=10)

    def test_client_connection_errors_become_service_errors(self):
        client = ServiceClient(
            "http://127.0.0.1:1", timeout=0.2, retries=1, backoff=0.01
        )
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.status == 0
        assert "cannot reach" in str(excinfo.value)


# ----------------------------------------------------------------------
# SIGTERM drain of a real `repro serve` process
# ----------------------------------------------------------------------
@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals required")
class TestServeSigtermDrain:
    def test_sigterm_drains_cleanly_and_resumes_to_parity(self, tmp_path):
        scenario = tiny_scenario(samples=48, seed=5)
        checkpoints_dir = tmp_path / "ckpt"
        chunks_dir = checkpoints_dir / scenario.content_hash() / "chunks"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env[faults.ENV_VAR] = FaultPlan(
            faults=(FaultSpec(point="chunk.slow", seconds=0.08, times=1),)
        ).to_json()
        log = tmp_path / "serve.log"
        with log.open("w") as log_handle:
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "serve",
                    "--port",
                    "0",
                    "--workers",
                    "1",
                    "--chunk-size",
                    "2",
                    "--drain-grace",
                    "20",
                    "--checkpoints",
                    str(checkpoints_dir),
                    "--jsonl",
                    str(tmp_path / "artifacts.jsonl"),
                ],
                env=env,
                stdout=log_handle,
                stderr=subprocess.STDOUT,
            )
        try:
            deadline = time.monotonic() + 60
            port = None
            while time.monotonic() < deadline and port is None:
                for line in log.read_text().splitlines():
                    if "listening on" in line:
                        port = int(line.rsplit(":", 1)[1])
                time.sleep(0.05)
            assert port is not None, "server never printed its port"

            client = ServiceClient(f"http://127.0.0.1:{port}", retries=0)
            client.submit(scenario)
            while time.monotonic() < deadline:
                if len(list(chunks_dir.glob("*.json"))) >= 3:
                    break
                assert proc.poll() is None, "server died prematurely"
                time.sleep(0.01)
            else:
                pytest.fail("server never checkpointed 3 chunks")

            proc.send_signal(signal.SIGTERM)
            # During the drain window a new submission is refused with a
            # clean 503 — unless the drain already completed and the
            # socket is gone, which is equally acceptable.
            try:
                client.submit(tiny_scenario(samples=8, name="late"))
                pytest.fail("submission during drain was accepted")
            except ServiceError as error:
                assert error.status in (503, 0)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        output = log.read_text()
        assert "draining" in output and "drained" in output

        # The drain preserved an incomplete, resumable campaign.
        store = CheckpointStore(checkpoints_dir)
        surviving = store.completed_chunks(scenario.content_hash())
        assert 0 < len(surviving) < 24
        assert store.read_result(scenario.content_hash()) is None
        resumed = run_job(Orchestrator(store, workers=1, retry_delay=0.0), scenario)
        assert resumed.status == DONE, resumed.error
        assert resumed.loaded_chunks == len(surviving)
        assert resumed.result.counting_statistics() == golden_stats(scenario)
