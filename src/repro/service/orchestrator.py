"""Async job orchestration: supervise chunk jobs, checkpoint, resume.

:class:`Orchestrator` is an asyncio supervisor over a process pool.  A
submitted :class:`~repro.api.scenarios.Scenario` becomes a
:class:`Job` keyed by its content hash; the job's chunk plan
(:mod:`repro.service.jobs`) fans out across the pool, and **every
completed chunk is checkpointed** into a
:class:`~repro.service.store.CheckpointStore` the moment it finishes.
Supervision is cheap — chunks execute in worker processes, so one
event loop can juggle many campaigns and HTTP clients concurrently.

Crash/resume semantics
----------------------
Kill the orchestrator at any instant and no state is lost beyond the
chunks in flight: checkpoints are atomic files, so a restarted
orchestrator re-plans the same (machine-invariant) chunk keys, loads
the finished ones and executes **only the missing ones**.  The merged
statistics are bit-for-bit those of an uninterrupted run, because every
chunk is a pure function of ``(spec, global sample range, engine)`` and
:meth:`MonteCarloResult.merge` reassembles disjoint ranges exactly.

Cache sharing
-------------
Completed jobs publish their result twice: into the checkpoint store
(``result.json``, the resume fast-path) and — when an
:class:`~repro.api.artifacts.ArtifactStore` is attached — as one atomic
JSONL block, so CLI runs, other servers and future submissions of the
same spec all hit the same warm cache.  Concurrent submissions of one
spec dedup onto a single in-flight job.

Fault tolerance
---------------
Chunk execution survives the failures the mapper survives in silicon
(see ``docs/architecture.md`` → *Failure model*):

* each dispatch runs under an optional **per-chunk timeout**;
* failures are **classified** (:mod:`repro.service.resilience`):
  transient ones (worker death, broken pool, OS errors, timeouts) are
  retried with seeded exponential backoff — the jitter derives from the
  chunk key, so reruns sleep the same schedule — while deterministic
  ones (:class:`~repro.exceptions.ReproError`) are quarantined at once;
* a broken process pool is **rebuilt** (generation-guarded, so many
  chunks poisoned by one dead worker trigger a single rebuild);
* a chunk that exhausts its budget is **quarantined**: under the
  default ``partial_policy="fail"`` the job fails naming the chunk,
  under ``"partial"`` the job completes with the surviving ranges and
  the quarantined sample ranges recorded on its status payload (a
  partial result is *never* written to ``result.json`` or the artifact
  store, so resubmitting retries exactly the quarantined chunks);
* :meth:`Orchestrator.drain` stops dispatching new chunks while letting
  in-flight ones finish and checkpoint — an interrupted job parks in
  the ``drained`` state and resumes bit-for-bit on resubmission.
"""

from __future__ import annotations

import asyncio
import threading
import time
import warnings
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.api.artifacts import ArtifactStore
from repro.api.batch import auto_workers, start_process_pool
from repro.api.runner import (
    ScenarioResult,
    adaptive_settings,
    mapping_row,
    sample_stream_length,
)
from repro.api.scenarios import Scenario
from repro.engines import canonical_engine
from repro.exceptions import ExperimentError
from repro.service.jobs import (
    ChunkJob,
    ChunkSpec,
    crossbar_cells,
    default_chunk_size,
    execute_chunk,
    merge_mapping_chunks,
    plan_range_chunks,
)
from repro.service.resilience import (
    DETERMINISTIC,
    QuarantinedChunk,
    backoff_delay,
    classify_failure,
)
from repro.service.store import CheckpointStore

#: Job lifecycle states.  ``drained`` is terminal for the job object but
#: not for the campaign: its checkpoints are intact and a resubmission
#: (typically to a fresh server) resumes from them.
QUEUED, RUNNING, DONE, FAILED, DRAINED = (
    "queued",
    "running",
    "done",
    "failed",
    "drained",
)


class JobDrained(ExperimentError):
    """A job was interrupted by a graceful drain before completion."""


class ServiceUnavailable(ExperimentError):
    """The orchestrator is draining and refuses new submissions.

    The HTTP layer maps this to ``503`` + ``Retry-After``.
    """


@dataclass
class Job:
    """One submitted scenario's lifecycle state."""

    job_id: str
    scenario: Scenario
    status: str = QUEUED
    cached: bool = False
    total_chunks: int = 0
    loaded_chunks: int = 0
    executed_chunks: int = 0
    error: str | None = None
    retries: int = 0
    quarantined: list[QuarantinedChunk] = field(default_factory=list)
    submitted_at: float = field(default_factory=time.time)
    finished_at: float | None = None
    result: ScenarioResult | None = None
    done: asyncio.Event = field(default_factory=asyncio.Event)

    @property
    def completed_chunks(self) -> int:
        """Chunks accounted for so far (checkpoint-loaded + executed)."""
        return self.loaded_chunks + self.executed_chunks

    @property
    def partial(self) -> bool:
        """Whether the result (if any) is missing quarantined ranges."""
        return bool(self.quarantined)

    def status_payload(self) -> dict:
        """JSON-safe status snapshot (the HTTP ``status`` body)."""
        return {
            "job_id": self.job_id,
            "name": self.scenario.name,
            "protocol": self.scenario.protocol,
            "status": self.status,
            "cached": self.cached,
            "total_chunks": self.total_chunks,
            "completed_chunks": self.completed_chunks,
            "loaded_chunks": self.loaded_chunks,
            "executed_chunks": self.executed_chunks,
            "retries": self.retries,
            "partial": self.partial,
            "quarantined": [entry.to_dict() for entry in self.quarantined],
            "error": self.error,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
        }


class Orchestrator:
    """Asyncio supervisor executing chunk jobs on a process pool.

    Parameters
    ----------
    checkpoints:
        Chunk-level checkpoint store (the resume substrate).
    artifacts:
        Optional shared JSONL artifact store: complete results are
        published there as atomic blocks, and a submission whose spec
        already has a complete artifact is answered from it without
        computing anything.
    workers:
        Pool size (``None`` = the machine's CPU count).  Sandboxes
        without process-spawn rights degrade to a thread pool — slower,
        identical statistics.
    engine / chunk_size:
        Execution defaults recorded into each job's checkpoint spec;
        resumed jobs always reuse the recorded values so their chunk
        keys (and engine-tagged chunk payloads) keep matching.
    chunk_timeout:
        Per-chunk wall-clock deadline in seconds (``None`` = no
        deadline).  A timed-out dispatch counts as a transient failure:
        the abandoned worker's eventual result is discarded and the
        chunk is retried on a fresh slot.
    chunk_retries:
        Extra dispatches granted to a transiently failing chunk (total
        attempts = ``chunk_retries + 1``).  Deterministic failures
        never retry.
    retry_delay:
        Base of the seeded exponential backoff between retries, in
        seconds (``0`` disables the sleep, e.g. for tests).
    partial_policy:
        What a quarantined chunk does to its job: ``"fail"`` (default)
        fails the whole job naming the chunk; ``"partial"`` completes
        the job from the surviving chunks and records the quarantined
        sample ranges on the job payload.  Partial results are never
        cached, so resubmission retries exactly the missing ranges.
    """

    #: Upper bound on one backoff sleep, seconds.
    MAX_RETRY_DELAY = 5.0

    def __init__(
        self,
        checkpoints: CheckpointStore,
        *,
        artifacts: ArtifactStore | None = None,
        workers: int | None = None,
        engine: str = "auto",
        chunk_size: int | None = None,
        chunk_timeout: float | None = None,
        chunk_retries: int = 2,
        retry_delay: float = 0.05,
        partial_policy: str = "fail",
    ):
        if workers is not None and workers < 1:
            raise ExperimentError(f"workers must be >= 1 or None, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ExperimentError(
                f"chunk_size must be >= 1 or None, got {chunk_size}"
            )
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ExperimentError(
                f"chunk_timeout must be positive or None, got {chunk_timeout}"
            )
        if chunk_retries < 0:
            raise ExperimentError(
                f"chunk_retries must be >= 0, got {chunk_retries}"
            )
        if partial_policy not in ("fail", "partial"):
            raise ExperimentError(
                f"partial_policy must be 'fail' or 'partial', got "
                f"{partial_policy!r}"
            )
        self.checkpoints = checkpoints
        self.artifacts = artifacts
        self.workers = workers
        # The validated name is what gets persisted into job specs; an
        # ``"auto"`` job resolves per executing machine, which is safe
        # because cross-engine partials merge (engine="mixed").
        self.engine = canonical_engine(engine)
        self.chunk_size = chunk_size
        self.chunk_timeout = chunk_timeout
        self.chunk_retries = chunk_retries
        self.retry_delay = retry_delay
        self.partial_policy = partial_policy
        self.jobs: dict[str, Job] = {}
        self._executor = None
        self._executor_workers = 0
        self._generation = 0
        self._draining = False
        self._gate: asyncio.Semaphore | None = None
        self._gate_loop: asyncio.AbstractEventLoop | None = None
        # Held by a planning thread while it builds a circuit and by the
        # loop while it starts the pool: a fork in mid-build (say, while
        # the build first imports the compiled tier) would hand the
        # workers a module lock that none of their threads can release.
        self._build_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Executor management
    # ------------------------------------------------------------------
    def _ensure_executor(self):
        if self._executor is not None:
            return self._executor
        workers = self.workers if self.workers is not None else auto_workers()
        # Fall back to threads where process pools are unavailable.
        with self._build_lock:
            pool = start_process_pool(workers) if workers > 1 else None
        self._executor = pool or ThreadPoolExecutor(max_workers=workers)
        self._executor_workers = workers
        return self._executor

    def _retire_executor(self, generation: int) -> None:
        """Discard the executor ``generation`` was dispatched on.

        Generation-guarded: when one dead worker poisons every pending
        future of a process pool, each affected chunk calls in here but
        only the first replaces the pool — the rest see a newer
        generation and reuse the rebuilt executor on retry.  The old
        pool is abandoned without waiting (its surviving queued futures
        still complete and deliver; a genuinely hung worker keeps its
        process until its task ends, but no new work lands on it).
        """
        if generation != self._generation or self._executor is None:
            return
        self._generation += 1
        self._executor.shutdown(wait=False)
        self._executor = None

    def _dispatch_gate(self) -> asyncio.Semaphore:
        """Semaphore sized to the pool, recreated per event loop.

        Dispatching at most ``workers`` chunks at a time keeps the
        executor queue empty, which makes per-chunk timeouts measure
        *execution* (not queue wait) and lets a drain cut off the
        chunks that have not started yet.
        """
        loop = asyncio.get_running_loop()
        if self._gate is None or self._gate_loop is not loop:
            self._ensure_executor()
            self._gate = asyncio.Semaphore(max(self._executor_workers, 1))
            self._gate_loop = loop
        return self._gate

    def shutdown(self) -> None:
        """Release the worker pool (idempotent).

        Waits for the pool to wind down — a process pool abandoned with
        ``wait=False`` races the interpreter's atexit hooks and spews
        ``Exception ignored`` noise on clean server exits.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    # ------------------------------------------------------------------
    # Submission and queries
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        """Whether a graceful drain has begun (new submissions refused)."""
        return self._draining

    def begin_drain(self) -> None:
        """Refuse new submissions and stop dispatching new chunks.

        In-flight chunk dispatches finish and checkpoint; jobs cut off
        mid-campaign settle in the ``drained`` state.  Safe to call
        from any thread (a one-way bool flip).
        """
        self._draining = True

    async def drain(self) -> None:
        """Begin draining and wait until every job settles.

        After this returns, every in-flight chunk has either finished
        (and checkpointed) or never started, so a process exit loses no
        completed work.
        """
        self.begin_drain()
        pending = [
            job.done.wait()
            for job in self.jobs.values()
            if not job.done.is_set()
        ]
        if pending:
            await asyncio.gather(*pending)

    async def submit(self, scenario: Scenario) -> Job:
        """Submit a scenario; concurrent identical submissions share one job.

        Returns immediately with the (possibly pre-existing) job;
        :meth:`wait` awaits its completion.  A spec whose result the
        checkpoint store or the artifact store already holds comes back
        ``done`` and ``cached`` at once, computing nothing.  A job that
        previously failed, was drained, or completed only partially
        (quarantined chunks under ``partial_policy="partial"``) is
        retried by resubmission; a healthy in-flight or completed job is
        shared.
        """
        if self._draining:
            raise ServiceUnavailable(
                "the orchestrator is draining; resubmit after restart"
            )
        job_id = scenario.content_hash()
        existing = self.jobs.get(job_id)
        if existing is not None:
            retryable = existing.done.is_set() and (
                existing.status in (FAILED, DRAINED) or existing.partial
            )
            if not retryable:
                return existing
        job = Job(job_id=job_id, scenario=scenario)
        self.jobs[job_id] = job
        try:
            job.result = self._cached_result(job)
        except Exception as error:  # surfaced through the job, as in _run_job
            job.error = f"{type(error).__name__}: {error}"
        if job.result is None and job.error is None:
            asyncio.create_task(self._run_job(job))
            return job
        job.status = FAILED if job.error is not None else DONE
        job.finished_at = time.time()
        job.done.set()
        return job

    async def wait(self, job_id: str) -> Job:
        """Await one job's completion (done or failed)."""
        job = self.get(job_id)
        await job.done.wait()
        return job

    def get(self, job_id: str) -> Job:
        """Look up one job."""
        try:
            return self.jobs[job_id]
        except KeyError:
            raise ExperimentError(f"unknown job {job_id!r}") from None

    def status(self, job_id: str) -> dict:
        """One job's status snapshot."""
        return self.get(job_id).status_payload()

    def list_jobs(self) -> list[dict]:
        """Status snapshots of every job, oldest first."""
        return [
            job.status_payload()
            for job in sorted(self.jobs.values(), key=lambda j: j.submitted_at)
        ]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    async def _run_job(self, job: Job) -> None:
        job.status = RUNNING
        started = time.perf_counter()
        try:
            rows = await self._execute(job)
            result = ScenarioResult(
                scenario=job.scenario,
                spec_hash=job.job_id,
                rows=rows,
                elapsed_seconds=time.perf_counter() - started,
                workers=self._executor_workers or 1,
            )
            if not job.partial:
                # A partial result (quarantined ranges) is served but
                # never cached: result.json / the artifact store only
                # ever hold complete statistics, and a resubmission
                # re-executes exactly the gaps.
                self.checkpoints.write_result(job.job_id, result.to_dict())
                if self.artifacts is not None:
                    self.artifacts.write_block(
                        job.job_id,
                        job.scenario.to_dict(),
                        result.rows,
                        elapsed_seconds=result.elapsed_seconds,
                        workers=result.workers,
                    )
            job.result = result
            job.status = DONE
        except asyncio.CancelledError:
            raise
        except JobDrained as error:
            job.error = str(error)
            job.status = DRAINED
        except Exception as error:  # surfaced through the job, not the loop
            job.error = f"{type(error).__name__}: {error}"
            job.status = FAILED
        finally:
            job.finished_at = time.time()
            job.done.set()

    def _cached_result(self, job: Job) -> ScenarioResult | None:
        """A previously completed result for this spec, if any exists."""
        payload = self.checkpoints.read_result(job.job_id)
        if payload is not None:
            result = ScenarioResult.from_dict(payload)
            result.cached = True
            job.cached = True
            return result
        if self.artifacts is not None:
            record = self.artifacts.load(job.job_id)
            if record is not None:
                job.cached = True
                return ScenarioResult.from_record(record)
        return None

    async def _job_plan_settings(self, job: Job) -> tuple[int, str]:
        """Resolve (and persist) the job's chunk size and engine.

        A resumed job must re-derive the chunk keys and engine of its
        existing checkpoints, so the values recorded at first submission
        always win over the orchestrator's current defaults.  A new
        job's default chunk size reads the scenario alone (its sample
        count and :func:`~repro.service.jobs.crossbar_cells`), so it is
        the same on every machine.  The circuit build behind the cells
        runs on a helper thread of this process, so HTTP calls and chunk
        completions never wait on it, and pool workers that fork after
        it inherit the circuit; the pool never forks during a build.

        A ``spec.json`` that parses but lacks a usable plan (a legacy
        or externally damaged file) must not brick the job forever: the
        plan is regenerated and rewritten with a warning.  Checkpoints
        keyed under a *different* lost chunk size are simply not found
        by the new plan and re-execute — correctness is untouched, the
        statistics are a pure function of the spec and ranges.
        """
        scenario = job.scenario
        stored = self.checkpoints.read_spec(job.job_id)
        if stored is not None:
            chunk_size = stored.get("chunk_size")
            engine = stored.get("engine")
            if (
                isinstance(chunk_size, int)
                and chunk_size >= 1
                and isinstance(engine, str)
            ):
                return chunk_size, engine
            warnings.warn(
                f"checkpoint spec.json of job {job.job_id} is corrupt or "
                "legacy (missing chunk_size/engine); regenerating the "
                "execution plan — checkpoints under unknown chunk keys "
                "will be recomputed",
                RuntimeWarning,
                stacklevel=2,
            )
        chunk_size = self.chunk_size or default_chunk_size(
            sample_stream_length(scenario),
            await asyncio.to_thread(self._crossbar_cells, scenario),
        )
        self.checkpoints.write_spec(
            job.job_id,
            {
                "scenario": scenario.to_dict(),
                "spec_hash": job.job_id,
                "chunk_size": chunk_size,
                "engine": self.engine,
            },
        )
        return chunk_size, self.engine

    def _crossbar_cells(self, scenario: Scenario) -> int | None:
        with self._build_lock:
            return crossbar_cells(scenario)

    async def _execute(self, job: Job) -> list[dict]:
        chunk_size, engine = await self._job_plan_settings(job)
        scenario = job.scenario
        if scenario.protocol == "mapping":
            return await self._execute_waves(job, chunk_size, engine)
        # An area job is one static range; under the "partial" policy a
        # quarantined chunk's sample indices are simply absent.
        plan = plan_range_chunks(
            0, 0, sample_stream_length(scenario), chunk_size
        )
        job.total_chunks = len(plan)
        payloads = await self._run_wave(job, plan, engine)
        return sorted(
            (row for payload in payloads.values() for row in payload["rows"]),
            key=lambda row: row["index"],
        )

    async def _run_wave(
        self, job: Job, plan: list[ChunkSpec], engine: str
    ) -> dict[ChunkSpec, dict]:
        """Run one set of chunks concurrently, loading checkpoints first.

        Every chunk runs to its own conclusion — completed siblings of
        a failing chunk are checkpointed, never cancelled with orphaned
        executor futures (``gather(return_exceptions=True)``), so a
        failed or drained wave loses only the work that actually
        failed.  Quarantined chunks (``partial_policy="partial"``) are
        simply absent from the returned payload map.
        """
        scenario_payload = job.scenario.to_dict()

        async def run_one(chunk: ChunkSpec) -> tuple[ChunkSpec, dict | None]:
            payload = self.checkpoints.read_chunk(job.job_id, chunk.key)
            if payload is not None:
                job.loaded_chunks += 1
                return chunk, payload
            async with self._dispatch_gate():
                outcome = await self._run_chunk_with_retries(
                    job, chunk, engine, scenario_payload
                )
            if isinstance(outcome, QuarantinedChunk):
                if self.partial_policy == "fail":
                    raise ExperimentError(
                        f"chunk {chunk.key} of job {job.job_id} is "
                        f"quarantined after {outcome.attempts} attempt(s): "
                        f"{outcome.error}"
                    )
                job.quarantined.append(outcome)
                return chunk, None
            self.checkpoints.write_chunk(job.job_id, chunk.key, outcome)
            job.executed_chunks += 1
            return chunk, outcome

        results = await asyncio.gather(
            *(run_one(chunk) for chunk in plan), return_exceptions=True
        )
        payloads: dict[ChunkSpec, dict] = {}
        drained: JobDrained | None = None
        failure: BaseException | None = None
        for item in results:
            if isinstance(item, JobDrained):
                drained = drained or item
            elif isinstance(item, BaseException):
                failure = failure or item
            else:
                chunk, payload = item
                if payload is not None:
                    payloads[chunk] = payload
        if failure is not None:
            raise failure
        if drained is not None:
            raise drained
        return payloads

    async def _run_chunk_with_retries(
        self,
        job: Job,
        chunk: ChunkSpec,
        engine: str,
        scenario_payload: dict,
    ) -> dict | QuarantinedChunk:
        """One chunk's dispatch loop: timeout, classify, back off, retry.

        Returns the chunk payload on success or a
        :class:`QuarantinedChunk` once the failure budget is spent (or
        immediately for a deterministic failure).  Transient failures
        on a broken/timed-out executor retire it (generation-guarded)
        so the retry lands on a healthy pool.
        """
        loop = asyncio.get_running_loop()
        attempts = self.chunk_retries + 1
        last_error: BaseException | None = None
        for attempt in range(attempts):
            if self._draining:
                raise JobDrained(
                    f"job {job.job_id} drained before chunk {chunk.key} "
                    "was dispatched"
                )
            executor = self._ensure_executor()
            generation = self._generation
            chunk_job = ChunkJob(
                spec_hash=job.job_id,
                scenario_payload=scenario_payload,
                chunk=chunk,
                engine=engine,
                attempt=attempt,
            )
            try:
                future = loop.run_in_executor(executor, execute_chunk, chunk_job)
                if self.chunk_timeout is not None:
                    payload = await asyncio.wait_for(future, self.chunk_timeout)
                else:
                    payload = await future
                return payload
            except asyncio.CancelledError:
                raise
            except TimeoutError as error:
                # The abandoned dispatch may still occupy a worker;
                # retire the pool so the retry gets a fresh slot.
                last_error = error
                self._retire_executor(generation)
            except Exception as error:
                if classify_failure(error) == DETERMINISTIC:
                    return QuarantinedChunk(
                        chunk=chunk,
                        attempts=attempt + 1,
                        error=f"{type(error).__name__}: {error}",
                    )
                last_error = error
                if isinstance(error, BrokenExecutor):
                    self._retire_executor(generation)
            if attempt + 1 < attempts:
                job.retries += 1
                delay = backoff_delay(
                    job.scenario.seed,
                    chunk.key,
                    attempt,
                    base=self.retry_delay,
                    cap=self.MAX_RETRY_DELAY,
                )
                if delay > 0:
                    await asyncio.sleep(delay)
        reason = (
            f"{type(last_error).__name__}: {last_error}"
            if last_error is not None
            else "unknown failure"
        )
        if isinstance(last_error, TimeoutError) and not str(last_error):
            reason = (
                f"TimeoutError: chunk exceeded the {self.chunk_timeout}s "
                "per-chunk timeout"
            )
        return QuarantinedChunk(chunk=chunk, attempts=attempts, error=reason)

    async def _execute_waves(
        self, job: Job, chunk_size: int, engine: str
    ) -> list[dict]:
        """Wave-by-wave mapping sharding (see :mod:`repro.service.jobs`).

        Drives :func:`repro.analysis.adaptive.adaptive_loop`, the loop
        of :func:`~repro.analysis.adaptive.run_adaptive_monte_carlo`,
        once per redundancy row, with each batch sharded across the pool
        as one chunk wave, so a job stops at exactly the sample count
        the in-process sampler chooses — the stopping rule reads
        counting statistics only, which are invariant to the sharding.
        A fixed-budget row is the loop's one wave.
        """
        from repro.analysis.adaptive import adaptive_loop

        scenario = job.scenario
        rows = []
        for row_index, redundancy in enumerate(scenario.redundancy):
            loop = adaptive_loop(**adaptive_settings(scenario))
            offset, size = next(loop)
            while True:
                wave = plan_range_chunks(
                    row_index, offset, offset + size, chunk_size
                )
                job.total_chunks += len(wave)
                payloads = await self._run_wave(job, wave, engine)
                if job.quarantined and scenario.tolerance is not None:
                    # The stopping rule reads the statistics, so a gap
                    # would change the sample schedule itself: adaptive
                    # campaigns cannot serve partial results.
                    raise ExperimentError(
                        f"adaptive job {job.job_id} cannot tolerate "
                        "quarantined chunks "
                        f"({[q.chunk.key for q in job.quarantined]}); "
                        "the stopping rule needs every batch's statistics"
                    )
                if not payloads:
                    raise ExperimentError(
                        f"cannot assemble {scenario.name!r}: every chunk of "
                        f"redundancy row {row_index} was lost or quarantined"
                    )
                # A fixed row under the "partial" policy merges the
                # chunks that survived; the merged sample_ranges name
                # the gaps.
                partial = merge_mapping_chunks(
                    [payloads[chunk] for chunk in sorted(payloads)]
                )
                try:
                    offset, size = loop.send(partial)
                except StopIteration as stop:
                    rows.append(mapping_row(scenario, redundancy, stop.value))
                    break
        return rows
