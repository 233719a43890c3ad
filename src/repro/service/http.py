"""Dependency-free HTTP facade over the orchestrator.

``python -m repro serve`` starts a :class:`ServiceServer` — a stdlib
:class:`~http.server.ThreadingHTTPServer` whose handler threads talk to
one :class:`Orchestrator` running on a dedicated asyncio loop thread
(:class:`ServiceRuntime`).  Handler threads never touch orchestrator
state directly: every operation crosses into the loop via
:func:`asyncio.run_coroutine_threadsafe`, so the orchestrator stays
single-threaded and two clients submitting the same spec race onto the
*same* in-flight job instead of two computations.

Endpoints (all JSON):

========================  =====================================================
``GET  /healthz``          liveness probe
``GET  /v1/jobs``          every job's status snapshot
``POST /v1/jobs``          submit a scenario spec (``Scenario.to_dict`` shape);
                           returns its job status — immediately ``done`` +
                           ``cached`` when the spec is already in a store;
                           ``503`` + ``Retry-After`` while the server drains
``GET  /v1/jobs/<id>``     one job's status
``GET  /v1/jobs/<id>/result``  the full ``ScenarioResult`` payload (409 until
                           the job is done)
``GET  /v1/artifacts/<hash>``  latest complete record for any content hash in
                           the shared JSONL artifact store — the scenarios
                           of ``repro run``, of ``repro analyze`` (curve
                           points, spare candidates) and of this service
                           alike
========================  =====================================================
"""

from __future__ import annotations

import asyncio
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.api.scenarios import Scenario
from repro.exceptions import ExperimentError, ReproError
from repro.service.orchestrator import (
    DONE,
    FAILED,
    Orchestrator,
    ServiceUnavailable,
)

#: Seconds a handler thread waits for a loop-side operation to finish.
CALL_TIMEOUT = 60.0

#: ``Retry-After`` seconds advertised with a 503 while draining — short,
#: because a draining server is typically about to be replaced.
RETRY_AFTER_SECONDS = 1


class ServiceRuntime:
    """Owns the asyncio loop thread the orchestrator lives on."""

    def __init__(self, orchestrator: Orchestrator):
        self.orchestrator = orchestrator
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-service-loop", daemon=True
        )
        self._started = False

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def start(self) -> "ServiceRuntime":
        """Start the loop thread (idempotent)."""
        if not self._started:
            self._started = True
            self._thread.start()
        return self

    @property
    def draining(self) -> bool:
        """Whether the orchestrator refuses new submissions."""
        return self.orchestrator.draining

    def begin_drain(self) -> None:
        """Start refusing submissions (503) without stopping the loop."""
        self.orchestrator.begin_drain()

    def drain(self, timeout: float | None = None) -> bool:
        """Gracefully drain: refuse new work, wait for in-flight chunks.

        Returns ``True`` when every job settled within ``timeout``
        seconds (``None`` = wait indefinitely), ``False`` on deadline —
        either way, every chunk that finished has been checkpointed, so
        a subsequent :meth:`stop` + process exit loses nothing.
        """
        self.begin_drain()
        if not self._started:
            return True
        future = asyncio.run_coroutine_threadsafe(
            self.orchestrator.drain(), self.loop
        )
        try:
            future.result(timeout=timeout)
            return True
        except TimeoutError:
            future.cancel()
            return False

    def stop(self) -> None:
        """Stop the loop thread, close its loop, release the worker pool.

        A loop whose thread did not stop within :data:`CALL_TIMEOUT`
        stays open, since a running loop cannot be closed.
        """
        if self._started:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join(timeout=CALL_TIMEOUT)
            self._started = False
        if not self._thread.is_alive() and not self.loop.is_closed():
            self.loop.close()
        self.orchestrator.shutdown()

    def _call(self, coroutine):
        """Run one coroutine on the loop thread and wait for its value."""
        future = asyncio.run_coroutine_threadsafe(coroutine, self.loop)
        return future.result(timeout=CALL_TIMEOUT)

    # ------------------------------------------------------------------
    # Thread-safe operations (called from HTTP handler threads)
    # ------------------------------------------------------------------
    def submit(self, payload: dict) -> dict:
        """Submit a scenario payload; returns the job status snapshot."""
        if not isinstance(payload, dict) or "source" not in payload:
            raise ExperimentError(
                "a job submission must be a scenario object (the "
                "Scenario.to_dict shape, with a 'source' key)"
            )
        scenario = Scenario.from_dict(payload)

        async def _submit() -> dict:
            job = await self.orchestrator.submit(scenario)
            return job.status_payload()

        return self._call(_submit())

    def status(self, job_id: str) -> dict:
        """One job's status snapshot."""

        async def _status() -> dict:
            return self.orchestrator.status(job_id)

        return self._call(_status())

    def jobs(self) -> list[dict]:
        """Every job's status snapshot."""

        async def _jobs() -> list[dict]:
            return self.orchestrator.list_jobs()

        return self._call(_jobs())

    def result(self, job_id: str) -> dict:
        """One finished job's full result payload.

        Raises :class:`ExperimentError` while the job is still running
        or after it failed — the HTTP layer maps that to 409.
        """

        async def _result() -> dict:
            job = self.orchestrator.get(job_id)
            if job.status == FAILED:
                raise ExperimentError(f"job {job_id} failed: {job.error}")
            if job.status != DONE or job.result is None:
                raise ExperimentError(f"job {job_id} is still {job.status}")
            return job.result.to_dict()

        return self._call(_result())

    def artifact(self, spec_hash: str) -> dict:
        """The latest complete artifact-store record for a content hash."""
        artifacts = self.orchestrator.artifacts
        if artifacts is None:
            raise ExperimentError("this server has no artifact store attached")
        record = artifacts.load(spec_hash)
        if record is None:
            raise ExperimentError(f"no complete artifact for hash {spec_hash!r}")
        return {
            "hash": record.spec_hash,
            "spec": record.spec,
            "rows": record.rows,
            "elapsed_seconds": record.elapsed_seconds,
            "workers": record.workers,
        }


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes the endpoint table above onto the runtime."""

    #: Cap on accepted request bodies (a scenario spec is a few KB).
    MAX_BODY = 4 * 1024 * 1024

    server: "ServiceServer"

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _send_json(
        self, status: int, payload, headers: dict[str, str] | None = None
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_unavailable(self, message: str) -> None:
        """503 + ``Retry-After`` — the draining answer to a submission."""
        self._send_json(
            503,
            {"error": message, "retry_after": RETRY_AFTER_SECONDS},
            headers={"Retry-After": str(RETRY_AFTER_SECONDS)},
        )

    def _send_error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def _route(self) -> list[str]:
        return [part for part in self.path.split("?", 1)[0].split("/") if part]

    # ------------------------------------------------------------------
    # Methods
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        runtime = self.server.runtime
        parts = self._route()
        try:
            if parts == ["healthz"]:
                self._send_json(200, {"status": "ok"})
            elif parts == ["v1", "jobs"]:
                self._send_json(200, {"jobs": runtime.jobs()})
            elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                self._send_json(200, runtime.status(parts[2]))
            elif (
                len(parts) == 4
                and parts[:2] == ["v1", "jobs"]
                and parts[3] == "result"
            ):
                self._send_json(200, runtime.result(parts[2]))
            elif len(parts) == 3 and parts[:2] == ["v1", "artifacts"]:
                self._send_json(200, runtime.artifact(parts[2]))
            else:
                self._send_error(404, f"no such endpoint: {self.path}")
        except ReproError as error:
            message = str(error)
            if "unknown job" in message or "no complete artifact" in message:
                self._send_error(404, message)
            elif "still" in message or "failed" in message:
                self._send_error(409, message)
            else:
                self._send_error(400, message)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        runtime = self.server.runtime
        if self._route() != ["v1", "jobs"]:
            self._send_error(404, f"no such endpoint: {self.path}")
            return
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0 or length > self.MAX_BODY:
            self._send_error(400, "submissions need a JSON body")
            return
        if runtime.draining:
            self._send_unavailable("service is draining; retry shortly")
            return
        try:
            payload = json.loads(self.rfile.read(length))
        except json.JSONDecodeError as error:
            self._send_error(400, f"invalid JSON body: {error}")
            return
        try:
            status = runtime.submit(payload)
        except ServiceUnavailable as error:
            # The drain began between the check above and the loop-side
            # submit — same clean 503 either way.
            self._send_unavailable(str(error))
            return
        except ReproError as error:
            self._send_error(400, str(error))
            return
        self._send_json(202 if status["status"] != "done" else 200, status)


class ServiceServer(ThreadingHTTPServer):
    """The HTTP server bound to one :class:`ServiceRuntime`."""

    daemon_threads = True

    def __init__(self, address, runtime: ServiceRuntime, *, verbose: bool = False):
        super().__init__(address, ServiceHandler)
        self.runtime = runtime
        self.verbose = verbose


def make_server(
    orchestrator: Orchestrator,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    verbose: bool = False,
) -> ServiceServer:
    """Build (and start the runtime of) a server over ``orchestrator``.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.server_address``.  The caller owns the serve loop: call
    ``serve_forever()`` (blocking) or drive it from a thread in tests,
    and ``shutdown()`` + ``runtime.stop()`` to tear down; call
    ``runtime.drain()`` first for a graceful (checkpoint-preserving,
    503-answering) exit.
    """
    runtime = ServiceRuntime(orchestrator).start()
    return ServiceServer((host, port), runtime, verbose=verbose)
