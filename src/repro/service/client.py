"""Minimal stdlib client for the ``repro serve`` HTTP API.

Used by the CI smoke test and the test-suite; handy interactively too::

    from repro.service.client import ServiceClient
    client = ServiceClient("http://127.0.0.1:8750")
    status = client.submit(scenario)
    status = client.wait(status["job_id"])
    result = client.result(status["job_id"])    # a ScenarioResult
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

from repro.api.runner import ScenarioResult
from repro.api.scenarios import Scenario
from repro.exceptions import ExperimentError


class ServiceError(ExperimentError):
    """An HTTP error answer from the service, with its status code."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class ServiceClient:
    """Talk to one ``repro serve`` instance over HTTP.

    Every request runs under ``timeout`` seconds and is retried with
    exponential backoff on the two failure shapes a well-behaved client
    must absorb: ``503`` (the server is draining for a restart; its
    ``Retry-After`` header, when present, overrides the backoff) and
    connection-level errors (the server is briefly down between drain
    and restart).  Retrying submissions is safe — jobs are keyed by
    content hash, so a duplicate ``POST`` lands on the same job.
    ``retries=0`` restores fail-fast behaviour for tests.
    """

    #: HTTP statuses worth retrying (the server said "come back").
    RETRYABLE_STATUS = frozenset({503})

    #: Upper bound on one backoff sleep, seconds.
    MAX_BACKOFF = 5.0

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 60.0,
        retries: int = 3,
        backoff: float = 0.25,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff

    def _delay(self, attempt: int, retry_after: float | None) -> float:
        if retry_after is not None:
            return min(retry_after, self.MAX_BACKOFF)
        return min(self.backoff * (2.0**attempt), self.MAX_BACKOFF)

    def _request(self, path: str, body: dict | None = None) -> dict:
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            data=None if body is None else json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
            method="GET" if body is None else "POST",
        )
        for attempt in range(self.retries + 1):
            try:
                with urllib.request.urlopen(
                    request, timeout=self.timeout
                ) as answer:
                    return json.loads(answer.read())
            except urllib.error.HTTPError as error:
                try:
                    message = json.loads(error.read()).get("error", str(error))
                except (json.JSONDecodeError, OSError):
                    message = str(error)
                if error.code in self.RETRYABLE_STATUS and attempt < self.retries:
                    try:
                        retry_after = float(error.headers.get("Retry-After"))
                    except (TypeError, ValueError):
                        retry_after = None
                    time.sleep(self._delay(attempt, retry_after))
                    continue
                raise ServiceError(error.code, message) from None
            except (urllib.error.URLError, ConnectionError, TimeoutError) as error:
                if attempt < self.retries:
                    time.sleep(self._delay(attempt, None))
                    continue
                raise ServiceError(
                    0, f"cannot reach {self.base_url}: {error}"
                ) from None
        raise AssertionError("unreachable")  # loop always returns or raises

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """``GET /healthz``."""
        return self._request("/healthz")

    def submit(self, scenario: Scenario | dict) -> dict:
        """``POST /v1/jobs``: submit a scenario, returns its status."""
        payload = (
            scenario.to_dict() if isinstance(scenario, Scenario) else scenario
        )
        return self._request("/v1/jobs", body=payload)

    def jobs(self) -> list[dict]:
        """``GET /v1/jobs``: every job's status."""
        return self._request("/v1/jobs")["jobs"]

    def status(self, job_id: str) -> dict:
        """``GET /v1/jobs/<id>``: one job's status."""
        return self._request(f"/v1/jobs/{job_id}")

    def result(self, job_id: str) -> ScenarioResult:
        """``GET /v1/jobs/<id>/result`` as a :class:`ScenarioResult`."""
        return ScenarioResult.from_dict(self._request(f"/v1/jobs/{job_id}/result"))

    def artifact(self, spec_hash: str) -> dict:
        """``GET /v1/artifacts/<hash>``: a cached artifact record."""
        return self._request(f"/v1/artifacts/{spec_hash}")

    def wait(
        self, job_id: str, *, timeout: float = 300.0, poll: float = 0.05
    ) -> dict:
        """Poll one job until it is done.

        Raises :class:`ExperimentError` when the job failed, when a
        drain stopped it (``drained`` is terminal on this server; its
        checkpoints resume on resubmission) or on timeout.
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["status"] == "done":
                return status
            if status["status"] == "failed":
                raise ExperimentError(
                    f"job {job_id} failed: {status.get('error')}"
                )
            if status["status"] == "drained":
                raise ExperimentError(
                    f"job {job_id} was drained before it finished; its "
                    "checkpoints are kept, so resubmit it after the server "
                    "restarts"
                )
            if time.monotonic() >= deadline:
                raise ExperimentError(
                    f"job {job_id} still {status['status']} after {timeout}s"
                )
            time.sleep(poll)
