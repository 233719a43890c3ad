"""Deterministic fault injection for the service layer.

The paper's subject is tolerating defects in unreliable hardware; this
module gives the *software* stack the same discipline.  A
:class:`FaultPlan` arms a set of named **fault points** — places in the
service execution path instrumented with :func:`trip` /
:func:`should_corrupt` — and every armed fault fires as a pure function
of ``(point, site key, attempt)``.  Re-running a faulted campaign
replays exactly the same crashes, hangs and corruptions, which is what
lets the chaos suite assert recovery paths **bit-for-bit** against
golden counting statistics instead of eyeballing flaky reruns.

Fault points (see :data:`FAULT_POINTS`):

``worker.crash``
    Fires inside :func:`repro.service.jobs.execute_chunk`.  Default
    mode raises :class:`FaultInjected` (an :class:`OSError`, classified
    *transient* by the orchestrator's retry taxonomy); with
    ``exit_code`` set it calls :func:`os._exit` instead, killing the
    worker process outright so a :class:`BrokenProcessPool` exercises
    the pool-rebuild path.  ``exit_code`` only hard-exits inside a pool
    *child* process; in the main process (the thread-pool fallback) it
    degrades to raising, so an armed plan can never kill the
    orchestrator itself.
``worker.hang``
    Sleeps ``seconds`` inside the worker before executing the chunk, to
    push a chunk past the orchestrator's per-chunk timeout.
``chunk.slow``
    Sleeps ``seconds`` without any other effect — for widening race
    windows (e.g. making a drain reliably catch a campaign mid-wave).
``checkpoint.corrupt``
    Consulted by :meth:`repro.service.store.CheckpointStore.write_chunk`;
    when it fires, the checkpoint file is written **torn** (truncated
    JSON), simulating a crash mid-write that the resume path must
    quarantine and re-execute.

Arming is cross-process by design: chunk jobs execute in pool workers,
so the plan travels in the :data:`ENV_VAR` environment variable (JSON,
inherited by pool children at fork/spawn) — :func:`arm` / :func:`disarm`
manage it, or export ``REPRO_FAULTS`` before starting a server to chaos
an entire live service.

Firing limits: ``times=N`` fires a spec on the first ``N`` *attempts*.
Worker-side points use the retry attempt threaded through
:class:`~repro.service.jobs.ChunkJob` (worker processes keep no job
state, and a retry may land on a fresh process).  ``checkpoint.corrupt`` fires
in the orchestrator process, where an in-process counter per
``(point, pattern, key)`` survives across writes; :func:`reset` clears
it (tests do this between campaigns).
"""

from __future__ import annotations

import fnmatch
import json
import os
import time
from dataclasses import dataclass, field

from repro.exceptions import ExperimentError

#: Environment variable carrying the armed plan (JSON) across processes.
ENV_VAR = "REPRO_FAULTS"

#: Registry of instrumented fault points: name -> what firing does.
FAULT_POINTS: dict[str, str] = {
    "worker.crash": (
        "raise FaultInjected (transient OSError) in the worker, or "
        "os._exit(exit_code) to break a process pool"
    ),
    "worker.hang": "sleep `seconds` in the worker before chunk execution",
    "chunk.slow": "sleep `seconds` in the worker (no failure)",
    "checkpoint.corrupt": "write a torn (truncated) chunk checkpoint file",
}


class FaultInjected(OSError):
    """An injected worker crash — an :class:`OSError` so the
    orchestrator's failure taxonomy classifies it *transient*."""


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: fire ``point`` at sites matching ``match``.

    Parameters
    ----------
    point:
        A :data:`FAULT_POINTS` name.
    match:
        :mod:`fnmatch` pattern on the site key (a chunk key such as
        ``r000_s0000000008_e0000000016``); ``"*"`` hits every site.
    times:
        Fire on the first ``times`` attempts of a matching site.
    seconds:
        Sleep duration for ``worker.hang`` / ``chunk.slow``.
    exit_code:
        ``worker.crash`` only: hard-kill the worker process with
        ``os._exit(exit_code)`` instead of raising.  Ignored (degrades
        to raising) outside a pool child process.
    """

    point: str
    match: str = "*"
    times: int = 1
    seconds: float = 0.0
    exit_code: int | None = None

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ExperimentError(
                f"unknown fault point {self.point!r}; registered points: "
                f"{sorted(FAULT_POINTS)}"
            )
        if self.times < 1:
            raise ExperimentError(f"times must be >= 1, got {self.times}")
        if self.seconds < 0:
            raise ExperimentError(f"seconds must be >= 0, got {self.seconds}")

    def to_dict(self) -> dict:
        payload = {"point": self.point, "match": self.match, "times": self.times}
        if self.seconds:
            payload["seconds"] = self.seconds
        if self.exit_code is not None:
            payload["exit_code"] = self.exit_code
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        return cls(
            point=payload["point"],
            match=payload.get("match", "*"),
            times=payload.get("times", 1),
            seconds=payload.get("seconds", 0.0),
            exit_code=payload.get("exit_code"),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A serializable set of armed :class:`FaultSpec` entries."""

    faults: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def to_dict(self) -> dict:
        return {"faults": [spec.to_dict() for spec in self.faults]}

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        return cls(
            faults=tuple(
                FaultSpec.from_dict(entry) for entry in payload.get("faults", [])
            )
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def matching(self, point: str, key: str) -> "FaultSpec | None":
        """The first spec armed for ``point`` whose pattern hits ``key``."""
        for spec in self.faults:
            if spec.point == point and fnmatch.fnmatchcase(key, spec.match):
                return spec
        return None


# ----------------------------------------------------------------------
# Arming
# ----------------------------------------------------------------------
#: Cache of the last parsed env value, keyed by the raw string.
_parsed: tuple[str, FaultPlan] | None = None

#: In-process firing counts for attempt-less sites, keyed by
#: ``(point, pattern, site key)``.
_fired: dict[tuple[str, str, str], int] = {}


def arm(plan: FaultPlan) -> None:
    """Arm ``plan`` for this process and future pool children."""
    os.environ[ENV_VAR] = plan.to_json()


def disarm() -> None:
    """Remove any armed plan and clear in-process firing counts."""
    os.environ.pop(ENV_VAR, None)
    reset()


def reset() -> None:
    """Forget in-process firing counts (``times=`` starts over)."""
    _fired.clear()


def active_plan() -> FaultPlan | None:
    """The currently armed plan, or ``None`` (the hot-path fast exit)."""
    global _parsed
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    if _parsed is None or _parsed[0] != raw:
        try:
            _parsed = (raw, FaultPlan.from_json(raw))
        except (json.JSONDecodeError, KeyError, TypeError) as error:
            raise ExperimentError(
                f"cannot parse the {ENV_VAR} fault plan: {error}"
            ) from None
    return _parsed[1]


# ----------------------------------------------------------------------
# Instrumentation hooks
# ----------------------------------------------------------------------
def _in_pool_worker() -> bool:
    """Whether this process is a pool child (safe to hard-kill).

    ``exit_code`` crashes must never fire in the main process: under the
    thread-pool fallback the "worker" shares the orchestrator's process,
    and ``os._exit`` there would take down the whole service (or the
    test runner) instead of one worker.
    """
    import multiprocessing

    return multiprocessing.current_process().name != "MainProcess"


def _fires(spec: FaultSpec, key: str, attempt: int | None) -> bool:
    """Whether ``spec`` fires now, honouring its ``times`` budget."""
    if attempt is not None:
        return attempt < spec.times
    counter_key = (spec.point, spec.match, key)
    count = _fired.get(counter_key, 0)
    if count >= spec.times:
        return False
    _fired[counter_key] = count + 1
    return True


def trip(point: str, *, key: str, attempt: int | None = None) -> None:
    """Fire ``point`` at site ``key`` if an armed spec matches.

    Sleeps, raises :class:`FaultInjected` or hard-exits according to the
    matched spec's mode; returns silently (the overwhelmingly common
    case) when nothing is armed.
    """
    plan = active_plan()
    if plan is None:
        return
    spec = plan.matching(point, key)
    if spec is None or not _fires(spec, key, attempt):
        return
    if point in ("worker.hang", "chunk.slow"):
        time.sleep(spec.seconds)
        return
    if point == "worker.crash":
        if spec.exit_code is not None and _in_pool_worker():
            os._exit(spec.exit_code)
        raise FaultInjected(
            f"injected worker crash at chunk {key} (attempt {attempt})"
        )


def should_corrupt(key: str) -> bool:
    """Whether an armed ``checkpoint.corrupt`` fault fires for ``key``."""
    plan = active_plan()
    if plan is None:
        return False
    spec = plan.matching("checkpoint.corrupt", key)
    return spec is not None and _fires(spec, key, None)
