"""repro.service — async job orchestration and HTTP service.

The production face of the pipeline (ROADMAP item 1): long Monte-Carlo
campaigns become resumable, shardable *jobs* instead of one blocking
CLI process.  Four pieces:

* :mod:`repro.service.jobs` — shard a scenario into chunk-level jobs
  over disjoint global sample ranges (machine-invariant chunk keys);
* :mod:`repro.service.store` — :class:`CheckpointStore`, atomic
  per-chunk checkpoint files (crash-safe, concurrent-writer-safe);
* :mod:`repro.service.orchestrator` — :class:`Orchestrator`, an asyncio
  supervisor over a process pool that checkpoints every finished chunk
  and resumes interrupted campaigns by executing only the missing ones;
* :mod:`repro.service.http` / :mod:`repro.service.client` — the
  dependency-free HTTP API behind ``python -m repro serve`` and its
  stdlib client.

Like :mod:`repro.api`, attributes resolve lazily (PEP 562) so importing
the package costs nothing until a symbol is used.
"""

from __future__ import annotations

_EXPORTS = {
    # job model
    "ChunkSpec": "repro.service.jobs",
    "ChunkJob": "repro.service.jobs",
    "plan_range_chunks": "repro.service.jobs",
    "execute_chunk": "repro.service.jobs",
    "merge_mapping_chunks": "repro.service.jobs",
    "default_chunk_size": "repro.service.jobs",
    # checkpoint store
    "CheckpointStore": "repro.service.store",
    # resilience
    "QuarantinedChunk": "repro.service.resilience",
    "classify_failure": "repro.service.resilience",
    "backoff_delay": "repro.service.resilience",
    # orchestrator
    "Job": "repro.service.orchestrator",
    "Orchestrator": "repro.service.orchestrator",
    "JobDrained": "repro.service.orchestrator",
    "ServiceUnavailable": "repro.service.orchestrator",
    # http service
    "ServiceRuntime": "repro.service.http",
    "ServiceServer": "repro.service.http",
    "make_server": "repro.service.http",
    "ServiceClient": "repro.service.client",
    "ServiceError": "repro.service.client",
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
