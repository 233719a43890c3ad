"""Content-addressed caching of analysis results in the JSONL store.

Analysis runs (adaptive yields, curves, surfaces, spare searches) reuse
the scenario layer's :class:`~repro.api.artifacts.ArtifactStore`: the
*spec* of an analysis — every parameter that determines its counting
statistics — hashes to a stable key, the serialized result is stored as
a single row under it, and re-running the same spec is a cache hit.
Execution details (``workers``, ``engine``) are never part of a spec,
mirroring the scenario cache-key convention: they cannot change the
result, only how fast it arrives.

The hash is domain-separated from scenario hashes (a different BLAKE2b
``person``), so an analysis spec can never collide with a scenario spec
sharing the same store file.
"""

from __future__ import annotations

import hashlib
import json
import time

from repro.api.artifacts import ArtifactStore


def analysis_spec_hash(spec: dict) -> str:
    """Stable content key of an analysis spec (the artifact-cache key)."""
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(
        canonical.encode(), digest_size=16, person=b"repro-analysis"
    ).hexdigest()


def load_analysis(store: ArtifactStore, spec: dict) -> dict | None:
    """The cached result payload of a spec, or ``None`` on a miss."""
    record = store.load(analysis_spec_hash(spec))
    if record is None or not record.rows:
        return None
    return record.rows[0]


def store_analysis(
    store: ArtifactStore,
    spec: dict,
    payload: dict,
    *,
    elapsed_seconds: float = 0.0,
) -> str:
    """Persist one analysis result under its spec hash; returns the hash.

    The one-row block lands in one locked append, so a reader sharing
    the store never sees its ``begin`` without its ``end``.
    """
    spec_hash = analysis_spec_hash(spec)
    store.write_block(spec_hash, spec, [payload], elapsed_seconds=elapsed_seconds)
    return spec_hash


def cached_analysis(
    store: ArtifactStore | None,
    spec: dict,
    compute,
    *,
    force: bool = False,
) -> tuple[dict, bool]:
    """``(payload, cached)`` for a spec, computing and storing on a miss.

    ``compute`` is a zero-argument callable returning the JSON-safe
    result payload.  With no store, it is simply invoked.
    """
    if store is not None and not force:
        payload = load_analysis(store, spec)
        if payload is not None:
            return payload, True
    start = time.perf_counter()
    payload = compute()
    elapsed = time.perf_counter() - start
    if store is not None:
        store_analysis(store, spec, payload, elapsed_seconds=elapsed)
    return payload, False
