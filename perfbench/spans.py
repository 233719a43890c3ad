"""Traced mode: spans around the program's public calls, per layer.

The wrappers are installed from outside the program (no code under
``src/`` knows about them).  Each replaces one callable at the module or
class where callers look it up: ``batch_kernel`` imports
``compatibility_tensor`` by name, ``monte_carlo`` imports
``map_sample_batch`` by name and ``orchestrator`` imports
``execute_chunk`` by name, so those are wrapped in the importing
module, while methods are wrapped on their class.

A span records its name, start and end (``time.perf_counter``, one
monotonic clock for every process on the host), its parent span, a
per-operation id and a few counts.  Spans stay in memory; pool workers,
which fork after installation, append theirs to ``spans-<pid>.jsonl``
in the trace directory each time a chunk call returns, and the main
process writes its own at the end.  :func:`layer_metrics` turns the
spans into per-layer self times and counts.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

#: The process's active tracer (installed once, inherited by forks).
_TRACER: "Tracer | None" = None


class Tracer:
    """In-memory span buffer of one process."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.op: str | None = None
        self._reset()

    def _reset(self) -> None:
        self.spans: list[dict] = []
        self.lock = threading.Lock()
        self.local = threading.local()
        self.ids = itertools.count()

    def after_fork(self) -> None:
        """A forked worker starts with no spans and no open parents."""
        self._reset()

    def stack(self) -> list[tuple[str, str | None]]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def flush(self) -> None:
        """Append this process's finished spans to its span file."""
        with self.lock:
            spans, self.spans = self.spans, []
        if spans:
            path = self.directory / f"spans-{os.getpid()}.jsonl"
            with path.open("a") as handle:
                handle.write("".join(json.dumps(span) + "\n" for span in spans))


def _traced(name, fn, *, attrs=None, op_of=None, flush=False, wall=False):
    """``fn`` wrapped in a span; ``attrs(args, kwargs, result)`` adds counts.

    ``name`` is a string or a function of ``(args, kwargs)``.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = _TRACER
        stack = tracer.stack()
        parent, parent_op = stack[-1] if stack else (None, tracer.op)
        op = op_of(args) if op_of is not None else parent_op
        span_id = f"{os.getpid()}:{next(tracer.ids)}"
        stack.append((span_id, op))
        span = {
            "name": name(args, kwargs) if callable(name) else name,
            "id": span_id,
            "parent": parent,
            "op": op,
        }
        if wall:
            span["wall"] = time.time()
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
        if attrs is not None:
            span.update(attrs(args, kwargs, result))
        with tracer.lock:
            tracer.spans.append(span)
        if flush:
            tracer.flush()
        return result

    return wrapper


def _wrap_function(module, attribute: str, name: str, **options) -> None:
    setattr(module, attribute, _traced(name, getattr(module, attribute), **options))


def _wrap_method(cls, attribute: str, name: str, **options) -> None:
    raw = cls.__dict__[attribute]
    if isinstance(raw, classmethod):
        setattr(cls, attribute, classmethod(_traced(name, raw.__func__, **options)))
    else:
        setattr(cls, attribute, _traced(name, raw, **options))


def install(directory: Path) -> Tracer:
    """Wrap every traced call in this process (and its future forks)."""
    global _TRACER
    from repro.analysis import adaptive
    from repro.api import batch, scenarios
    from repro.api.artifacts import ArtifactStore
    from repro.compiled import cext
    from repro.defects.batch import DefectBatch
    from repro.experiments import monte_carlo
    from repro.mapping import batch_kernel
    from repro.service import http, jobs, orchestrator
    from repro.service.store import CheckpointStore

    directory.mkdir(parents=True, exist_ok=True)
    _TRACER = Tracer(directory)
    os.register_at_fork(after_in_child=_TRACER.after_fork)

    _wrap_method(
        DefectBatch, "generate", "defects.generate",
        attrs=lambda a, k, r: {"samples": len(r)},
    )
    # One native call settles a whole batch of undecided samples; the
    # span is named after the mapper kind it replicates.
    _wrap_method(
        cext.CKernels, "map_builtin_batch", lambda a, k: f"compiled.{k['kind']}",
        attrs=lambda a, k, r: {"samples": int(a[1].shape[0])},
    )
    _wrap_function(batch_kernel, "compatibility_tensor", "mapping.tensor")
    _wrap_function(
        monte_carlo, "map_sample_batch", "mapping.batch",
        attrs=lambda a, k, r: {
            "decided": sum(o.decided() for o in r.outcomes.values()),
            "settled": sum(o.samples for o in r.outcomes.values()),
        },
    )
    # Chunk bodies run in pool workers, which write their spans out as
    # each chunk returns.  Pickle finds the wrapper under the original
    # qualified name, so the pool still ships the function by reference.
    _wrap_function(monte_carlo, "_run_chunk", "api.chunk", flush=True)
    _wrap_method(
        batch.BatchRunner, "run", "api.batch_run",
        attrs=lambda a, k, r: {"pool": int((a[0].last_run_workers or 1) > 1)},
    )
    for method in ("load", "scan"):
        _wrap_method(ArtifactStore, method, "store.read")
    for method in ("begin", "append_row", "finish", "write_block"):
        _wrap_method(ArtifactStore, method, "store.write")
    _wrap_function(adaptive, "run_mapping_monte_carlo", "analysis.round")
    _wrap_method(scenarios.FunctionSource, "build", "circuits.build")

    chunk = _traced(
        "service.chunk", jobs.execute_chunk,
        op_of=lambda a: a[0].spec_hash, flush=True, wall=True,
    )
    jobs.execute_chunk = chunk
    orchestrator.execute_chunk = chunk
    for method in ("write_chunk", "write_spec", "write_result"):
        _wrap_method(CheckpointStore, method, "checkpoint.write")
    for method in ("read_chunk", "read_spec", "read_result"):
        _wrap_method(CheckpointStore, method, "checkpoint.read")
    for method in ("do_GET", "do_POST"):
        _wrap_method(http.ServiceHandler, method, "service.http")
    return _TRACER


def load_spans(directory: Path) -> list[dict]:
    spans = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with path.open() as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def _covered(interval: tuple[float, float], spans: list[dict]) -> float:
    """Length of ``interval`` covered by the union of ``spans``."""
    low, high = interval
    pieces = sorted(
        (max(low, s["start"]), min(high, s["end"]))
        for s in spans
        if s["end"] > low and s["start"] < high
    )
    total, reach = 0.0, low
    for start, end in pieces:
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans: list[dict], statuses: list[dict]) -> dict[str, float]:
    """Per-layer self times and counts from one traced run's spans.

    ``statuses`` are the service job status payloads the clients saw;
    they carry the retry, quarantine and cache counts and each job's
    submission time.
    """
    children = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["end"] - span["start"]
    total = defaultdict(float)
    count = defaultdict(int)
    sums = defaultdict(int)
    for span in spans:
        name = span["name"]
        total[name] += span["end"] - span["start"] - children[span["id"]]
        count[name] += 1
        for key in ("samples", "decided", "settled", "pool"):
            sums[name, key] += span.get(key, 0)

    chunks = [s for s in spans if s["name"] == "api.chunk"]
    batch_wait = sum(
        (s["end"] - s["start"]) - _covered((s["start"], s["end"]), chunks)
        for s in spans
        if s["name"] == "api.batch_run"
    )
    submitted = {status["job_id"]: status["submitted_at"] for status in statuses}
    chunk_wait = sum(
        s["wall"] - submitted[s["op"]]
        for s in spans
        if s["name"] == "service.chunk" and s["op"] in submitted
    )
    service_chunks = [s for s in spans if s["name"] == "service.chunk"]
    settled = sums["mapping.batch", "settled"]
    return {
        "defects.generate_s": total["defects.generate"],
        "defects.samples": sums["defects.generate", "samples"],
        "compiled.exact_s": total["compiled.exact"],
        "compiled.exact_samples": sums["compiled.exact", "samples"],
        "compiled.hybrid_s": total["compiled.hybrid"],
        "compiled.hybrid_samples": sums["compiled.hybrid", "samples"],
        "mapping.tensor_s": total["mapping.tensor"],
        "mapping.kernel_s": total["mapping.batch"],
        "mapping.prescreen_ratio": (
            sums["mapping.batch", "decided"] / settled if settled else 0.0
        ),
        "api.pool_starts": sums["api.batch_run", "pool"],
        "api.batch_wait_s": batch_wait,
        "api.store_read_s": total["store.read"],
        "api.store_write_s": total["store.write"],
        "analysis.batches": count["analysis.round"],
        "circuits.builds": count["circuits.build"],
        "circuits.build_s": total["circuits.build"],
        "service.chunks": len(service_chunks),
        "service.chunk_s": sum(s["end"] - s["start"] for s in service_chunks),
        "service.chunk_wait_s": chunk_wait,
        "service.checkpoint_writes": count["checkpoint.write"],
        "service.checkpoint_write_s": total["checkpoint.write"],
        "service.checkpoint_read_s": total["checkpoint.read"],
        "service.http_requests": count["service.http"],
        "service.http_s": total["service.http"],
        "service.retries": sum(status.get("retries", 0) for status in statuses),
        "service.quarantined": sum(
            len(status.get("quarantined") or []) for status in statuses
        ),
        "service.cache_hits": sum(bool(status.get("cached")) for status in statuses),
    }
