"""Chunked batch execution: serial or process-parallel, same results.

:class:`BatchRunner` is the execution engine behind the Monte-Carlo
harness (and any other embarrassingly-parallel experiment): work is
split into independently-seeded chunks, each chunk is a pure picklable
payload, and the per-chunk results are merged **in submission order** so
the statistics are bit-identical whether the chunks ran serially, on 2
workers or on 32.

Determinism contract
--------------------
``BatchRunner`` guarantees order: ``run(fn, payloads)`` returns
``[fn(p) for p in payloads]`` regardless of the worker count or which
process computed which chunk.  Any nondeterminism must therefore come
from the payloads themselves — which is why the Monte-Carlo chunks seed
every sample from :func:`repro.api.seeding.derive_seed` of its *global*
sample index, never from its position within a chunk.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from repro.exceptions import ExperimentError


def _noop() -> None:
    """Picklable no-op used to probe process-spawn rights."""


def start_process_pool(workers: int) -> ProcessPoolExecutor | None:
    """A process pool of ``workers``, or ``None`` where none may spawn.

    Probes spawn rights with a no-op before any real work is committed:
    sandboxes without process-spawn permission fail here, and callers
    fall back to serial or thread execution (the determinism contract
    makes the results identical).
    """
    executor = None
    try:
        executor = ProcessPoolExecutor(max_workers=workers)
        executor.submit(_noop).result()
    except (OSError, BrokenExecutor):
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        return None
    return executor


class _WarmPool:
    """The one process pool of a :func:`warm_pool` scope, started on demand."""

    def __init__(self) -> None:
        self.workers = 0
        self.executor: ProcessPoolExecutor | None = None

    def get(self, workers: int) -> ProcessPoolExecutor | None:
        """The scope's pool of ``workers``; replaces a pool of another size.

        ``None`` where no process may spawn.  The scope remembers that
        too, so a sandbox is probed once per size, not once per batch.
        """
        if workers != self.workers:
            self.close()
            self.executor = start_process_pool(workers)
            self.workers = workers
        return self.executor

    def close(self) -> None:
        """Cancel queued chunks, join the workers and forget the pool."""
        executor, self.executor, self.workers = self.executor, None, 0
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


#: The open :func:`warm_pool` scope of this thread, if any.
_SCOPE: ContextVar[_WarmPool | None] = ContextVar("repro_warm_pool", default=None)


@contextmanager
def warm_pool() -> Iterator[_WarmPool]:
    """Share one process pool among every :meth:`BatchRunner.run` inside.

    ``repro.cli.main`` opens one scope per command, so its adaptive
    rounds, curve points, spare candidates and scenario rows fork,
    probe and tear down one pool instead of one per batch.  Every
    ``run`` opens a scope too: outside an enclosing one, a run's pool
    lives exactly as long as the run.  A nested scope reuses the
    enclosing one; other threads do not see it.

    The pool is shut down when the block returns or raises, its
    workers joined and its queued chunks cancelled.  It must not
    outlive the scope: workers are forked from the process as it is
    when the pool starts, so only a fresh pool sees later changes to
    it (fault plans, test patches), and a worker's memory counts in
    ``RUSAGE_CHILDREN`` only once it has been reaped.
    """
    scope = _SCOPE.get()
    if scope is not None:
        yield scope
        return
    scope = _WarmPool()
    token = _SCOPE.set(scope)
    try:
        yield scope
    finally:
        _SCOPE.reset(token)
        scope.close()


def auto_workers() -> int:
    """Default worker count: the CPUs actually available to this process.

    Uses the scheduler affinity mask where the platform exposes it, so
    cgroup/affinity-limited containers are not oversubscribed by the
    host's full core count.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def chunk_ranges(total: int, chunk_size: int) -> list[range]:
    """Split ``range(total)`` into contiguous chunks of ``chunk_size``."""
    if total < 0:
        raise ExperimentError(f"total must be non-negative, got {total}")
    if chunk_size <= 0:
        raise ExperimentError(f"chunk_size must be positive, got {chunk_size}")
    return [
        range(start, min(start + chunk_size, total))
        for start in range(0, total, chunk_size)
    ]


def default_chunk_size(total: int, workers: int) -> int:
    """Chunk size giving each worker ~4 chunks (bounded load imbalance).

    Small enough to keep all workers busy until the end of the batch,
    large enough to amortise pickling and process round-trips.
    """
    if total <= 0:
        return 1
    return max(1, math.ceil(total / max(1, workers * 4)))


@dataclass(frozen=True)
class BatchPlan:
    """Resolved execution plan of one batch (for reporting/tests)."""

    total: int
    workers: int
    chunk_size: int
    num_chunks: int
    parallel: bool


class BatchRunner:
    """Execute a function over payloads, serially or via a process pool.

    A parallel :meth:`run` takes its pool from the enclosing
    :func:`warm_pool` scope, sized by the resolved worker count, so
    runs inside one scope share one pool; outside any scope, each run
    starts (and tears down) its own.  A run that raises, a worker that
    dies included, shuts its pool down, and the next run starts a fresh
    one.

    Parameters
    ----------
    workers:
        ``1`` forces serial in-process execution; an integer ``> 1``
        forces a :class:`~concurrent.futures.ProcessPoolExecutor` of
        that size; ``None`` (auto) uses the CPU count but stays serial
        when the machine has a single core or the batch is trivially
        small (``min_parallel_items``) — spawning a pool would only add
        overhead there.
    min_parallel_items:
        Auto mode stays serial below this many items.
    """

    def __init__(self, workers: int | None = None, *, min_parallel_items: int = 64):
        if workers is not None and workers < 1:
            raise ExperimentError(f"workers must be >= 1 or None, got {workers}")
        self.workers = workers
        self.min_parallel_items = min_parallel_items
        #: Worker count the most recent :meth:`run` actually used (1 when
        #: it took the serial path, including the no-spawn-rights
        #: fallback).  ``None`` until the first run.
        self.last_run_workers: int | None = None

    def resolved_workers(self, total_items: int) -> int:
        """Worker count actually used for a batch of ``total_items``."""
        if self.workers is not None:
            return self.workers
        if total_items < self.min_parallel_items:
            return 1
        return auto_workers()

    def plan(
        self,
        total_items: int,
        chunk_size: int | None = None,
        *,
        min_chunk_size: int = 1,
    ) -> BatchPlan:
        """Resolve workers/chunking for a batch without running it.

        ``min_chunk_size`` floors the *auto* chunk size — batched
        engines (e.g. the vectorized Monte-Carlo kernel) amortise fixed
        per-chunk costs over the chunk, so tiny auto chunks would waste
        their throughput.  An explicit ``chunk_size`` always wins, and
        the floor never exceeds the batch itself.
        """
        if min_chunk_size < 1:
            raise ExperimentError(
                f"min_chunk_size must be >= 1, got {min_chunk_size}"
            )
        workers = self.resolved_workers(total_items)
        if chunk_size is None:
            chunk_size = max(
                default_chunk_size(total_items, workers),
                min(min_chunk_size, max(1, total_items)),
            )
        chunks = chunk_ranges(total_items, chunk_size)
        return BatchPlan(
            total=total_items,
            workers=workers,
            chunk_size=chunk_size,
            num_chunks=len(chunks),
            parallel=workers > 1 and len(chunks) > 1,
        )

    def run(
        self,
        fn: Callable,
        payloads: Sequence,
        *,
        total_items: int | None = None,
        on_result: Callable | None = None,
    ) -> list:
        """``[fn(p) for p in payloads]``, possibly computed in parallel.

        ``fn`` and every payload must be picklable when more than one
        worker is in play (module-level functions and plain dataclasses
        are).  Results always come back in payload order.

        ``total_items`` is the logical batch size when the payloads are
        pre-chunked aggregates (e.g. ~4 chunks per worker): auto mode
        must decide serial-vs-parallel from the amount of *work*, not
        from the number of chunks it was split into.  Defaults to
        ``len(payloads)``.

        ``on_result`` is called with each result *in payload order, as
        it becomes available* — serially after each ``fn`` call, in
        parallel as the pool's head-of-line chunk completes.  Callers
        use it to stream partial results (e.g. into an artifact store)
        while later chunks are still computing.
        """
        payloads = list(payloads)
        workers = self.resolved_workers(
            len(payloads) if total_items is None else total_items
        )

        def _serial() -> list:
            results = []
            for payload in payloads:
                result = fn(payload)
                if on_result is not None:
                    on_result(result)
                results.append(result)
            return results

        self.last_run_workers = 1
        if workers <= 1 or len(payloads) <= 1:
            return _serial()
        with warm_pool() as scope:
            executor = scope.get(workers)
            if executor is None:
                return _serial()
            self.last_run_workers = min(workers, len(payloads))
            results = []
            try:
                for result in executor.map(fn, payloads):
                    if on_result is not None:
                        on_result(result)
                    results.append(result)
            except BaseException:
                # Errors raised by ``fn`` propagate.  The failed run's
                # chunks may still be running, or the pool may be
                # broken, so no later run shares this pool.
                scope.close()
                raise
            return results
