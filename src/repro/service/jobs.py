"""The job model: shard a scenario into resumable chunk-level jobs.

One *job* is one :class:`~repro.api.scenarios.Scenario` (keyed by its
content hash, like everywhere else in the pipeline); its unit of work is
a :class:`ChunkSpec` — a contiguous slice of one result row's global
sample stream.  Chunking rides the same determinism contract as the
batch engine: every sample draws its defect map from
``derive_seed(seed, global_index)``, so executing a chunk in any
process, on any engine, at any time produces the counting statistics of
exactly that slice of an uninterrupted run, and merging the chunks in
range order (:func:`merge_mapping_chunks`) reproduces the uninterrupted
statistics bit-for-bit.

Unlike the in-process :class:`~repro.api.batch.BatchRunner`, whose auto
chunk size follows the local CPU count, service chunk plans must be
**machine-invariant**: a campaign checkpointed on an 8-core box has to
resume on a 2-core one with the same chunk keys.
:func:`default_chunk_size` therefore derives the size from the scenario
alone: its sample count and, for a two-level mapping job, the cells of
the crossbar it maps (:func:`crossbar_cells`), which caps a small
crossbar's row at fewer chunks, each holding enough work to pay for its
dispatch and its checkpoint file.  The orchestrator records the
resolved size in the job's checkpoint spec so a resume (or an operator
override) can never silently orphan existing checkpoints.

Every mapping row shards *wave by wave*: each wave is one batch yielded
by :func:`repro.analysis.adaptive.adaptive_loop`, the loop of
:func:`~repro.analysis.adaptive.run_adaptive_monte_carlo`, split into
chunk jobs (:func:`plan_range_chunks`).  A fixed-budget row is one wave
over ``[0, samples)``; an adaptive (``tolerance``-driven) row grows
wave by wave until the stopping rule fires.  Because the stopping rule
reads counting statistics only, a resumed campaign replays the same
schedule, loads the checkpointed waves and stops at the same sample
count an uninterrupted run would have.  An area job is one range,
``[0, sample_stream_length(scenario))``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

from repro.api.batch import chunk_ranges
from repro.api.runner import evaluate_area_chunk
from repro.api.scenarios import FunctionSource, Scenario
from repro.boolean.function import BooleanFunction
from repro.exceptions import ExperimentError
from repro.experiments.monte_carlo import VECTORIZED_MIN_CHUNK, MonteCarloResult
from repro.mapping.function_matrix import FunctionMatrix

#: Most chunks a result row splits into under the default chunk size,
#: so a killed campaign loses little work; a mapping row over a small
#: crossbar is capped at fewer (:data:`CHUNK_CELLS`).
DEFAULT_CHUNKS_PER_ROW = 16

#: Crossbar cells times samples worth one chunk: about 2-3 ms of
#: compiled work, enough that dispatch, worker-side setup and the
#: checkpoint file stop dominating it (per sample, the compiled tier's
#: cost tracks ``rows x columns`` of the array).  A mapping row over
#: ``cells`` cells runs as at most ``ceil(samples / ceil(CHUNK_CELLS /
#: cells))`` chunks, which changes the plan only for arrays under
#: ``CHUNK_CELLS / VECTORIZED_MIN_CHUNK`` = 2,048 cells.
CHUNK_CELLS = 2**16

#: Built circuits each worker process keeps (least recently used first
#: out); a server session's jobs rarely name more circuits than this.
CIRCUIT_MEMO_SIZE = 16


def default_chunk_size(samples: int, cells: int | None = None) -> int:
    """Machine-invariant default chunk size for ``samples`` per row.

    Aims at :data:`DEFAULT_CHUNKS_PER_ROW` chunks, floored at the
    vectorized engine's amortisation minimum — deliberately *not* a
    function of the local worker count (see the module docstring).

    ``cells`` is the size of the crossbar each sample maps (rows times
    columns).  It caps the row at ``ceil(samples / ceil(CHUNK_CELLS /
    cells))`` chunks, all of one size: rd53's 544 cells at 200 samples
    run as 2 x 100, not 7 x 32.  The sample-count rule already gives a
    chunk 32 samples, so the cap changes the plan only for arrays under
    ``CHUNK_CELLS / VECTORIZED_MIN_CHUNK`` = 2,048 cells.
    """
    if samples <= 0:
        raise ExperimentError(f"samples must be positive, got {samples}")
    size = max(
        min(VECTORIZED_MIN_CHUNK, samples),
        math.ceil(samples / DEFAULT_CHUNKS_PER_ROW),
    )
    if cells is None:
        return size
    if cells <= 0:
        raise ExperimentError(f"cells must be positive, got {cells}")
    chunks = math.ceil(samples / math.ceil(CHUNK_CELLS / cells))
    return max(size, math.ceil(samples / chunks))


@dataclass(frozen=True, order=True)
class ChunkSpec:
    """One shard: result row ``row_index``, global samples ``[start, stop)``."""

    row_index: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.row_index < 0:
            raise ExperimentError(
                f"row_index must be non-negative, got {self.row_index}"
            )
        if not 0 <= self.start < self.stop:
            raise ExperimentError(
                f"chunk needs 0 <= start < stop, got [{self.start}, {self.stop})"
            )

    @property
    def key(self) -> str:
        """Filesystem-safe checkpoint key (sorts in range order)."""
        return f"r{self.row_index:03d}_s{self.start:010d}_e{self.stop:010d}"

    @property
    def size(self) -> int:
        """Number of samples the chunk covers."""
        return self.stop - self.start


def plan_range_chunks(
    row_index: int, start: int, stop: int, chunk_size: int
) -> list[ChunkSpec]:
    """Shard the global sample range ``[start, stop)`` of one row."""
    return [
        ChunkSpec(row_index, start + span.start, start + span.stop)
        for span in chunk_ranges(stop - start, chunk_size)
    ]


@dataclass(frozen=True)
class ChunkJob:
    """Picklable work unit: one chunk of one scenario, on one engine.

    ``attempt`` counts retries of this chunk (0 on first dispatch).  It
    never affects the computed statistics — chunk payloads are a pure
    function of ``(spec, range, engine)`` — but it does drive the
    deterministic fault-injection hooks, which fire on the first
    ``times`` attempts of a matching chunk.  Worker processes keep no
    job state (their one memo, :func:`chunk_function`, holds built
    circuits, which no attempt changes), so the attempt number must
    travel with the job.
    """

    spec_hash: str
    scenario_payload: dict
    chunk: ChunkSpec
    engine: str = "vectorized"
    attempt: int = 0


@functools.lru_cache(maxsize=CIRCUIT_MEMO_SIZE)
def _built_function(source: str, seed: int) -> BooleanFunction:
    return FunctionSource.from_dict(json.loads(source)).build(seed=seed)


def chunk_function(scenario: Scenario) -> BooleanFunction:
    """The scenario's function, built once per process and source.

    Every chunk of a job maps the same circuit, so a pool worker builds
    it on its first chunk and reuses it after.  The key is the source's
    canonical JSON, plus the seed for ``random`` sources, the only kind
    whose function depends on it.  A build that raises is not kept, so
    it raises again on the next chunk.  :class:`BooleanFunction` is
    immutable, so chunks can share one.
    """
    source = scenario.source
    key = json.dumps(source.to_dict(), sort_keys=True, separators=(",", ":"))
    return _built_function(key, scenario.seed if source.kind == "random" else 0)


def crossbar_cells(scenario: Scenario) -> int | None:
    """Cells of the smallest crossbar any row of ``scenario`` maps.

    A two-level row maps the function matrix plus its spare rows and
    columns.  An area scenario maps no crossbar, and a multi-level one is
    not sized here, so both have no cells (``None``) and keep the
    sample-count rule.  The circuit comes from :func:`chunk_function`'s
    memo, so pool workers that fork after this call inherit it.
    """
    if scenario.protocol == "area" or scenario.multilevel_spec() is not None:
        return None
    matrix = FunctionMatrix(chunk_function(scenario))
    return min(
        (matrix.num_rows + extra_rows) * (matrix.num_columns + extra_columns)
        for extra_rows, extra_columns in scenario.redundancy
    )


def execute_chunk(job: ChunkJob) -> dict:
    """Execute one chunk job; a pure function of the job (picklable).

    Returns the JSON-safe checkpoint payload: ``{"protocol": "mapping",
    "monte_carlo": ...}`` or ``{"protocol": "area", "rows": [...]}``.
    Runs serially inside the calling process — the orchestrator's pool
    provides the parallelism across chunks.

    Instrumented with the worker-side fault points (``chunk.slow``,
    ``worker.hang``, ``worker.crash``) of :mod:`repro.faults`; with no
    plan armed the hooks are a dictionary miss each.
    """
    from repro import faults

    faults.trip("chunk.slow", key=job.chunk.key, attempt=job.attempt)
    faults.trip("worker.hang", key=job.chunk.key, attempt=job.attempt)
    faults.trip("worker.crash", key=job.chunk.key, attempt=job.attempt)
    scenario = Scenario.from_dict(job.scenario_payload)
    chunk = job.chunk
    if scenario.protocol == "area":
        rows = evaluate_area_chunk(
            scenario, range(chunk.start, chunk.stop), engine=job.engine
        )
        return {"protocol": "area", "rows": rows}
    from repro.experiments.monte_carlo import run_mapping_monte_carlo

    extra_rows, extra_columns = scenario.redundancy[chunk.row_index]
    monte_carlo = run_mapping_monte_carlo(
        chunk_function(scenario),
        defect_model=scenario.resolved_defect_model(),
        sample_size=chunk.size,
        sample_offset=chunk.start,
        algorithms=scenario.mappers,
        seed=scenario.seed,
        extra_rows=extra_rows,
        extra_columns=extra_columns,
        workers=1,
        chunk_size=chunk.size,
        engine=job.engine,
        multilevel=scenario.multilevel_spec(),
    )
    return {"protocol": "mapping", "monte_carlo": monte_carlo.to_dict()}


def merge_mapping_chunks(payloads: list[dict]) -> MonteCarloResult:
    """Merge one row's chunk payloads (in range order) into one result.

    :meth:`MonteCarloResult.merge` enforces matching experiments and
    disjoint global sample ranges, so a stale checkpoint from a
    different plan fails loudly instead of double-counting.
    """
    if not payloads:
        raise ExperimentError("cannot merge an empty chunk list")
    merged = MonteCarloResult.from_dict(payloads[0]["monte_carlo"])
    for payload in payloads[1:]:
        merged.merge(MonteCarloResult.from_dict(payload["monte_carlo"]))
    return merged
