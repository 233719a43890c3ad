"""Generic Monte-Carlo harness for defect-tolerant mapping experiments.

All of the paper's §V results follow the same protocol: generate many
defective crossbars for an optimum-size design at a given defect rate,
run one or more mapping algorithms on each, and report per-algorithm
success rates and runtimes.  :func:`run_mapping_monte_carlo` implements
that protocol once so Table II, the defect-rate sweep and the redundancy
study are thin wrappers around it.

Execution engine
----------------
The sample stream is split into chunks and executed by
:class:`repro.api.batch.BatchRunner` — serially (``workers=1``), on a
``ProcessPoolExecutor`` (``workers=N``) or auto-sized (``workers=None``,
the default: CPU count, staying serial for small batches and single-core
machines).  Every sample's defect map is seeded by
:func:`repro.api.seeding.derive_seed` from its *global* index, and the
per-chunk :class:`AlgorithmOutcome` partials are merged in chunk order,
so the counting statistics (samples, successes, backtracks, invalid
mappings — and therefore every success rate) are identical for any
worker count.  Only the wall-clock runtime fields vary run to run, as
they always have.

Each chunk runs on one of three engines (``engine=``; the default
``"auto"`` picks ``"compiled"`` when a backend loads, ``"vectorized"``
otherwise):

* ``"vectorized"`` — the batched NumPy kernel of
  :mod:`repro.mapping.batch_kernel`: one defect tensor per chunk, a
  structural screen that rejects the samples no mapper can map, one
  broadcasted compatibility pass over the rest and NumPy replicas that
  map every one of them.
* ``"compiled"`` — the same pipeline with native defect draws, tensor
  and mapper replicas from :mod:`repro.compiled`.
* ``"reference"`` — the original object-per-sample loop, kept as the
  ground truth the batched engines are differentially tested against.

The batched engines replicate the built-in mappers only.  Any other
mapper — anything registered by third parties — runs on the reference
walk whatever the engine, so every engine is safe for every mapper in
the registry.  All engines consume identical per-sample seed streams
and produce identical counting statistics; only wall-clock fields
differ.

Row banks
---------
Every sample is mapped onto a list of row banks.  A two-level design is
the one-bank case, the whole array; a multi-level design
(``multilevel=``, paper §VI) has one bank per stage of its stage plan,
all sharing the columns.  The reference walk maps the banks of each
sample with :func:`~repro.mapping.validate.map_banks`, which stops at
the first one that fails; the batched engines draw one
:class:`~repro.defects.batch.DefectBatch` per chunk, map each bank in
one call and replay the same early stop over the per-bank arrays.

Algorithms are resolved by name through :mod:`repro.api.registry`;
register new mappers with :func:`repro.api.register_mapper` and they are
immediately usable here (and in every wrapper) by name.
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.api.batch import BatchRunner, chunk_ranges
from repro.api.defect_models import DefectModel, resolve_defect_model
from repro.api.registry import Mapper, resolve_mappers
from repro.api.seeding import derive_seed
from repro.boolean.function import BooleanFunction
from repro.compiled import get_kernels
from repro.defects.batch import DefectBatch, repair_spare_columns
from repro.defects.types import DefectProfile
from repro.engines import resolve_mapping_engine
from repro.exceptions import ExperimentError
from repro.mapping.batch_kernel import (
    MapperBatchOutcome,
    load_scipy_matching,
    map_sample_batch,
    mapper_kind,
)
from repro.mapping.crossbar_matrix import CrossbarMatrix
from repro.mapping.function_matrix import FunctionMatrix
from repro.mapping.validate import map_banks

#: Floor on the auto chunk size under the vectorized engine: batched
#: tensor passes need a minimum chunk to amortise, and tiny chunks would
#: also re-pay the FunctionMatrix build per chunk.
VECTORIZED_MIN_CHUNK = 32

__all__ = [
    "AlgorithmOutcome",
    "MonteCarloResult",
    "repair_spare_columns",
    "run_mapping_monte_carlo",
]


@dataclass
class AlgorithmOutcome:
    """Aggregated Monte-Carlo outcome of one mapping algorithm."""

    algorithm: str
    successes: int = 0
    samples: int = 0
    total_runtime: float = 0.0
    total_backtracks: int = 0
    invalid_mappings: int = 0

    @property
    def success_rate(self) -> float:
        """Fraction of samples with a valid mapping (the paper's P_succ)."""
        if self.samples == 0:
            return 0.0
        return self.successes / self.samples

    @property
    def mean_runtime(self) -> float:
        """Average wall-clock mapping time per sample, in seconds."""
        if self.samples == 0:
            return 0.0
        return self.total_runtime / self.samples

    def merge(self, other: "AlgorithmOutcome") -> None:
        """Fold another partial outcome of the same algorithm into this one."""
        if other.algorithm != self.algorithm:
            raise ExperimentError(
                f"cannot merge outcome of {other.algorithm!r} into "
                f"{self.algorithm!r}"
            )
        self.successes += other.successes
        self.samples += other.samples
        self.total_runtime += other.total_runtime
        self.total_backtracks += other.total_backtracks
        self.invalid_mappings += other.invalid_mappings

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "AlgorithmOutcome":
        """Rebuild an outcome serialized by :meth:`to_dict`."""
        return cls(**payload)


def _coalesce_ranges(ranges) -> list[list[int]]:
    """Sort half-open ``[start, stop)`` ranges and fuse the adjacent ones."""
    merged: list[list[int]] = []
    for start, stop in sorted(tuple(span) for span in ranges):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], stop)
        else:
            merged.append([start, stop])
    return merged


@dataclass
class MonteCarloResult:
    """Full result of one Monte-Carlo mapping experiment."""

    function_name: str
    defect_rate: float
    sample_size: int
    outcomes: dict[str, AlgorithmOutcome] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    workers: int = 1
    defect_model: dict | None = None
    #: Which execution engine produced the result.  Pre-engine payloads
    #: deserialise as "reference" — the behaviour they were computed with.
    engine: str = "reference"
    #: Half-open ``[start, stop)`` global sample ranges this result
    #: covers (coalesced, ascending).  :meth:`merge` uses them to refuse
    #: overlapping partials — silent double-counting when
    #: ``sample_offset`` is misused.  ``None`` on legacy payloads whose
    #: provenance is unknown; merging such a result disables the check.
    sample_ranges: list[list[int]] | None = None
    #: Normalized multi-level spec when the experiment mapped per stage
    #: (None = the classic two-level protocol).
    multilevel: dict | None = None

    def outcome(self, algorithm: str) -> AlgorithmOutcome:
        """Aggregated outcome of one algorithm."""
        try:
            return self.outcomes[algorithm]
        except KeyError:
            raise ExperimentError(
                f"no outcome for algorithm {algorithm!r}; this experiment ran "
                f"{sorted(self.outcomes)}"
            ) from None

    def counting_statistics(self) -> dict:
        """The worker- and engine-invariant projection of the result.

        Strips every wall-clock field, leaving per-algorithm counts only
        — the deterministic basis both the ``workers=1 == workers=N``
        contract and the adaptive sampler's stopping rule operate on.
        """
        return {
            name: {
                "successes": outcome.successes,
                "samples": outcome.samples,
                "total_backtracks": outcome.total_backtracks,
                "invalid_mappings": outcome.invalid_mappings,
            }
            for name, outcome in self.outcomes.items()
        }

    def yield_estimate(
        self,
        algorithm: str | None = None,
        *,
        confidence: float = 0.95,
        method: str = "wilson",
    ):
        """Success rate with a binomial CI (:mod:`repro.analysis`).

        ``algorithm`` may be omitted when the experiment raced a single
        mapper.  Returns a
        :class:`~repro.analysis.confidence.BinomialInterval` whose
        ``point`` equals :attr:`AlgorithmOutcome.success_rate`.
        """
        from repro.analysis.confidence import yield_estimate

        if algorithm is None:
            if len(self.outcomes) != 1:
                raise ExperimentError(
                    "yield_estimate() needs an explicit algorithm when the "
                    f"experiment ran {sorted(self.outcomes)}"
                )
            algorithm = next(iter(self.outcomes))
        outcome = self.outcome(algorithm)
        return yield_estimate(
            outcome.successes,
            outcome.samples,
            confidence=confidence,
            method=method,
        )

    def merge(self, other: "MonteCarloResult") -> None:
        """Fold another result over a *disjoint* sample range into this one.

        The adaptive sampler grows one experiment batch by batch: each
        batch is an independent :class:`MonteCarloResult` over its own
        slice of the global sample stream, and merging them yields
        exactly the result a single fixed-budget run over the union
        would have produced (the per-sample seed streams depend only on
        the global index).  Both results must describe the same
        *statistics contract* — function, defect model, multi-level
        spec, outcome set and disjoint sample ranges.  The engine is
        deliberately **not** part of that contract: counting statistics
        are engine-invariant, so partial results computed on different
        engines (e.g. a checkpointed campaign resumed on a machine
        where ``"auto"`` resolves differently) merge fine; the merged
        provenance records ``engine="mixed"``.
        """
        if other.function_name != self.function_name:
            raise ExperimentError(
                f"cannot merge results of {other.function_name!r} into "
                f"{self.function_name!r}"
            )
        if other.defect_model != self.defect_model:
            raise ExperimentError(
                "cannot merge results with different defect models"
            )
        if other.multilevel != self.multilevel:
            raise ExperimentError(
                f"cannot merge a result with multi-level spec "
                f"{other.multilevel!r} into one with {self.multilevel!r}"
            )
        if set(other.outcomes) != set(self.outcomes):
            raise ExperimentError(
                f"cannot merge outcomes of {sorted(other.outcomes)} into "
                f"{sorted(self.outcomes)}"
            )
        if self.sample_ranges is not None and other.sample_ranges is not None:
            overlaps = [
                (list(mine), list(theirs))
                for mine in self.sample_ranges
                for theirs in other.sample_ranges
                if mine[0] < theirs[1] and theirs[0] < mine[1]
            ]
            if overlaps:
                described = ", ".join(
                    f"[{a[0]}, {a[1]}) overlaps [{b[0]}, {b[1]})"
                    for a, b in overlaps
                )
                raise ExperimentError(
                    "cannot merge results whose global sample ranges "
                    f"intersect ({described}): the shared indices would be "
                    "double-counted; give each partial run a disjoint "
                    "sample_offset="
                )
            self.sample_ranges = _coalesce_ranges(
                self.sample_ranges + other.sample_ranges
            )
        else:
            self.sample_ranges = None
        if other.engine != self.engine:
            self.engine = "mixed"
        for name, outcome in other.outcomes.items():
            self.outcomes[name].merge(outcome)
        self.sample_size += other.sample_size
        self.elapsed_seconds += other.elapsed_seconds
        self.workers = max(self.workers, other.workers)

    def to_dict(self) -> dict:
        """JSON-safe representation.

        ``sample_ranges`` is emitted only when known, so payloads from
        before range tracking round-trip byte-identically.
        """
        payload = {
            "function_name": self.function_name,
            "defect_rate": self.defect_rate,
            "sample_size": self.sample_size,
            "elapsed_seconds": self.elapsed_seconds,
            "workers": self.workers,
            "defect_model": self.defect_model,
            "engine": self.engine,
            "outcomes": {
                name: outcome.to_dict() for name, outcome in self.outcomes.items()
            },
        }
        if self.sample_ranges is not None:
            payload["sample_ranges"] = [list(span) for span in self.sample_ranges]
        if self.multilevel is not None:
            payload["multilevel"] = dict(self.multilevel)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "MonteCarloResult":
        """Rebuild a result serialized by :meth:`to_dict`."""
        return cls(
            function_name=payload["function_name"],
            defect_rate=payload["defect_rate"],
            sample_size=payload["sample_size"],
            elapsed_seconds=payload.get("elapsed_seconds", 0.0),
            workers=payload.get("workers", 1),
            defect_model=payload.get("defect_model"),
            engine=payload.get("engine", "reference"),
            sample_ranges=(
                [list(span) for span in payload["sample_ranges"]]
                if payload.get("sample_ranges") is not None
                else None
            ),
            multilevel=payload.get("multilevel"),
            outcomes={
                name: AlgorithmOutcome.from_dict(entry)
                for name, entry in payload["outcomes"].items()
            },
        )


@dataclass(frozen=True)
class _ChunkTask:
    """Picklable description of one chunk of the sample stream.

    Carries resolved mapper *instances* rather than registry names so
    pool workers never need the parent's registry state — a mapper
    registered at runtime works under any multiprocessing start method
    as long as its class is picklable.
    """

    function: BooleanFunction
    model: DefectModel
    rows: int
    columns: int
    required_columns: int
    mappers: dict[str, Mapper]
    seed: int
    start: int
    stop: int
    engine: str = "vectorized"
    #: Normalized multi-level spec, or None for the two-level protocol.
    multilevel: dict | None = None


def _run_chunk(task: _ChunkTask) -> dict[str, AlgorithmOutcome]:
    """Map every sample of one chunk; pure function of the task.

    A sample is mapped onto row banks ``[(matrix, lo, hi)]``: a
    two-level design is one bank spanning the whole array, a multi-level
    design one bank per stage of its stage plan (rebuilt here —
    technology mapping is deterministic, so every worker stages
    identically).  On a batched engine the built-in mappers run on the
    batch kernel; every other mapper, and every mapper on the reference
    engine, runs on the reference walk.  Outcomes come back in
    ``task.mappers`` order.
    """
    if task.multilevel is None:
        banks = [(FunctionMatrix(task.function), 0, task.rows)]
    else:
        from repro.multilevel import stage_plan_for

        plan = stage_plan_for(task.function, task.multilevel)
        bounds = plan.bank_bounds(plan.extra_rows_for(task.rows))
        banks = [
            (stage.matrix, lo, hi)
            for stage, (lo, hi) in zip(plan.stages, bounds)
        ]
    batched = {
        name: mapper
        for name, mapper in task.mappers.items()
        if task.engine != "reference" and mapper_kind(mapper) is not None
    }
    walked = {n: m for n, m in task.mappers.items() if n not in batched}
    outcomes = {}
    if batched:
        outcomes.update(_run_batched(task, banks, batched))
    if walked:
        outcomes.update(_run_reference(task, banks, walked))
    return {name: outcomes[name] for name in task.mappers}


def _run_reference(
    task: _ChunkTask,
    banks: list[tuple[FunctionMatrix, int, int]],
    mappers: dict[str, Mapper],
) -> dict[str, AlgorithmOutcome]:
    """The object-per-sample walk, the ground truth of the batched path.

    Each sample is injected, spare-column repaired and cut into its
    banks' crossbars once; then every mapper walks the banks with
    :func:`~repro.mapping.validate.map_banks`, counting backtracks on
    every bank it reached.  A sample succeeds when every bank maps.
    """
    outcomes = {name: AlgorithmOutcome(algorithm=name) for name in mappers}
    spare_columns = task.columns > task.required_columns
    for sample in range(task.start, task.stop):
        defect_map = task.model.inject(
            task.rows, task.columns, seed=derive_seed(task.seed, sample)
        )
        if spare_columns:
            defect_map = repair_spare_columns(defect_map, task.required_columns)
            if defect_map is None:
                for outcome in outcomes.values():
                    outcome.samples += 1
                continue
        pairs = [
            (matrix, CrossbarMatrix(defect_map.restricted_to_rows(lo, hi)))
            for matrix, lo, hi in banks
        ]
        for name, mapper in mappers.items():
            outcome = outcomes[name]
            outcome.samples += 1
            attempts = map_banks(mapper, pairs)
            for result, valid in attempts:
                outcome.total_runtime += result.runtime_seconds
                outcome.total_backtracks += result.statistics.backtracks
                outcome.invalid_mappings += not valid
            result, valid = attempts[-1]
            outcome.successes += result.success and valid
    return outcomes


def _run_batched(
    task: _ChunkTask,
    banks: list[tuple[FunctionMatrix, int, int]],
    mappers: dict[str, Mapper],
) -> dict[str, AlgorithmOutcome]:
    """The batched path: one defect batch per chunk, one kernel pass per bank.

    ``mappers`` are built-in ones.  The per-bank arrays are folded into
    the reference walk's :class:`AlgorithmOutcome` partials; the shared
    stages (defect generation, and each bank's screen and compatibility
    pass) are split evenly over these mappers so runtime totals stay
    meaningful for throughput reports.
    """
    kernels = get_kernels() if task.engine == "compiled" else None
    shared_start = time.perf_counter()
    batch = DefectBatch.generate(
        task.model,
        task.rows,
        task.columns,
        seed=task.seed,
        start=task.start,
        stop=task.stop,
        required_columns=task.required_columns,
        kernels=kernels,
    )
    shared_seconds = time.perf_counter() - shared_start
    stages = []
    for matrix, lo, hi in banks:
        result = map_sample_batch(
            matrix,
            mappers,
            batch.restricted_to_rows(lo, hi),
            engine=task.engine,
        )
        shared_seconds += result.shared_seconds
        stages.append(result.outcomes)
    shared_share = shared_seconds / len(mappers)
    return {
        name: _fold_stages(name, [stage[name] for stage in stages], shared_share)
        for name in mappers
    }


def _fold_stages(
    name: str, stages: list[MapperBatchOutcome], shared_share: float
) -> AlgorithmOutcome:
    """Replay the reference walk over one mapper's per-bank arrays.

    A sample walks on to the next bank only while banks succeed (the
    kernel reports a validation reject as ``invalid`` with ``success``
    False, so both ways to stop end the walk); backtracks and invalid
    mappings count on every bank it reached, the stopping one included.
    """
    reached = np.ones(stages[0].samples, dtype=bool)
    backtracks = invalid = 0
    for stage in stages:
        backtracks += int(stage.backtracks[reached].sum())
        invalid += int(stage.invalid[reached].sum())
        reached &= stage.success
    return AlgorithmOutcome(
        algorithm=name,
        successes=int(reached.sum()),
        samples=reached.size,
        total_runtime=sum(float(stage.runtime.sum()) for stage in stages)
        + shared_share,
        total_backtracks=backtracks,
        invalid_mappings=invalid,
    )


def run_mapping_monte_carlo(
    function: BooleanFunction,
    *,
    defect_rate: float = 0.10,
    stuck_open_fraction: float = 1.0,
    sample_size: int = 200,
    algorithms: Sequence[str] | Mapping[str, Mapper] = ("hybrid", "exact"),
    seed: int = 0,
    extra_rows: int = 0,
    extra_columns: int = 0,
    workers: int | None = None,
    chunk_size: int | None = None,
    defect_model: DefectModel | str | dict | None = None,
    engine: str = "auto",
    sample_offset: int = 0,
    multilevel: dict | None = None,
) -> MonteCarloResult:
    """Run the paper's Monte-Carlo mapping protocol on one function.

    A sample counts as mapped only when its row assignment passes the
    matrix-level check, as in the paper's §V protocol; a success that
    fails it counts as an invalid mapping instead (there should be
    none).

    Parameters
    ----------
    function:
        The circuit to map; the crossbar is sized to its optimum
        dimensions plus the optional redundancy.
    defect_rate / stuck_open_fraction:
        Defect injection parameters (the paper uses 10 % stuck-open only).
        Ignored when ``defect_model`` is given.
    defect_model:
        A registered defect-model name, a
        :class:`~repro.api.defect_models.DefectModel` or its ``to_dict``
        payload; overrides ``defect_rate``/``stuck_open_fraction`` and
        selects the per-sample injector (``"clustered"``,
        ``"exact-count"``, ...).
    sample_size:
        Number of random defective crossbars (the paper uses 200).
    algorithms:
        Registered algorithm names (see
        :func:`repro.api.registry.list_mappers`) or a mapping
        ``{label: mapper instance}``.  Mapper instances must be
        stateless across ``map()`` calls (the built-ins are): with
        ``workers > 1`` every chunk receives an independent pickled
        copy, so state carried between samples would diverge from the
        serial run and void the determinism guarantee.
    extra_rows / extra_columns:
        Redundant lines beyond the optimum size (0 = the paper's setup).
    workers:
        ``1`` = serial, ``N`` = process pool of that size, ``None``
        (default) = auto.  The counting statistics are identical for
        every choice; only wall-clock time changes.  Auto mode gates on
        batch *size*, not per-sample cost.  The pool comes from the
        enclosing :func:`repro.api.batch.warm_pool` scope, which
        ``python -m repro`` opens once per command; a call outside any
        scope starts and tears down a pool of its own, which can cost
        more than a small circuit's whole batch, so loops of such calls
        run inside one ``warm_pool()`` or with ``workers=1``.
    chunk_size:
        Samples per chunk (default: auto, ~4 chunks per worker; the
        vectorized engine additionally floors the auto size so batched
        passes stay amortised).
    engine:
        ``"auto"`` (default) resolves to the fastest available tier —
        ``"compiled"`` (native replicas via :mod:`repro.compiled`,
        when a backend is available) falling back to ``"vectorized"``
        (the batched NumPy kernel of :mod:`repro.mapping.batch_kernel`).
        ``"reference"`` runs the original object-per-sample loop.  All
        engines are differentially tested to produce identical counting
        statistics sample-for-sample; only wall-clock fields differ.
        The result records the engine that actually ran.
    sample_offset:
        First *global* sample index of this run (default 0).  Samples
        draw their defect maps from ``derive_seed(seed, index)`` of the
        global index, so a run over ``[offset, offset + sample_size)``
        reproduces exactly that slice of a larger fixed-budget run —
        the property the adaptive sampler of :mod:`repro.analysis`
        builds on to grow an experiment without re-drawing any sample.
    multilevel:
        A multi-level spec dict (see
        :func:`repro.multilevel.normalize_multilevel_spec`) switching
        the protocol to per-stage mapping: the function is
        technology-mapped into a NAND network, staged into per-level row
        banks (:mod:`repro.multilevel`), and every sample's full array —
        all banks plus shared spare columns — is mapped stage by stage,
        a sample surviving only when *every* stage maps.  ``extra_rows``
        then grants spare rows *per bank* and ``extra_columns`` spare
        columns on the shared array.  The seed streams, engine contract
        and worker invariance are identical to the two-level protocol.
    """
    if sample_size <= 0:
        raise ExperimentError("sample_size must be positive")
    if sample_offset < 0:
        raise ExperimentError(
            f"sample_offset must be non-negative, got {sample_offset}"
        )
    engine = resolve_mapping_engine(engine)
    if multilevel is not None:
        # Normalize (and validate) eagerly, and build the stage plan once
        # for sizing — workers rebuild it deterministically per chunk.
        from repro.multilevel import normalize_multilevel_spec, stage_plan_for

        multilevel = normalize_multilevel_spec(multilevel)
        stage_plan = stage_plan_for(function, multilevel)
        rows = stage_plan.physical_rows(extra_rows)
        columns = stage_plan.num_columns + extra_columns
        required_columns = stage_plan.num_columns
    else:
        function_matrix = FunctionMatrix(function)
        rows = function_matrix.num_rows + extra_rows
        columns = function_matrix.num_columns + extra_columns
        required_columns = function_matrix.num_columns
    if defect_model is None:
        # Validates the rate/fraction values eagerly, like it always has.
        DefectProfile(rate=defect_rate, stuck_open_fraction=stuck_open_fraction)
        model = DefectModel(
            "uniform",
            {"rate": defect_rate, "stuck_open_fraction": stuck_open_fraction},
        )
    else:
        model = resolve_defect_model(defect_model)
    reported_rate = model.rate if model.rate is not None else 0.0

    # Resolve eagerly so configuration errors surface before any work
    # (and before a process pool spins up).
    mappers = resolve_mappers(algorithms)

    runner = BatchRunner(workers)
    # Batched passes amortise over chunk size, so the vectorized engine
    # floors the auto chunk size; explicit chunk_size always wins.
    min_chunk = VECTORIZED_MIN_CHUNK if engine != "reference" else 1
    plan = runner.plan(sample_size, chunk_size, min_chunk_size=min_chunk)
    tasks = [
        _ChunkTask(
            function=function,
            model=model,
            rows=rows,
            columns=columns,
            required_columns=required_columns,
            mappers=mappers,
            seed=seed,
            start=sample_offset + chunk.start,
            stop=sample_offset + chunk.stop,
            engine=engine,
            multilevel=multilevel,
        )
        for chunk in chunk_ranges(sample_size, plan.chunk_size)
    ]

    result = MonteCarloResult(
        function_name=function.name or "<anonymous>",
        defect_rate=reported_rate,
        sample_size=sample_size,
        outcomes={name: AlgorithmOutcome(algorithm=name) for name in mappers},
        workers=plan.workers,
        defect_model=model.to_dict(),
        engine=engine,
        sample_ranges=[[sample_offset, sample_offset + sample_size]],
        multilevel=multilevel,
    )

    if engine != "compiled":
        # The NumPy replicas and the reference engine's Munkres use
        # SciPy: import it once here, not in every worker of the pool.
        load_scipy_matching()
    start = time.perf_counter()
    for partial in runner.run(_run_chunk, tasks, total_items=sample_size):
        for name, outcome in partial.items():
            result.outcomes[name].merge(outcome)
    result.elapsed_seconds = time.perf_counter() - start
    result.workers = runner.last_run_workers or 1
    return result
