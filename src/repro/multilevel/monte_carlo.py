"""Monte-Carlo chunk execution for multi-level (per-stage) mapping.

One multi-level sample is one *full* physical array — every stage's row
bank plus shared spare columns — holding exactly what the two-level
engines' ``model.inject(rows, columns, seed=derive_seed(seed, index))``
call draws (the compiled tier draws the same defects natively, see
:class:`~repro.defects.batch.DefectBatch`), so a multi-level experiment
shares the two-level seed streams sample for sample.  Spare-column repair (when any) runs
once on the full array because all banks share the vertical lines; the
per-stage walk then maps each stage onto its bank slice.

Early-stop fold
---------------
The reference engine walks the stages of each sample in order and stops
at the first stage that fails to map (or maps but fails validation),
accumulating backtracks through the stopping stage *inclusive*.  The
vectorized engine computes per-stage result arrays with the batched
kernel — one shared defect tensor sliced into per-bank sub-batches — and
replays the identical fold with NumPy: both engines therefore report the
same counting statistics (samples, successes, backtracks, invalid
mappings) for every sample, extending the two-level differential
contract to the multi-level pipeline.
"""

from __future__ import annotations

import time

import numpy as np

from repro.api.seeding import derive_seed
from repro.compiled import get_kernels
from repro.defects.batch import DefectBatch, repair_spare_columns
from repro.experiments.monte_carlo import AlgorithmOutcome
from repro.mapping.batch_kernel import map_sample_batch, mapper_kind
from repro.mapping.crossbar_matrix import CrossbarMatrix
from repro.mapping.validate import validate_assignment
from repro.multilevel.staging import MultiLevelStagePlan, stage_plan_for

__all__ = ["run_multilevel_chunk"]


def run_multilevel_chunk(task) -> dict[str, AlgorithmOutcome]:
    """Run one multi-level Monte-Carlo chunk; pure function of the task.

    ``task`` is the :class:`repro.experiments.monte_carlo._ChunkTask` of
    a chunk whose ``multilevel`` spec is set.  The stage plan is rebuilt
    here (technology mapping is deterministic, so every worker stages
    identically) and the per-bank spare-row count is recovered from the
    task's physical row total.
    """
    plan = stage_plan_for(task.function, task.multilevel)
    extra_rows = plan.extra_rows_for(task.rows)
    if task.engine in ("vectorized", "compiled"):
        return _run_chunk_vectorized(task, plan, extra_rows)
    return _run_chunk_reference(task, plan, extra_rows)


# ----------------------------------------------------------------------
# Reference engine: object-per-sample early-stop walk (the ground truth).
# ----------------------------------------------------------------------
def _run_chunk_reference(
    task, plan: MultiLevelStagePlan, extra_rows: int
) -> dict[str, AlgorithmOutcome]:
    outcomes = {name: AlgorithmOutcome(algorithm=name) for name in task.mappers}
    banks = plan.bank_bounds(extra_rows)
    spare_columns = task.columns > plan.num_columns
    for sample in range(task.start, task.stop):
        defect_map = task.model.inject(
            task.rows, task.columns, seed=derive_seed(task.seed, sample)
        )
        if spare_columns:
            defect_map = repair_spare_columns(defect_map, plan.num_columns)
            if defect_map is None:
                for outcome in outcomes.values():
                    outcome.samples += 1
                continue
        stage_crossbars = [
            CrossbarMatrix(defect_map.restricted_to_rows(lo, hi))
            for lo, hi in banks
        ]
        for name, mapper in task.mappers.items():
            outcome = outcomes[name]
            outcome.samples += 1
            survived = True
            for stage, crossbar in zip(plan.stages, stage_crossbars):
                mapping = mapper.map(stage.matrix, crossbar)
                outcome.total_runtime += mapping.runtime_seconds
                outcome.total_backtracks += mapping.statistics.backtracks
                if not mapping.success:
                    survived = False
                    break
                if task.validate and not validate_assignment(
                    stage.matrix, crossbar, mapping
                ):
                    outcome.invalid_mappings += 1
                    survived = False
                    break
            if survived:
                outcome.successes += 1
    return outcomes


# ----------------------------------------------------------------------
# Vectorized engine: one full-array tensor, per-bank sub-batches, NumPy
# replay of the early-stop fold.
# ----------------------------------------------------------------------
def _run_chunk_vectorized(
    task, plan: MultiLevelStagePlan, extra_rows: int
) -> dict[str, AlgorithmOutcome]:
    count = task.stop - task.start
    kernels = get_kernels() if task.engine == "compiled" else None

    shared_start = time.perf_counter()
    full = DefectBatch.generate(
        task.model,
        task.rows,
        task.columns,
        seed=task.seed,
        start=task.start,
        stop=task.stop,
        required_columns=plan.num_columns,
        kernels=kernels,
    )
    shared_seconds = time.perf_counter() - shared_start

    # Per-bank DefectMap slices are only needed by the object-path
    # fallback, so they are materialised only when an opaque (non
    # built-in) mapper is present.
    need_maps = any(
        mapper_kind(mapper) is None for mapper in task.mappers.values()
    )

    num_stages = plan.num_stages
    succ = {name: np.zeros((num_stages, count), dtype=bool) for name in task.mappers}
    bt = {
        name: np.zeros((num_stages, count), dtype=np.int64) for name in task.mappers
    }
    inval = {name: np.zeros((num_stages, count), dtype=bool) for name in task.mappers}
    runtime = {name: 0.0 for name in task.mappers}

    for k, (stage, (lo, hi)) in enumerate(
        zip(plan.stages, plan.bank_bounds(extra_rows))
    ):
        if need_maps:
            maps = [
                None if m is None else m.restricted_to_rows(lo, hi)
                for m in full.maps
            ]
        else:
            maps = [None] * count
        sub = DefectBatch(
            start=full.start,
            stop=full.stop,
            rows=hi - lo,
            columns=full.columns,
            maps=maps,
            functional=full.functional[:, lo:hi, :],
            closed_rows=full.closed_rows[:, lo:hi],
            closed_columns=full.closed_columns,
            dropped=full.dropped,
        )
        result = map_sample_batch(
            stage.matrix,
            task.mappers,
            None,
            rows=hi - lo,
            columns=full.columns,
            seed=task.seed,
            start=task.start,
            stop=task.stop,
            validate=task.validate,
            batch=sub,
            engine=task.engine,
        )
        shared_seconds += result.shared_seconds
        for name, stage_outcome in result.outcomes.items():
            succ[name][k] = stage_outcome.success
            bt[name][k] = stage_outcome.backtracks
            inval[name][k] = stage_outcome.invalid
            runtime[name] += float(stage_outcome.runtime.sum())

    shared_share = shared_seconds / max(1, len(task.mappers))
    outcomes = {}
    for name in task.mappers:
        stats = _fold_stage_arrays(succ[name], bt[name], inval[name])
        outcomes[name] = AlgorithmOutcome(
            algorithm=name,
            successes=stats["successes"],
            samples=count,
            total_runtime=runtime[name] + shared_share,
            total_backtracks=stats["total_backtracks"],
            invalid_mappings=stats["invalid_mappings"],
        )
    return outcomes


def _fold_stage_arrays(
    succ: np.ndarray, bt: np.ndarray, inval: np.ndarray
) -> dict:
    """NumPy replay of the reference engine's early-stop walk.

    All arrays are ``(stages, samples)``.  A sample survives iff every
    stage succeeded; otherwise its walk stopped at the first non-success
    stage (the kernel reports validation rejects as ``invalid`` with
    ``success`` False, so "non-success" covers both failure modes).
    Backtracks accumulate through the stopping stage inclusive, exactly
    as the reference walk counts them before breaking.
    """
    num_stages, count = succ.shape
    if count == 0:
        return {"successes": 0, "total_backtracks": 0, "invalid_mappings": 0}
    fail = ~succ
    stopped = fail.any(axis=0)
    first = np.where(stopped, fail.argmax(axis=0), num_stages - 1)
    attempted = np.arange(num_stages)[:, None] <= first[None, :]
    total_backtracks = int((bt * attempted).sum())
    invalid = stopped & inval[first, np.arange(count)]
    return {
        "successes": int((~stopped).sum()),
        "total_backtracks": total_backtracks,
        "invalid_mappings": int(invalid.sum()),
    }
