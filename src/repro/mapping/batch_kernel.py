"""Vectorized batch Monte-Carlo mapping kernel.

The serial Monte-Carlo path (the *reference engine*) materialises one
:class:`~repro.defects.defect_map.DefectMap`, one
:class:`~repro.mapping.crossbar_matrix.CrossbarMatrix` and one full
mapper invocation per sample.  This module is the *vectorized engine*:
it maps a chunk of samples handed to it as one ``(samples, rows,
columns)`` tensor (:class:`~repro.defects.batch.DefectBatch`, which the
Monte-Carlo runner of :mod:`repro.experiments.monte_carlo` draws once
per chunk from the same :func:`~repro.api.seeding.derive_seed` stream,
so the defect maps are bit-identical, and hands over one row bank at a
time).  A structural screen rejects the samples no built-in mapper can
map, and the compatibility matrices of all the others are built in one
broadcasted ``fm & ~cm`` pass
(:func:`~repro.mapping.matching.compatibility_tensor`) that the mappers
then read instead of rebuilding them from objects.

Statistics invariance
---------------------
The engine's contract is that the *counting statistics* — samples,
successes, backtracks, invalid mappings — are identical to the reference
engine for every sample, not just in aggregate.  The one decision taken
without running a mapper is therefore provably neutral: the structural
rejects (too few rows/columns, poisoned required column, too few usable
rows) mirror :func:`~repro.mapping.matching.quick_infeasibility_check`,
which every built-in mapper applies *before* doing any counted work.

Every other sample is mapped by NumPy replicas of the built-in
algorithms (first-fit with the paper's one-step backtracking, including
its exact backtrack-counting semantics, plus the zero-cost assignment
step) operating on the shared compatibility tensor, or by their native
counterparts in :mod:`repro.compiled` under ``engine="compiled"``.
Only recognised built-ins (:func:`mapper_kind`) are accepted; the
Monte-Carlo runner maps any other mapper — anything registered by third
parties — on its reference walk.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from repro.boolean.function import BooleanFunction
from repro.defects.batch import DefectBatch
from repro.exceptions import MappingError
from repro.mapping.exact import ExactMapper
from repro.mapping.function_matrix import FunctionMatrix
from repro.mapping.hybrid import GreedyMapper, HybridMapper
from repro.mapping.matching import compatibility_tensor
from repro.mapping.munkres import zero_cost_assignment

#: Decision codes recorded per (mapper, sample) — how the engine settled it.
DECISION_REPAIR_DROP = -2  #: spare-column repair left too few columns
DECISION_REJECT = -1  #: structural screen proved failure
DECISION_KERNEL = 2  #: NumPy replica of the built-in algorithm ran
DECISION_COMPILED = 4  #: native replica batch (``engine="compiled"``)

#: Upper bound on compatibility-tensor cells per sub-batch (keeps the
#: broadcasted pass cache- and memory-friendly for the largest circuits).
MAX_TENSOR_CELLS = 8_000_000


def mapper_kind(mapper) -> str | None:
    """Classify a mapper: the built-in kind a kernel replicates, or ``None``.

    Only *exact* types are recognised — a subclass may override anything,
    so it is treated as opaque and runs on the Monte-Carlo runner's
    reference walk.
    """
    if type(mapper) is ExactMapper:
        return "exact"
    if type(mapper) is GreedyMapper:
        return "greedy"
    if type(mapper) is HybridMapper:
        return "hybrid" if mapper._backtracking else "greedy"
    return None


@dataclass
class MapperBatchOutcome:
    """Per-sample results of one mapper over one batch.

    All arrays are indexed by chunk offset (``global index - start``).
    ``runtime`` carries only the per-sample work attributable to this
    mapper; the shared batched stages are reported once in
    :attr:`BatchMapResult.shared_seconds`.
    """

    algorithm: str
    success: np.ndarray
    backtracks: np.ndarray
    invalid: np.ndarray
    runtime: np.ndarray
    decision: np.ndarray

    @property
    def samples(self) -> int:
        """Number of samples in the batch."""
        return int(self.success.shape[0])

    def decided(self) -> int:
        """Samples settled without mapper work: structural rejects and drops."""
        return int(np.isin(self.decision, (DECISION_REJECT, DECISION_REPAIR_DROP)).sum())

    def counting_statistics(self) -> dict:
        """The wall-clock-free aggregate the determinism contract covers."""
        return {
            "successes": int(self.success.sum()),
            "samples": self.samples,
            "total_backtracks": int(self.backtracks.sum()),
            "invalid_mappings": int(self.invalid.sum()),
        }


@dataclass
class BatchMapResult:
    """All mappers' per-sample results for one chunk of the sample stream."""

    start: int
    stop: int
    outcomes: dict[str, MapperBatchOutcome]
    shared_seconds: float

    def counting_statistics(self) -> dict:
        """Per-mapper counting statistics (for tests and reports)."""
        return {
            name: outcome.counting_statistics()
            for name, outcome in self.outcomes.items()
        }


def map_sample_batch(
    function: BooleanFunction | FunctionMatrix,
    mappers: dict,
    batch: DefectBatch,
    *,
    engine: str = "vectorized",
) -> BatchMapResult:
    """Map one chunk of the Monte-Carlo sample stream, vectorized.

    Every successful mapping is checked, and one that fails the check
    counts as an invalid mapping instead of a success, as on the
    reference engine.  Sub-batches cap the compatibility tensor at
    :data:`MAX_TENSOR_CELLS` cells.

    Parameters
    ----------
    function:
        The design to map (a :class:`FunctionMatrix` is accepted to skip
        re-synthesis).
    mappers:
        ``{label: mapper instance}`` as produced by
        :func:`repro.api.registry.resolve_mappers`; every one must be a
        built-in (:func:`mapper_kind`), or :class:`MappingError` names
        the others.
    batch:
        The chunk's defects as a :class:`~repro.defects.batch.DefectBatch`
        over the global sample range ``[batch.start, batch.stop)``, with
        any spare-column repair already applied.  A multi-level run hands
        over one row bank of its chunk at a time
        (:meth:`~repro.defects.batch.DefectBatch.restricted_to_rows`).
    engine:
        ``"vectorized"`` (default) settles the structurally feasible
        samples with the NumPy replicas below; ``"compiled"`` batches
        them through the native kernels of :mod:`repro.compiled` instead
        (one call per mapper per sub-batch).  Identical counting
        statistics either way; when no compiled backend is loadable in
        this process the NumPy replicas transparently take over.
    """
    if engine not in ("vectorized", "compiled"):
        raise MappingError(
            f"unknown batch engine {engine!r}; expected one of "
            "['vectorized', 'compiled']"
        )
    kinds = {name: mapper_kind(mapper) for name, mapper in mappers.items()}
    opaque = [name for name, kind in kinds.items() if kind is None]
    if opaque:
        raise MappingError(
            "the batch kernel replicates only the built-in mappers, so it "
            f"cannot map {', '.join(map(repr, opaque))}; "
            "run_mapping_monte_carlo maps those on its reference walk"
        )

    fm = function if isinstance(function, FunctionMatrix) else FunctionMatrix(function)
    count = len(batch)

    kernels = None
    if engine == "compiled":
        from repro.compiled import get_kernels

        kernels = get_kernels()

    shared_start = time.perf_counter()
    outcomes = {
        name: MapperBatchOutcome(
            algorithm=name,
            success=np.zeros(count, dtype=bool),
            backtracks=np.zeros(count, dtype=np.int64),
            invalid=np.zeros(count, dtype=bool),
            runtime=np.zeros(count, dtype=np.float64),
            decision=np.zeros(count, dtype=np.int8),
        )
        for name in mappers
    }
    # Structural screen — the vectorized quick_infeasibility_check.  The
    # built-in mappers return an uncounted failure in exactly these
    # cases, so deciding them here is statistics-neutral, and the
    # rejected samples never get a compatibility tensor.
    feasible = ~batch.dropped
    if batch.rows < fm.num_rows or batch.columns < fm.num_columns:
        feasible[:] = False
    else:
        feasible &= batch.columns_usable(fm.num_columns)
        feasible &= batch.usable_row_counts() >= fm.num_rows
    rejected = ~batch.dropped & ~feasible
    for outcome in outcomes.values():
        outcome.decision[batch.dropped] = DECISION_REPAIR_DROP
        outcome.decision[rejected] = DECISION_REJECT

    shared_seconds = time.perf_counter() - shared_start
    shared_seconds += _run_builtin_mappers(
        fm,
        batch,
        kinds,
        outcomes,
        np.flatnonzero(feasible),
        kernels=kernels,
    )

    return BatchMapResult(
        start=batch.start,
        stop=batch.stop,
        outcomes=outcomes,
        shared_seconds=shared_seconds,
    )


# ----------------------------------------------------------------------
# Built-in mapper path: shared compatibility tensor + the settle kernel
# (NumPy replicas, or one native call per mapper per sub-batch).
# ----------------------------------------------------------------------
def _run_builtin_mappers(
    fm: FunctionMatrix,
    batch: DefectBatch,
    kinds: dict,
    outcomes: dict,
    feasible: np.ndarray,
    *,
    kernels=None,
) -> float:
    """Map the structurally feasible samples; returns shared stage time.

    ``kinds`` maps each built-in mapper's label to its
    :func:`mapper_kind`, and ``feasible`` lists the chunk offsets that
    passed the structural screen.  ``kernels`` is the loaded
    :mod:`repro.compiled` backend (or ``None``): when given, it also
    builds the compatibility tensor, packed into row words, and each
    mapper settles a whole sub-batch in one native call instead of the
    per-sample NumPy replicas.
    """
    num_minterms = fm.num_minterm_rows
    sub_size = max(1, MAX_TENSOR_CELLS // max(1, batch.rows * fm.num_rows))
    shared_seconds = 0.0

    for lo in range(0, feasible.size, sub_size):
        idx = feasible[lo : lo + sub_size]

        shared_start = time.perf_counter()
        closed = batch.closed_rows[idx]
        compat = compatibility_tensor(
            fm.matrix, batch.functional[idx], closed=closed, kernels=kernels
        )
        shared_seconds += time.perf_counter() - shared_start

        for name, kind in kinds.items():
            outcome = outcomes[name]
            if kernels is not None:
                kernel_start = time.perf_counter()
                success, backtracks, valid = kernels.map_builtin_batch(
                    compat, closed, num_minterms, kind=kind
                )
                succeeded = success.astype(bool)
                invalid = succeeded & ~valid.astype(bool)
                outcome.backtracks[idx] = backtracks
                outcome.invalid[idx] = invalid
                outcome.success[idx] = succeeded & ~invalid
                outcome.decision[idx] = DECISION_COMPILED
                outcome.runtime[idx] += (
                    time.perf_counter() - kernel_start
                ) / idx.size
                continue
            for k, offset in enumerate(idx):
                sample_start = time.perf_counter()
                usable_rows = np.flatnonzero(~closed[k])
                if kind == "exact":
                    success, backtracks, valid = _replica_exact(
                        compat[k], usable_rows
                    )
                else:
                    success, backtracks, valid = _replica_hybrid(
                        compat[k],
                        usable_rows,
                        num_minterms,
                        backtracking=kind == "hybrid",
                    )
                outcome.backtracks[offset] = backtracks
                if success and not valid:
                    outcome.invalid[offset] = True
                else:
                    outcome.success[offset] = success
                outcome.decision[offset] = DECISION_KERNEL
                outcome.runtime[offset] += time.perf_counter() - sample_start
    return shared_seconds


@functools.cache
def load_scipy_matching():
    """SciPy's ``(csr_matrix, maximum_bipartite_matching)``, or ``None``.

    SciPy's Hopcroft-Karp is the fast path of the NumPy replicas and
    Munkres the fallback.  It is imported on first use, not with this
    module, because it is most of the time ``import repro`` would take.
    """
    try:
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import maximum_bipartite_matching
    except ImportError:  # pragma: no cover - SciPy is an optional extra
        return None
    return csr_matrix, maximum_bipartite_matching


def _saturating_matching(compat_sub: np.ndarray) -> np.ndarray | None:
    """A matching covering every *row* of a boolean biadjacency matrix.

    Returns the matched column of every row, or ``None`` when no such
    matching exists.  A zero-cost assignment exists iff a perfect
    matching of the FM rows does, so existence-only questions run on
    SciPy's C Hopcroft-Karp instead of the O(n^3) Hungarian solver; the
    dependency-free Munkres path answers identically when SciPy is
    unavailable.
    """
    num_left, num_right = compat_sub.shape
    if num_left > num_right:
        return None
    if num_left == 0:
        return np.zeros(0, dtype=np.int64)
    scipy_matching = load_scipy_matching()
    if scipy_matching is not None:
        csr_matrix, maximum_bipartite_matching = scipy_matching
        matched = maximum_bipartite_matching(
            csr_matrix(compat_sub), perm_type="column"
        )
        if (matched < 0).any():
            return None
        return matched.astype(np.int64)
    costs = np.where(compat_sub.T, 0, 1).astype(np.int64)
    assignment = zero_cost_assignment(costs)
    if assignment is None:
        return None
    result = np.full(num_left, -1, dtype=np.int64)
    for left, right in assignment.items():
        result[left] = right
    return result


def _replica_exact(
    compat_rows: np.ndarray, usable_rows: np.ndarray
) -> tuple[bool, int, bool]:
    """The exact mapper's decision on a precomputed compatibility matrix.

    A mapping exists iff a zero-cost assignment over all FM rows and all
    usable crossbar rows exists, which is iff the FM rows admit a
    saturating matching — identical to
    :class:`~repro.mapping.exact.ExactMapper`, which never backtracks.
    """
    matching = _saturating_matching(compat_rows[:, usable_rows])
    return matching is not None, 0, True


def _replica_hybrid(
    compat_rows: np.ndarray,
    usable_rows: np.ndarray,
    num_minterms: int,
    *,
    backtracking: bool,
) -> tuple[bool, int, bool]:
    """NumPy replica of HBA's matcher + output assignment.

    Reproduces :class:`~repro.mapping.heuristic.HeuristicMatcher`
    decision-for-decision — top-to-bottom first fit, one-step
    backtracking over matched rows in row order, relocation of the
    displaced product — including the exact points at which the
    reference implementation increments its backtrack counter.
    """
    num_rows = compat_rows.shape[1]
    free = np.zeros(num_rows, dtype=bool)
    free[usable_rows] = True
    owner = np.full(num_rows, -1, dtype=np.int64)
    assigned_row = np.full(compat_rows.shape[0], -1, dtype=np.int64)
    backtracks = 0

    for fm_index in range(num_minterms):
        compatible = compat_rows[fm_index]
        placed = _first_free(free, compatible)
        if placed < 0 and backtracking:
            for matched in np.flatnonzero(~free & compatible):
                # Only usable rows are ever occupied, so ~free & compatible
                # walks exactly the matched rows the reference visits.
                backtracks += 1
                occupant = owner[matched]
                relocation = _first_free(free, compat_rows[occupant])
                if relocation < 0:
                    continue
                owner[relocation] = occupant
                assigned_row[occupant] = relocation
                free[relocation] = False
                placed = int(matched)
                break
        if placed < 0:
            return False, backtracks, True
        owner[placed] = fm_index
        assigned_row[fm_index] = placed
        free[placed] = False

    unmatched = np.flatnonzero(free)
    num_outputs = compat_rows.shape[0] - num_minterms
    if unmatched.size < num_outputs:
        return False, backtracks, True
    if num_outputs:
        matching = _saturating_matching(compat_rows[num_minterms:][:, unmatched])
        if matching is None:
            return False, backtracks, True
        assigned_row[num_minterms:] = unmatched[matching]

    # The vectorized counterpart of validate_assignment: injective,
    # usable rows only (by construction), every pair compatible.
    valid = bool(
        len(np.unique(assigned_row)) == assigned_row.size
        and compat_rows[np.arange(assigned_row.size), assigned_row].all()
    )
    return True, backtracks, valid


def _first_free(free: np.ndarray, compatible: np.ndarray) -> int:
    """Lowest-index free compatible row, or -1 — the first-fit primitive."""
    candidates = free & compatible
    index = int(np.argmax(candidates))
    return index if candidates[index] else -1
