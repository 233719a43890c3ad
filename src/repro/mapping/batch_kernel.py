"""Vectorized batch Monte-Carlo mapping kernel.

The serial Monte-Carlo path (the *reference engine*) materialises one
:class:`~repro.defects.defect_map.DefectMap`, one
:class:`~repro.mapping.crossbar_matrix.CrossbarMatrix` and one full
mapper invocation per sample.  This module is the *vectorized engine*:
a chunk of samples is generated as one ``(samples, rows, columns)``
tensor (:class:`~repro.defects.batch.DefectBatch`, seeded per-sample
from the same :func:`~repro.api.seeding.derive_seed` stream, so the
defect maps are bit-identical), every compatibility matrix is built in
one broadcasted ``fm & ~cm`` pass
(:func:`~repro.mapping.matching.compatibility_tensor`), and a cheap
counting pre-screen decides many samples without ever invoking a
per-sample mapper.  Only undecided samples fall through — and even those
run against the precomputed compatibility tensor instead of rebuilding
it from objects.

Statistics invariance
---------------------
The engine's contract is that the *counting statistics* — samples,
successes, backtracks, invalid mappings — are identical to the reference
engine for every sample, not just in aggregate.  The pre-screen
therefore only takes decisions that are provably neutral for the mapper
at hand:

* **structural rejects** (too few rows/columns, poisoned required
  column, too few usable rows) mirror
  :func:`~repro.mapping.matching.quick_infeasibility_check`, which every
  built-in mapper applies *before* doing any counted work;
* **degree-zero rejects** (some FM row fits no usable crossbar row) are
  applied to the exact mapper (which never backtracks) and to the greedy
  mapper (whose backtrack counter is structurally zero); for the hybrid
  mapper they are only applied when the minterm stage is additionally
  guaranteed backtrack-free, because an early backtrack followed by a
  later dead end must still be counted;
* **counting accepts** use first-fit/Hall-style bounds under which the
  real mapper is guaranteed to succeed *without a single backtrack*:
  every minterm row ``i`` (in placement order) compatible with more than
  ``i`` usable rows, and every output row compatible with at least
  ``num_rows`` usable rows.

Samples the bounds cannot decide are mapped by NumPy replicas of the
built-in algorithms (first-fit with the paper's one-step backtracking,
including its exact backtrack-counting semantics, plus the zero-cost
assignment step) operating on the shared compatibility tensor.  Mappers
that are not recognised built-ins — anything registered by third parties
— transparently fall back to the per-sample object path, so the engine
is safe for *every* mapper in the registry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.boolean.function import BooleanFunction
from repro.defects.batch import DefectBatch
from repro.exceptions import MappingError
from repro.mapping.crossbar_matrix import CrossbarMatrix
from repro.mapping.exact import ExactMapper
from repro.mapping.function_matrix import FunctionMatrix
from repro.mapping.hybrid import GreedyMapper, HybridMapper
from repro.mapping.matching import compatibility_tensor
from repro.mapping.munkres import zero_cost_assignment
from repro.mapping.validate import validate_assignment

try:  # SciPy's Hopcroft-Karp is the fast path; Munkres the fallback.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching
except ImportError:  # pragma: no cover - exercised via the fallback branch
    csr_matrix = None
    maximum_bipartite_matching = None

#: Decision codes recorded per (mapper, sample) — how the engine settled it.
DECISION_REPAIR_DROP = -2  #: spare-column repair left too few columns
DECISION_REJECT = -1  #: counting pre-screen proved failure
DECISION_ACCEPT = 1  #: counting pre-screen proved success
DECISION_KERNEL = 2  #: NumPy replica of the built-in algorithm ran
DECISION_OBJECT = 3  #: per-sample object-path fallback (opaque mapper)
DECISION_COMPILED = 4  #: native replica batch (``engine="compiled"``)

#: Engines this module can run a batch on.
BATCH_ENGINES = ("vectorized", "compiled")

#: Upper bound on compatibility-tensor cells per sub-batch (keeps the
#: broadcasted pass cache- and memory-friendly for the largest circuits).
MAX_TENSOR_CELLS = 8_000_000


def mapper_kind(mapper) -> str | None:
    """Classify a mapper for the pre-screen: built-in kind or ``None``.

    Only *exact* types are recognised — a subclass may override anything,
    so it is treated as opaque and runs on the object path.
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
        """Samples settled by the pre-screen alone (no mapper work)."""
        return int(
            np.isin(
                self.decision, (DECISION_ACCEPT, DECISION_REJECT, DECISION_REPAIR_DROP)
            ).sum()
        )

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
    model,
    *,
    rows: int,
    columns: int,
    seed: int = 0,
    start: int = 0,
    stop: int | None = None,
    sample_size: int | None = None,
    validate: bool = True,
    max_tensor_cells: int = MAX_TENSOR_CELLS,
    batch: DefectBatch | None = None,
    engine: str = "vectorized",
) -> BatchMapResult:
    """Map one chunk of the Monte-Carlo sample stream, vectorized.

    Parameters
    ----------
    function:
        The design to map (a :class:`FunctionMatrix` is accepted to skip
        re-synthesis).
    mappers:
        ``{label: mapper instance}`` as produced by
        :func:`repro.api.registry.resolve_mappers`.
    model:
        A defect model with the ``inject(rows, columns, seed=...)``
        protocol; every sample ``i`` is seeded ``derive_seed(seed, i)``
        exactly like the reference engine.  Ignored when ``batch`` is
        given.
    rows / columns:
        Physical crossbar dimensions (optimum size plus redundancy).
    start / stop / sample_size:
        Global sample-index range; ``sample_size`` is a convenience for
        ``stop = start + sample_size``.
    validate:
        Double-check successful mappings and count violations separately
        (mirrors the reference engine's flag).
    max_tensor_cells:
        Sub-batch cap on ``samples x rows x fm_rows`` cells.
    batch:
        A pre-built :class:`~repro.defects.batch.DefectBatch` covering
        ``[start, stop)`` to map against instead of injecting one here.
        The multi-level pipeline uses this to slice per-stage row banks
        out of one shared full-array tensor; the caller is responsible
        for any spare-column repair having already happened.
    engine:
        ``"vectorized"`` (default) settles undecided samples with the
        NumPy replicas below; ``"compiled"`` batches them through the
        native kernels of :mod:`repro.compiled` instead (one call per
        mapper per sub-batch).  Identical counting statistics either
        way; when no compiled backend is loadable in this process the
        NumPy replicas transparently take over.
    """
    if engine not in BATCH_ENGINES:
        raise MappingError(
            f"unknown batch engine {engine!r}; expected one of "
            f"{list(BATCH_ENGINES)}"
        )
    if stop is None:
        if sample_size is None:
            raise MappingError("map_sample_batch needs stop= or sample_size=")
        stop = start + sample_size
    if stop < start:
        raise MappingError(f"invalid sample range [{start}, {stop})")

    fm = function if isinstance(function, FunctionMatrix) else FunctionMatrix(function)
    count = stop - start

    shared_start = time.perf_counter()
    if batch is None:
        batch = DefectBatch.generate(
            model,
            rows,
            columns,
            seed=seed,
            start=start,
            stop=stop,
            required_columns=fm.num_columns,
        )
    elif (batch.stop - batch.start) != count:
        raise MappingError(
            f"pre-built batch covers {batch.stop - batch.start} samples, "
            f"expected {count}"
        )

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
    for outcome in outcomes.values():
        outcome.decision[batch.dropped] = DECISION_REPAIR_DROP

    active = np.flatnonzero(~batch.dropped)
    if active.size == 0:
        return BatchMapResult(
            start=start,
            stop=stop,
            outcomes=outcomes,
            shared_seconds=time.perf_counter() - shared_start,
        )

    # Structural screen — the vectorized quick_infeasibility_check.  The
    # built-in mappers return an uncounted failure in exactly these
    # cases, so deciding them here is statistics-neutral.
    num_rows_needed = fm.num_rows
    structurally_ok = np.ones(count, dtype=bool)
    if batch.rows < num_rows_needed or batch.columns < fm.num_columns:
        structurally_ok[:] = False
    else:
        structurally_ok &= batch.columns_usable(fm.num_columns)
        structurally_ok &= batch.usable_row_counts() >= num_rows_needed

    kinds = {name: mapper_kind(mapper) for name, mapper in mappers.items()}
    opaque = [name for name, kind in kinds.items() if kind is None]
    builtin = [name for name, kind in kinds.items() if kind is not None]

    shared_seconds = time.perf_counter() - shared_start

    kernels = None
    if engine == "compiled":
        from repro.compiled import get_kernels

        kernels = get_kernels()

    if builtin:
        shared_seconds += _run_builtin_mappers(
            fm,
            batch,
            {name: mappers[name] for name in builtin},
            kinds,
            outcomes,
            active,
            structurally_ok,
            validate=validate,
            max_tensor_cells=max_tensor_cells,
            kernels=kernels,
        )
    if opaque:
        _run_object_fallback(
            fm,
            batch,
            {name: mappers[name] for name in opaque},
            outcomes,
            active,
            validate=validate,
        )

    return BatchMapResult(
        start=start, stop=stop, outcomes=outcomes, shared_seconds=shared_seconds
    )


# ----------------------------------------------------------------------
# Built-in mapper path: shared compatibility tensor + counting pre-screen
# + NumPy replicas for the undecided remainder.
# ----------------------------------------------------------------------
def _run_builtin_mappers(
    fm: FunctionMatrix,
    batch: DefectBatch,
    mappers: dict,
    kinds: dict,
    outcomes: dict,
    active: np.ndarray,
    structurally_ok: np.ndarray,
    *,
    validate: bool,
    max_tensor_cells: int,
    kernels=None,
) -> float:
    """Pre-screen and map all built-in mappers; returns shared stage time.

    ``kernels`` is the loaded :mod:`repro.compiled` backend (or
    ``None``): when given, it also builds the compatibility tensor, and
    every mapper's undecided samples are settled by one native batch
    call instead of the per-sample NumPy replicas.
    """
    num_minterms = fm.num_minterm_rows
    num_rows_needed = fm.num_rows
    # Guaranteed backtrack-free first-fit: minterm row i always finds a
    # free compatible row when it is compatible with more than i usable
    # rows (at most i are occupied when it is placed).
    first_fit_bound = np.arange(1, num_minterms + 1, dtype=np.int64)

    sub_size = max(1, max_tensor_cells // max(1, batch.rows * num_rows_needed))
    shared_seconds = 0.0

    for lo in range(0, active.size, sub_size):
        idx = active[lo : lo + sub_size]

        shared_start = time.perf_counter()
        compat = compatibility_tensor(
            fm.matrix, batch.functional[idx], kernels=kernels
        )
        # Rows poisoned by stuck-closed defects can never host anything.
        compat &= ~batch.closed_rows[idx][:, None, :]
        degrees = compat.sum(axis=2, dtype=np.int64)
        minterm_deg = degrees[:, :num_minterms]
        output_deg = degrees[:, num_minterms:]

        screen_ok = structurally_ok[idx]
        minterm_prefix_ok = (minterm_deg >= first_fit_bound).all(axis=1)
        outputs_hall_ok = (output_deg >= num_rows_needed).all(axis=1)
        accept_first_fit = screen_ok & minterm_prefix_ok & outputs_hall_ok
        any_degree_zero = (degrees == 0).any(axis=1)
        shared_seconds += time.perf_counter() - shared_start

        for name, mapper in mappers.items():
            kind = kinds[name]
            outcome = outcomes[name]
            if kind == "exact":
                accept = screen_ok & (degrees >= num_rows_needed).all(axis=1)
                reject = ~screen_ok | any_degree_zero
            elif kind == "greedy":
                accept = accept_first_fit
                reject = ~screen_ok | any_degree_zero
            else:  # hybrid: rejects must be provably backtrack-free
                accept = accept_first_fit
                reject = ~screen_ok | (
                    minterm_prefix_ok & (output_deg == 0).any(axis=1)
                )
            accept &= ~reject

            outcome.success[idx] = accept
            outcome.decision[idx[accept]] = DECISION_ACCEPT
            outcome.decision[idx[reject]] = DECISION_REJECT

            undecided = np.flatnonzero(~accept & ~reject)
            if kernels is not None and undecided.size:
                kernel_start = time.perf_counter()
                # One native call settles every undecided sample of
                # this mapper.
                closed = batch.closed_rows[idx[undecided]]
                success, backtracks, valid = kernels.map_builtin_batch(
                    compat[undecided],
                    closed,
                    num_minterms,
                    kind=kind,
                    check_validity=validate,
                )
                offsets = idx[undecided]
                succeeded = success.astype(bool)
                outcome.backtracks[offsets] = backtracks
                if validate:
                    invalid = succeeded & ~valid.astype(bool)
                    outcome.invalid[offsets[invalid]] = True
                    outcome.success[offsets] = succeeded & ~invalid
                else:
                    outcome.success[offsets] = succeeded
                outcome.decision[offsets] = DECISION_COMPILED
                outcome.runtime[offsets] += (
                    time.perf_counter() - kernel_start
                ) / undecided.size
                continue
            for k in undecided:
                offset = int(idx[k])
                sample_start = time.perf_counter()
                usable_rows = np.flatnonzero(~batch.closed_rows[offset])
                compat_rows = compat[k]
                if kind == "exact":
                    success, backtracks, valid = _replica_exact(
                        compat_rows, usable_rows
                    )
                else:
                    success, backtracks, valid = _replica_hybrid(
                        compat_rows,
                        usable_rows,
                        num_minterms,
                        backtracking=kind == "hybrid",
                        check_validity=validate,
                    )
                outcome.backtracks[offset] = backtracks
                if success and validate and not valid:
                    outcome.invalid[offset] = True
                else:
                    outcome.success[offset] = success
                outcome.decision[offset] = DECISION_KERNEL
                outcome.runtime[offset] += time.perf_counter() - sample_start
    return shared_seconds


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
    if maximum_bipartite_matching is not None:
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
    check_validity: bool,
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

    valid = True
    if check_validity:
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


# ----------------------------------------------------------------------
# Opaque mappers: per-sample object path, byte-for-byte the reference
# engine's loop, so third-party mappers keep their exact semantics.
# ----------------------------------------------------------------------
def _run_object_fallback(
    fm: FunctionMatrix,
    batch: DefectBatch,
    mappers: dict,
    outcomes: dict,
    active: np.ndarray,
    *,
    validate: bool,
) -> None:
    for offset in active:
        defect_map = batch.maps[int(offset)]
        crossbar_matrix = CrossbarMatrix(defect_map)
        for name, mapper in mappers.items():
            outcome = outcomes[name]
            mapping = mapper.map(fm, crossbar_matrix)
            outcome.runtime[offset] += mapping.runtime_seconds
            outcome.backtracks[offset] = mapping.statistics.backtracks
            outcome.decision[offset] = DECISION_OBJECT
            if mapping.success:
                if validate and not validate_assignment(
                    fm, crossbar_matrix, mapping
                ):
                    outcome.invalid[offset] = True
                else:
                    outcome.success[offset] = True
