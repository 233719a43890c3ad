"""Batched defect-map generation for the vectorized Monte-Carlo engine.

The serial Monte-Carlo path materialises one :class:`DefectMap` (and a
:class:`~repro.mapping.crossbar_matrix.CrossbarMatrix` on top of it) per
sample.  :class:`DefectBatch` generates a whole chunk of samples at once
into dense tensors — a ``(samples, rows, columns)`` uint8 availability
tensor plus per-line stuck-closed masks — that the batched kernel can
process with single broadcasted NumPy passes.

Determinism contract
--------------------
Every sample holds what the serial path's injector call —
``model.inject(rows, columns, seed=derive_seed(seed, index))`` with the
sample's **global** index — draws, so the generated defect maps are
bit-identical to the per-object path for any defect model, any worker
count and any chunking.  By default each sample is injected with that
very call.  Given loaded compiled ``kernels``, the built-in ``uniform``
model (the paper's §V protocol) instead goes from the root seed and the
chunk's index range to its tensors in two native calls
(:func:`~repro.defects.injection.inject_uniform_batch`): one derives
every sample's stream seed, ``derive_seed(derive_seed(seed, index),
"inject-uniform")``, bit for bit, and one replays ``random.Random``'s
stream from those seeds.  Only the per-sample path calls
:func:`~repro.api.seeding.derive_seed` in Python.  A batch keeps the
tensors only, never the per-sample :class:`DefectMap` objects.

The Monte-Carlo runner draws one batch per chunk and maps it bank by
bank: :meth:`DefectBatch.restricted_to_rows` is the batched
:meth:`DefectMap.restricted_to_rows`, a view of one row bank of every
sample (the whole batch for a two-level design, one bank per stage for a
multi-level one).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.api.seeding import derive_seed
from repro.defects.defect_map import DefectMap
from repro.defects.injection import inject_uniform_batch
from repro.exceptions import DefectError


def repair_spare_columns(
    defect_map: DefectMap, required_columns: int
) -> DefectMap | None:
    """Steer the design onto the best functional columns (spares present).

    Columns poisoned by stuck-closed defects are skipped; among the
    remaining ones the ``required_columns`` with the fewest defects are
    kept (ties broken by position).  Returns the restricted defect map or
    ``None`` when too few usable columns remain.
    """
    usable = defect_map.usable_columns()
    if len(usable) < required_columns:
        return None
    defects_per_column = [0] * defect_map.columns
    for defect in defect_map:
        defects_per_column[defect.column] += 1
    ranked = sorted(usable, key=lambda column: (defects_per_column[column], column))
    kept = sorted(ranked[:required_columns])
    return defect_map.restricted_to_columns(kept)


@dataclass
class DefectBatch:
    """A chunk of defective crossbars in tensor form.

    Attributes
    ----------
    start / stop:
        Global sample-index range of the chunk (``stop - start`` samples).
    rows / columns:
        Crossbar dimensions *after* any spare-column repair.
    functional:
        ``(samples, rows, columns)`` uint8 — 1 where the crosspoint is
        functional.  Rows of dropped samples are left all-ones; they are
        excluded via :attr:`dropped` before any decision is taken.
    closed_rows / closed_columns:
        Boolean masks of lines poisoned by stuck-closed defects.
    dropped:
        ``(samples,)`` bool — samples discarded by spare-column repair
        (too few usable columns — an automatic failure for every mapper,
        before any mapping is attempted).
    """

    start: int
    stop: int
    rows: int
    columns: int
    functional: np.ndarray
    closed_rows: np.ndarray
    closed_columns: np.ndarray
    dropped: np.ndarray

    def __len__(self) -> int:
        return self.stop - self.start

    @classmethod
    def generate(
        cls,
        model,
        rows: int,
        columns: int,
        *,
        seed: int,
        start: int,
        stop: int,
        required_columns: int | None = None,
        kernels=None,
    ) -> "DefectBatch":
        """Inject one chunk of defect maps, bit-identical to the serial path.

        ``model`` is anything with the
        :meth:`~repro.api.defect_models.DefectModel.inject` protocol.
        When ``required_columns`` is given and smaller than ``columns``,
        spare-column repair restricts every map to its best functional
        columns exactly like the serial Monte-Carlo loop does.
        ``kernels`` is a loaded :mod:`repro.compiled` backend (or
        ``None``); with it, the built-in ``uniform`` model without spare
        columns is drawn natively, seed streams included.
        """
        spare_columns = required_columns is not None and columns > required_columns
        width = required_columns if spare_columns else columns
        count = stop - start
        dropped = np.zeros(count, dtype=bool)
        profile = None
        if kernels is not None and not spare_columns:
            # Imported here: repro.api.defect_models imports this package.
            from repro.api.defect_models import builtin_uniform_profile

            profile = builtin_uniform_profile(model)
        if profile is not None:
            functional, closed_rows, closed_columns = inject_uniform_batch(
                rows, columns, profile, seed=seed, start=start, stop=stop,
                kernels=kernels,
            )
        else:
            functional = np.ones((count, rows, width), dtype=np.uint8)
            closed_rows = np.zeros((count, rows), dtype=bool)
            closed_columns = np.zeros((count, width), dtype=bool)
            for offset, index in enumerate(range(start, stop)):
                defect_map = model.inject(
                    rows, columns, seed=derive_seed(seed, index)
                )
                if spare_columns:
                    defect_map = repair_spare_columns(defect_map, required_columns)
                    if defect_map is None:
                        dropped[offset] = True
                        continue
                grid, c_rows, c_columns = defect_map.to_arrays()
                functional[offset] = grid
                closed_rows[offset] = c_rows
                closed_columns[offset] = c_columns
        return cls(
            start=start,
            stop=stop,
            rows=rows,
            columns=width,
            functional=functional,
            closed_rows=closed_rows,
            closed_columns=closed_columns,
            dropped=dropped,
        )

    def restricted_to_rows(self, start: int, stop: int) -> "DefectBatch":
        """Every sample's contiguous physical row bank ``[start, stop)``.

        The batched :meth:`DefectMap.restricted_to_rows`: the tensors are
        views of this batch's rows, and the column masks and drops are
        this batch's own.  A bank spanning every row is this batch itself.
        """
        if (start, stop) == (0, self.rows):
            return self
        if not 0 <= start < stop <= self.rows:
            raise DefectError(
                f"row bank [{start}, {stop}) outside a batch of {self.rows} rows"
            )
        return replace(
            self,
            rows=stop - start,
            functional=self.functional[:, start:stop],
            closed_rows=self.closed_rows[:, start:stop],
        )

    def usable_row_counts(self) -> np.ndarray:
        """Number of non-poisoned rows per sample."""
        return self.rows - self.closed_rows.sum(axis=1)

    def columns_usable(self, required_columns: int) -> np.ndarray:
        """Per-sample vectorized ``CrossbarMatrix.columns_are_usable``.

        True when no column of the required span is poisoned by a
        stuck-closed defect.
        """
        span = min(required_columns, self.columns)
        return ~self.closed_columns[:, :span].any(axis=1)
