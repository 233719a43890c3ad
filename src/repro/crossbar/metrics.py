"""Area/IR metrics and the paper's dual (``f`` vs ``f̄``) selection step.

The paper's Algorithm 1 begins by computing the area cost of the logic
function *and its negation* and mapping whichever is smaller — the
crossbar produces both polarities anyway, so implementing ``f̄`` and
reading the complemented output costs nothing.  :func:`choose_dual`
implements that selection for the two-level architecture.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.boolean.complement import ComplementOverflowError
from repro.boolean.function import BooleanFunction
from repro.crossbar.two_level import two_level_area_cost

#: Cube budget for computing the complement; beyond it the original
#: function is kept.
COMPLEMENT_BUDGET = 50_000


@dataclass(frozen=True)
class DualSelection:
    """Outcome of the dual (function vs complement) selection.

    Attributes
    ----------
    implementation:
        The function that should be mapped (either the original or its
        complement).
    used_complement:
        True when the complemented circuit is the cheaper one.
    original_area / complement_area:
        Two-level area costs of both candidates; ``complement_area`` is
        ``None`` when the complement could not be computed within budget.
    """

    implementation: BooleanFunction
    used_complement: bool
    original_area: int
    complement_area: int | None

    @property
    def selected_area(self) -> int:
        """Area of the selected implementation."""
        if self.used_complement and self.complement_area is not None:
            return self.complement_area
        return self.original_area


def two_level_area_of(function: BooleanFunction, *, extra_rows: int = 0) -> int:
    """Two-level crossbar area of a function, ``(P + O)(2I + 2O)``."""
    return two_level_area_cost(
        function.num_inputs,
        function.num_outputs,
        function.num_products,
        extra_rows=extra_rows,
    )


def choose_dual(function: BooleanFunction) -> DualSelection:
    """Pick the cheaper of a function and its complement for mapping.

    The complement is minimised before comparison (the paper compares
    synthesised covers, not raw complements).  When the complement
    cannot be computed within :data:`COMPLEMENT_BUDGET` cubes the
    original function is kept.
    """
    original_area = two_level_area_of(function)
    try:
        complement = function.complement(max_cubes=COMPLEMENT_BUDGET)
    except ComplementOverflowError:
        return DualSelection(function, False, original_area, None)
    complement = complement.minimized()
    complement_area = two_level_area_of(complement)
    if complement_area < original_area:
        return DualSelection(complement, True, original_area, complement_area)
    return DualSelection(function, False, original_area, complement_area)


def inclusion_ratio(used_memristors: int, area: int) -> float:
    """The paper's IR metric: used memristors divided by crossbar area."""
    if area <= 0:
        return 0.0
    return used_memristors / area
