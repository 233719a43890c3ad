"""Spare-allocation optimisation: minimum area meeting a yield target.

The redundancy study sweeps a hand-picked list of ``(rows, columns)``
levels; this module inverts it into an *optimizer*: given a yield
target, search the spare-allocation grid for the cheapest crossbar that
meets it.  The paper names exactly this trade-off ("area cost with
redundant lines vs. defect tolerance performance") as future work.

:func:`optimize_spares` enumerates candidate allocations in ascending
physical-area order, estimates each candidate's yield with one
adaptive-sampler run (to a CI half-width when ``tolerance`` is set,
else its one-batch case, a fixed budget), each a scenario run through
:func:`~repro.api.runner.run_scenario` so a repeated or re-targeted
search reuses the candidates already stored, and stops at the first
candidate meeting the target — which the area ordering makes the
minimum-area solution among the searched grid, without ever simulating
an allocation larger than needed.  All evaluated candidates are kept as
the explored frontier, so the yield/area trade-off the search traversed
remains inspectable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.adaptive import (
    DEFAULT_MAX_SAMPLES,
    AdaptiveResult,
    analysis_scenario,
)
from repro.analysis.confidence import BinomialInterval
from repro.api.artifacts import ArtifactStore
from repro.api.defect_models import DefectModel
from repro.api.runner import run_scenario
from repro.api.scenarios import FunctionSource
from repro.boolean.function import BooleanFunction
from repro.circuits.registry import get_benchmark
from repro.exceptions import ExperimentError
from repro.experiments.report import format_table
from repro.mapping.function_matrix import FunctionMatrix

#: Acceptance criteria for "meets the target yield".
CRITERIA = ("point", "lower")


@dataclass(frozen=True)
class SpareCandidate:
    """One evaluated spare allocation."""

    extra_rows: int
    extra_columns: int
    rows: int
    columns: int
    area: int
    area_overhead: float
    estimate: BinomialInterval
    samples: int
    converged: bool
    meets_target: bool

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "extra_rows": self.extra_rows,
            "extra_columns": self.extra_columns,
            "rows": self.rows,
            "columns": self.columns,
            "area": self.area,
            "area_overhead": self.area_overhead,
            "estimate": self.estimate.to_dict(),
            "samples": self.samples,
            "converged": self.converged,
            "meets_target": self.meets_target,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SpareCandidate":
        """Rebuild a candidate serialized by :meth:`to_dict`."""
        payload = dict(payload)
        payload["estimate"] = BinomialInterval.from_dict(payload["estimate"])
        return cls(**payload)


@dataclass
class SpareSearchResult:
    """The outcome of one spare-allocation search."""

    function_name: str
    algorithm: str
    target_yield: float
    criterion: str
    defect_model: dict
    best: SpareCandidate | None
    evaluated: list[SpareCandidate] = field(default_factory=list)
    #: Grid candidates never simulated because the area-ascending scan
    #: already found the minimum-area solution before reaching them.
    skipped: int = 0

    def frontier(self) -> list[SpareCandidate]:
        """The evaluated candidates in ascending area order."""
        return sorted(
            self.evaluated,
            key=lambda c: (c.area, c.extra_rows + c.extra_columns),
        )

    def summary(self) -> str:
        """One-line human-readable verdict."""
        if self.best is None:
            return (
                f"{self.function_name}: no allocation in the searched grid "
                f"reaches {self.target_yield:.0%} yield for "
                f"{self.algorithm} ({len(self.evaluated)} evaluated)"
            )
        best = self.best
        return (
            f"{self.function_name}: +{best.extra_rows} rows, "
            f"+{best.extra_columns} columns "
            f"({best.area_overhead:.0%} extra area) reaches "
            f"{self.target_yield:.0%} yield for {self.algorithm} — "
            f"estimated {best.estimate.describe()}"
        )

    def render(self, *, style: str = "monospace") -> str:
        """Tabular rendering of the explored frontier."""
        headers = [
            "+rows", "+cols", "area", "overhead", "yield", "CI", "samples", "ok",
        ]
        body = []
        for candidate in self.frontier():
            marker = "*" if candidate == self.best else ""
            body.append(
                [
                    candidate.extra_rows,
                    candidate.extra_columns,
                    candidate.area,
                    f"{candidate.area_overhead:.0%}",
                    f"{candidate.estimate.point:.4f}",
                    f"[{candidate.estimate.lower:.4f}, "
                    f"{candidate.estimate.upper:.4f}]",
                    candidate.samples,
                    ("yes" if candidate.meets_target else "no") + marker,
                ]
            )
        title = (
            f"Spare allocation for {self.function_name}: target "
            f"{self.target_yield:.0%} yield [{self.algorithm}], "
            f"criterion={self.criterion} (* = chosen)"
        )
        return format_table(headers, body, title=title, style=style)

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "function_name": self.function_name,
            "algorithm": self.algorithm,
            "target_yield": self.target_yield,
            "criterion": self.criterion,
            "defect_model": dict(self.defect_model),
            "best": self.best.to_dict() if self.best else None,
            "evaluated": [candidate.to_dict() for candidate in self.evaluated],
            "skipped": self.skipped,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SpareSearchResult":
        """Rebuild a search result serialized by :meth:`to_dict`."""
        best = payload.get("best")
        return cls(
            function_name=payload["function_name"],
            algorithm=payload["algorithm"],
            target_yield=payload["target_yield"],
            criterion=payload.get("criterion", "point"),
            defect_model=dict(payload.get("defect_model", {})),
            best=SpareCandidate.from_dict(best) if best else None,
            evaluated=[
                SpareCandidate.from_dict(entry)
                for entry in payload.get("evaluated", [])
            ],
            skipped=payload.get("skipped", 0),
        )


def optimize_spares(
    function: BooleanFunction | str,
    *,
    target_yield: float,
    algorithm: str = "hybrid",
    defect_model: DefectModel | str | dict | None = None,
    defect_rate: float = 0.10,
    stuck_open_fraction: float = 0.9,
    max_extra_rows: int = 8,
    max_extra_columns: int = 8,
    tolerance: float | None = None,
    samples: int = 100,
    confidence: float = 0.95,
    method: str = "wilson",
    criterion: str = "point",
    seed: int = 0,
    workers: int | None = None,
    engine: str = "auto",
    max_samples: int = DEFAULT_MAX_SAMPLES,
    store: ArtifactStore | None = None,
    force: bool = False,
) -> SpareSearchResult:
    """Search spare allocations for minimum area meeting a yield target.

    Parameters
    ----------
    target_yield:
        The yield to reach (e.g. ``0.9``).
    defect_model / defect_rate / stuck_open_fraction:
        The defect process; the default mixes in 10 % stuck-closed
        devices, the regime where spares actually matter (pure
        stuck-open defects rarely need them).
    max_extra_rows / max_extra_columns:
        The searched grid is ``[0, max_extra_rows] x [0,
        max_extra_columns]``.
    tolerance / samples / max_samples:
        Per-candidate sampling, one adaptive-sampler run each: to a CI
        half-width when ``tolerance`` is set (``max_samples`` caps the
        budget), else the sampler's one batch of ``samples``.
    criterion:
        ``"point"`` accepts a candidate when its point estimate reaches
        the target; ``"lower"`` demands the CI lower bound does —
        conservative, and typically needing a tight ``tolerance`` to be
        attainable at all.
    store / force:
        Each candidate is one :func:`~repro.api.runner.run_scenario`
        call with these keywords, so candidates already in ``store``
        are not recomputed.
    """
    if not 0.0 < target_yield <= 1.0:
        raise ExperimentError(
            f"target_yield must lie in (0, 1], got {target_yield}"
        )
    if criterion not in CRITERIA:
        raise ExperimentError(
            f"unknown criterion {criterion!r}; expected one of {list(CRITERIA)}"
        )
    if max_extra_rows < 0 or max_extra_columns < 0:
        raise ExperimentError("spare-grid bounds must be non-negative")
    source = FunctionSource.coerce(function)
    if isinstance(function, str):
        function = get_benchmark(function)
    matrix = FunctionMatrix(function)
    base_rows, base_columns = matrix.num_rows, matrix.num_columns
    base_area = base_rows * base_columns

    candidates = sorted(
        (
            (rows, columns)
            for rows in range(max_extra_rows + 1)
            for columns in range(max_extra_columns + 1)
        ),
        key=lambda level: (
            (base_rows + level[0]) * (base_columns + level[1]),
            level[0] + level[1],
            level,
        ),
    )
    scenarios = [
        analysis_scenario(
            source,
            tolerance=tolerance,
            samples=samples,
            max_samples=max_samples,
            defect_rate=defect_rate,
            stuck_open_fraction=stuck_open_fraction,
            defect_model=defect_model,
            algorithms=(algorithm,),
            confidence=confidence,
            method=method,
            seed=seed,
            redundancy=level,
        )
        for level in candidates
    ]

    result = SpareSearchResult(
        function_name=function.name or "<anonymous>",
        algorithm=algorithm,
        target_yield=target_yield,
        criterion=criterion,
        defect_model=scenarios[0].defect_model.to_dict(),
        best=None,
    )
    for (extra_rows, extra_columns), scenario in zip(candidates, scenarios):
        run = run_scenario(
            scenario, workers=workers, engine=engine, force=force, store=store
        )
        adaptive = AdaptiveResult.from_row(scenario, run.rows[0])
        estimate = adaptive.estimate(algorithm)
        achieved = (
            estimate.point if criterion == "point" else estimate.lower
        )
        meets = achieved >= target_yield
        rows = base_rows + extra_rows
        columns = base_columns + extra_columns
        candidate = SpareCandidate(
            extra_rows=extra_rows,
            extra_columns=extra_columns,
            rows=rows,
            columns=columns,
            area=rows * columns,
            area_overhead=rows * columns / base_area - 1.0,
            estimate=estimate,
            samples=adaptive.samples_used,
            converged=adaptive.converged,
            meets_target=meets,
        )
        result.evaluated.append(candidate)
        if meets:
            result.best = candidate
            break
    result.skipped = len(candidates) - len(result.evaluated)
    return result
