"""Yield curves and surfaces with inverse (threshold) queries.

The paper reports yield at isolated operating points (Table II at 10 %
defects, the sweep at a handful of rates).  :class:`YieldCurve` turns
the sweep into a first-class object — per-rate yield estimates *with
confidence intervals* — and answers the inverse question the point
estimates cannot: :meth:`YieldCurve.defect_rate_at_yield` interpolates
the defect rate at which yield crosses a target ("what defect rate
still gives 99 % yield?").

:class:`YieldSurface` adds the redundancy axis: one curve per
``(extra_rows, extra_columns)`` level — redundancy is the array-size
knob, since the physical crossbar is the optimum size plus the spares —
and :meth:`YieldSurface.redundancy_for_yield` finds the smallest-area
level meeting a yield target at a given rate (the sweep-shaped
counterpart of the frontier search in :mod:`repro.analysis.spares`).

Both are computed by :func:`compute_yield_curve` /
:func:`compute_yield_surface`, one adaptive-sampler run per point:
adaptive to a CI half-width (pass ``tolerance=``) or its one-batch
case, a fixed per-point budget (``tolerance=None``).  A curve runs as
one :class:`~repro.api.scenarios.ScenarioSuite`, one scenario per rate,
so its points are cached in the artifact store like any scenario.
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
from repro.api.runner import run_suite
from repro.api.scenarios import FunctionSource, ScenarioSuite
from repro.boolean.function import BooleanFunction
from repro.circuits.registry import get_benchmark
from repro.defects.analysis import naive_survival_curve
from repro.exceptions import ExperimentError
from repro.experiments.report import format_table
from repro.mapping.function_matrix import FunctionMatrix


@dataclass(frozen=True)
class YieldPoint:
    """Yield estimates (with CIs) at one defect rate."""

    defect_rate: float
    estimates: dict[str, BinomialInterval]
    samples: int
    converged: bool
    #: Analytic survival probability of a defect-unaware mapping, the
    #: "no defect tolerance" baseline (``None`` when not computed).
    naive_survival: float | None = None

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "defect_rate": self.defect_rate,
            "estimates": {
                name: estimate.to_dict()
                for name, estimate in self.estimates.items()
            },
            "samples": self.samples,
            "converged": self.converged,
            "naive_survival": self.naive_survival,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "YieldPoint":
        """Rebuild a point serialized by :meth:`to_dict`."""
        return cls(
            defect_rate=payload["defect_rate"],
            estimates={
                name: BinomialInterval.from_dict(entry)
                for name, entry in payload["estimates"].items()
            },
            samples=payload["samples"],
            converged=payload.get("converged", True),
            naive_survival=payload.get("naive_survival"),
        )


def _interpolate_crossing(
    rate_lo: float, yield_lo: float, rate_hi: float, yield_hi: float, target: float
) -> float:
    """Linear interpolation of the rate where yield crosses ``target``."""
    if yield_lo == yield_hi:
        return rate_lo
    fraction = (yield_lo - target) / (yield_lo - yield_hi)
    return rate_lo + fraction * (rate_hi - rate_lo)


@dataclass
class YieldCurve:
    """Yield vs defect rate for one circuit at one redundancy level."""

    function_name: str
    algorithms: tuple[str, ...]
    confidence: float
    method: str
    #: CI half-width target per point (``None`` = fixed-budget points).
    tolerance: float | None
    extra_rows: int = 0
    extra_columns: int = 0
    points: list[YieldPoint] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.algorithms = tuple(self.algorithms)
        self.points = sorted(self.points, key=lambda p: p.defect_rate)

    def rates(self) -> list[float]:
        """The swept defect rates, ascending."""
        return [point.defect_rate for point in self.points]

    def point_at(self, defect_rate: float) -> YieldPoint:
        """The point computed at one swept rate."""
        for point in self.points:
            if point.defect_rate == defect_rate:
                return point
        raise ExperimentError(
            f"no point at defect rate {defect_rate:g}; the curve swept "
            f"{[f'{r:g}' for r in self.rates()]}"
        )

    def estimate(self, defect_rate: float, algorithm: str) -> BinomialInterval:
        """One algorithm's yield estimate at one swept rate."""
        point = self.point_at(defect_rate)
        try:
            return point.estimates[algorithm]
        except KeyError:
            raise ExperimentError(
                f"no estimate for algorithm {algorithm!r}; the curve ran "
                f"{sorted(point.estimates)}"
            ) from None

    def defect_rate_at_yield(
        self, target: float, algorithm: str = "hybrid"
    ) -> float | None:
        """The largest defect rate still achieving ``target`` yield.

        Returns the largest swept rate outright when its yield meets the
        target; otherwise scans the brackets from the *high-rate* end
        and linearly interpolates inside the highest one whose yield
        crosses the target — so on a noisy, near-flat curve the answer
        is genuinely the largest tolerable rate, not the first dip
        Monte-Carlo noise produced.  ``None`` when no swept point meets
        the target — the curve cannot answer below its support.
        """
        if not 0.0 < target <= 1.0:
            raise ExperimentError(
                f"target yield must lie in (0, 1], got {target}"
            )
        if not self.points:
            raise ExperimentError("the curve has no points")
        values = [
            (point.defect_rate, self.estimate(point.defect_rate, algorithm).point)
            for point in self.points
        ]
        if values[-1][1] >= target:
            return values[-1][0]
        for (rate_lo, yield_lo), (rate_hi, yield_hi) in reversed(
            list(zip(values, values[1:]))
        ):
            if yield_lo >= target > yield_hi:
                return _interpolate_crossing(
                    rate_lo, yield_lo, rate_hi, yield_hi, target
                )
        return None

    def render(self, *, style: str = "monospace") -> str:
        """Tabular rendering: rate, naive baseline, per-algorithm CIs."""
        has_naive = any(point.naive_survival is not None for point in self.points)
        headers = ["rate"] + (["naive"] if has_naive else []) + [
            column
            for algorithm in self.algorithms
            for column in (f"yield[{algorithm}]", f"CI[{algorithm}]")
        ] + ["samples"]
        body = []
        for point in self.points:
            cells: list[object] = [f"{point.defect_rate:.1%}"]
            if has_naive:
                cells.append(
                    "-"
                    if point.naive_survival is None
                    else f"{point.naive_survival:.3f}"
                )
            for algorithm in self.algorithms:
                estimate = point.estimates[algorithm]
                cells.append(f"{estimate.point:.4f}")
                cells.append(f"[{estimate.lower:.4f}, {estimate.upper:.4f}]")
            cells.append(point.samples)
            body.append(cells)
        redundancy = (
            f", +{self.extra_rows}r+{self.extra_columns}c"
            if self.extra_rows or self.extra_columns
            else ""
        )
        precision = (
            f"adaptive, half-width <= {self.tolerance:g}"
            if self.tolerance is not None
            else "fixed budget"
        )
        title = (
            f"Yield curve for {self.function_name}{redundancy} "
            f"({self.confidence:.0%} {self.method} CIs, {precision})"
        )
        return format_table(headers, body, title=title, style=style)

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "function_name": self.function_name,
            "algorithms": list(self.algorithms),
            "confidence": self.confidence,
            "method": self.method,
            "tolerance": self.tolerance,
            "extra_rows": self.extra_rows,
            "extra_columns": self.extra_columns,
            "points": [point.to_dict() for point in self.points],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "YieldCurve":
        """Rebuild a curve serialized by :meth:`to_dict`."""
        return cls(
            function_name=payload["function_name"],
            algorithms=tuple(payload["algorithms"]),
            confidence=payload.get("confidence", 0.95),
            method=payload.get("method", "wilson"),
            tolerance=payload.get("tolerance"),
            extra_rows=payload.get("extra_rows", 0),
            extra_columns=payload.get("extra_columns", 0),
            points=[YieldPoint.from_dict(entry) for entry in payload["points"]],
        )


@dataclass
class YieldSurface:
    """Yield over the (defect rate x redundancy) grid for one circuit.

    One :class:`YieldCurve` per redundancy level; the physical array
    size is the optimum crossbar plus the level's spare lines, so the
    redundancy axis *is* the array-size axis.
    """

    function_name: str
    base_rows: int
    base_columns: int
    curves: list[YieldCurve] = field(default_factory=list)

    def redundancy_levels(self) -> list[tuple[int, int]]:
        """The swept ``(extra_rows, extra_columns)`` levels, in order."""
        return [(curve.extra_rows, curve.extra_columns) for curve in self.curves]

    def curve_at(self, redundancy: tuple[int, int]) -> YieldCurve:
        """The curve of one redundancy level."""
        wanted = (int(redundancy[0]), int(redundancy[1]))
        for curve in self.curves:
            if (curve.extra_rows, curve.extra_columns) == wanted:
                return curve
        raise ExperimentError(
            f"no curve at redundancy {wanted}; the surface swept "
            f"{self.redundancy_levels()}"
        )

    def area(self, redundancy: tuple[int, int]) -> int:
        """Physical crossbar area (crosspoints) at one redundancy level."""
        return (self.base_rows + int(redundancy[0])) * (
            self.base_columns + int(redundancy[1])
        )

    def redundancy_for_yield(
        self,
        target: float,
        *,
        defect_rate: float,
        algorithm: str = "hybrid",
    ) -> tuple[int, int] | None:
        """Smallest-area redundancy level meeting a yield target.

        Compares the point estimates at one swept ``defect_rate`` and
        returns the minimum-area level (ties broken by fewer total spare
        lines) whose yield reaches ``target``, or ``None`` when none
        does.
        """
        feasible = [
            (curve.extra_rows, curve.extra_columns)
            for curve in self.curves
            if curve.estimate(defect_rate, algorithm).point >= target
        ]
        if not feasible:
            return None
        return min(
            feasible, key=lambda level: (self.area(level), sum(level), level)
        )

    def render(self, *, style: str = "monospace") -> str:
        """All per-level curve tables, blank-line separated."""
        return "\n\n".join(curve.render(style=style) for curve in self.curves)

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "function_name": self.function_name,
            "base_rows": self.base_rows,
            "base_columns": self.base_columns,
            "curves": [curve.to_dict() for curve in self.curves],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "YieldSurface":
        """Rebuild a surface serialized by :meth:`to_dict`."""
        return cls(
            function_name=payload["function_name"],
            base_rows=payload["base_rows"],
            base_columns=payload["base_columns"],
            curves=[YieldCurve.from_dict(entry) for entry in payload["curves"]],
        )


def _resolve_function(function: BooleanFunction | str) -> BooleanFunction:
    if isinstance(function, str):
        return get_benchmark(function)
    return function


def compute_yield_curve(
    function: BooleanFunction | str,
    *,
    rates,
    tolerance: float | None = None,
    samples: int = 200,
    confidence: float = 0.95,
    method: str = "wilson",
    algorithms=("hybrid", "exact"),
    stuck_open_fraction: float = 1.0,
    extra_rows: int = 0,
    extra_columns: int = 0,
    seed: int = 0,
    workers: int | None = None,
    engine: str = "auto",
    max_samples: int = DEFAULT_MAX_SAMPLES,
    store: ArtifactStore | None = None,
    force: bool = False,
) -> YieldCurve:
    """Sweep the defect rate into a :class:`YieldCurve` with CIs.

    Every point is one run of the adaptive sampler.  With ``tolerance``
    set, it draws until its CI half-width reaches the tolerance
    (``samples`` is ignored; ``max_samples`` is the per-point budget).
    Without it, the sampler's one batch is a fixed ``samples``-sized
    budget (``max_samples`` is ignored).  Each point uses the same
    root ``seed`` (matching the defect-sweep convention), so curves are
    comparable across rates and runs.  ``rates`` are deduplicated and
    sorted; the naive-survival column only appears for pure
    stuck-open sweeps, where its closed form is valid.

    The points run as one suite through
    :func:`~repro.api.runner.run_suite`, one scenario per rate named
    ``f"{circuit}@{rate!r}"``; ``store`` and ``force`` are its keywords,
    so points already in the store are not recomputed.
    """
    rates = sorted({float(rate) for rate in rates})
    if not rates:
        raise ExperimentError("a yield curve needs at least one defect rate")
    source = FunctionSource.coerce(function)
    function = _resolve_function(function)
    # The analytic naive-survival closed form is derived for stuck-open
    # defects only (a stuck-closed device also poisons whole lines), so
    # the baseline column is omitted when stuck-closed defects are in
    # the mix rather than reporting a number that is too high.
    baseline = (
        naive_survival_curve(function, rates)
        if stuck_open_fraction == 1.0
        else [None] * len(rates)
    )
    suite = ScenarioSuite(
        f"{source.label()}-curve",
        tuple(
            analysis_scenario(
                source,
                name=f"{source.label()}@{rate!r}",
                tolerance=tolerance,
                samples=samples,
                max_samples=max_samples,
                defect_rate=rate,
                stuck_open_fraction=stuck_open_fraction,
                algorithms=algorithms,
                confidence=confidence,
                method=method,
                seed=seed,
                redundancy=(extra_rows, extra_columns),
            )
            for rate in rates
        ),
    )
    results = run_suite(
        suite, workers=workers, engine=engine, force=force, store=store
    )
    points = []
    for rate, naive, result in zip(rates, baseline, results):
        adaptive = AdaptiveResult.from_row(result.scenario, result.rows[0])
        points.append(
            YieldPoint(
                defect_rate=rate,
                estimates=adaptive.estimates(),
                samples=adaptive.samples_used,
                converged=adaptive.converged,
                naive_survival=naive,
            )
        )
    return YieldCurve(
        function_name=function.name or "<anonymous>",
        algorithms=tuple(algorithms),
        confidence=confidence,
        method=method,
        tolerance=tolerance,
        extra_rows=extra_rows,
        extra_columns=extra_columns,
        points=points,
    )


def compute_yield_surface(
    function: BooleanFunction | str,
    *,
    rates,
    redundancy_levels=((0, 0), (2, 2), (4, 4)),
    **curve_options,
) -> YieldSurface:
    """Sweep (defect rate x redundancy) into a :class:`YieldSurface`.

    ``curve_options`` are forwarded to :func:`compute_yield_curve` for
    every redundancy level (tolerance, samples, algorithms, seed,
    store, ...).
    """
    levels = [(int(rows), int(columns)) for rows, columns in redundancy_levels]
    if not levels:
        raise ExperimentError(
            "a yield surface needs at least one redundancy level"
        )
    function = _resolve_function(function)
    matrix = FunctionMatrix(function)
    curves = [
        compute_yield_curve(
            function,
            rates=rates,
            extra_rows=rows,
            extra_columns=columns,
            **curve_options,
        )
        for rows, columns in levels
    ]
    return YieldSurface(
        function_name=function.name or "<anonymous>",
        base_rows=matrix.num_rows,
        base_columns=matrix.num_columns,
        curves=curves,
    )
