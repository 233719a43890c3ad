"""Two-level vs multi-level area/yield trade-off study.

The paper argues (§III, Fig. 6) that multi-level realisation saves area
over the flat two-level crossbar; the defect-tolerance extension of this
repo adds the other axis: how does each realisation *yield* under
defects, per unit of area?  The multi-level array maps each logic level
onto its own small row bank (:mod:`repro.multilevel`), so a defect only
has to be avoided within one bank — but the network survives only when
*every* bank maps, and the staged array's shape differs from the
two-level one.  This module predeclares that comparison as a scenario
suite: for each circuit one two-level and one multi-level mapping
scenario over the same defect model, seed stream and redundancy ladder,
reported side by side with Wilson confidence intervals and exact area
accounting (:mod:`repro.synth.area` for the staged design).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.defect_models import create_defect_model
from repro.api.runner import run_scenario
from repro.api.scenarios import FunctionSource, Scenario, ScenarioSuite
from repro.circuits.registry import get_benchmark
from repro.exceptions import ExperimentError
from repro.experiments.report import format_table
from repro.mapping.function_matrix import FunctionMatrix

#: Circuits the predeclared trade-off suite compares.
TRADEOFF_CIRCUITS: tuple[str, ...] = ("rd53", "misex1")

#: Redundancy ladder of the predeclared suite: the optimum-size array
#: and one spare row per bank (multi-level) / one spare row (two-level)
#: plus one spare column.
TRADEOFF_REDUNDANCY: tuple[tuple[int, int], ...] = ((0, 0), (1, 1))


@dataclass
class TradeoffPoint:
    """One (circuit, variant, redundancy) cell of the comparison."""

    circuit: str
    variant: str
    extra_rows: int
    extra_columns: int
    rows: int
    columns: int
    yield_point: float
    yield_lower: float
    yield_upper: float
    samples: int

    @property
    def area(self) -> int:
        """Physical crossbar area including redundancy."""
        return self.rows * self.columns


@dataclass
class TradeoffResult:
    """The full two-level vs multi-level comparison."""

    defect_rate: float
    sample_size: int
    seed: int
    strategy: str
    points: list[TradeoffPoint] = field(default_factory=list)

    def point(
        self, circuit: str, variant: str, redundancy: tuple[int, int] = (0, 0)
    ) -> TradeoffPoint:
        """Fetch one cell of the comparison."""
        for point in self.points:
            if (
                point.circuit == circuit
                and point.variant == variant
                and (point.extra_rows, point.extra_columns) == tuple(redundancy)
            ):
                return point
        raise ExperimentError(
            f"no trade-off point for {circuit!r}/{variant!r} at {redundancy}"
        )

    def render(self) -> str:
        """Monospaced rendering of the area/yield table."""
        headers = [
            "circuit",
            "variant",
            "+rows",
            "+cols",
            "array",
            "area",
            "yield",
            "95% CI",
        ]
        body = []
        for p in self.points:
            body.append(
                [
                    p.circuit,
                    p.variant,
                    p.extra_rows,
                    p.extra_columns,
                    f"{p.rows}x{p.columns}",
                    p.area,
                    f"{p.yield_point:.2f}",
                    f"[{p.yield_lower:.2f}, {p.yield_upper:.2f}]",
                ]
            )
        title = (
            f"Two-level vs multi-level area/yield trade-off "
            f"(defect rate {self.defect_rate:.0%}, {self.sample_size} "
            f"samples/point, strategy {self.strategy!r})"
        )
        return format_table(headers, body, title=title)


def paper_suite(
    circuits: tuple[str, ...] = TRADEOFF_CIRCUITS,
    *,
    defect_rate: float = 0.10,
    stuck_open_fraction: float = 1.0,
    redundancy: tuple[tuple[int, int], ...] = TRADEOFF_REDUNDANCY,
    sample_size: int = 60,
    algorithms: tuple[str, ...] = ("hybrid",),
    strategy: str = "best",
    seed: int = 11,
) -> ScenarioSuite:
    """The trade-off study as a declarative scenario suite.

    Two scenarios per circuit — ``tradeoff-<name>-two-level`` and
    ``tradeoff-<name>-multi-level`` — identical except for the
    ``multilevel`` option, so the comparison isolates the realisation
    style (same mappers, defect model, redundancy ladder and root seed).
    """
    scenarios = []
    for name in circuits:
        source = FunctionSource.benchmark(name)
        common = dict(
            source=source,
            mappers=tuple(algorithms),
            defect_model=create_defect_model(
                "uniform",
                rate=defect_rate,
                stuck_open_fraction=stuck_open_fraction,
            ),
            redundancy=tuple(redundancy),
            samples=sample_size,
            seed=seed,
        )
        scenarios.append(Scenario(name=f"tradeoff-{name}-two-level", **common))
        scenarios.append(
            Scenario(
                name=f"tradeoff-{name}-multi-level",
                options={"multilevel": {"strategy": strategy}},
                **common,
            )
        )
    return ScenarioSuite("tradeoff", tuple(scenarios))


def run_tradeoff(
    circuits: tuple[str, ...] = TRADEOFF_CIRCUITS,
    *,
    defect_rate: float = 0.10,
    stuck_open_fraction: float = 1.0,
    redundancy: tuple[tuple[int, int], ...] = TRADEOFF_REDUNDANCY,
    sample_size: int = 60,
    algorithms: tuple[str, ...] = ("hybrid",),
    strategy: str = "best",
    seed: int = 11,
    workers: int | None = None,
    engine: str = "auto",
) -> TradeoffResult:
    """Run the two-level vs multi-level comparison end to end.

    Thin wrapper over :func:`paper_suite` + the unified scenario runner;
    yields carry Wilson 95 % confidence intervals, areas are the exact
    physical array sizes (per-bank spare rows for the staged variant).
    """
    from repro.multilevel import stage_plan_for

    suite = paper_suite(
        circuits,
        defect_rate=defect_rate,
        stuck_open_fraction=stuck_open_fraction,
        redundancy=redundancy,
        sample_size=sample_size,
        algorithms=algorithms,
        strategy=strategy,
        seed=seed,
    )
    tracked = algorithms[0]
    result = TradeoffResult(
        defect_rate=defect_rate,
        sample_size=sample_size,
        seed=seed,
        strategy=strategy,
    )
    for circuit in circuits:
        function = get_benchmark(circuit)
        fm = FunctionMatrix(function)
        plan = stage_plan_for(function, {"strategy": strategy})
        for variant in ("two-level", "multi-level"):
            scenario = suite.scenario(f"tradeoff-{circuit}-{variant}")
            scenario_result = run_scenario(
                scenario, workers=workers, engine=engine
            )
            for extra_rows, extra_columns in redundancy:
                monte_carlo = scenario_result.monte_carlo(
                    (extra_rows, extra_columns)
                )
                estimate = monte_carlo.yield_estimate(tracked)
                if variant == "two-level":
                    rows = fm.num_rows + extra_rows
                    columns = fm.num_columns + extra_columns
                else:
                    rows = plan.physical_rows(extra_rows)
                    columns = plan.num_columns + extra_columns
                result.points.append(
                    TradeoffPoint(
                        circuit=circuit,
                        variant=variant,
                        extra_rows=extra_rows,
                        extra_columns=extra_columns,
                        rows=rows,
                        columns=columns,
                        yield_point=estimate.point,
                        yield_lower=estimate.lower,
                        yield_upper=estimate.upper,
                        samples=estimate.samples,
                    )
                )
    return result
