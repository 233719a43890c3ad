"""Table II: HBA vs EA success rate and runtime at 10 % defect rate.

For every benchmark the paper maps 200 randomly defective, optimum-size
crossbars (10 % stuck-at-open rate) with both the proposed hybrid
algorithm (HBA) and the exact algorithm (EA), and reports the success
rate and the average runtime of each.  The qualitative claims we verify:

* HBA is faster than EA on every benchmark, by one to two orders of
  magnitude on the larger ones;
* EA's success rate is an upper bound on HBA's, with a gap of at most
  roughly 15 percentage points;
* circuits with higher inclusion ratios are harder to map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.defect_models import create_defect_model
from repro.api.runner import run_scenario, run_suite
from repro.api.scenarios import FunctionSource, Scenario, ScenarioSuite
from repro.boolean.function import BooleanFunction
from repro.circuits.registry import get_benchmark_spec
from repro.circuits.specs import all_table2_names
from repro.crossbar.metrics import two_level_area_of
from repro.experiments.monte_carlo import MonteCarloResult
from repro.experiments.report import format_percent, format_runtime, format_table
from repro.mapping.function_matrix import FunctionMatrix

#: The paper's Table II success rates (%) and runtimes (s): (HBA, EA).
PAPER_TABLE2_RESULTS: dict[str, tuple[int, float, int, float]] = {
    "rd53": (98, 0.001, 98, 0.001),
    "squar5": (100, 0.001, 100, 0.001),
    "bw": (100, 0.002, 100, 0.003),
    "inc": (100, 0.001, 100, 0.002),
    "misex1": (100, 0.001, 100, 0.001),
    "sqrt8": (100, 0.001, 100, 0.002),
    "sao2": (94, 0.001, 97, 0.003),
    "rd73": (78, 0.002, 92, 0.013),
    "clip": (76, 0.005, 79, 0.082),
    "rd84": (82, 0.006, 89, 0.093),
    "ex1010": (100, 0.003, 100, 0.062),
    "table3": (100, 0.004, 100, 0.032),
    "misex3c": (100, 0.003, 100, 0.035),
    "exp5": (65, 0.006, 80, 0.024),
    "apex4": (100, 0.008, 100, 0.173),
    "alu4": (100, 0.008, 100, 0.284),
}


@dataclass
class Table2Row:
    """Measured and paper-reported results for one benchmark."""

    name: str
    inputs: int
    outputs: int
    products: int
    area: int
    inclusion_ratio: float
    hba_success: float
    hba_runtime: float
    ea_success: float
    ea_runtime: float
    paper_hba_success: float | None = None
    paper_hba_runtime: float | None = None
    paper_ea_success: float | None = None
    paper_ea_runtime: float | None = None

    @property
    def speedup(self) -> float:
        """EA runtime divided by HBA runtime (≥ 1 means HBA is faster)."""
        if self.hba_runtime <= 0:
            return float("inf")
        return self.ea_runtime / self.hba_runtime


@dataclass
class Table2Result:
    """All rows of the regenerated Table II."""

    defect_rate: float
    sample_size: int
    rows: list[Table2Row] = field(default_factory=list)

    def row(self, name: str) -> Table2Row:
        """Fetch one row by benchmark name."""
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def render(self) -> str:
        """Monospaced rendering of the table."""
        headers = [
            "Name", "I", "O", "P", "Area", "IR",
            "HBA Psucc", "HBA time", "EA Psucc", "EA time", "speedup",
        ]
        body = []
        for row in self.rows:
            body.append(
                [
                    row.name,
                    row.inputs,
                    row.outputs,
                    row.products,
                    row.area,
                    f"{row.inclusion_ratio:.0%}",
                    format_percent(row.hba_success),
                    format_runtime(row.hba_runtime),
                    format_percent(row.ea_success),
                    format_runtime(row.ea_runtime),
                    f"{row.speedup:.1f}x",
                ]
            )
        title = (
            f"Table II: HBA vs EA, optimum-size crossbars, "
            f"{self.defect_rate:.0%} stuck-open defects, "
            f"{self.sample_size} samples"
        )
        return format_table(headers, body, title=title)


def paper_suite(
    benchmark_names: list[str] | None = None,
    *,
    defect_rate: float = 0.10,
    sample_size: int = 200,
    seed: int = 0,
    variant: str = "table2",
    algorithms: tuple[str, ...] = ("hybrid", "exact"),
) -> ScenarioSuite:
    """The paper's Table II workload as a declarative scenario suite.

    One scenario per benchmark: optimum-size crossbar, uniform
    stuck-open defects at ``defect_rate``, HBA raced against EA.
    """
    names = benchmark_names or all_table2_names()
    return ScenarioSuite(
        "table2",
        tuple(
            Scenario(
                name=name,
                source=FunctionSource.benchmark(name, variant=variant),
                mappers=tuple(algorithms),
                defect_model=create_defect_model("uniform", rate=defect_rate),
                samples=sample_size,
                seed=seed,
            )
            for name in names
        ),
    )


def _row_from_monte_carlo(
    function: BooleanFunction, monte_carlo: MonteCarloResult
) -> Table2Row:
    """Condense one benchmark's Monte-Carlo outcome into a table row."""
    function_matrix = FunctionMatrix(function)
    hba = monte_carlo.outcome("hybrid")
    ea = monte_carlo.outcome("exact") if "exact" in monte_carlo.outcomes else hba
    name = function.name or "<anonymous>"
    paper = PAPER_TABLE2_RESULTS.get(name.split("_")[0])
    return Table2Row(
        name=name,
        inputs=function.num_inputs,
        outputs=function.num_outputs,
        products=function.num_products,
        area=two_level_area_of(function),
        inclusion_ratio=function_matrix.inclusion_ratio(),
        hba_success=hba.success_rate,
        hba_runtime=hba.mean_runtime,
        ea_success=ea.success_rate,
        ea_runtime=ea.mean_runtime,
        paper_hba_success=paper[0] / 100 if paper else None,
        paper_hba_runtime=paper[1] if paper else None,
        paper_ea_success=paper[2] / 100 if paper else None,
        paper_ea_runtime=paper[3] if paper else None,
    )


def run_table2_row(
    function: BooleanFunction,
    *,
    defect_rate: float = 0.10,
    sample_size: int = 200,
    seed: int = 0,
    algorithms: tuple[str, ...] = ("hybrid", "exact"),
    workers: int | None = None,
) -> Table2Row:
    """Run the Monte-Carlo protocol for one circuit and collect a row.

    Thin wrapper: the function is embedded into an ad-hoc
    :class:`Scenario` and dispatched through the unified runner.
    """
    scenario = Scenario(
        name=function.name or "<anonymous>",
        source=FunctionSource.from_function(function),
        mappers=tuple(algorithms),
        defect_model=create_defect_model("uniform", rate=defect_rate),
        samples=sample_size,
        seed=seed,
    )
    monte_carlo = run_scenario(scenario, workers=workers).monte_carlo()
    return _row_from_monte_carlo(function, monte_carlo)


def run_table2(
    benchmark_names: list[str] | None = None,
    *,
    defect_rate: float = 0.10,
    sample_size: int = 200,
    seed: int = 0,
    variant: str = "table2",
    workers: int | None = None,
) -> Table2Result:
    """Regenerate Table II for the given benchmarks (default: all 16).

    Thin wrapper over :func:`paper_suite` + the unified scenario runner;
    ``workers`` is forwarded to the Monte-Carlo batch engine (``None`` =
    auto); each row's sample stream is parallelised independently.
    """
    suite = paper_suite(
        benchmark_names,
        defect_rate=defect_rate,
        sample_size=sample_size,
        seed=seed,
        variant=variant,
    )
    result = Table2Result(defect_rate=defect_rate, sample_size=sample_size)
    for scenario, scenario_result in zip(suite, run_suite(suite, workers=workers)):
        spec = get_benchmark_spec(scenario.name, variant=variant)
        # When the paper mapped the dual, the spec's products already refer
        # to the mapped (complemented) implementation, so no extra work is
        # needed here; the flag is carried through for reporting.
        row = _row_from_monte_carlo(
            scenario.source.build(), scenario_result.monte_carlo()
        )
        row.name = scenario.name if not spec.dual_selected else f"{scenario.name}*"
        result.rows.append(row)
    return result
