"""Figure 6: two-level vs multi-level area on random functions.

For every input size the paper draws 200 random single-output Boolean
functions, maps each both as a two-level and as a multi-level crossbar,
sorts the samples by product count and reports (a) both cost curves and
(b) the *success rate* — the fraction of samples whose multi-level design
is cheaper than the two-level one.  Two trends are highlighted: the
success rate falls as the input size grows, and within one panel samples
with more products favour the multi-level design.

Our NAND technology mapper is weaker than ABC with full resynthesis, so
the absolute success rates are lower than the paper's 65 %…33 % band,
but both trends are preserved (EXPERIMENTS.md records the measured
values next to the paper's).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.runner import run_suite
from repro.api.scenarios import FunctionSource, Scenario, ScenarioSuite
from repro.boolean.function import BooleanFunction
from repro.boolean.minimize import minimize_cover
from repro.boolean.random_functions import RandomFunctionSpec
from repro.crossbar.two_level import two_level_area_cost
from repro.engines import canonical_engine
from repro.exceptions import ExperimentError
from repro.experiments.report import ascii_scatter, format_percent
from repro.synth.area import multilevel_area
from repro.synth.tech_map import MappingOptions, technology_map

#: Input sizes shown in the paper's figure panels.
PAPER_INPUT_SIZES = (8, 9, 10, 15)
#: Success rates the paper reports for those panels.
PAPER_SUCCESS_RATES = {8: 0.65, 9: 0.60, 10: 0.54, 15: 0.33}


@dataclass(frozen=True)
class Figure6Config:
    """Workload parameters of the Fig. 6 Monte-Carlo study."""

    input_sizes: tuple[int, ...] = PAPER_INPUT_SIZES
    sample_size: int = 200
    seed: int = 0
    min_products: int = 2
    max_products_factor: float = 1.0
    max_literals_fraction: float = 0.5
    minimize_before_synthesis: bool = True

    def spec_for(self, num_inputs: int) -> RandomFunctionSpec:
        """The random-function spec used for one input size."""
        max_products = max(
            self.min_products, int(round(num_inputs * self.max_products_factor))
        )
        max_literals = max(2, int(round(num_inputs * self.max_literals_fraction)))
        return RandomFunctionSpec(
            num_inputs=num_inputs,
            min_products=self.min_products,
            max_products=max_products,
            max_literals=max_literals,
        )


@dataclass
class Figure6Sample:
    """Both costs for one random function."""

    num_products: int
    two_level_cost: int
    multi_level_cost: int
    gate_count: int

    @property
    def multi_level_wins(self) -> bool:
        """True when the multi-level design is strictly cheaper."""
        return self.multi_level_cost < self.two_level_cost


@dataclass
class Figure6Panel:
    """One panel of the figure (one input size)."""

    num_inputs: int
    samples: list[Figure6Sample] = field(default_factory=list)

    @property
    def success_rate(self) -> float:
        """Fraction of samples where multi-level is cheaper (paper metric)."""
        if not self.samples:
            return 0.0
        return sum(s.multi_level_wins for s in self.samples) / len(self.samples)

    def sorted_by_products(self) -> list[Figure6Sample]:
        """Samples sorted by product count (the paper's x-axis order)."""
        return sorted(self.samples, key=lambda s: s.num_products)

    def success_rate_by_product_split(self) -> tuple[float, float]:
        """Success rate for the lower and upper halves of the product range.

        Used to check the paper's second trend (more products → easier
        multi-level win) quantitatively.
        """
        ordered = self.sorted_by_products()
        if len(ordered) < 2:
            rate = self.success_rate
            return rate, rate
        half = len(ordered) // 2
        lower = ordered[:half]
        upper = ordered[half:]
        lower_rate = sum(s.multi_level_wins for s in lower) / len(lower)
        upper_rate = sum(s.multi_level_wins for s in upper) / len(upper)
        return lower_rate, upper_rate

    def render(self) -> str:
        """ASCII rendering of the panel, mimicking one Fig. 6 sub-plot."""
        ordered = self.sorted_by_products()
        return ascii_scatter(
            {
                "two-level": [s.two_level_cost for s in ordered],
                "multi-level": [s.multi_level_cost for s in ordered],
            },
            title=(
                f"Input Size = {self.num_inputs} "
                f"(Success Rate = {format_percent(self.success_rate)})"
            ),
        )


@dataclass
class Figure6Result:
    """All panels of the regenerated figure."""

    config: Figure6Config
    panels: dict[int, Figure6Panel] = field(default_factory=dict)

    def success_rates(self) -> dict[int, float]:
        """Success rate per input size."""
        return {n: panel.success_rate for n, panel in self.panels.items()}

    def render(self) -> str:
        """Full text rendering of the figure."""
        blocks = [panel.render() for _, panel in sorted(self.panels.items())]
        return "\n\n".join(blocks)


def evaluate_sample(
    function: BooleanFunction,
    *,
    minimize_before_synthesis: bool = True,
    engine: str = "auto",
) -> Figure6Sample:
    """Compute both area costs for one random single-output function.

    ``engine`` is a :data:`repro.engines.ENGINES` name selecting the
    Boolean minimisation tier (see :mod:`repro.boolean.minimize`);
    every engine produces the identical sample.
    """
    canonical_engine(engine)
    if function.num_outputs != 1:
        raise ExperimentError("Fig. 6 uses single-output functions")
    num_products = function.num_products
    two_level = two_level_area_cost(function.num_inputs, 1, num_products)

    candidate = function
    if minimize_before_synthesis:
        cover = minimize_cover(function.cover_for_output(0), engine=engine)
        candidate = BooleanFunction.single_output(
            cover, input_names=function.input_names, name=function.name
        )
    network = technology_map(candidate, options=MappingOptions(strategy="best"))
    multi_level = multilevel_area(network)
    return Figure6Sample(
        num_products=num_products,
        two_level_cost=two_level,
        multi_level_cost=multi_level,
        gate_count=network.gate_count(),
    )


def scenario_for(config: Figure6Config, num_inputs: int) -> Scenario:
    """One figure panel as a declarative ``"area"`` scenario."""
    spec = config.spec_for(num_inputs)
    return Scenario(
        name=f"figure6-n{num_inputs}",
        source=FunctionSource.random(
            num_inputs,
            min_products=spec.min_products,
            max_products=spec.max_products,
            min_literals=spec.min_literals,
            max_literals=spec.max_literals,
        ),
        samples=config.sample_size,
        seed=config.seed + num_inputs,
        protocol="area",
        options={"minimize_before_synthesis": config.minimize_before_synthesis},
    )


def paper_suite(config: Figure6Config | None = None) -> ScenarioSuite:
    """The paper's Fig. 6 workload as a declarative scenario suite."""
    config = config or Figure6Config()
    return ScenarioSuite(
        "figure6",
        tuple(scenario_for(config, n) for n in config.input_sizes),
    )


def run_figure6(
    config: Figure6Config | None = None,
    *,
    workers: int | None = None,
    engine: str = "auto",
) -> Figure6Result:
    """Regenerate Fig. 6 for the configured input sizes.

    Thin wrapper over :func:`paper_suite` + the unified scenario runner.
    ``workers`` selects the parallel batch engine (``None`` = auto);
    each panel's sample stream is chunked over *global* sample indices
    with collision-free derived seeds and merged in chunk order, so the
    panels are identical for every worker count.  ``engine`` reaches
    every sample's :func:`evaluate_sample`, so it takes the same
    :data:`repro.engines.ENGINES` names, with sample-for-sample
    identical panels.
    """
    config = config or Figure6Config()
    result = Figure6Result(config=config)
    suite_result = run_suite(paper_suite(config), workers=workers, engine=engine)
    for num_inputs, scenario_result in zip(config.input_sizes, suite_result):
        panel = Figure6Panel(num_inputs=num_inputs)
        panel.samples = [
            Figure6Sample(
                num_products=row["num_products"],
                two_level_cost=row["two_level_cost"],
                multi_level_cost=row["multi_level_cost"],
                gate_count=row["gate_count"],
            )
            for row in scenario_result.area_samples()
        ]
        result.panels[num_inputs] = panel
    return result
