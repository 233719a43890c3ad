"""Table I: two-level vs multi-level area on benchmark circuits.

For each benchmark the paper reports four areas: two-level and
multi-level cost of the original circuit and of its complement ("negation
of circuit").  The two-level numbers follow directly from the product
counts; the multi-level numbers come from the NAND technology mapping.
The paper's conclusion — multi-level synthesis through a generic EDA flow
is drastically worse for multi-output benchmarks and only wins for the
(nearly) single-output ones such as ``t481`` and ``cordic`` — is a
structural effect our mapper reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.boolean.function import BooleanFunction
from repro.circuits.registry import get_benchmark_pair
from repro.circuits.specs import (
    TABLE1_PAPER_MULTILEVEL,
    TABLE1_SPECS,
    all_table1_names,
)
from repro.crossbar.metrics import two_level_area_of
from repro.experiments.report import format_table
from repro.synth.area import multilevel_area
from repro.synth.tech_map import MappingOptions, technology_map


@dataclass
class Table1Row:
    """Measured and paper-reported areas for one benchmark."""

    name: str
    two_level_original: int
    multi_level_original: int
    two_level_complement: int | None
    multi_level_complement: int | None
    paper_two_level_original: int | None
    paper_multi_level_original: int | None
    paper_two_level_complement: int | None
    paper_multi_level_complement: int | None


@dataclass
class Table1Result:
    """All rows of the regenerated Table I."""

    rows: list[Table1Row] = field(default_factory=list)

    def row(self, name: str) -> Table1Row:
        """Fetch one row by benchmark name."""
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def render(self) -> str:
        """Monospaced rendering of the table."""
        headers = [
            "Bench",
            "2L (ours)",
            "ML (ours)",
            "2L neg (ours)",
            "ML neg (ours)",
            "2L (paper)",
            "ML (paper)",
        ]
        body = []
        for row in self.rows:
            body.append(
                [
                    row.name,
                    row.two_level_original,
                    row.multi_level_original,
                    row.two_level_complement if row.two_level_complement else "-",
                    row.multi_level_complement if row.multi_level_complement else "-",
                    row.paper_two_level_original or "-",
                    row.paper_multi_level_original or "-",
                ]
            )
        return format_table(
            headers, body, title="Table I: two-level vs multi-level area cost"
        )


def multi_level_cost_of(function: BooleanFunction, *, max_fanin: int | None = None) -> int:
    """Multi-level crossbar area of a function via NAND technology mapping."""
    network = technology_map(
        function, options=MappingOptions(max_fanin=max_fanin, strategy="best")
    )
    return multilevel_area(network)


def run_table1(
    benchmark_names: list[str] | None = None, *, seed: int = 0
) -> Table1Result:
    """Regenerate Table I for the given benchmarks (default: all nine)."""
    names = benchmark_names or all_table1_names()
    result = Table1Result()
    for name in names:
        spec = TABLE1_SPECS[name]
        original, complement = get_benchmark_pair(name, seed=seed)
        paper_ml = TABLE1_PAPER_MULTILEVEL.get(name)
        two_level_complement = (
            two_level_area_of(complement) if complement is not None else None
        )
        multi_level_complement = (
            multi_level_cost_of(complement) if complement is not None else None
        )
        result.rows.append(
            Table1Row(
                name=name,
                two_level_original=two_level_area_of(original),
                multi_level_original=multi_level_cost_of(original),
                two_level_complement=two_level_complement,
                multi_level_complement=multi_level_complement,
                paper_two_level_original=spec.paper_area,
                paper_multi_level_original=paper_ml[0] if paper_ml else None,
                paper_two_level_complement=spec.paper_complement_area,
                paper_multi_level_complement=paper_ml[1] if paper_ml else None,
            )
        )
    return result
