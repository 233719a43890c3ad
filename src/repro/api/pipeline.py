"""The fluent Design -> Map -> Evaluate pipeline.

One discoverable object chain wraps the whole reproduction flow that
examples and experiments used to hand-wire from internals::

    from repro import Design

    report = (
        Design.from_benchmark("misex1")
        .minimize()
        .choose_dual()
        .with_redundancy(rows=2, columns=2)
        .map(defects=0.10, algorithm="hybrid", seed=7)
        .evaluate()
    )
    print(report.summary())

Each chaining step returns a *new* :class:`Design`, so partial pipelines
can be reused and fanned out (e.g. one minimised design mapped at many
defect rates).  ``map`` produces a :class:`MappedDesign` holding the
live artefacts (implementation, defect map, mapping result);
``evaluate`` condenses them into a serializable
:class:`~repro.api.results.EvaluationResult`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.boolean.expression import parse_sop
from repro.boolean.function import BooleanFunction
from repro.circuits.pla import parse_pla
from repro.crossbar.metrics import DualSelection, choose_dual
from repro.defects.batch import repair_spare_columns
from repro.defects.defect_map import DefectMap
from repro.defects.injection import inject_uniform
from repro.defects.types import DefectProfile
from repro.exceptions import ExperimentError
from repro.mapping.crossbar_matrix import CrossbarMatrix
from repro.mapping.function_matrix import FunctionMatrix
from repro.mapping.result import MappingResult
from repro.mapping.validate import validate_assignment, validate_functionally
from repro.api.defect_models import DefectModel, resolve_defect_model
from repro.api.registry import Mapper, create_mapper
from repro.api.results import (
    EvaluationResult,
    defect_map_from_dict,
    defect_map_to_dict,
    function_from_dict,
    function_to_dict,
)
from repro.api.seeding import derive_seed

#: Why a mapping failed when spare-column repair left too few columns.
_REPAIR_FAILURE = (
    "too few usable columns remain after steering around stuck-closed spares"
)


def _effective_map(
    design: "Design", defect_map: DefectMap
) -> tuple[DefectMap, bool]:
    """The map a design's mapper sees, and whether it is mappable at all.

    With spare columns, ``defect_map`` is steered onto the design's best
    functional columns; when too few usable columns remain it comes back
    unrepaired, with False.
    """
    if design.extra_columns == 0:
        return defect_map, True
    if design.is_staged:
        required = design.stage_plan().num_columns
    else:
        required = design.function_matrix().num_columns
    repaired = repair_spare_columns(defect_map, required)
    if repaired is None:
        return defect_map, False
    return repaired, True


class Design:
    """An immutable, chainable logic-design pipeline stage.

    Construct with one of the ``from_*`` classmethods, refine with the
    chaining methods (each returns a new ``Design``), then terminate
    with :meth:`map` (one crossbar) or :meth:`monte_carlo` (a batch).
    """

    def __init__(
        self,
        function: BooleanFunction,
        *,
        steps: tuple[str, ...] = (),
        dual_selection: DualSelection | None = None,
        extra_rows: int = 0,
        extra_columns: int = 0,
        multilevel: dict | None = None,
        staged: bool = False,
    ):
        self._function = function
        self._steps = tuple(steps)
        self._dual_selection = dual_selection
        self._extra_rows = int(extra_rows)
        self._extra_columns = int(extra_columns)
        self._multilevel = multilevel
        self._staged = bool(staged)
        self._matrix: FunctionMatrix | None = None
        self._stage_plan = None
        if self._extra_rows < 0 or self._extra_columns < 0:
            raise ExperimentError("redundancy must be non-negative")
        if self._staged and self._multilevel is None:
            raise ExperimentError(
                "a staged design needs a multi-level spec (use .decompose())"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_function(cls, function: BooleanFunction) -> "Design":
        """Wrap an existing :class:`BooleanFunction`."""
        if not isinstance(function, BooleanFunction):
            raise ExperimentError(
                f"from_function expects a BooleanFunction, got {type(function)!r}"
            )
        label = function.name or "<anonymous>"
        return cls(function, steps=(f"from_function({label})",))

    @classmethod
    def from_sop(cls, expression: str, *, name: str = "") -> "Design":
        """Parse a sum-of-products expression, e.g. ``"x1 + x2 x3"``."""
        cover, input_names = parse_sop(expression)
        function = BooleanFunction.single_output(
            cover, input_names=input_names, name=name
        )
        return cls(function, steps=(f"from_sop({name or expression!r})",))

    @classmethod
    def from_pla(cls, source: str | Path, *, name: str = "") -> "Design":
        """Parse PLA text, or a ``.pla`` file when given a path.

        A :class:`~pathlib.Path` or a single-line string is read as a
        file path; a string containing a newline is treated as inline
        PLA text (valid PLA needs at least ``.i``/``.o`` directive
        lines, so it can never be a single line).
        """
        text = str(source)
        if isinstance(source, Path) or "\n" not in text:
            path = Path(source)
            text = path.read_text()
            name = name or path.stem
        function = parse_pla(text, name=name)
        return cls(function, steps=(f"from_pla({function.name or '<text>'})",))

    @classmethod
    def from_benchmark(
        cls, name: str, *, variant: str = "table2", seed: int = 0
    ) -> "Design":
        """Load a named benchmark circuit from :mod:`repro.circuits`."""
        from repro.circuits.registry import get_benchmark

        function = get_benchmark(name, variant=variant, seed=seed)
        return cls(function, steps=(f"from_benchmark({name})",))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def function(self) -> BooleanFunction:
        """The current implementation (post minimise/dual selection)."""
        return self._function

    @property
    def steps(self) -> tuple[str, ...]:
        """Human-readable record of the pipeline steps applied so far."""
        return self._steps

    @property
    def dual_selection(self) -> DualSelection | None:
        """The dual-selection outcome, once :meth:`choose_dual` ran."""
        return self._dual_selection

    @property
    def extra_rows(self) -> int:
        """Redundant rows beyond the optimum crossbar size."""
        return self._extra_rows

    @property
    def extra_columns(self) -> int:
        """Redundant (spare) columns beyond the optimum crossbar size."""
        return self._extra_columns

    def function_matrix(self) -> FunctionMatrix:
        """The function matrix of the current implementation (cached —
        the design is immutable, so it is built at most once)."""
        if self._matrix is None:
            self._matrix = FunctionMatrix(self._function)
        return self._matrix

    @property
    def multilevel(self) -> dict | None:
        """The multi-level spec recorded by :meth:`decompose` (or None)."""
        return self._multilevel

    @property
    def is_staged(self) -> bool:
        """True once :meth:`tech_map` materialised the stage plan."""
        return self._staged

    def stage_plan(self):
        """The per-stage plan of a staged design (cached — immutable).

        Only available after :meth:`tech_map`.
        """
        if not self._staged:
            raise ExperimentError(
                "the design is not staged; call .decompose(...).tech_map() first"
            )
        if self._stage_plan is None:
            from repro.multilevel import stage_plan_for

            self._stage_plan = stage_plan_for(self._function, self._multilevel)
        return self._stage_plan

    def multilevel_area_report(self):
        """Two-level vs multi-level area comparison for this circuit
        (:func:`repro.synth.area.multilevel_area_report`), using the
        staged network."""
        from repro.synth.area import multilevel_area_report

        return multilevel_area_report(self.stage_plan().network)

    @property
    def crossbar_shape(self) -> tuple[int, int]:
        """Physical crossbar shape including redundancy, ``(rows, cols)``.

        For a staged design this is the multi-level array: all per-stage
        row banks (each padded with ``extra_rows`` spare rows) over the
        shared columns plus spare columns.
        """
        if self._staged:
            plan = self.stage_plan()
            return (
                plan.physical_rows(self._extra_rows),
                plan.num_columns + self._extra_columns,
            )
        matrix = self.function_matrix()
        return (
            matrix.num_rows + self._extra_rows,
            matrix.num_columns + self._extra_columns,
        )

    @property
    def area(self) -> int:
        """Crossbar area (crosspoints) including redundancy."""
        rows, columns = self.crossbar_shape
        return rows * columns

    def describe(self) -> str:
        """Multi-line description of the pipeline state."""
        rows, columns = self.crossbar_shape
        lines = [
            f"Design({self._function.name or '<anonymous>'}): "
            f"I={self._function.num_inputs}, O={self._function.num_outputs}, "
            f"P={self._function.num_products}",
            f"  crossbar: {rows} x {columns} = {self.area} crosspoints",
            "  steps: " + " -> ".join(self._steps),
        ]
        if self._staged:
            lines.insert(2, f"  stages: {self.stage_plan().describe()}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Design({self._function.name or '<anonymous>'}, "
            f"steps={len(self._steps)})"
        )

    def _evolve(self, function: BooleanFunction, step: str, **overrides) -> "Design":
        return Design(
            function,
            steps=(*self._steps, step),
            dual_selection=overrides.get("dual_selection", self._dual_selection),
            extra_rows=overrides.get("extra_rows", self._extra_rows),
            extra_columns=overrides.get("extra_columns", self._extra_columns),
            multilevel=overrides.get("multilevel", self._multilevel),
            staged=overrides.get("staged", self._staged),
        )

    # ------------------------------------------------------------------
    # Chaining steps
    # ------------------------------------------------------------------
    def minimize(self) -> "Design":
        """Two-level minimisation of every output cover."""
        return self._evolve(self._function.minimized(), "minimize")

    def choose_dual(self) -> "Design":
        """Map the cheaper of ``f`` and ``f̄`` (Algorithm 1, step 1)."""
        selection = choose_dual(self._function)
        tag = "choose_dual[dual]" if selection.used_complement else "choose_dual[f]"
        return self._evolve(
            selection.implementation, tag, dual_selection=selection
        )

    def with_redundancy(self, *, rows: int = 0, columns: int = 0) -> "Design":
        """Add redundant rows / spare columns to the crossbar."""
        if rows < 0 or columns < 0:
            raise ExperimentError("redundancy must be non-negative")
        return self._evolve(
            self._function,
            f"with_redundancy({rows},{columns})",
            extra_rows=rows,
            extra_columns=columns,
        )

    def with_name(self, name: str) -> "Design":
        """Rename the underlying circuit."""
        return self._evolve(self._function.with_name(name), f"with_name({name})")

    def decompose(
        self,
        *,
        strategy: str = "best",
        max_fanin: int | None = None,
        share_gates: bool = True,
    ) -> "Design":
        """Record a multi-level decomposition spec (§III of the paper).

        Declares that the design should be realised as a staged
        multi-level crossbar — the function technology-mapped into a
        NAND network and partitioned into per-level row banks — rather
        than the flat two-level array.  The spec is pure data; call
        :meth:`tech_map` to materialise the stage plan before a terminal
        step.  ``strategy`` / ``max_fanin`` / ``share_gates`` are the
        :class:`repro.synth.tech_map.MappingOptions` knobs.
        """
        from repro.multilevel import normalize_multilevel_spec

        spec = normalize_multilevel_spec(
            {
                "strategy": strategy,
                "max_fanin": max_fanin,
                "share_gates": share_gates,
            }
        )
        return self._evolve(
            self._function,
            f"decompose({strategy})",
            multilevel=spec,
            staged=False,
        )

    def tech_map(self) -> "Design":
        """Technology-map the decomposed design and stage it.

        Materialises the multi-level stage plan eagerly so synthesis
        errors surface here, not inside a Monte-Carlo worker.  Requires
        a prior :meth:`decompose`.
        """
        if self._multilevel is None:
            raise ExperimentError(
                "nothing to tech-map; call .decompose(...) first"
            )
        from repro.multilevel import stage_plan_for

        plan = stage_plan_for(self._function, self._multilevel)
        design = self._evolve(self._function, "tech_map", staged=True)
        design._stage_plan = plan
        return design

    # ------------------------------------------------------------------
    # Terminal steps
    # ------------------------------------------------------------------
    def map(
        self,
        *,
        defects: DefectMap | DefectProfile | DefectModel | float | str | None = None,
        algorithm: str | Mapper = "hybrid",
        seed: int = 0,
        **mapper_options,
    ) -> "MappedDesign":
        """Map the design onto one (possibly defective) crossbar.

        Parameters
        ----------
        defects:
            A pre-built :class:`DefectMap` (must match
            :attr:`crossbar_shape`), a registered defect-model name
            (``"clustered"``; see
            :func:`repro.api.defect_models.list_defect_models`), a
            :class:`~repro.api.defect_models.DefectModel`, a
            :class:`DefectProfile`, a plain stuck-open rate, or ``None``
            for a defect-free crossbar.
        algorithm:
            A registered mapper name (see
            :func:`repro.api.registry.list_mappers`) or a mapper
            instance; keyword ``mapper_options`` are forwarded to the
            registry factory when a name is given.
        seed:
            Defect-injection seed (ignored for a pre-built map).

        A staged design checks each stage's assignment at the matrix
        level during the walk; a two-level mapping is checked, and
        simulated functionally, by :meth:`MappedDesign.evaluate`.
        """
        self._require_staged_if_decomposed("map")
        rows, columns = self.crossbar_shape
        if isinstance(defects, DefectMap):
            if (defects.rows, defects.columns) != (rows, columns):
                raise ExperimentError(
                    f"defect map is {defects.rows}x{defects.columns} but the "
                    f"design needs a {rows}x{columns} crossbar "
                    "(including redundancy)"
                )
            defect_map = defects
        elif isinstance(defects, (str, DefectModel)):
            model = resolve_defect_model(defects)
            defect_map = model.inject(rows, columns, seed=derive_seed(seed, 0))
        else:
            profile = defects if defects is not None else 0.0
            defect_map = inject_uniform(
                rows, columns, profile, seed=derive_seed(seed, 0)
            )

        if isinstance(algorithm, str):
            mapper = create_mapper(algorithm, **mapper_options)
            algorithm_name = algorithm
        else:
            if mapper_options:
                raise ExperimentError(
                    "mapper options can only be combined with an algorithm name"
                )
            mapper = algorithm
            algorithm_name = getattr(mapper, "algorithm_name", type(mapper).__name__)

        if self._staged:
            return self._map_staged(defect_map, mapper, algorithm_name)

        effective_map, repaired = _effective_map(self, defect_map)
        if repaired:
            result = mapper.map(
                self.function_matrix(), CrossbarMatrix(effective_map)
            )
        else:
            result = MappingResult(
                success=False,
                algorithm=algorithm_name,
                failure_reason=_REPAIR_FAILURE,
            )
        if self._dual_selection is not None:
            result.used_complement = self._dual_selection.used_complement

        return MappedDesign(
            design=self._evolve(self._function, f"map[{algorithm_name}]"),
            defect_map=defect_map,
            effective_map=effective_map,
            result=result,
        )

    def _require_staged_if_decomposed(self, terminal: str) -> None:
        if self._multilevel is not None and not self._staged:
            raise ExperimentError(
                f"the design is decomposed but not staged; call .tech_map() "
                f"before .{terminal}()"
            )

    def _map_staged(
        self, defect_map: DefectMap, mapper, algorithm_name: str
    ) -> "MultiLevelMappedDesign":
        """Per-stage mapping of one staged sample (the multi-level walk)."""
        from repro.multilevel import map_multilevel
        from repro.multilevel.mapping import MultiLevelMappingResult

        effective_map, repaired = _effective_map(self, defect_map)
        if repaired:
            result = map_multilevel(
                self.stage_plan(),
                mapper,
                effective_map,
                extra_rows=self._extra_rows,
            )
        else:
            result = MultiLevelMappingResult(
                success=False, failure_reason=_REPAIR_FAILURE
            )
        return MultiLevelMappedDesign(
            design=self._evolve(self._function, f"map[{algorithm_name}]"),
            defect_map=defect_map,
            effective_map=effective_map,
            result=result,
            algorithm=algorithm_name,
        )

    def monte_carlo(
        self,
        *,
        defect_rate: float = 0.10,
        stuck_open_fraction: float = 1.0,
        sample_size: int = 200,
        algorithms: Sequence[str] | Mapping[str, Mapper] = ("hybrid", "exact"),
        seed: int = 0,
        workers: int | None = None,
        defect_model: DefectModel | str | dict | None = None,
        engine: str = "auto",
    ):
        """Run the Monte-Carlo protocol on this design (see
        :func:`repro.experiments.monte_carlo.run_mapping_monte_carlo`).

        The design's redundancy carries over; ``workers`` selects the
        parallel batch engine (``None`` = auto); ``defect_model``
        selects a registered defect model (overriding ``defect_rate``);
        ``engine`` picks the batched kernel (default) or the
        object-per-sample reference path.
        """
        from repro.experiments.monte_carlo import run_mapping_monte_carlo

        self._require_staged_if_decomposed("monte_carlo")
        return run_mapping_monte_carlo(
            self._function,
            defect_rate=defect_rate,
            stuck_open_fraction=stuck_open_fraction,
            sample_size=sample_size,
            algorithms=algorithms,
            seed=seed,
            extra_rows=self._extra_rows,
            extra_columns=self._extra_columns,
            workers=workers,
            defect_model=defect_model,
            engine=engine,
            multilevel=self._multilevel if self._staged else None,
        )

    def yield_analysis(
        self,
        *,
        tolerance: float = 0.01,
        confidence: float = 0.95,
        method: str = "wilson",
        defect_rate: float = 0.10,
        stuck_open_fraction: float = 1.0,
        defect_model: DefectModel | str | dict | None = None,
        algorithms: Sequence[str] | Mapping[str, Mapper] = ("hybrid", "exact"),
        seed: int = 0,
        workers: int | None = None,
        engine: str = "auto",
        max_samples: int = 100_000,
    ):
        """Estimate this design's yield to a target precision.

        Runs the adaptive Monte-Carlo sampler of
        :func:`repro.analysis.adaptive.run_adaptive_monte_carlo` on the
        design (redundancy carries over, like :meth:`monte_carlo`),
        drawing samples until every algorithm's binomial CI half-width
        reaches ``tolerance`` or ``max_samples`` is exhausted.  Returns
        an :class:`~repro.analysis.adaptive.AdaptiveResult`; its
        ``estimate("hybrid")`` is the yield with its confidence
        interval.
        """
        from repro.analysis.adaptive import run_adaptive_monte_carlo

        self._require_staged_if_decomposed("yield_analysis")
        return run_adaptive_monte_carlo(
            self._function,
            tolerance=tolerance,
            confidence=confidence,
            method=method,
            defect_rate=defect_rate,
            stuck_open_fraction=stuck_open_fraction,
            defect_model=defect_model,
            algorithms=algorithms,
            seed=seed,
            extra_rows=self._extra_rows,
            extra_columns=self._extra_columns,
            workers=workers,
            engine=engine,
            multilevel=self._multilevel if self._staged else None,
            max_samples=max_samples,
        )


@dataclass
class MappedDesign:
    """A design mapped onto one concrete (possibly defective) crossbar.

    Holds the live artefacts — the implementation actually mapped, the
    injected defect map (``defect_map``), the column-repaired map the
    mapper really saw (``effective_map``, identical unless spare columns
    were in play) and the raw :class:`MappingResult`.
    """

    design: Design
    defect_map: DefectMap
    effective_map: DefectMap
    result: MappingResult

    @property
    def success(self) -> bool:
        """Whether the mapper found a defect-avoiding assignment."""
        return self.result.success

    def __bool__(self) -> bool:
        return self.success

    def evaluate(self) -> EvaluationResult:
        """Validate the mapping and condense everything into a report.

        A successful mapping gets the matrix-level check and a
        functional simulation: exhaustive up to 10 inputs, 64 sampled
        input vectors beyond.
        """
        function = self.design.function
        matrix = self.design.function_matrix()
        valid = False
        functionally_valid: bool | None = None
        if self.result.success:
            valid = validate_assignment(
                matrix, CrossbarMatrix(self.effective_map), self.result
            )
            functionally_valid = validate_functionally(
                function,
                self.effective_map,
                self.result,
                exhaustive_limit=10,
                samples=64,
            )
        rows, columns = self.design.crossbar_shape
        return EvaluationResult(
            function_name=function.name or "<anonymous>",
            algorithm=self.result.algorithm,
            success=self.result.success,
            valid_assignment=valid,
            functionally_valid=functionally_valid,
            used_complement=self.result.used_complement,
            runtime_seconds=self.result.runtime_seconds,
            rows=rows,
            columns=columns,
            area=rows * columns,
            inclusion_ratio=matrix.inclusion_ratio(),
            extra_rows=self.design.extra_rows,
            extra_columns=self.design.extra_columns,
            defect_count=len(self.defect_map),
            defect_rate=self.defect_map.defect_rate(),
            failure_reason=self.result.failure_reason,
            steps=list(self.design.steps),
        )

    def summary(self) -> str:
        """One-line summary of the underlying mapping result."""
        return self.result.summary()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe snapshot of the mapped design."""
        return {
            "function": function_to_dict(self.design.function),
            "steps": list(self.design.steps),
            "extra_rows": self.design.extra_rows,
            "extra_columns": self.design.extra_columns,
            "defect_map": defect_map_to_dict(self.defect_map),
            "result": self.result.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MappedDesign":
        """Rebuild a snapshot produced by :meth:`to_dict`.

        The effective (column-repaired) map is not persisted; it is
        re-derived from the defect map when spare columns are present.
        """
        function = function_from_dict(payload["function"])
        design = Design(
            function,
            steps=tuple(payload.get("steps", ())),
            extra_rows=payload.get("extra_rows", 0),
            extra_columns=payload.get("extra_columns", 0),
        )
        defect_map = defect_map_from_dict(payload["defect_map"])
        return cls(
            design=design,
            defect_map=defect_map,
            effective_map=_effective_map(design, defect_map)[0],
            result=MappingResult.from_dict(payload["result"]),
        )


@dataclass
class MultiLevelMappedDesign:
    """A staged design mapped stage-by-stage onto one defective array.

    The multi-level counterpart of :class:`MappedDesign`: ``result`` is
    the whole-network
    :class:`~repro.multilevel.mapping.MultiLevelMappingResult` of the
    per-stage walk.  Evaluation is matrix-level only — each stage's
    assignment is validated against its row bank during the walk; there
    is no two-level functional simulation of the staged array.
    """

    design: Design
    defect_map: DefectMap
    effective_map: DefectMap
    result: "object"
    algorithm: str

    @property
    def success(self) -> bool:
        """Whether every stage found a defect-avoiding assignment."""
        return self.result.success

    def __bool__(self) -> bool:
        return self.success

    def summary(self) -> str:
        """One-line summary of the per-stage walk."""
        return f"{self.algorithm} (multi-level): {self.result.summary()}"

    def to_dict(self) -> dict:
        """JSON-safe snapshot of the staged mapping."""
        return {
            "function": function_to_dict(self.design.function),
            "steps": list(self.design.steps),
            "multilevel": dict(self.design.multilevel or {}),
            "extra_rows": self.design.extra_rows,
            "extra_columns": self.design.extra_columns,
            "defect_map": defect_map_to_dict(self.defect_map),
            "result": self.result.to_dict(),
            "algorithm": self.algorithm,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MultiLevelMappedDesign":
        """Rebuild a snapshot produced by :meth:`to_dict`.

        Like :class:`MappedDesign`, the effective (column-repaired) map
        is re-derived rather than persisted.
        """
        from repro.multilevel.mapping import MultiLevelMappingResult

        function = function_from_dict(payload["function"])
        design = Design(
            function,
            steps=tuple(payload.get("steps", ())),
            extra_rows=payload.get("extra_rows", 0),
            extra_columns=payload.get("extra_columns", 0),
            multilevel=dict(payload.get("multilevel", {})) or None,
            staged=bool(payload.get("multilevel")),
        )
        defect_map = defect_map_from_dict(payload["defect_map"])
        return cls(
            design=design,
            defect_map=defect_map,
            effective_map=_effective_map(design, defect_map)[0],
            result=MultiLevelMappingResult.from_dict(payload["result"]),
            algorithm=payload.get("algorithm", "hybrid"),
        )
