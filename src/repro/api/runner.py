"""Unified scenario runner: one entry point for every experiment.

:func:`run_scenario` takes a declarative
:class:`~repro.api.scenarios.Scenario`, dispatches it onto the parallel
:class:`~repro.api.batch.BatchRunner` engine (honouring ``workers=``)
and emits a :class:`ScenarioResult` whose rows are plain JSON-safe
dicts.  When a :class:`~repro.api.artifacts.ArtifactStore` is supplied,
rows stream into the store as they are computed and a re-run of the
*same spec* (same content hash) returns the cached result without
recomputing anything; ``force=True`` overrides the cache.

The counting statistics of a scenario are identical for every worker
count — the determinism contract of the batch engine plus the
collision-free :func:`~repro.api.seeding.derive_seed` sample streams.
Only wall-clock fields (``elapsed_seconds``, per-sample runtimes) vary
run to run; :meth:`ScenarioResult.counting_statistics` projects them
away for comparisons.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.api.artifacts import ArtifactRecord, ArtifactStore
from repro.api.batch import BatchRunner, chunk_ranges
from repro.api.scenarios import Scenario, ScenarioSuite
from repro.api.seeding import derive_seed
from repro.exceptions import ExperimentError


@dataclass
class ScenarioResult:
    """The outcome of one scenario: the spec, its hash and the result rows.

    Row shape by protocol:

    * ``"mapping"`` — one row per redundancy level:
      ``{"redundancy": [r, c], "monte_carlo": MonteCarloResult.to_dict()}``;
    * ``"area"`` — one row per sample:
      ``{"index": i, "num_products": p, "two_level_cost": a,
      "multi_level_cost": b, "gate_count": g}``.
    """

    scenario: Scenario
    spec_hash: str
    rows: list[dict] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    workers: int = 1
    cached: bool = False

    # ------------------------------------------------------------------
    # Typed accessors
    # ------------------------------------------------------------------
    def monte_carlo(self, redundancy: tuple[int, int] = (0, 0)):
        """The :class:`MonteCarloResult` of one redundancy level."""
        from repro.experiments.monte_carlo import MonteCarloResult

        if self.scenario.protocol != "mapping":
            raise ExperimentError(
                f"scenario {self.scenario.name!r} ran the "
                f"{self.scenario.protocol!r} protocol, which has no "
                "Monte-Carlo rows"
            )
        wanted = [int(redundancy[0]), int(redundancy[1])]
        for row in self.rows:
            if list(row["redundancy"]) == wanted:
                return MonteCarloResult.from_dict(row["monte_carlo"])
        raise ExperimentError(
            f"no row for redundancy {tuple(wanted)} in scenario "
            f"{self.scenario.name!r}; it has "
            f"{[tuple(row['redundancy']) for row in self.rows]}"
        )

    def area_samples(self) -> list[dict]:
        """The per-sample rows of an ``"area"`` scenario."""
        if self.scenario.protocol != "area":
            raise ExperimentError(
                f"scenario {self.scenario.name!r} ran the "
                f"{self.scenario.protocol!r} protocol, which has no area rows"
            )
        return list(self.rows)

    def counting_statistics(self) -> dict:
        """A worker-count-invariant projection of the result.

        Strips every wall-clock field, leaving only the deterministic
        counting statistics — the acceptance basis for
        ``workers=1 == workers=N``.
        """
        if self.scenario.protocol == "area":
            return {"rows": [dict(row) for row in self.rows]}
        projected = []
        for row in self.rows:
            outcomes = {}
            for name, outcome in row["monte_carlo"]["outcomes"].items():
                outcomes[name] = {
                    "successes": outcome["successes"],
                    "samples": outcome["samples"],
                    "total_backtracks": outcome["total_backtracks"],
                    "invalid_mappings": outcome["invalid_mappings"],
                }
            projected.append(
                {"redundancy": list(row["redundancy"]), "outcomes": outcomes}
            )
        return {"rows": projected}

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self, *, style: str = "monospace") -> str:
        """Tabular rendering of the rows (``style`` as in ``format_table``)."""
        from repro.experiments.report import format_percent, format_table

        title = self.scenario.describe() + (" [cached]" if self.cached else "")
        if self.scenario.protocol == "area":
            wins = sum(
                row["multi_level_cost"] < row["two_level_cost"] for row in self.rows
            )
            total = len(self.rows) or 1
            headers = ["samples", "multi-level wins", "success rate"]
            body = [[len(self.rows), wins, format_percent(wins / total)]]
            return format_table(headers, body, title=title, style=style)
        mappers = list(self.scenario.mappers)
        headers = ["+rows", "+cols"] + [
            column for m in mappers for column in (f"Psucc[{m}]", f"time[{m}]")
        ]
        body = []
        for row in self.rows:
            outcomes = row["monte_carlo"]["outcomes"]
            cells: list[object] = list(row["redundancy"])
            for mapper in mappers:
                outcome = outcomes[mapper]
                samples = outcome["samples"] or 1
                cells.append(format_percent(outcome["successes"] / samples))
                cells.append(f"{outcome['total_runtime'] / samples:.4f}")
            body.append(cells)
        return format_table(headers, body, title=title, style=style)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "scenario": self.scenario.to_dict(),
            "spec_hash": self.spec_hash,
            "rows": list(self.rows),
            "elapsed_seconds": self.elapsed_seconds,
            "workers": self.workers,
            "cached": self.cached,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioResult":
        """Rebuild a result serialized by :meth:`to_dict`."""
        return cls(
            scenario=Scenario.from_dict(payload["scenario"]),
            spec_hash=payload["spec_hash"],
            rows=list(payload.get("rows", [])),
            elapsed_seconds=payload.get("elapsed_seconds", 0.0),
            workers=payload.get("workers", 1),
            cached=payload.get("cached", False),
        )

    @classmethod
    def from_record(cls, record: ArtifactRecord) -> "ScenarioResult":
        """Rebuild a cached result from an artifact-store record."""
        return cls(
            scenario=Scenario.from_dict(record.spec),
            spec_hash=record.spec_hash,
            rows=list(record.rows),
            elapsed_seconds=record.elapsed_seconds,
            workers=record.workers,
            cached=True,
        )


@dataclass
class SuiteResult:
    """The results of one suite, in suite order."""

    name: str
    results: list[ScenarioResult] = field(default_factory=list)

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def result(self, name: str) -> ScenarioResult:
        """Fetch one scenario's result by name."""
        for result in self.results:
            if result.scenario.name == name:
                return result
        raise ExperimentError(
            f"no result for scenario {name!r} in suite {self.name!r}; it has "
            f"{[r.scenario.name for r in self.results]}"
        )

    def render(self, *, style: str = "monospace") -> str:
        """All scenario tables, blank-line separated."""
        return "\n\n".join(result.render(style=style) for result in self.results)

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "name": self.name,
            "results": [result.to_dict() for result in self.results],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SuiteResult":
        """Rebuild a suite result serialized by :meth:`to_dict`."""
        return cls(
            name=payload["name"],
            results=[
                ScenarioResult.from_dict(entry)
                for entry in payload.get("results", [])
            ],
        )


# ----------------------------------------------------------------------
# The area protocol's parallel engine (Fig. 6): chunked over *global*
# sample indices with derive_seed streams, merged in chunk order — the
# same determinism contract as the Monte-Carlo mapping engine.
# ----------------------------------------------------------------------
def sample_stream_length(scenario: Scenario) -> int:
    """The length of each global sample stream the scenario plans.

    The scenario's ``samples`` (a budget ceiling when adaptive), except
    that an area scenario over a fixed (non-random) source has one
    sample, index 0, which is the function itself.
    """
    if scenario.protocol == "area" and scenario.source.kind != "random":
        return 1
    return scenario.samples


def evaluate_area_chunk(
    scenario: Scenario, indices: range, *, engine: str
) -> list[dict]:
    """Area rows of the global sample ``indices``; a pure function.

    A random source draws sample ``i`` from the ``("random-function",
    i)`` seed stream; any other source's single sample is the function
    itself.  ``engine`` selects the Boolean kernel tier.
    """
    from repro.boolean.random_functions import random_single_output_function
    from repro.experiments.figure6 import evaluate_sample

    random_spec = (
        scenario.source.random_spec()
        if scenario.source.kind == "random"
        else None
    )
    rows = []
    for index in indices:
        if random_spec is None:
            function = scenario.source.build(seed=scenario.seed)
        else:
            function = random_single_output_function(
                random_spec,
                seed=derive_seed(scenario.seed, "random-function", index),
                engine=engine,
            )
        sample = evaluate_sample(
            function,
            minimize_before_synthesis=scenario.options.get(
                "minimize_before_synthesis", True
            ),
            engine=engine,
        )
        rows.append(
            {
                "index": index,
                "num_products": sample.num_products,
                "two_level_cost": sample.two_level_cost,
                "multi_level_cost": sample.multi_level_cost,
                "gate_count": sample.gate_count,
            }
        )
    return rows


def _run_area_protocol(
    scenario: Scenario,
    *,
    workers: int | None,
    engine: str,
    emit: Callable[[int, dict], None] | None,
) -> tuple[list[dict], int]:
    samples = sample_stream_length(scenario)
    runner = BatchRunner(workers)
    plan = runner.plan(samples)
    rows: list[dict] = []

    def stream_chunk(partial: list[dict]) -> None:
        # Called in chunk order as results arrive, so killed runs keep
        # every finished chunk's rows in the artifact store.
        for row in partial:
            if emit is not None:
                emit(row["index"], row)
            rows.append(row)

    runner.run(
        functools.partial(evaluate_area_chunk, scenario, engine=engine),
        chunk_ranges(samples, plan.chunk_size),
        total_items=samples,
        on_result=stream_chunk,
    )
    return rows, runner.last_run_workers or 1


def adaptive_settings(scenario: Scenario) -> dict:
    """The adaptive loop's keywords for a mapping scenario.

    The scenario's sample count is the budget: the ceiling when it sets
    a ``tolerance``, the one batch when it does not.  Its options may
    set ``confidence`` and ``ci_method``.
    """
    return {
        "tolerance": scenario.tolerance,
        "confidence": scenario.options.get("confidence", 0.95),
        "method": scenario.options.get("ci_method", "wilson"),
        "max_samples": scenario.samples,
    }


def mapping_row(
    scenario: Scenario, redundancy: tuple[int, int], adaptive
) -> dict:
    """One redundancy level's result row from its adaptive loop result.

    Only a ``tolerance`` scenario's row carries the ``"adaptive"``
    summary, so a fixed row keeps the paper protocol's shape.
    """
    row = {
        "redundancy": list(redundancy),
        "monte_carlo": adaptive.monte_carlo.to_dict(),
    }
    if scenario.tolerance is not None:
        row["adaptive"] = adaptive.row_summary()
    return row


def _run_mapping_protocol(
    scenario: Scenario,
    *,
    workers: int | None,
    engine: str,
    emit: Callable[[int, dict], None] | None,
) -> tuple[list[dict], int]:
    # A fixed scenario is the adaptive loop's one-batch case, so every
    # redundancy row is one run of the loop; the stopping rule reads
    # counting statistics only, so the drawn sample count stays worker-
    # and engine-invariant.
    from repro.analysis.adaptive import run_adaptive_monte_carlo

    function = scenario.source.build(seed=scenario.seed)
    model = scenario.resolved_defect_model()
    multilevel = scenario.multilevel_spec()
    rows: list[dict] = []
    used_workers = 1
    for extra_rows, extra_columns in scenario.redundancy:
        adaptive = run_adaptive_monte_carlo(
            function,
            **adaptive_settings(scenario),
            defect_model=model,
            algorithms=scenario.mappers,
            seed=scenario.seed,
            extra_rows=extra_rows,
            extra_columns=extra_columns,
            workers=workers,
            engine=engine,
            multilevel=multilevel,
        )
        used_workers = max(used_workers, adaptive.monte_carlo.workers)
        row = mapping_row(scenario, (extra_rows, extra_columns), adaptive)
        rows.append(row)
        if emit is not None:
            emit(len(rows) - 1, row)
    return rows, used_workers


def run_scenario(
    scenario: Scenario,
    *,
    workers: int | None = None,
    engine: str = "auto",
    force: bool = False,
    store: ArtifactStore | None = None,
) -> ScenarioResult:
    """Run one scenario (or return its cached artifact).

    Parameters
    ----------
    scenario:
        The declarative spec to execute.
    workers:
        Forwarded to the batch engine (``None`` = auto, ``1`` = serial,
        ``N`` = process pool); never part of the cache key.
    engine:
        A :data:`repro.engines.ENGINES` name: ``"auto"`` (default),
        ``"compiled"``, ``"vectorized"`` or ``"reference"``.  It selects
        the Monte-Carlo tier of a ``"mapping"`` scenario and the
        Boolean kernel tier of an ``"area"`` scenario.  Like
        ``workers``, the engine is never part of the cache key: every
        engine produces identical counting statistics, so a cached
        artifact is engine-agnostic.
    force:
        Recompute even when the store already holds a complete artifact.
    store:
        Optional JSONL artifact store; result rows stream into it and
        matching content hashes short-circuit recomputation.
    """
    from repro.engines import canonical_engine

    engine = canonical_engine(engine)
    spec_hash = scenario.content_hash()
    if store is not None and not force:
        record = store.load(spec_hash)
        if record is not None:
            return ScenarioResult.from_record(record)

    if store is not None:
        store.begin(spec_hash, scenario.to_dict())

    emit = None
    if store is not None:
        def emit(index: int, row: dict) -> None:
            store.append_row(spec_hash, index, row)

    start = time.perf_counter()
    if scenario.protocol == "area":
        rows, used_workers = _run_area_protocol(
            scenario,
            workers=workers,
            engine=engine,
            emit=emit,
        )
    else:
        rows, used_workers = _run_mapping_protocol(
            scenario,
            workers=workers,
            engine=engine,
            emit=emit,
        )
    elapsed = time.perf_counter() - start

    if store is not None:
        store.finish(
            spec_hash, rows=len(rows), elapsed_seconds=elapsed, workers=used_workers
        )
    return ScenarioResult(
        scenario=scenario,
        spec_hash=spec_hash,
        rows=rows,
        elapsed_seconds=elapsed,
        workers=used_workers,
    )


def run_suite(
    suite: ScenarioSuite,
    *,
    workers: int | None = None,
    engine: str = "auto",
    force: bool = False,
    store: ArtifactStore | None = None,
    progress: Callable[[Scenario, ScenarioResult], None] | None = None,
) -> SuiteResult:
    """Run every scenario of a suite in order (sharing one store).

    ``progress`` is called after each scenario with its result — the CLI
    uses it to stream per-scenario status lines.
    """
    result = SuiteResult(name=suite.name)
    for scenario in suite:
        scenario_result = run_scenario(
            scenario,
            workers=workers,
            engine=engine,
            force=force,
            store=store,
        )
        result.results.append(scenario_result)
        if progress is not None:
            progress(scenario, scenario_result)
    return result
