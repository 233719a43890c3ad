"""Adaptive Monte-Carlo sampling: stop when the CI is tight enough.

The paper's protocol fixes the sample budget (200 crossbars per point)
no matter how decisive the evidence already is.  With the vectorized
engine making 10^5-10^6 samples cheap, the right question inverts: *how
many samples does a target precision need?*
:func:`run_adaptive_monte_carlo` answers it by growing one experiment in
deterministic batches until every raced algorithm's binomial CI
half-width (:mod:`repro.analysis.confidence`) reaches a tolerance —
typically orders of magnitude below the worst-case fixed budget
(:func:`~repro.analysis.confidence.fixed_sample_budget`) because real
yields sit near the extremes where binomial variance collapses.

A fixed budget is the schedule's one-batch case: with
``tolerance=None`` the loop draws ``max_samples`` in one batch and
stops, so every Monte-Carlo row — fixed or adaptive, in process or in
the service — runs through :func:`adaptive_loop`, and this module is
the one place that tells the two apart.

Determinism guarantees (tested in ``tests/test_analysis.py``):

* **Seed-stream invariance** — batch *k* covers the global sample range
  ``[offset_k, offset_k + size_k)`` via ``run_mapping_monte_carlo(...,
  sample_offset=offset_k)``, so every sample draws the same
  ``derive_seed(seed, index)`` defect map it would in a fixed-budget
  run.  An adaptive run that stops after N samples has *identical*
  counting statistics to a fixed run of ``sample_size=N``.
* **Worker-count invariance** — the stopping rule reads only counting
  statistics, which the batch engine guarantees are identical for every
  worker count; the batch schedule (:data:`INITIAL_BATCH` samples,
  doubling up to :data:`MAX_BATCH`) is fixed.  Hence the number of
  samples drawn — not just their results — is the same on 1 worker or
  32.

``docs/statistics.md`` discusses the sequential-looking caveat (CIs are
computed at interim looks, so end-of-run coverage is approximately, not
exactly, nominal).
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

from repro.analysis.confidence import (
    CI_METHODS,
    BinomialInterval,
    yield_estimate,
)
from repro.api.defect_models import (
    DefectModel,
    create_defect_model,
    resolve_defect_model,
)
from repro.api.runner import adaptive_settings
from repro.api.scenarios import FunctionSource, Scenario
from repro.boolean.function import BooleanFunction
from repro.engines import resolve_mapping_engine
from repro.exceptions import ExperimentError
from repro.experiments.monte_carlo import (
    MonteCarloResult,
    run_mapping_monte_carlo,
)

#: First-batch size of an adaptive run (one vectorized chunk's worth of
#: samples); each following batch doubles.
INITIAL_BATCH = 64

#: Cap on how far batches grow; bounds per-round latency and the
#: worst-case overshoot past the stopping point.
MAX_BATCH = 8192

#: Default hard ceiling on the total sample budget.
DEFAULT_MAX_SAMPLES = 100_000


@dataclass
class AdaptiveResult:
    """The outcome of one adaptive Monte-Carlo run."""

    monte_carlo: MonteCarloResult
    #: The CI half-width target (``None`` = a fixed budget, one batch).
    tolerance: float | None
    confidence: float
    method: str
    converged: bool
    #: Rounds the loop ran (one for a fixed budget).
    batches: int

    @property
    def samples_used(self) -> int:
        """Total samples drawn before the loop stopped."""
        return self.monte_carlo.sample_size

    def estimates(self) -> dict[str, BinomialInterval]:
        """Per-algorithm yield estimate with CI, from the final counts."""
        return {
            name: yield_estimate(
                outcome.successes,
                outcome.samples,
                confidence=self.confidence,
                method=self.method,
            )
            for name, outcome in self.monte_carlo.outcomes.items()
        }

    def estimate(self, algorithm: str) -> BinomialInterval:
        """One algorithm's final yield estimate with CI."""
        return self.monte_carlo.yield_estimate(
            algorithm, confidence=self.confidence, method=self.method
        )

    def half_width(self) -> float:
        """The widest final CI half-width across the algorithms."""
        return max(
            estimate.half_width for estimate in self.estimates().values()
        )

    def summary(self) -> str:
        """One-line human-readable verdict."""
        status = "converged" if self.converged else "budget exhausted"
        precision = (
            "fixed budget"
            if self.tolerance is None
            else f"tolerance {self.tolerance:g}"
        )
        parts = ", ".join(
            f"{name}={estimate.describe()}"
            for name, estimate in sorted(self.estimates().items())
        )
        return (
            f"{self.monte_carlo.function_name}: {status} after "
            f"{self.samples_used} samples ({self.batches} batches, "
            f"{precision}): {parts}"
        )

    def row_summary(self) -> dict:
        """The ``"adaptive"`` entry of an adaptive scenario's result row."""
        return {
            "tolerance": self.tolerance,
            "confidence": self.confidence,
            "method": self.method,
            "converged": self.converged,
            "samples_used": self.samples_used,
            "batches": self.batches,
            "half_width": self.half_width(),
            "estimates": {
                name: estimate.to_dict()
                for name, estimate in self.estimates().items()
            },
        }

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "monte_carlo": self.monte_carlo.to_dict(),
            "tolerance": self.tolerance,
            "confidence": self.confidence,
            "method": self.method,
            "converged": self.converged,
            "batches": self.batches,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AdaptiveResult":
        """Rebuild a result serialized by :meth:`to_dict`."""
        return cls(
            monte_carlo=MonteCarloResult.from_dict(payload["monte_carlo"]),
            tolerance=payload["tolerance"],
            confidence=payload.get("confidence", 0.95),
            method=payload.get("method", "wilson"),
            converged=payload.get("converged", False),
            batches=payload.get("batches", 1),
        )

    @classmethod
    def from_row(cls, scenario: Scenario, row: dict) -> "AdaptiveResult":
        """The loop result behind one result row of a mapping scenario.

        A ``tolerance`` row records the loop's verdict and round count
        under ``"adaptive"`` (:meth:`row_summary`); a fixed row is the
        loop's one batch, which always converges.
        """
        settings = adaptive_settings(scenario)
        summary = row.get("adaptive", {"converged": True, "batches": 1})
        return cls(
            monte_carlo=MonteCarloResult.from_dict(row["monte_carlo"]),
            tolerance=settings["tolerance"],
            confidence=settings["confidence"],
            method=settings["method"],
            converged=summary["converged"],
            batches=summary["batches"],
        )


def run_adaptive_monte_carlo(
    function: BooleanFunction,
    *,
    tolerance: float | None,
    confidence: float = 0.95,
    method: str = "wilson",
    defect_rate: float = 0.10,
    stuck_open_fraction: float = 1.0,
    defect_model: DefectModel | str | dict | None = None,
    algorithms=("hybrid", "exact"),
    seed: int = 0,
    extra_rows: int = 0,
    extra_columns: int = 0,
    workers: int | None = None,
    engine: str = "auto",
    multilevel: dict | None = None,
    max_samples: int = DEFAULT_MAX_SAMPLES,
) -> AdaptiveResult:
    """Run the Monte-Carlo protocol until the CI half-width hits a target.

    The experiment parameters (``function`` through ``multilevel``) are
    those of
    :func:`~repro.experiments.monte_carlo.run_mapping_monte_carlo`; the
    remaining keywords configure the adaptive loop:

    tolerance:
        Target CI half-width (e.g. ``0.005`` = ±0.5 %).  The loop stops
        as soon as every raced algorithm's half-width is at or below
        it.  ``None`` is a fixed budget: one batch of ``max_samples``,
        the paper's protocol, reported as converged.
    max_samples:
        Never draw more than ``max_samples`` (the budget; ``converged``
        is ``False`` when it is exhausted first).

    The batch schedule is fixed: the first batch draws
    :data:`INITIAL_BATCH` samples and each following batch doubles, up
    to :data:`MAX_BATCH`.  Geometric growth keeps the number of rounds
    (and engine round-trips) logarithmic while bounding overshoot past
    the stopping point to one batch.
    """
    if tolerance is not None and not 0.0 < tolerance < 0.5:
        raise ExperimentError(f"tolerance must lie in (0, 0.5), got {tolerance}")
    if method not in CI_METHODS:
        raise ExperimentError(
            f"unknown CI method {method!r}; expected one of {list(CI_METHODS)}"
        )
    engine = resolve_mapping_engine(engine)
    if max_samples < 1:
        raise ExperimentError(f"max_samples must be >= 1, got {max_samples}")
    if len(algorithms) == 0:
        raise ExperimentError(
            "adaptive sampling needs at least one algorithm to race"
        )
    loop = adaptive_loop(
        tolerance=tolerance,
        confidence=confidence,
        method=method,
        max_samples=max_samples,
    )
    offset, size = next(loop)
    while True:
        partial = run_mapping_monte_carlo(
            function,
            defect_rate=defect_rate,
            stuck_open_fraction=stuck_open_fraction,
            sample_size=size,
            algorithms=algorithms,
            seed=seed,
            extra_rows=extra_rows,
            extra_columns=extra_columns,
            workers=workers,
            defect_model=defect_model,
            engine=engine,
            sample_offset=offset,
            multilevel=multilevel,
        )
        try:
            offset, size = loop.send(partial)
        except StopIteration as stop:
            return stop.value


def adaptive_loop(
    *,
    tolerance: float | None,
    confidence: float = 0.95,
    method: str = "wilson",
    max_samples: int = DEFAULT_MAX_SAMPLES,
) -> Generator[tuple[int, int], MonteCarloResult, AdaptiveResult]:
    """The batch schedule and stopping rule, apart from how batches run.

    A generator: it yields each batch's global sample range as
    ``(offset, size)``, is sent back the :class:`MonteCarloResult` over
    exactly that range, and returns the :class:`AdaptiveResult` once the
    rule stops.  :func:`run_adaptive_monte_carlo` drives it with
    ``run_mapping_monte_carlo``; the service orchestrator drives it with
    checkpointed chunk waves, so both stop at the same sample count.
    ``tolerance=None`` yields the one batch ``(0, max_samples)`` and
    stops.  The keywords are those of :func:`run_adaptive_monte_carlo`,
    which validates them.
    """
    result: MonteCarloResult | None = None
    batches = 0
    converged = False
    offset = 0
    batch = INITIAL_BATCH if tolerance is not None else max_samples
    while offset < max_samples:
        size = min(batch, max_samples - offset)
        partial = yield offset, size
        if result is None:
            result = partial
        else:
            result.merge(partial)
        offset += size
        batches += 1
        half_width = max(
            yield_estimate(
                outcome.successes,
                outcome.samples,
                confidence=confidence,
                method=method,
            ).half_width
            for outcome in result.outcomes.values()
        )
        if tolerance is None or half_width <= tolerance:
            converged = True
            break
        batch = min(batch * 2, MAX_BATCH)

    assert result is not None  # max_samples >= 1 guarantees one batch
    return AdaptiveResult(
        monte_carlo=result,
        tolerance=tolerance,
        confidence=confidence,
        method=method,
        converged=converged,
        batches=batches,
    )


def analysis_scenario(
    function: FunctionSource | BooleanFunction | str,
    *,
    tolerance: float | None = None,
    samples: int = 200,
    max_samples: int = DEFAULT_MAX_SAMPLES,
    defect_rate: float = 0.10,
    stuck_open_fraction: float = 1.0,
    defect_model: DefectModel | str | dict | None = None,
    algorithms=("hybrid", "exact"),
    confidence: float = 0.95,
    method: str = "wilson",
    seed: int = 0,
    redundancy: tuple[int, int] = (0, 0),
    multilevel: dict | None = None,
    name: str | None = None,
) -> Scenario:
    """One analysis point as the mapping :class:`Scenario` that runs it.

    Every value is spelled the way the paper suites spell theirs, so an
    analysis and a ``repro run`` of the same experiment hash equal and
    share one cached artifact:

    * the name is the circuit's (``name`` overrides it);
    * without a ``defect_model``, the model is ``uniform`` at
      ``defect_rate``, with ``stuck_open_fraction`` only when it is not
      1.0;
    * ``options`` carry ``confidence``, ``ci_method`` and ``multilevel``
      only when they are not at their defaults;
    * the sample count is the budget: ``samples`` for a fixed run,
      ``max_samples`` for an adaptive one (``tolerance`` set).
    """
    source = FunctionSource.coerce(function)
    if defect_model is None:
        params = {"rate": defect_rate}
        if stuck_open_fraction != 1.0:
            params["stuck_open_fraction"] = stuck_open_fraction
        defect_model = create_defect_model("uniform", **params)
    options = {}
    if confidence != 0.95:
        options["confidence"] = confidence
    if method != "wilson":
        options["ci_method"] = method
    if multilevel is not None:
        options["multilevel"] = dict(multilevel)
    return Scenario(
        name=name or source.label(),
        source=source,
        mappers=tuple(algorithms),
        defect_model=resolve_defect_model(defect_model),
        redundancy=(redundancy,),
        samples=samples if tolerance is None else max_samples,
        seed=seed,
        options=options,
        tolerance=tolerance,
    )
