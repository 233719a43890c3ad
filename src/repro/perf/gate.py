"""The perf regression gate: compare a run against its trajectory.

The gate answers one question per suite: *did this run regress against
the recorded history?*  For every gated metric it computes a robust
baseline — the **median** of the last ``window`` recorded values, so one
noisy CI run can neither hide nor fake a regression — and fails when the
fresh value is worse than the baseline by more than the metric's
threshold.

Which metrics are gated, and in which direction, is inferred from their
names (the convention every ``benchmarks/bench_*.py`` collect path
follows):

* ``elapsed_seconds`` and any ``*_seconds`` metric — wall-clock, *lower*
  is better; a run fails when ``current > median * (1 + threshold)``;
* ``speedup``, ``*_speedup`` and ``savings_factor`` — throughput gains,
  *higher* is better; a run fails when
  ``current < median * (1 - threshold)``.

Tolerances are deliberately generous by default (CI machines are noisy);
the gate exists to catch the 1.5–2x cliffs a bad kernel change causes,
not 5 % jitter.  Metrics missing from some history rows are tolerated
(the median uses the rows that have them); a metric with *no* recorded
baseline — the first run of a new suite or a newly added metric —
passes with a ``no-baseline`` verdict instead of failing the build.

One check needs no history, because ``engine="auto"`` picks the
compiled tier wherever it loads: the compiled tier must not be slower
than the NumPy tier.  Wherever a row carries both ``speedup`` (the NumPy
tier) and ``compiled_speedup`` — at the top level and in each
``per_circuit`` entry — it fails when ``compiled_speedup < speedup * (1
- threshold)``, with the speedup threshold.  Per circuit, because a
mean over circuits hides a cliff on one of them; with the threshold,
because tiers that tie (the Boolean tiers differ only in one merge
pass) must not fail on noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median

#: Default regression tolerance for wall-clock metrics (fraction).
DEFAULT_WALL_THRESHOLD = 0.40

#: Default regression tolerance for speedup-style metrics (fraction).
DEFAULT_SPEEDUP_THRESHOLD = 0.40

#: Default number of trailing history rows feeding the median baseline.
DEFAULT_WINDOW = 5

#: Workload-scale keys: a history row only feeds the baseline when it
#: agrees with the fresh run on every one of these keys both carry.
#: Wall-clock scales with the workload, so comparing a ``--samples 30``
#: run against a ``--samples 6`` baseline would fail on scale, not on a
#: regression.  Keys absent from either side don't constrain the match,
#: so pre-existing rows recorded before a knob existed stay comparable.
SCALE_KEYS = (
    "samples",
    "sizes",
    "rows",
    "circuits",
    "families",
    "tolerance",
    "defect_rate",
    "strategy",
    "extra_rows",
    "machine",
)


def comparable_history(
    metrics: dict, history: list[dict], *, keys: tuple = SCALE_KEYS
) -> list[dict]:
    """The history rows recorded at the same workload scale as ``metrics``."""
    return [
        row
        for row in history
        if all(
            row[key] == metrics[key]
            for key in keys
            if key in metrics and key in row
        )
    ]


@dataclass(frozen=True)
class MetricSpec:
    """One gated metric: its name, direction, and tolerance."""

    name: str
    direction: str  # "lower" (wall-clock) or "higher" (speedups)
    threshold: float

    def __post_init__(self) -> None:
        if self.direction not in ("lower", "higher"):
            raise ValueError(
                f"metric {self.name!r}: direction must be 'lower' or "
                f"'higher', got {self.direction!r}"
            )
        if not 0 < self.threshold:
            raise ValueError(
                f"metric {self.name!r}: threshold must be positive, got "
                f"{self.threshold!r}"
            )


def infer_metric_specs(
    metrics: dict,
    *,
    wall_threshold: float = DEFAULT_WALL_THRESHOLD,
    speedup_threshold: float = DEFAULT_SPEEDUP_THRESHOLD,
) -> list[MetricSpec]:
    """Derive the gated metrics of one run row from its metric names.

    Only top-level numeric values participate; nested per-circuit /
    per-size breakdowns are diagnostics, not gates.
    """
    specs = []
    for name in sorted(metrics):
        value = metrics[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if name == "elapsed_seconds" or name.endswith("_seconds"):
            specs.append(MetricSpec(name, "lower", wall_threshold))
        elif (
            name == "speedup"
            or name.endswith("_speedup")
            or name == "savings_factor"
        ):
            specs.append(MetricSpec(name, "higher", speedup_threshold))
    return specs


@dataclass(frozen=True)
class MetricVerdict:
    """The gate's decision on one metric."""

    metric: str
    direction: str
    current: float
    threshold: float
    baseline: float | None  # median of the history window, None = no data
    baseline_count: int  # history rows that carried the metric
    status: str  # "ok", "fail" or "no-baseline"
    #: Set when the baseline is another metric of the same row instead
    #: of the history (the cross-tier check).
    versus: str | None = None

    @property
    def change(self) -> float | None:
        """Relative change vs the baseline (positive = value went up)."""
        if self.baseline is None or self.baseline == 0:
            return None
        return (self.current - self.baseline) / self.baseline

    def describe(self) -> str:
        """One aligned report line."""
        arrow = "↓ better" if self.direction == "lower" else "↑ better"
        if self.baseline is None:
            detail = "no baseline yet"
        elif self.versus is not None:
            detail = (
                f"vs {self.versus} {self.baseline:.4g} of the same row, "
                f"change {self.change:+.1%} (limit -{self.threshold:.0%})"
            )
        else:
            change = self.change
            detail = (
                f"baseline {self.baseline:.4g} (median of "
                f"{self.baseline_count}), change "
                f"{change:+.1%} (limit ±{self.threshold:.0%})"
            )
        mark = {"ok": "ok  ", "fail": "FAIL", "no-baseline": "new "}[self.status]
        return (
            f"  [{mark}] {self.metric:24s} {self.current:10.4g}  "
            f"({arrow}; {detail})"
        )


@dataclass
class GateResult:
    """All verdicts of one suite's comparison."""

    benchmark: str
    window: int
    verdicts: list[MetricVerdict] = field(default_factory=list)

    @property
    def failures(self) -> list[MetricVerdict]:
        """The verdicts that failed the gate."""
        return [v for v in self.verdicts if v.status == "fail"]

    @property
    def passed(self) -> bool:
        """True when no gated metric regressed."""
        return not self.failures

    def render(self) -> str:
        """Readable per-metric report for one suite."""
        header = (
            f"{self.benchmark}: "
            + ("PASS" if self.passed else "REGRESSION")
            + f" ({len(self.verdicts)} metric(s), window {self.window})"
        )
        return "\n".join([header] + [v.describe() for v in self.verdicts])


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def cross_tier_verdicts(metrics: dict, threshold: float) -> list[MetricVerdict]:
    """``compiled_speedup`` against ``speedup`` in the row and per circuit."""
    scopes = [("", metrics)]
    per_circuit = metrics.get("per_circuit")
    if isinstance(per_circuit, dict):
        scopes += [
            (f"per_circuit.{name}.", entry)
            for name, entry in per_circuit.items()
            if isinstance(entry, dict)
        ]
    verdicts = []
    for prefix, scope in scopes:
        compiled, numpy_tier = scope.get("compiled_speedup"), scope.get("speedup")
        if not (_number(compiled) and _number(numpy_tier)):
            continue
        failed = compiled < numpy_tier * (1 - threshold)
        verdicts.append(
            MetricVerdict(
                metric=prefix + "compiled_speedup",
                direction="higher",
                current=float(compiled),
                threshold=threshold,
                baseline=float(numpy_tier),
                baseline_count=1,
                status="fail" if failed else "ok",
                versus="speedup",
            )
        )
    return verdicts


def compare_run(
    metrics: dict,
    history: list[dict],
    *,
    benchmark: str = "",
    window: int = DEFAULT_WINDOW,
    wall_threshold: float = DEFAULT_WALL_THRESHOLD,
    speedup_threshold: float = DEFAULT_SPEEDUP_THRESHOLD,
    specs: list[MetricSpec] | None = None,
    scale_keys: tuple | None = SCALE_KEYS,
) -> GateResult:
    """Gate one fresh run row against its recorded history.

    ``history`` is the trajectory's ``runs`` list (oldest first), *not*
    including the fresh row.  ``window`` caps how far back the baseline
    looks; rows lacking a given metric are skipped for that metric.
    Rows recorded at a different workload scale or on another machine
    (see :func:`comparable_history`) are excluded entirely; pass
    ``scale_keys=None`` to gate against the raw history.  The
    cross-tier check (:func:`cross_tier_verdicts`) runs last, with
    ``speedup_threshold``.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if scale_keys:
        history = comparable_history(metrics, history, keys=scale_keys)
    if specs is None:
        specs = infer_metric_specs(
            metrics,
            wall_threshold=wall_threshold,
            speedup_threshold=speedup_threshold,
        )
    result = GateResult(benchmark=benchmark, window=window)
    for spec in specs:
        current = metrics.get(spec.name)
        if not _number(current):
            continue
        values = [
            row[spec.name] for row in history if _number(row.get(spec.name))
        ][-window:]
        if not values:
            result.verdicts.append(
                MetricVerdict(
                    metric=spec.name,
                    direction=spec.direction,
                    current=float(current),
                    threshold=spec.threshold,
                    baseline=None,
                    baseline_count=0,
                    status="no-baseline",
                )
            )
            continue
        baseline = float(median(values))
        if spec.direction == "lower":
            failed = current > baseline * (1 + spec.threshold)
        else:
            failed = current < baseline * (1 - spec.threshold)
        result.verdicts.append(
            MetricVerdict(
                metric=spec.name,
                direction=spec.direction,
                current=float(current),
                threshold=spec.threshold,
                baseline=baseline,
                baseline_count=len(values),
                status="fail" if failed else "ok",
            )
        )
    result.verdicts += cross_tier_verdicts(metrics, speedup_threshold)
    return result
