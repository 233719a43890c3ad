"""Performance-trajectory recording, regression gating, and reporting.

``benchmarks/run_all.py`` appends one row per run to
``benchmarks/results/BENCH_<suite>.json``; this package is the library
underneath it — append rows atomically, compare a fresh run against the
robust (median) baseline of the recorded trajectory, fail loudly on
regressions, and render trend tables for EXPERIMENTS.md.  It lives in
``src/repro`` (not ``benchmarks/``) so the gate logic is importable and
unit-testable like any other subsystem.
"""

from repro.perf.gate import (
    SCALE_KEYS,
    GateResult,
    MetricSpec,
    MetricVerdict,
    comparable_history,
    compare_run,
    infer_metric_specs,
)
from repro.perf.report import (
    render_trends,
    trend_table,
    update_experiments,
)
from repro.perf.trajectory import (
    append_run,
    git_commit,
    load_trajectory,
    machine_fingerprint,
    trajectory_path,
)

__all__ = [
    "GateResult",
    "MetricSpec",
    "MetricVerdict",
    "SCALE_KEYS",
    "append_run",
    "comparable_history",
    "compare_run",
    "git_commit",
    "infer_metric_specs",
    "load_trajectory",
    "machine_fingerprint",
    "render_trends",
    "trajectory_path",
    "trend_table",
    "update_experiments",
]
