"""One-command benchmark runner, trajectory recorder, and regression gate.

Runs the kernel benchmarks at a quick default scale and:

* ``--json`` appends each run's metrics to the per-suite trajectory
  ``benchmarks/results/BENCH_<name>.json`` (atomic append — a crashed
  run never truncates history);
* ``--compare`` gates every suite against the median of its last
  ``--window`` recorded runs and exits non-zero on a wall-clock or
  speedup regression beyond ``--threshold`` (see
  :mod:`repro.perf.gate`); ``--soft`` reports (and annotates on GitHub
  Actions) instead of failing, for non-blocking PR checks;
* ``--report`` re-renders the trend tables in EXPERIMENTS.md.

Typical invocations::

    PYTHONPATH=src python benchmarks/run_all.py --json
    PYTHONPATH=src python benchmarks/run_all.py --json --compare
    PYTHONPATH=src python benchmarks/run_all.py --json --compare --soft
    PYTHONPATH=src python benchmarks/run_all.py --suites boolean corpus
    PYTHONPATH=src python benchmarks/run_all.py --report

Each trajectory file holds ``{"benchmark": ..., "runs": [...]}`` where
every run records its UTC timestamp, the git commit it measured, the
machine it ran on (``machine``: CPU model, cores, Python, NumPy and
compiled backend), the workload parameters and the measured metrics —
performance history is recorded across PRs instead of living in
terminal scrollback, and the gate is what keeps the engine tiers honest
between benchmark PRs.  A row is only gated against rows of the same
machine and workload scale.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"

# Make `import repro` and `import bench_*` work no matter where the
# script is invoked from (repo root, benchmarks/, or an absolute path).
for entry in (str(Path(__file__).resolve().parent), str(REPO_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.perf import (  # noqa: E402  (needs the sys.path bootstrap)
    append_run,
    compare_run,
    git_commit,
    load_trajectory,
    machine_fingerprint,
    trajectory_path,
    update_experiments,
)


def _run_adaptive(samples: int) -> dict:
    from bench_adaptive import collect

    return collect(samples=samples)


def _run_boolean(samples: int) -> dict:
    from bench_boolean import collect

    return collect(samples=samples)


def _run_corpus(samples: int) -> dict:
    from bench_corpus import collect

    return collect(samples=samples)


def _run_multilevel(samples: int) -> dict:
    from bench_multilevel import collect

    return collect(samples=samples)


def _run_vectorized(samples: int) -> dict:
    from bench_vectorized import collect

    return collect(samples=samples)


#: Benchmark name → runner(samples) returning a metrics dict.
SUITES = {
    "adaptive": _run_adaptive,
    "boolean": _run_boolean,
    "corpus": _run_corpus,
    "multilevel": _run_multilevel,
    "vectorized": _run_vectorized,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--suites",
        nargs="+",
        choices=sorted(SUITES),
        default=sorted(SUITES),
        help="benchmarks to run (default: all)",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=30,
        help="samples per benchmark point (default: 30, a quick pass)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="append each run's metrics to benchmarks/results/BENCH_<name>.json",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help=(
            "gate each suite against the median of its recorded "
            "trajectory; exit 1 on regression (unless --soft)"
        ),
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help=(
            "regression tolerance as a fraction (default 0.40, i.e. fail "
            "on >40%% wall-clock slowdown or >40%% speedup loss vs the "
            "baseline median)"
        ),
    )
    parser.add_argument(
        "--window",
        type=int,
        default=5,
        help="trailing runs feeding the median baseline (default: 5)",
    )
    parser.add_argument(
        "--soft",
        action="store_true",
        help=(
            "with --compare: report regressions (and emit GitHub Actions "
            "warning annotations) but exit 0 — for non-blocking PR checks"
        ),
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help=(
            "re-render the trend tables in EXPERIMENTS.md (standalone, or "
            "after the run when combined with --json/--compare)"
        ),
    )
    args = parser.parse_args()

    if args.report and not args.json and not args.compare:
        # Pure report mode: no benchmarks, just re-render the tables.
        changed = update_experiments(REPO_ROOT / "EXPERIMENTS.md", RESULTS_DIR)
        print(
            "EXPERIMENTS.md trend tables "
            + ("updated" if changed else "already current")
        )
        return 0

    commit = git_commit(REPO_ROOT)
    machine = machine_fingerprint()
    gate_failures = []
    kwargs = {}
    if args.threshold is not None:
        kwargs = {
            "wall_threshold": args.threshold,
            "speedup_threshold": args.threshold,
        }
    for name in args.suites:
        print(f"== {name} ==")
        metrics = {**SUITES[name](args.samples), "machine": machine}
        path = trajectory_path(RESULTS_DIR, name)
        if args.compare:
            history = load_trajectory(path, name=name)["runs"]
            result = compare_run(
                metrics,
                history,
                benchmark=name,
                window=args.window,
                **kwargs,
            )
            print(result.render())
            if not result.passed:
                gate_failures.append(result)
        if args.json:
            append_run(path, metrics, commit=commit)
            print(f"recorded run in {path}")

    if args.report:
        changed = update_experiments(REPO_ROOT / "EXPERIMENTS.md", RESULTS_DIR)
        print(
            "EXPERIMENTS.md trend tables "
            + ("updated" if changed else "already current")
        )

    if gate_failures:
        print(
            f"\nperf gate: {len(gate_failures)} suite(s) regressed "
            f"({', '.join(r.benchmark for r in gate_failures)})"
        )
        if os.environ.get("GITHUB_ACTIONS"):
            for result in gate_failures:
                for verdict in result.failures:
                    print(
                        f"::warning title=perf gate ({result.benchmark})::"
                        f"{verdict.describe().strip()}"
                    )
        if not args.soft:
            return 1
        print("perf gate: --soft set, not failing the run")
    elif args.compare:
        print("\nperf gate: all suites within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
