"""Unit tests for the perf-trajectory regression gate.

The acceptance pair the gate exists for: an injected 50 % slowdown must
fail the comparison, and the *real* recorded trajectories shipped in
``benchmarks/results/`` must pass it.  Around that: threshold edges in
both directions, the median baseline with fewer rows than the window,
missing-metric tolerance, the no-baseline first run, workload-scale
matching, atomic trajectory appends, and repo-root commit resolution.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

from repro.perf import (
    append_run,
    comparable_history,
    compare_run,
    git_commit,
    infer_metric_specs,
    load_trajectory,
    machine_fingerprint,
    render_trends,
    trajectory_path,
    trend_table,
    update_experiments,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"


def rows(values, metric="elapsed_seconds", **extra):
    return [{"timestamp": "t", "commit": "c", metric: v, **extra} for v in values]


class TestInferMetricSpecs:
    def test_directions_follow_the_naming_convention(self):
        metrics = {
            "elapsed_seconds": 1.0,
            "object_seconds": 2.0,
            "speedup": 5.0,
            "compiled_speedup": 9.0,
            "savings_factor": 12.0,
            "samples": 30,  # a knob, not a gated metric
            "benchmark": "x",  # non-numeric
            "converged": True,  # bools never gate
            "per_circuit": {"a": 1},  # nested diagnostics
        }
        specs = {s.name: s.direction for s in infer_metric_specs(metrics)}
        assert specs == {
            "elapsed_seconds": "lower",
            "object_seconds": "lower",
            "speedup": "higher",
            "compiled_speedup": "higher",
            "savings_factor": "higher",
        }


class TestCompareRun:
    def test_wall_clock_regression_beyond_threshold_fails(self):
        result = compare_run(
            {"elapsed_seconds": 1.5}, rows([1.0, 1.0, 1.0]), benchmark="b"
        )
        assert not result.passed
        assert result.failures[0].metric == "elapsed_seconds"
        assert result.failures[0].change == pytest.approx(0.5)

    def test_wall_clock_within_threshold_passes(self):
        assert compare_run({"elapsed_seconds": 1.39}, rows([1.0, 1.0, 1.0])).passed

    def test_speedup_loss_beyond_threshold_fails(self):
        result = compare_run(
            {"speedup": 4.0}, rows([10.0, 10.0, 10.0], metric="speedup")
        )
        assert not result.passed

    def test_speedup_loss_within_threshold_passes(self):
        assert compare_run(
            {"speedup": 6.1}, rows([10.0, 10.0, 10.0], metric="speedup")
        ).passed

    def test_custom_threshold(self):
        history = rows([1.0, 1.0, 1.0])
        assert not compare_run(
            {"elapsed_seconds": 1.2}, history, wall_threshold=0.10
        ).passed
        assert compare_run(
            {"elapsed_seconds": 1.2}, history, wall_threshold=0.30
        ).passed

    def test_median_is_robust_to_one_noisy_run(self):
        # One 10x outlier in the window must not move the baseline.
        history = rows([1.0, 1.0, 10.0, 1.0, 1.0])
        result = compare_run({"elapsed_seconds": 1.1}, history)
        assert result.passed
        assert result.verdicts[0].baseline == pytest.approx(1.0)

    def test_median_with_fewer_rows_than_the_window(self):
        result = compare_run({"elapsed_seconds": 1.0}, rows([2.0, 4.0]), window=5)
        assert result.verdicts[0].baseline == pytest.approx(3.0)
        assert result.verdicts[0].baseline_count == 2

    def test_window_caps_the_history(self):
        history = rows([100.0, 100.0, 1.0, 1.0, 1.0])
        result = compare_run({"elapsed_seconds": 1.0}, history, window=3)
        assert result.verdicts[0].baseline == pytest.approx(1.0)

    def test_missing_metric_rows_are_tolerated(self):
        history = rows([1.0, 1.0]) + [{"timestamp": "t", "commit": "c"}]
        result = compare_run({"elapsed_seconds": 1.0}, history)
        assert result.passed
        assert result.verdicts[0].baseline_count == 2

    def test_first_run_has_no_baseline_and_passes(self):
        result = compare_run({"elapsed_seconds": 1.0, "speedup": 5.0}, [])
        assert result.passed
        assert {v.status for v in result.verdicts} == {"no-baseline"}

    def test_new_metric_on_old_history_passes(self):
        history = rows([1.0, 1.0])
        result = compare_run(
            {"elapsed_seconds": 1.0, "compiled_speedup": 3.0}, history
        )
        assert result.passed
        by_name = {v.metric: v.status for v in result.verdicts}
        assert by_name["compiled_speedup"] == "no-baseline"

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="window"):
            compare_run({"elapsed_seconds": 1.0}, [], window=0)


class TestScaleMatching:
    def test_rows_at_a_different_scale_are_excluded(self):
        # A --samples 30 run must not be gated against --samples 6 rows:
        # the wall clock tripled because the workload did, not the code.
        history = rows([0.1, 0.1, 0.1], samples=6)
        current = {"elapsed_seconds": 0.5, "samples": 30}
        assert comparable_history(current, history) == []
        result = compare_run(current, history)
        assert result.passed
        assert result.verdicts[0].status == "no-baseline"

    def test_rows_at_the_same_scale_still_gate(self):
        history = rows([0.1, 0.1], samples=6) + rows([0.5, 0.5], samples=30)
        result = compare_run({"elapsed_seconds": 1.0, "samples": 30}, history)
        assert not result.passed
        assert result.failures[0].baseline == pytest.approx(0.5)

    def test_rows_without_the_key_stay_comparable(self):
        history = rows([1.0, 1.0])  # recorded before the knob existed
        assert len(comparable_history({"samples": 30}, history)) == 2

    def test_rows_from_another_machine_are_excluded(self):
        # CI runners and dev boxes append to the same trajectory; a
        # slower box's rows must not gate a faster one's, nor the reverse.
        history = rows([0.1, 0.1], machine="ci") + rows([0.5, 0.5], machine="dev")
        result = compare_run({"elapsed_seconds": 0.6, "machine": "dev"}, history)
        assert result.passed
        assert result.verdicts[0].baseline == pytest.approx(0.5)
        assert not compare_run(
            {"elapsed_seconds": 0.6, "machine": "ci"}, history
        ).passed

    def test_scale_keys_none_disables_matching(self):
        history = rows([0.1], samples=6)
        result = compare_run(
            {"elapsed_seconds": 0.5, "samples": 30}, history, scale_keys=None
        )
        assert not result.passed


class TestCrossTier:
    """``auto`` runs the compiled tier, so it must not lose to NumPy."""

    def test_compiled_slower_beyond_the_threshold_fails(self):
        result = compare_run({"speedup": 5.0, "compiled_speedup": 2.9}, [])
        assert not result.passed
        (failure,) = result.failures
        assert failure.metric == "compiled_speedup"
        assert failure.versus == "speedup"
        assert failure.baseline == pytest.approx(5.0)
        assert "vs speedup 5 of the same row" in failure.describe()

    def test_ties_within_the_threshold_pass(self):
        for compiled_speedup in (4.9, 5.0, 8.0):
            assert compare_run(
                {"speedup": 5.0, "compiled_speedup": compiled_speedup}, []
            ).passed
        assert not compare_run(
            {"speedup": 5.0, "compiled_speedup": 4.9}, [], speedup_threshold=0.01
        ).passed

    def test_a_cliff_on_one_circuit_fails_despite_the_mean(self):
        # The mean over circuits hides an EA cliff on a large circuit.
        metrics = {
            "speedup": 6.4,
            "compiled_speedup": 9.5,
            "per_circuit": {
                "rd53": {"speedup": 12.1, "compiled_speedup": 27.8},
                "alu4": {"speedup": 5.2, "compiled_speedup": 0.6},
            },
        }
        result = compare_run(metrics, [])
        assert [v.metric for v in result.failures] == [
            "per_circuit.alu4.compiled_speedup"
        ]

    def test_needs_both_tiers(self):
        for metrics in (
            {"speedup": 5.0},
            {"compiled_speedup": 1.0},
            {"speedup": 5.0, "compiled_speedup": None},
            {"per_circuit": {"rd53": {"speedup": 5.0, "reference_seconds": 1.0}}},
        ):
            verdicts = compare_run(metrics, []).verdicts
            assert all(v.versus is None for v in verdicts)


class TestMachineFingerprint:
    def test_names_cores_python_numpy_and_backend(self):
        import platform

        import numpy

        from repro.compiled import compiled_backend

        text = machine_fingerprint()
        assert "nproc " in text
        assert f"python {platform.python_version()}" in text
        assert f"numpy {numpy.__version__}" in text
        assert f"backend {compiled_backend() or 'none'}" in text


class TestRealTrajectories:
    """The acceptance pair, against the actual shipped BENCH files."""

    def trajectories(self):
        paths = sorted(RESULTS_DIR.glob("BENCH_*.json"))
        assert paths, "no recorded trajectories shipped"
        return paths

    def test_every_shipped_trajectory_passes_last_vs_rest(self):
        for path in self.trajectories():
            runs = load_trajectory(path)["runs"]
            assert runs, f"{path.name} has no runs"
            result = compare_run(
                runs[-1], runs[:-1], benchmark=path.stem.removeprefix("BENCH_")
            )
            assert result.passed, f"{path.name}:\n{result.render()}"

    def test_every_shipped_row_names_its_machine(self):
        for path in self.trajectories():
            for row in load_trajectory(path)["runs"]:
                assert isinstance(row.get("machine"), str), path.name

    # The injections below are relative to the shipped history's median
    # baseline, not to its last row: a last row that happened to run
    # fast must not decide whether the gate sees a 50 % slowdown.
    def test_injected_50_percent_slowdown_fails(self):
        runs = load_trajectory(RESULTS_DIR / "BENCH_boolean.json")["runs"]
        clean = compare_run(runs[-1], runs[:-1])
        gated = [
            v for v in clean.verdicts
            if v.status == "ok" and v.direction == "lower"
        ]
        assert gated, "boolean trajectory has no baselined wall-clock metric"
        slowed = dict(runs[-1])
        for verdict in gated:
            slowed[verdict.metric] = verdict.baseline * 1.5
        result = compare_run(slowed, runs[:-1], benchmark="boolean")
        assert not result.passed
        assert {v.metric for v in result.failures} == {v.metric for v in gated}

    def test_injected_speedup_collapse_fails(self):
        runs = load_trajectory(RESULTS_DIR / "BENCH_vectorized.json")["runs"]
        clean = compare_run(runs[-1], runs[:-1])
        (speedup,) = [
            v for v in clean.verdicts if v.metric == "speedup" and v.status == "ok"
        ]
        collapsed = dict(runs[-1])
        collapsed["speedup"] = speedup.baseline / 2.0
        result = compare_run(collapsed, runs[:-1])
        assert any(v.metric == "speedup" for v in result.failures)


class TestTrajectoryFiles:
    def test_append_creates_and_accumulates(self, tmp_path):
        path = trajectory_path(tmp_path, "demo")
        assert path.name == "BENCH_demo.json"
        append_run(path, {"elapsed_seconds": 1.0, "samples": 4}, commit="abc")
        append_run(path, {"elapsed_seconds": 1.1, "samples": 4}, commit="def")
        payload = load_trajectory(path)
        assert payload["benchmark"] == "demo"
        assert [row["commit"] for row in payload["runs"]] == ["abc", "def"]
        assert all("timestamp" in row for row in payload["runs"])

    def test_append_leaves_no_temp_files(self, tmp_path):
        path = trajectory_path(tmp_path, "demo")
        append_run(path, {"elapsed_seconds": 1.0})
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_demo.json"]

    def test_missing_file_is_an_empty_trajectory(self, tmp_path):
        payload = load_trajectory(tmp_path / "BENCH_new.json")
        assert payload == {"benchmark": "new", "runs": []}

    def test_corrupt_file_raises_instead_of_passing_vacuously(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text("{truncated")
        with pytest.raises(ValueError, match="unreadable"):
            load_trajectory(path)
        path.write_text(json.dumps({"runs": "not-a-list"}))
        with pytest.raises(ValueError, match="runs"):
            load_trajectory(path)

    def test_git_commit_resolves_the_repo_root(self):
        head = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True,
        )
        if head.returncode != 0:
            # An exported tree (git archive, an unpacked sdist) has no
            # commit to resolve; the sibling test covers "unknown".
            pytest.skip(f"{REPO_ROOT} is not a git work tree")
        expected = head.stdout.strip()
        assert git_commit(REPO_ROOT) == expected
        # ...and from a subdirectory, the way run_all.py calls it.
        assert git_commit(REPO_ROOT / "benchmarks") == expected

    def test_git_commit_outside_git_is_unknown(self, tmp_path):
        assert git_commit(tmp_path) == "unknown"


class TestTrendReport:
    def test_trend_table_shows_gated_metrics(self):
        payload = {
            "benchmark": "demo",
            "runs": [
                {"timestamp": "2026-08-08T00:00:00+00:00", "commit": "abc",
                 "elapsed_seconds": 1.2345, "speedup": 7.0, "samples": 4},
            ],
        }
        table = trend_table(payload)
        assert "`demo`" in table
        assert "elapsed_seconds" in table and "speedup" in table
        assert "2026-08-08" in table and "`abc`" in table
        assert "1.234" in table

    def test_empty_trajectory_renders_nothing(self):
        assert trend_table({"benchmark": "demo", "runs": []}) == ""

    def test_update_experiments_is_idempotent(self, tmp_path):
        results = tmp_path / "results"
        append_run(
            trajectory_path(results, "demo"),
            {"elapsed_seconds": 1.0, "samples": 4},
            commit="abc",
        )
        experiments = tmp_path / "EXPERIMENTS.md"
        experiments.write_text("# Experiment notes\n\nprose stays\n")
        assert update_experiments(experiments, results)
        text = experiments.read_text()
        assert "prose stays" in text
        assert "perf-trend:begin" in text and "`demo`" in text
        assert not update_experiments(experiments, results)
        # A new row regenerates the block in place, once.
        append_run(
            trajectory_path(results, "demo"),
            {"elapsed_seconds": 1.1, "samples": 4},
            commit="def",
        )
        assert update_experiments(experiments, results)
        assert experiments.read_text().count("perf-trend:begin") == 1

    def test_render_trends_without_results(self, tmp_path):
        assert "No recorded runs" in render_trends(tmp_path)
