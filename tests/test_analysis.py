"""Tests for the adaptive yield-analysis subsystem (repro.analysis).

Covers the CI math (against hand-checked and SciPy-checked values), the
adaptive sampler's determinism guarantees — in particular the
seed-stream property: *an adaptive run that stops after N samples has
identical counting statistics to a fixed-budget run of N samples* — the
yield curve/surface inverse queries, the spare-allocation search, the
Scenario(tolerance=...) wiring, and the `python -m repro analyze` CLI
including the golden-consistency acceptance criterion.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from repro.analysis import (
    AdaptiveResult,
    BinomialInterval,
    SpareSearchResult,
    YieldCurve,
    YieldPoint,
    YieldSurface,
    analysis_scenario,
    compute_yield_curve,
    compute_yield_surface,
    fixed_sample_budget,
    jeffreys_interval,
    optimize_spares,
    run_adaptive_monte_carlo,
    wilson_interval,
    yield_estimate,
)
from repro.analysis.adaptive import adaptive_loop
from repro.analysis.confidence import beta_quantile, regularized_incomplete_beta
from repro.api.runner import run_scenario
from repro.api.scenarios import FunctionSource, Scenario
from repro.circuits import get_benchmark
from repro.cli import main
from repro.exceptions import ExperimentError
from repro.experiments.monte_carlo import MonteCarloResult, run_mapping_monte_carlo

GOLDEN_SEED = 7  # matches tests/golden/paper_numbers.json


# ----------------------------------------------------------------------
# Confidence intervals
# ----------------------------------------------------------------------
class TestWilson:
    def test_known_value(self):
        # 8/10 at 95%: the classic worked example of the Wilson score
        # interval (cross-checked against statsmodels/scipy).
        interval = wilson_interval(8, 10, confidence=0.95)
        assert interval.point == pytest.approx(0.8)
        assert interval.lower == pytest.approx(0.4901625, abs=1e-5)
        assert interval.upper == pytest.approx(0.9433178, abs=1e-5)

    def test_boundary_counts_stay_in_unit_interval(self):
        zero = wilson_interval(0, 20)
        full = wilson_interval(20, 20)
        assert zero.lower == 0.0 and zero.upper < 1.0
        assert full.upper == 1.0 and full.lower > 0.0

    def test_narrows_with_samples_and_widens_with_confidence(self):
        narrow = wilson_interval(80, 100)
        narrower = wilson_interval(800, 1000)
        assert narrower.half_width < narrow.half_width
        assert (
            wilson_interval(80, 100, confidence=0.99).half_width
            > wilson_interval(80, 100, confidence=0.90).half_width
        )

    def test_invalid_counts_and_confidence(self):
        with pytest.raises(ExperimentError):
            wilson_interval(1, 0)
        with pytest.raises(ExperimentError):
            wilson_interval(11, 10)
        with pytest.raises(ExperimentError):
            wilson_interval(-1, 10)
        with pytest.raises(ExperimentError):
            wilson_interval(5, 10, confidence=1.0)

    def test_contains_and_overlaps(self):
        interval = wilson_interval(8, 10)
        assert interval.contains(0.8)
        assert not interval.contains(0.2)
        other = wilson_interval(2, 10)
        assert interval.overlaps(interval)
        assert not interval.overlaps(other) or other.upper >= interval.lower

    def test_round_trip(self):
        interval = wilson_interval(7, 9, confidence=0.9)
        assert BinomialInterval.from_dict(interval.to_dict()) == interval


class TestJeffreys:
    def test_matches_scipy_reference(self):
        # Beta(8.5, 2.5) equal-tailed quantiles (values from
        # scipy.stats.beta.ppf, pinned so the test runs without SciPy).
        interval = jeffreys_interval(8, 10, confidence=0.95)
        assert interval.lower == pytest.approx(0.4972255, abs=1e-6)
        assert interval.upper == pytest.approx(0.9559406, abs=1e-6)

    def test_boundary_conventions(self):
        assert jeffreys_interval(0, 15).lower == 0.0
        assert jeffreys_interval(15, 15).upper == 1.0

    def test_incomplete_beta_identities(self):
        # I_x(a, b) = 1 - I_{1-x}(b, a), and Beta(1,1) is uniform.
        for a, b, x in ((2.5, 7.0, 0.3), (8.5, 2.5, 0.9), (0.5, 0.5, 0.42)):
            assert regularized_incomplete_beta(
                a, b, x
            ) == pytest.approx(1.0 - regularized_incomplete_beta(b, a, 1.0 - x))
        assert regularized_incomplete_beta(1.0, 1.0, 0.37) == pytest.approx(0.37)

    def test_beta_quantile_inverts_cdf(self):
        for q in (0.025, 0.5, 0.975):
            x = beta_quantile(q, 8.5, 2.5)
            assert regularized_incomplete_beta(8.5, 2.5, x) == pytest.approx(
                q, abs=1e-9
            )


class TestYieldEstimate:
    def test_dispatch_and_unknown_method(self):
        assert yield_estimate(8, 10, method="wilson").method == "wilson"
        assert yield_estimate(8, 10, method="jeffreys").method == "jeffreys"
        with pytest.raises(ExperimentError):
            yield_estimate(8, 10, method="wald")

    def test_fixed_sample_budget(self):
        # Worst case p=0.5 at 95%: n = ceil(1.96^2 * 0.25 / tol^2).
        assert fixed_sample_budget(0.005) == 38415
        assert fixed_sample_budget(0.05) == 385
        # Knowing the rate is extreme slashes the budget.
        assert fixed_sample_budget(0.005, rate=0.99) < fixed_sample_budget(0.005)
        with pytest.raises(ExperimentError):
            fixed_sample_budget(0.6)

    def test_monte_carlo_yield_estimate(self):
        function = get_benchmark("misex1")
        result = run_mapping_monte_carlo(
            function, defect_rate=0.10, sample_size=40, seed=3, workers=1
        )
        estimate = result.yield_estimate("hybrid")
        outcome = result.outcome("hybrid")
        assert estimate.point == pytest.approx(outcome.success_rate)
        assert estimate.samples == outcome.samples
        assert estimate.lower <= estimate.point <= estimate.upper
        with pytest.raises(ExperimentError):
            result.yield_estimate()  # two algorithms -> must name one
        single = run_mapping_monte_carlo(
            function,
            defect_rate=0.10,
            sample_size=20,
            algorithms=("hybrid",),
            seed=3,
            workers=1,
        )
        assert single.yield_estimate().point == pytest.approx(
            single.outcome("hybrid").success_rate
        )


# ----------------------------------------------------------------------
# Sample offsets and result merging (the adaptive substrate)
# ----------------------------------------------------------------------
class TestSampleOffset:
    def test_offset_slices_reproduce_the_fixed_run(self):
        function = get_benchmark("rd53")
        full = run_mapping_monte_carlo(
            function, defect_rate=0.10, sample_size=96, seed=GOLDEN_SEED, workers=1
        )
        first = run_mapping_monte_carlo(
            function, defect_rate=0.10, sample_size=40, seed=GOLDEN_SEED, workers=1
        )
        rest = run_mapping_monte_carlo(
            function,
            defect_rate=0.10,
            sample_size=56,
            seed=GOLDEN_SEED,
            workers=1,
            sample_offset=40,
        )
        first.merge(rest)
        assert first.counting_statistics() == full.counting_statistics()
        assert first.sample_size == full.sample_size

    def test_negative_offset_rejected(self):
        with pytest.raises(ExperimentError):
            run_mapping_monte_carlo(
                get_benchmark("rd53"), sample_size=1, sample_offset=-1
            )

    def test_merge_rejects_mismatched_experiments(self):
        rd53 = run_mapping_monte_carlo(
            get_benchmark("rd53"), sample_size=8, seed=1, workers=1
        )
        misex1 = run_mapping_monte_carlo(
            get_benchmark("misex1"), sample_size=8, seed=1, workers=1
        )
        with pytest.raises(ExperimentError):
            rd53.merge(misex1)
        other_model = run_mapping_monte_carlo(
            get_benchmark("rd53"), defect_rate=0.05, sample_size=8, seed=1, workers=1
        )
        with pytest.raises(ExperimentError):
            rd53.merge(other_model)
        reference = run_mapping_monte_carlo(
            get_benchmark("rd53"),
            sample_size=8,
            seed=1,
            workers=1,
            engine="reference",
        )
        with pytest.raises(ExperimentError):
            rd53.merge(reference)


# ----------------------------------------------------------------------
# The adaptive sampler
# ----------------------------------------------------------------------
def drive_loop(function, *, seed: int, workers: int = 1, **loop_options):
    """Drive ``adaptive_loop`` as ``run_adaptive_monte_carlo`` does.

    Returns the ``(offset, size)`` pairs the loop yielded and the
    :class:`AdaptiveResult` it returned.
    """
    loop = adaptive_loop(**loop_options)
    pairs = [next(loop)]
    while True:
        offset, size = pairs[-1]
        partial = run_mapping_monte_carlo(
            function,
            sample_size=size,
            sample_offset=offset,
            seed=seed,
            workers=workers,
        )
        try:
            pairs.append(loop.send(partial))
        except StopIteration as stop:
            return pairs, stop.value


class TestAdaptiveSampler:
    def test_converges_below_tolerance(self):
        function = get_benchmark("misex1")
        adaptive = run_adaptive_monte_carlo(
            function,
            tolerance=0.02,
            seed=GOLDEN_SEED,
            workers=1,
        )
        assert adaptive.converged
        assert adaptive.half_width() <= 0.02
        pairs, looped = drive_loop(function, seed=GOLDEN_SEED, tolerance=0.02)
        assert adaptive.batches == looped.batches == len(pairs)
        assert (
            adaptive.monte_carlo.counting_statistics()
            == looped.monte_carlo.counting_statistics()
        )
        # The batch schedule is the documented geometric ramp over
        # contiguous global sample ranges.
        sizes = [size for _, size in pairs]
        assert [offset for offset, _ in pairs] == [
            sum(sizes[:index]) for index in range(len(sizes))
        ]
        assert adaptive.samples_used == sum(sizes)
        assert sizes[0] == 64
        for previous, current in zip(sizes, sizes[1:-1]):
            assert current == previous * 2

    def test_seed_stream_property(self):
        """Early stop never changes the per-sample seed stream.

        The satellite property: an adaptive run that stopped after N
        samples must have *identical* counting statistics to a
        fixed-budget run of sample_size=N with the same seed — the
        tolerance trigger only truncates the stream, never re-draws it.
        """
        function = get_benchmark("rd53")
        adaptive = run_adaptive_monte_carlo(
            function, tolerance=0.03, seed=GOLDEN_SEED, workers=1
        )
        assert adaptive.converged
        fixed = run_mapping_monte_carlo(
            function,
            defect_rate=0.10,
            sample_size=adaptive.samples_used,
            seed=GOLDEN_SEED,
            workers=1,
        )
        assert (
            adaptive.monte_carlo.counting_statistics()
            == fixed.counting_statistics()
        )

    def test_worker_count_invariance(self):
        """Workers change wall-clock only: same samples drawn, same counts."""
        function = get_benchmark("rd53")
        serial = run_adaptive_monte_carlo(
            function, tolerance=0.04, seed=11, workers=1
        )
        parallel = run_adaptive_monte_carlo(
            function, tolerance=0.04, seed=11, workers=2
        )
        assert serial.samples_used == parallel.samples_used
        assert (
            serial.monte_carlo.counting_statistics()
            == parallel.monte_carlo.counting_statistics()
        )
        serial_pairs, _ = drive_loop(function, seed=11, tolerance=0.04)
        parallel_pairs, _ = drive_loop(
            function, seed=11, workers=2, tolerance=0.04
        )
        assert serial_pairs == parallel_pairs
        assert serial.batches == parallel.batches == len(serial_pairs)

    def test_engine_invariance(self):
        function = get_benchmark("misex1")
        vectorized = run_adaptive_monte_carlo(
            function, tolerance=0.04, seed=5, workers=1, engine="vectorized"
        )
        reference = run_adaptive_monte_carlo(
            function, tolerance=0.04, seed=5, workers=1, engine="reference"
        )
        assert vectorized.samples_used == reference.samples_used
        assert (
            vectorized.monte_carlo.counting_statistics()
            == reference.monte_carlo.counting_statistics()
        )

    def test_budget_exhaustion_flags_non_convergence(self):
        adaptive = run_adaptive_monte_carlo(
            get_benchmark("rd53"),
            tolerance=0.001,
            seed=1,
            workers=1,
            max_samples=100,
        )
        assert not adaptive.converged
        assert adaptive.samples_used == 100

    def test_parameter_validation(self):
        function = get_benchmark("misex1")
        for kwargs in (
            {"tolerance": 0.6},
            {"tolerance": 0.01, "method": "wald"},
            {"tolerance": 0.01, "engine": "warp"},
            {"tolerance": 0.01, "max_samples": 0},
            {"tolerance": 0.01, "algorithms": ()},
        ):
            with pytest.raises(ExperimentError):
                run_adaptive_monte_carlo(function, **kwargs)

    def test_budget_below_min_samples_clamps_the_floor(self):
        # A budget below the first batch must run to its ceiling in one
        # batch and report non-convergence.
        adaptive = run_adaptive_monte_carlo(
            get_benchmark("rd53"),
            tolerance=0.001,
            seed=1,
            workers=1,
            max_samples=20,
        )
        assert adaptive.samples_used == 20
        assert not adaptive.converged

    def test_round_trip(self):
        adaptive = run_adaptive_monte_carlo(
            get_benchmark("misex1"), tolerance=0.05, seed=3, workers=1
        )
        rebuilt = AdaptiveResult.from_dict(adaptive.to_dict())
        assert rebuilt.to_dict() == adaptive.to_dict()
        assert rebuilt.samples_used == adaptive.samples_used
        assert "converged" in adaptive.summary()

    def test_fixed_budget_is_one_batch(self):
        function = get_benchmark("rd53")
        fixed = run_adaptive_monte_carlo(
            function, tolerance=None, seed=GOLDEN_SEED, workers=1,
            max_samples=150,
        )
        assert fixed.converged and fixed.tolerance is None
        pairs, _ = drive_loop(
            function, seed=GOLDEN_SEED, tolerance=None, max_samples=150
        )
        assert pairs == [(0, 150)]
        assert fixed.batches == 1
        direct = run_mapping_monte_carlo(
            function, sample_size=150, seed=GOLDEN_SEED, workers=1
        )
        assert (
            fixed.monte_carlo.counting_statistics()
            == direct.counting_statistics()
        )
        assert "fixed budget" in fixed.summary()
        rebuilt = AdaptiveResult.from_dict(fixed.to_dict())
        assert rebuilt.to_dict() == fixed.to_dict()


# ----------------------------------------------------------------------
# Yield curves and surfaces
# ----------------------------------------------------------------------
def _synthetic_curve(points) -> YieldCurve:
    return YieldCurve(
        function_name="synthetic",
        algorithms=("hybrid",),
        confidence=0.95,
        method="wilson",
        tolerance=None,
        points=[
            YieldPoint(
                defect_rate=rate,
                estimates={"hybrid": wilson_interval(int(p * 100), 100)},
                samples=100,
                converged=True,
            )
            for rate, p in points
        ],
    )


class TestYieldCurve:
    def test_threshold_interpolation(self):
        curve = _synthetic_curve([(0.05, 1.0), (0.10, 0.9), (0.20, 0.5)])
        # Crossing between 0.10 (90%) and 0.20 (50%): 80% sits 1/4 in.
        assert curve.defect_rate_at_yield(0.8, "hybrid") == pytest.approx(0.125)
        # Exactly at a knot.
        assert curve.defect_rate_at_yield(0.9, "hybrid") == pytest.approx(0.10)
        # Met everywhere -> the largest swept rate.
        assert curve.defect_rate_at_yield(0.5, "hybrid") == pytest.approx(0.20)
        # Not met even at the smallest swept rate -> None.
        below = _synthetic_curve([(0.05, 0.98), (0.10, 0.9)])
        assert below.defect_rate_at_yield(0.999, "hybrid") is None
        with pytest.raises(ExperimentError):
            curve.defect_rate_at_yield(1.5, "hybrid")
        with pytest.raises(ExperimentError):
            curve.defect_rate_at_yield(0.8, "nonesuch")

    def test_noisy_curve_returns_largest_tolerable_rate(self):
        # Monte-Carlo noise around a flat true yield: the dip at 0.05
        # must not mask that the largest swept rate still meets the
        # target.
        noisy = _synthetic_curve([(0.02, 0.95), (0.05, 0.85), (0.10, 0.95)])
        assert noisy.defect_rate_at_yield(0.9, "hybrid") == pytest.approx(0.10)
        # When the tail genuinely collapses, the highest crossing wins.
        tail = _synthetic_curve(
            [(0.02, 0.95), (0.05, 0.85), (0.10, 0.95), (0.20, 0.5)]
        )
        assert tail.defect_rate_at_yield(0.9, "hybrid") == pytest.approx(
            0.10 + (0.95 - 0.9) / (0.95 - 0.5) * 0.10
        )

    def test_flat_segment_crosses_at_its_right_edge(self):
        # Yield holds the target through [0.05, 0.10] then collapses:
        # the largest rate still meeting it is the flat segment's end.
        curve = _synthetic_curve([(0.05, 0.9), (0.10, 0.9), (0.20, 0.1)])
        assert curve.defect_rate_at_yield(0.9, "hybrid") == pytest.approx(0.10)

    def test_points_sorted_and_lookup(self):
        curve = _synthetic_curve([(0.20, 0.5), (0.05, 1.0)])
        assert curve.rates() == [0.05, 0.20]
        assert curve.point_at(0.05).estimates["hybrid"].point == 1.0
        with pytest.raises(ExperimentError):
            curve.point_at(0.42)

    def test_compute_fixed_budget(self):
        curve = compute_yield_curve(
            "misex1",
            rates=(0.0, 0.10),
            samples=24,
            seed=GOLDEN_SEED,
            workers=1,
        )
        assert curve.rates() == [0.0, 0.10]
        point = curve.point_at(0.0)
        assert point.samples == 24
        # A defect-free crossbar always maps.
        assert point.estimates["hybrid"].point == 1.0
        assert point.naive_survival == pytest.approx(1.0)
        assert "yield[hybrid]" in curve.render()
        rebuilt = YieldCurve.from_dict(curve.to_dict())
        assert rebuilt.to_dict() == curve.to_dict()

    def test_compute_validations(self):
        with pytest.raises(ExperimentError):
            compute_yield_curve("misex1", rates=())

    def test_rates_deduplicated_and_sorted(self):
        curve = compute_yield_curve(
            "misex1",
            rates=(0.10, 0.0, 0.10),
            samples=8,
            seed=1,
            workers=1,
        )
        assert curve.rates() == [0.0, 0.10]

    def test_naive_baseline_omitted_for_stuck_closed_mixes(self):
        # The closed form is stuck-open-only; with stuck-closed defects
        # in the mix the column must disappear, not overstate survival.
        curve = compute_yield_curve(
            "misex1",
            rates=(0.05,),
            samples=8,
            seed=1,
            workers=1,
            stuck_open_fraction=0.9,
        )
        assert curve.point_at(0.05).naive_survival is None
        assert "naive" not in curve.render()

    def test_surface_minimum_area_level(self):
        surface = compute_yield_surface(
            "rd53",
            rates=(0.05,),
            redundancy_levels=((0, 0), (0, 1)),
            samples=30,
            seed=5,
            workers=1,
            stuck_open_fraction=0.95,
        )
        assert surface.redundancy_levels() == [(0, 0), (0, 1)]
        level = surface.redundancy_for_yield(
            0.5, defect_rate=0.05, algorithm="hybrid"
        )
        assert level in ((0, 0), (0, 1), None)
        if level is not None:
            # Whatever level is returned must actually meet the target.
            curve = surface.curve_at(level)
            assert curve.estimate(0.05, "hybrid").point >= 0.5
        rebuilt = YieldSurface.from_dict(surface.to_dict())
        assert rebuilt.to_dict() == surface.to_dict()
        with pytest.raises(ExperimentError):
            surface.curve_at((9, 9))
        with pytest.raises(ExperimentError):
            compute_yield_surface("rd53", rates=(0.05,), redundancy_levels=())


# ----------------------------------------------------------------------
# Spare-allocation search
# ----------------------------------------------------------------------
class TestOptimizeSpares:
    def test_finds_minimum_area_allocation(self):
        result = optimize_spares(
            "rd53",
            target_yield=0.9,
            defect_rate=0.05,
            stuck_open_fraction=0.98,
            max_extra_rows=4,
            max_extra_columns=4,
            samples=60,
            seed=5,
            workers=1,
        )
        assert result.best is not None
        assert result.best.meets_target
        assert result.best.estimate.point >= 0.9
        # Area-ascending scan: everything evaluated before the winner
        # has at most its area and missed the target.
        for candidate in result.evaluated[:-1]:
            assert candidate.area <= result.best.area
            assert not candidate.meets_target
        assert result.skipped == 25 - len(result.evaluated)
        assert "chosen" in result.render()
        assert "extra area" in result.summary()
        rebuilt = SpareSearchResult.from_dict(result.to_dict())
        assert rebuilt.to_dict() == result.to_dict()

    def test_reports_failure_when_grid_cannot_reach_target(self):
        result = optimize_spares(
            "rd53",
            target_yield=0.99,
            defect_rate=0.10,
            stuck_open_fraction=0.9,
            max_extra_rows=1,
            max_extra_columns=1,
            samples=30,
            seed=5,
            workers=1,
        )
        assert result.best is None
        assert len(result.evaluated) == 4
        assert result.skipped == 0
        assert "no allocation" in result.summary()

    def test_validations(self):
        with pytest.raises(ExperimentError):
            optimize_spares("rd53", target_yield=0.0)
        with pytest.raises(ExperimentError):
            optimize_spares("rd53", target_yield=0.9, criterion="middle")
        with pytest.raises(ExperimentError):
            optimize_spares("rd53", target_yield=0.9, max_extra_rows=-1)

    def test_lower_bound_criterion_is_stricter(self):
        point = optimize_spares(
            "rd53",
            target_yield=0.8,
            defect_rate=0.05,
            stuck_open_fraction=0.98,
            max_extra_rows=2,
            max_extra_columns=2,
            samples=40,
            seed=5,
            workers=1,
            criterion="point",
        )
        lower = optimize_spares(
            "rd53",
            target_yield=0.8,
            defect_rate=0.05,
            stuck_open_fraction=0.98,
            max_extra_rows=2,
            max_extra_columns=2,
            samples=40,
            seed=5,
            workers=1,
            criterion="lower",
        )
        if point.best is not None and lower.best is not None:
            assert lower.best.area >= point.best.area


# ----------------------------------------------------------------------
# Scenario(tolerance=...) wiring
# ----------------------------------------------------------------------
class TestScenarioTolerance:
    def _scenario(self, **kwargs) -> Scenario:
        defaults = dict(
            name="adaptive-misex1",
            source=FunctionSource.benchmark("misex1"),
            samples=5000,
            seed=GOLDEN_SEED,
            tolerance=0.03,
        )
        defaults.update(kwargs)
        return Scenario(**defaults)

    def test_round_trip_and_hash_stability(self):
        scenario = self._scenario()
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert rebuilt == scenario
        assert rebuilt.content_hash() == scenario.content_hash()
        # A fixed-budget spec serializes without the key at all, so
        # pre-existing artifact hashes are unchanged by the extension.
        fixed = self._scenario(tolerance=None)
        assert "tolerance" not in fixed.to_dict()
        assert fixed.content_hash() != scenario.content_hash()
        assert "adaptive to" in scenario.describe()

    def test_validation(self):
        with pytest.raises(ExperimentError):
            self._scenario(tolerance=0.7)
        # A fixed scenario runs the same loop, so its CI options are
        # checked the way an adaptive scenario's are.
        fixed = self._scenario(
            tolerance=None, samples=8, options={"ci_method": "wald"}
        )
        with pytest.raises(ExperimentError, match="wald"):
            run_scenario(fixed, workers=1)
        with pytest.raises(ExperimentError):
            Scenario(
                name="area-tol",
                source=FunctionSource.random(4),
                protocol="area",
                tolerance=0.01,
            )

    def test_overrides(self):
        fixed = self._scenario(tolerance=None)
        assert fixed.with_overrides(tolerance=0.02).tolerance == 0.02
        area = Scenario(
            name="area", source=FunctionSource.random(4), protocol="area"
        )
        # Suite-wide overrides must not trip over area members.
        assert area.with_overrides(tolerance=0.02).tolerance is None

    def test_runner_adaptive_path(self):
        result = run_scenario(self._scenario(), workers=1)
        (row,) = result.rows
        adaptive = row["adaptive"]
        assert adaptive["converged"]
        assert adaptive["half_width"] <= 0.03
        assert adaptive["samples_used"] == row["monte_carlo"]["sample_size"]
        assert adaptive["samples_used"] < 5000
        # The projection stays worker-invariant and wall-clock-free.
        stats = result.counting_statistics()
        assert stats["rows"][0]["outcomes"]["hybrid"]["samples"] == (
            adaptive["samples_used"]
        )

    def test_runner_adaptive_worker_invariance(self):
        serial = run_scenario(self._scenario(), workers=1)
        parallel = run_scenario(self._scenario(), workers=2)
        assert serial.counting_statistics() == parallel.counting_statistics()


# ----------------------------------------------------------------------
# The acceptance criterion: analyze curve vs the golden Table II pins
# ----------------------------------------------------------------------
def load_golden_outcomes(name: str) -> dict:
    from test_golden_regression import GOLDEN_PATH

    payload = json.loads(GOLDEN_PATH.read_text())
    return payload["scenarios"][name]["rows"][0]["outcomes"]


class TestGoldenConsistency:
    """`analyze curve --tolerance 0.005` vs the golden Table II rates.

    The golden file pins 10-sample counting statistics (seed 7), so its
    success-rate point estimates carry ~±20 pp of binomial uncertainty;
    the statistically meaningful containment check is therefore against
    the golden counts' own Wilson interval: the adaptive curve's CI
    must be consistent with (overlap) it, and where the golden rate is
    exactly 1.0 with the reproduction agreeing (misex1), the curve's
    Wilson CI contains the golden rate outright.
    """

    @pytest.fixture(scope="class")
    def curve(self, tmp_path_factory) -> YieldCurve:
        store = tmp_path_factory.mktemp("analyze") / "artifacts.jsonl"
        out = io.StringIO()
        # Drive the real CLI so the acceptance command line is what is
        # tested; read the curve from its --json output.
        with contextlib.redirect_stdout(out):
            assert (
                main(
                    [
                        "analyze",
                        "curve",
                        "--circuit",
                        "misex1",
                        "--rates",
                        "0.1",
                        "--tolerance",
                        "0.005",
                        "--seed",
                        str(GOLDEN_SEED),
                        "--workers",
                        "1",
                        "--jsonl",
                        str(store),
                        "--json",
                    ]
                )
                == 0
            )
        payload = json.loads(out.getvalue())
        assert payload["kind"] == "yield_curve"
        return YieldCurve.from_dict(payload["result"])

    def test_reaches_half_width_with_fewer_samples_than_fixed_budget(
        self, curve
    ):
        point = curve.point_at(0.1)
        assert point.converged
        budget = fixed_sample_budget(0.005)  # 38,415 a-priori samples
        assert point.samples < budget / 10  # "measurably fewer"
        for estimate in point.estimates.values():
            assert estimate.half_width <= 0.005

    def test_wilson_cis_consistent_with_golden_table2(self, curve):
        golden = load_golden_outcomes("misex1")
        point = curve.point_at(0.1)
        for algorithm in ("hybrid", "exact"):
            counts = golden[algorithm]
            golden_rate = counts["successes"] / counts["samples"]
            golden_interval = wilson_interval(
                counts["successes"], counts["samples"]
            )
            estimate = point.estimates[algorithm]
            # Consistency: the tight adaptive CI must overlap the CI of
            # the golden-pinned counts...
            assert estimate.overlaps(golden_interval)
            # ...and misex1's golden rate (1.0, matching the paper's
            # 100 %) is contained outright.
            assert estimate.contains(golden_rate)

    def test_rd53_consistent_with_golden_at_looser_tolerance(self):
        adaptive = run_adaptive_monte_carlo(
            get_benchmark("rd53"),
            tolerance=0.02,
            seed=GOLDEN_SEED,
            workers=1,
        )
        assert adaptive.converged
        golden = load_golden_outcomes("rd53")
        for algorithm in ("hybrid", "exact"):
            counts = golden[algorithm]
            golden_interval = wilson_interval(
                counts["successes"], counts["samples"]
            )
            assert adaptive.estimate(algorithm).overlaps(golden_interval)


# ----------------------------------------------------------------------
# The analyze CLI (modes, caching, artifacts)
# ----------------------------------------------------------------------
class TestAnalyzeCli:
    def test_help_lists_analyze(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "analyze" in capsys.readouterr().out

    def test_yield_mode_and_cache(self, tmp_path, capsys):
        store = tmp_path / "a.jsonl"
        args = [
            "analyze",
            "yield",
            "--circuit",
            "misex1",
            "--tolerance",
            "0.05",
            "--workers",
            "1",
            "--jsonl",
            str(store),
        ]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "computed" in captured.err
        assert "converged" in captured.out
        assert main(args) == 0
        assert "cached" in capsys.readouterr().err

    def test_force_recomputes(self, tmp_path, capsys):
        store = tmp_path / "a.jsonl"
        args = [
            "analyze",
            "yield",
            "--circuit",
            "misex1",
            "--tolerance",
            "0.05",
            "--workers",
            "1",
            "--jsonl",
            str(store),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--force"]) == 0
        assert "computed" in capsys.readouterr().err

    def test_spares_mode_json(self, tmp_path, capsys):
        assert (
            main(
                [
                    "analyze",
                    "spares",
                    "--circuit",
                    "rd53",
                    "--rate",
                    "0.05",
                    "--stuck-open-fraction",
                    "0.98",
                    "--samples",
                    "40",
                    "--max-rows",
                    "2",
                    "--max-cols",
                    "2",
                    "--seed",
                    "5",
                    "--workers",
                    "1",
                    "--jsonl",
                    str(tmp_path / "a.jsonl"),
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "spare_search"
        result = SpareSearchResult.from_dict(payload["result"])
        assert result.target_yield == 0.9

    def test_curve_at_yield_report(self, tmp_path, capsys):
        assert (
            main(
                [
                    "analyze",
                    "curve",
                    "--circuit",
                    "misex1",
                    "--rates",
                    "0.0,0.1",
                    "--samples",
                    "20",
                    "--workers",
                    "1",
                    "--jsonl",
                    str(tmp_path / "a.jsonl"),
                    "--at-yield",
                    "0.5",
                ]
            )
            == 0
        )
        assert "defect rate at 50.0% yield" in capsys.readouterr().out

    def test_mode_specific_flags_rejected_in_other_modes(self, tmp_path, capsys):
        store = str(tmp_path / "a.jsonl")
        for argv in (
            ["analyze", "curve", "--redundancy", "2,2"],
            ["analyze", "curve", "--rate", "0.2"],
            ["analyze", "yield", "--rates", "0.1,0.2"],
            ["analyze", "yield", "--target-yield", "0.9"],
            ["analyze", "spares", "--at-yield", "0.9"],
            ["analyze", "yield", "--max-rows", "2"],
            ["analyze", "yield", "--algorithms", ","],
            ["analyze", "spares", "--algorithms", "hybrid,exact"],
        ):
            assert main(argv + ["--jsonl", store]) == 2
            err = capsys.readouterr().err
            assert "error:" in err and "only applies" in err or "--algorithms" in err

    def test_inert_sampling_flags_rejected(self, tmp_path, capsys):
        store = str(tmp_path / "a.jsonl")
        # --samples is never read by an adaptive run...
        assert (
            main(
                ["analyze", "yield", "--samples", "5000", "--jsonl", store]
            )
            == 2
        )
        assert "--max-samples instead" in capsys.readouterr().err
        # ...and --max-samples never by a fixed-budget one.
        assert (
            main(
                ["analyze", "curve", "--max-samples", "99", "--jsonl", store]
            )
            == 2
        )
        assert "--tolerance" in capsys.readouterr().err

    def test_curve_rates_order_does_not_bust_the_cache(self, tmp_path, capsys):
        store = str(tmp_path / "a.jsonl")
        base = ["analyze", "curve", "--samples", "8", "--workers", "1",
                "--jsonl", store]
        assert main(base + ["--rates", "0.1,0.05"]) == 0
        capsys.readouterr()
        assert main(base + ["--rates", "0.05,0.1"]) == 0
        assert "cached" in capsys.readouterr().err

    def test_bad_rates_exit_cleanly(self, tmp_path, capsys):
        assert (
            main(
                [
                    "analyze",
                    "curve",
                    "--rates",
                    "abc",
                    "--jsonl",
                    str(tmp_path / "a.jsonl"),
                ]
            )
            == 2
        )
        assert "error:" in capsys.readouterr().err

    def test_bad_redundancy_exit_cleanly(self, tmp_path, capsys):
        for bad in ("1", "1,2,3", "a,b", "-2,-2"):
            assert (
                main(
                    [
                        "analyze",
                        "yield",
                        f"--redundancy={bad}",
                        "--jsonl",
                        str(tmp_path / "a.jsonl"),
                    ]
                )
                == 2
            )
            assert "error:" in capsys.readouterr().err

    def test_run_tolerance_override(self, tmp_path, capsys):
        assert (
            main(
                [
                    "run",
                    "misex1",
                    "--samples",
                    "5000",
                    "--tolerance",
                    "0.05",
                    "--workers",
                    "1",
                    "--jsonl",
                    str(tmp_path / "r.jsonl"),
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        row = payload["results"][0]["rows"][0]
        assert row["adaptive"]["converged"]
        assert row["adaptive"]["samples_used"] < 5000


# ----------------------------------------------------------------------
# One cache: every analysis point is a scenario in the artifact store
# ----------------------------------------------------------------------
def stored_kinds(store) -> list[str]:
    return [json.loads(line)["kind"] for line in store.read_text().splitlines()]


class TestAnalysisScenarios:
    def test_yield_scenario_is_the_run_scenario(self):
        from repro.cli import resolve_target

        (run,) = resolve_target("misex1").with_overrides(
            samples=2000, tolerance=0.05
        )
        built = analysis_scenario("misex1", tolerance=0.05, max_samples=2000)
        assert built == run
        assert built.content_hash() == run.content_hash()

    def test_spelling_follows_the_paper_suites(self):
        plain = analysis_scenario("rd53", samples=40, defect_rate=0.05)
        assert plain.defect_model.to_dict() == {
            "name": "uniform",
            "params": {"rate": 0.05},
        }
        assert plain.options == {} and plain.samples == 40
        mixed = analysis_scenario(
            "rd53",
            tolerance=0.02,
            samples=40,
            max_samples=900,
            stuck_open_fraction=0.9,
            confidence=0.9,
            method="jeffreys",
            multilevel={"strategy": "best"},
        )
        assert mixed.defect_model.params["stuck_open_fraction"] == 0.9
        assert mixed.options == {
            "confidence": 0.9,
            "ci_method": "jeffreys",
            "multilevel": {"strategy": "best"},
        }
        assert mixed.samples == 900

    def test_run_then_analyze_yield_is_one_cache_entry(self, tmp_path, capsys):
        store = tmp_path / "a.jsonl"
        common = ["--workers", "1", "--jsonl", str(store), "--json"]
        assert (
            main(["run", "misex1", "--samples", "2000", "--tolerance", "0.05"]
                 + common)
            == 0
        )
        (row,) = json.loads(capsys.readouterr().out)["results"][0]["rows"]
        stored = store.read_bytes()
        assert (
            main(["analyze", "yield", "--circuit", "misex1", "--tolerance",
                  "0.05", "--max-samples", "2000"] + common)
            == 0
        )
        captured = capsys.readouterr()
        assert "yield analysis of misex1: cached" in captured.err
        assert store.read_bytes() == stored
        result = AdaptiveResult.from_dict(json.loads(captured.out)["result"])
        assert (
            result.monte_carlo.counting_statistics()
            == MonteCarloResult.from_dict(
                row["monte_carlo"]
            ).counting_statistics()
        )
        assert result.batches == row["adaptive"]["batches"]

    def test_retargeted_spare_search_reuses_its_candidates(
        self, tmp_path, capsys
    ):
        store = tmp_path / "a.jsonl"
        base = ["analyze", "spares", "--circuit", "rd53", "--rate", "0.05",
                "--stuck-open-fraction", "0.98", "--samples", "40",
                "--max-rows", "2", "--max-cols", "2", "--workers", "1",
                "--jsonl", str(store), "--json"]
        assert main(base + ["--target-yield", "0.8"]) == 0
        first = SpareSearchResult.from_dict(
            json.loads(capsys.readouterr().out)["result"]
        )
        assert stored_kinds(store).count("begin") == len(first.evaluated)
        assert main(base + ["--target-yield", "0.9"]) == 0
        captured = capsys.readouterr()
        second = SpareSearchResult.from_dict(json.loads(captured.out)["result"])
        assert "computed" in captured.err
        assert len(second.evaluated) > len(first.evaluated) >= 2
        # Only the candidates the first search never reached ran.
        assert stored_kinds(store).count("begin") == len(second.evaluated)
        assert [c.estimate for c in second.evaluated[: len(first.evaluated)]] == [
            c.estimate for c in first.evaluated
        ]
        # The same search again runs nothing.
        stored = store.read_bytes()
        assert main(base + ["--target-yield", "0.9"]) == 0
        assert "cached" in capsys.readouterr().err
        assert store.read_bytes() == stored

    def test_close_rates_are_distinct_points(self, tmp_path, capsys):
        assert (
            main(["analyze", "curve", "--rates", "0.1,0.1000001", "--samples",
                  "8", "--workers", "1", "--jsonl", str(tmp_path / "a.jsonl"),
                  "--json"])
            == 0
        )
        points = json.loads(capsys.readouterr().out)["result"]["points"]
        assert [point["defect_rate"] for point in points] == [0.1, 0.1000001]

    def test_bad_at_yield_runs_nothing(self, tmp_path, capsys):
        store = tmp_path / "a.jsonl"
        assert (
            main(["analyze", "curve", "--rates", "0.1", "--samples", "8",
                  "--at-yield", "2", "--jsonl", str(store)])
            == 2
        )
        err = capsys.readouterr().err
        assert "target yield must lie in (0, 1]" in err
        assert "computed" not in err
        assert not store.exists()

    def test_unknown_mapper_leaves_no_unfinished_block(self, tmp_path, capsys):
        store = tmp_path / "bad.jsonl"
        assert (
            main(["analyze", "yield", "--circuit", "misex1", "--algorithms",
                  "nosuch", "--jsonl", str(store)])
            == 2
        )
        assert "unknown algorithm 'nosuch'" in capsys.readouterr().err
        assert not store.exists() or "begin" not in stored_kinds(store)

    def test_curve_points_are_stored_scenarios(self, tmp_path, capsys):
        store = tmp_path / "a.jsonl"
        assert (
            main(["analyze", "curve", "--rates", "0.05,0.1", "--samples", "8",
                  "--workers", "1", "--jsonl", str(store)])
            == 0
        )
        assert "computed" in capsys.readouterr().err
        assert stored_kinds(store) == ["begin", "row", "end"] * 2
        # A wider sweep computes only its new rate.
        assert (
            main(["analyze", "curve", "--rates", "0.05,0.1,0.15", "--samples",
                  "8", "--workers", "1", "--jsonl", str(store)])
            == 0
        )
        assert "computed" in capsys.readouterr().err
        assert stored_kinds(store) == ["begin", "row", "end"] * 3
