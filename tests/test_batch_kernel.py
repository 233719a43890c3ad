"""Differential and property-based tests for the vectorized batch kernel.

The vectorized Monte-Carlo engine must be indistinguishable from the
reference object-per-sample path in every counting statistic — not just
in aggregate, but *sample for sample*.  These tests pin that contract:

* the per-sample success/backtracks/invalid arrays of
  :func:`repro.mapping.batch_kernel.map_sample_batch` are compared
  against a literal re-implementation of the reference loop over
  randomized functions, sizes, defect models and seeds;
* the structural screen's rejects are checked against the paper's
  algorithms themselves: every built-in mapper must fail on a rejected
  sample without counting a backtrack, and a rejected sample must never
  get a compatibility tensor;
* engine and worker count must never change
  ``run_mapping_monte_carlo``'s counting statistics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.batch import BatchRunner
from repro.api.defect_models import create_defect_model
from repro.api.seeding import derive_seed
from repro.boolean.random_functions import random_multi_output_function
from repro.circuits import get_benchmark
from repro.compiled import get_kernels
from repro.defects.batch import DefectBatch, repair_spare_columns
from repro.defects.defect_map import DefectMap
from repro.defects.types import Defect, DefectType
from repro.exceptions import DefectError, ExperimentError, MappingError
from repro.experiments.monte_carlo import run_mapping_monte_carlo
from repro.mapping import batch_kernel
from repro.mapping.batch_kernel import (
    DECISION_KERNEL,
    DECISION_REJECT,
    DECISION_REPAIR_DROP,
    map_sample_batch,
    mapper_kind,
)
from repro.mapping.crossbar_matrix import CrossbarMatrix
from repro.mapping.exact import ExactMapper
from repro.mapping.function_matrix import FunctionMatrix
from repro.mapping.hybrid import GreedyMapper, HybridMapper
from repro.mapping.matching import (
    compatibility_matrix,
    compatibility_tensor,
    quick_infeasibility_check,
)
from repro.mapping.result import MappingResult
from repro.mapping.validate import validate_assignment


def reference_per_sample(function, model, rows, columns, mappers, *, seed, start, stop):
    """The reference engine's loop, kept deliberately literal.

    Returns ``{name: [(success, backtracks, invalid), ...]}`` with one
    tuple per sample — the ground truth the kernel arrays must match.
    """
    fm = FunctionMatrix(function)
    required = fm.num_columns
    spare = columns > required
    per_sample = {name: [] for name in mappers}
    for index in range(start, stop):
        defect_map = model.inject(rows, columns, seed=derive_seed(seed, index))
        if spare:
            defect_map = repair_spare_columns(defect_map, required)
            if defect_map is None:
                for name in mappers:
                    per_sample[name].append((False, 0, False))
                continue
        crossbar = CrossbarMatrix(defect_map)
        for name, mapper in mappers.items():
            result = mapper.map(fm, crossbar)
            success = invalid = False
            if result.success:
                if not validate_assignment(fm, crossbar, result):
                    invalid = True
                else:
                    success = True
            per_sample[name].append(
                (success, result.statistics.backtracks, invalid)
            )
    return per_sample


def generate_batch(
    function, model, rows, columns, *, seed, start, stop, engine="vectorized"
):
    """A chunk's defect batch, drawn as the Monte-Carlo runner draws it."""
    return DefectBatch.generate(
        model, rows, columns, seed=seed, start=start, stop=stop,
        required_columns=FunctionMatrix(function).num_columns,
        kernels=get_kernels() if engine == "compiled" else None,
    )


def assert_batch_matches_reference(batch_result, reference):
    """Sample-for-sample comparison of kernel arrays vs the serial loop."""
    for name, triples in reference.items():
        outcome = batch_result.outcomes[name]
        ref_success = [t[0] for t in triples]
        ref_backtracks = [t[1] for t in triples]
        ref_invalid = [t[2] for t in triples]
        assert outcome.success.tolist() == ref_success, name
        assert outcome.backtracks.tolist() == ref_backtracks, name
        assert outcome.invalid.tolist() == ref_invalid, name


def standard_mappers():
    return {
        "hybrid": HybridMapper(),
        "exact": ExactMapper(),
        "greedy": GreedyMapper(),
    }


class TestDifferentialRandomized:
    """Vectorized == reference, sample for sample, across random workloads."""

    @pytest.mark.parametrize("case", range(6))
    def test_random_functions_all_rates(self, case):
        spec = [
            # (inputs, outputs, products, rate, stuck_open_fraction, seed)
            (4, 2, 6, 0.05, 1.0, 11),
            (5, 3, 9, 0.15, 1.0, 23),
            (4, 1, 5, 0.30, 1.0, 37),
            (5, 2, 8, 0.10, 0.6, 41),
            (6, 2, 10, 0.08, 0.9, 53),
            (4, 3, 7, 0.20, 0.0, 67),
        ][case]
        inputs, outputs, products, rate, open_fraction, seed = spec
        function = random_multi_output_function(
            inputs, outputs, products, seed=seed
        )
        fm = FunctionMatrix(function)
        model = create_defect_model(
            "uniform", rate=rate, stuck_open_fraction=open_fraction
        )
        mappers = standard_mappers()
        batch = map_sample_batch(
            function,
            mappers,
            generate_batch(
                function, model, fm.num_rows, fm.num_columns,
                seed=seed, start=0, stop=25,
            ),
        )
        reference = reference_per_sample(
            function, model, fm.num_rows, fm.num_columns, mappers,
            seed=seed, start=0, stop=25,
        )
        assert_batch_matches_reference(batch, reference)

    def test_benchmark_with_redundancy_and_spare_columns(self):
        function = get_benchmark("misex1")
        fm = FunctionMatrix(function)
        model = create_defect_model("uniform", rate=0.12, stuck_open_fraction=0.8)
        mappers = standard_mappers()
        rows, columns = fm.num_rows + 2, fm.num_columns + 3
        batch = map_sample_batch(
            function, mappers,
            generate_batch(function, model, rows, columns, seed=9, start=0, stop=30),
        )
        reference = reference_per_sample(
            function, model, rows, columns, mappers, seed=9, start=0, stop=30
        )
        assert_batch_matches_reference(batch, reference)
        # Spare-column repair drops are engine-independent too.
        drops = batch.outcomes["hybrid"].decision == DECISION_REPAIR_DROP
        assert (
            batch.outcomes["exact"].decision == DECISION_REPAIR_DROP
        ).tolist() == drops.tolist()

    def test_clustered_and_exact_count_models(self):
        function = get_benchmark("rd53")
        fm = FunctionMatrix(function)
        mappers = standard_mappers()
        for model in (
            create_defect_model("clustered", rate=0.12, cluster_radius=2),
            create_defect_model("exact-count", count=30),
        ):
            batch = map_sample_batch(
                function, mappers,
                generate_batch(
                    function, model, fm.num_rows, fm.num_columns,
                    seed=17, start=0, stop=20,
                ),
            )
            reference = reference_per_sample(
                function, model, fm.num_rows, fm.num_columns, mappers,
                seed=17, start=0, stop=20,
            )
            assert_batch_matches_reference(batch, reference)

    def test_nonzero_chunk_start_uses_global_indices(self):
        function = get_benchmark("rd53")
        fm = FunctionMatrix(function)
        model = create_defect_model("uniform", rate=0.1)
        mappers = {"hybrid": HybridMapper()}
        shape = (function, model, fm.num_rows, fm.num_columns)
        whole = map_sample_batch(
            function, mappers, generate_batch(*shape, seed=3, start=0, stop=20)
        )
        tail = map_sample_batch(
            function, mappers, generate_batch(*shape, seed=3, start=12, stop=20)
        )
        assert (
            whole.outcomes["hybrid"].success[12:].tolist()
            == tail.outcomes["hybrid"].success.tolist()
        )

    def test_hybrid_without_backtracking_classified_greedy(self):
        assert mapper_kind(HybridMapper(backtracking=False)) == "greedy"
        assert mapper_kind(HybridMapper()) == "hybrid"
        assert mapper_kind(GreedyMapper()) == "greedy"
        assert mapper_kind(ExactMapper()) == "exact"

        class Custom(HybridMapper):
            pass

        assert mapper_kind(Custom()) is None

    def test_sub_batching_matches_single_pass(self, monkeypatch):
        function = get_benchmark("rd53")
        fm = FunctionMatrix(function)
        model = create_defect_model("uniform", rate=0.1)
        mappers = standard_mappers()
        shape = (function, model, fm.num_rows, fm.num_columns)
        one = map_sample_batch(
            function, mappers, generate_batch(*shape, seed=29, start=0, stop=24)
        )
        # One cell per sub-batch forces one-sample sub-batches.
        monkeypatch.setattr(batch_kernel, "MAX_TENSOR_CELLS", 1)
        tiny = map_sample_batch(
            function, mappers, generate_batch(*shape, seed=29, start=0, stop=24)
        )
        assert one.counting_statistics() == tiny.counting_statistics()
        for name in mappers:
            assert (
                one.outcomes[name].success.tolist()
                == tiny.outcomes[name].success.tolist()
            )


class _CountingMapper:
    """Opaque mapper with deliberately odd statistics.

    Succeeds only on defect-free crossbars and reports the defect count
    as its backtrack counter — no counting bound may second-guess it.
    """

    algorithm_name = "counting"

    def map(self, function_matrix, crossbar) -> MappingResult:
        from repro.mapping.result import MappingStatistics

        defects = crossbar.defect_map.defect_count()
        statistics = MappingStatistics(backtracks=defects)
        if defects:
            return MappingResult(
                success=False,
                algorithm=self.algorithm_name,
                failure_reason="crossbar is not pristine",
                statistics=statistics,
            )
        assignment = {
            row: row for row in range(function_matrix.num_rows)
        }
        return MappingResult(
            success=True,
            algorithm=self.algorithm_name,
            row_assignment=assignment,
            statistics=statistics,
        )


class _DelegatingMapper:
    """Opaque mapper that hands every call to HBA.

    :func:`mapper_kind` does not recognise it, so it runs on the
    reference walk on every engine, and its counts must equal the
    built-in HBA's.
    """

    algorithm_name = "delegating"

    def __init__(self):
        self._inner = HybridMapper()

    def map(self, function_matrix, crossbar) -> MappingResult:
        return self._inner.map(function_matrix, crossbar)


class TestOpaqueMapperFallback:
    def test_opaque_mapper_runs_object_path(self):
        """The batch kernel names and refuses a mapper it cannot replicate."""
        function = get_benchmark("rd53")
        fm = FunctionMatrix(function)
        model = create_defect_model("uniform", rate=0.04)
        batch = generate_batch(
            function, model, fm.num_rows, fm.num_columns,
            seed=7, start=0, stop=15,
        )
        mappers = {"counting": _CountingMapper(), "hybrid": HybridMapper()}
        with pytest.raises(MappingError, match="'counting'"):
            map_sample_batch(function, mappers, batch)

    @pytest.mark.parametrize(
        "layout",
        [
            {"stuck_open_fraction": 0.9},
            {"stuck_open_fraction": 0.9, "extra_rows": 2, "extra_columns": 2},
            {"multilevel": {"strategy": "best"}},
        ],
        ids=["two-level", "spare-columns", "multi-level"],
    )
    @pytest.mark.parametrize("engine", ["vectorized", "compiled"])
    def test_engine_equality_with_registered_custom_mapper(self, engine, layout):
        function = get_benchmark("rd53")
        # Opaque and built-in mappers interleaved, to check the order.
        algorithms = {
            "delegating": _DelegatingMapper(),
            "exact": ExactMapper(),
            "counting": _CountingMapper(),
            "hybrid": HybridMapper(),
        }
        kwargs = dict(
            defect_rate=0.02, sample_size=32, seed=13, algorithms=algorithms,
            workers=1, **layout,
        )
        ref = run_mapping_monte_carlo(function, engine="reference", **kwargs)
        batched = run_mapping_monte_carlo(function, engine=engine, **kwargs)
        assert batched.counting_statistics() == ref.counting_statistics()
        assert list(batched.outcomes) == list(algorithms)
        delegated = batched.outcome("delegating")
        assert 0 < delegated.successes < delegated.samples
        assert (
            batched.counting_statistics()["delegating"]
            == batched.counting_statistics()["hybrid"]
        )


class TestPrescreenProperties:
    """No false rejects — structural rejects checked against the real mappers."""

    def _batch_with_decisions(self, rate, seed, *, outputs=2, engine="vectorized"):
        function = random_multi_output_function(5, outputs, 8, seed=seed)
        fm = FunctionMatrix(function)
        model = create_defect_model("uniform", rate=rate, stuck_open_fraction=0.9)
        mappers = standard_mappers()
        batch = map_sample_batch(
            function, mappers,
            generate_batch(
                function, model, fm.num_rows, fm.num_columns,
                seed=seed, start=0, stop=40, engine=engine,
            ),
            engine=engine,
        )
        return function, fm, model, mappers, batch

    @pytest.mark.parametrize(
        "rate,seed", [(0.05, 101), (0.15, 202), (0.30, 303)]
    )
    def test_rejected_samples_are_unmappable_by_exact(self, rate, seed):
        function, fm, model, mappers, batch = self._batch_with_decisions(rate, seed)
        rejected = np.flatnonzero(
            batch.outcomes["exact"].decision == DECISION_REJECT
        )
        assert rejected.size > 0
        for offset in rejected:
            defect_map = model.inject(
                fm.num_rows, fm.num_columns, seed=derive_seed(seed, int(offset))
            )
            crossbar = CrossbarMatrix(defect_map)
            for name, mapper in mappers.items():
                # An uncounted failure, in the batch and in the real mapper.
                outcome = batch.outcomes[name]
                assert outcome.decision[offset] == DECISION_REJECT, name
                assert not outcome.success[offset], name
                assert outcome.backtracks[offset] == 0, name
                result = mapper.map(fm, crossbar)
                assert not result.success, (name, int(offset))
                assert result.statistics.backtracks == 0, (name, int(offset))

    def test_every_sample_gets_a_decision(self):
        _, _, _, mappers, batch = self._batch_with_decisions(0.12, 707)
        legal = {
            DECISION_REJECT,
            DECISION_KERNEL,
            DECISION_REPAIR_DROP,
        }
        for name in mappers:
            assert set(batch.outcomes[name].decision.tolist()) <= legal
            assert (batch.outcomes[name].decision != 0).all()

    def test_pristine_crossbars_map_without_backtracks(self):
        function = get_benchmark("misex1")
        fm = FunctionMatrix(function)
        model = create_defect_model("uniform", rate=0.0)
        for engine in ("vectorized", "compiled"):
            batch = map_sample_batch(
                function, standard_mappers(),
                generate_batch(
                    function, model, fm.num_rows, fm.num_columns,
                    seed=1, start=0, stop=10, engine=engine,
                ),
                engine=engine,
            )
            for name, outcome in batch.outcomes.items():
                assert outcome.success.all(), (engine, name)
                assert not outcome.backtracks.any(), (engine, name)

    def test_structural_rejects_get_no_compatibility_tensor(self, monkeypatch):
        built = []

        def recording(fm_rows, cm_stack, **kwargs):
            built.append(cm_stack.shape[0])
            return compatibility_tensor(fm_rows, cm_stack, **kwargs)

        monkeypatch.setattr(batch_kernel, "compatibility_tensor", recording)
        rate, seed = 0.05, 101
        for engine in ("vectorized", "compiled"):
            built.clear()
            _, fm, model, _, batch = self._batch_with_decisions(
                rate, seed, engine=engine
            )
            feasible = sum(
                quick_infeasibility_check(
                    fm,
                    CrossbarMatrix(
                        model.inject(
                            fm.num_rows, fm.num_columns,
                            seed=derive_seed(seed, offset),
                        )
                    ),
                ) is None
                for offset in range(batch.stop - batch.start)
            )
            # Neither side is vacuous at stuck-open fraction 0.9.
            assert 0 < feasible < batch.stop - batch.start
            assert sum(built) == feasible, engine


class TestEngineInvariance:
    """The acceptance criterion: identical counting statistics everywhere."""

    @staticmethod
    def counting(result):
        return {
            name: (o.successes, o.samples, o.total_backtracks, o.invalid_mappings)
            for name, o in result.outcomes.items()
        }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "defect_model",
        [None, "clustered", {"name": "exact-count", "params": {"count": 20}}],
    )
    def test_all_mappers_models_workers(self, workers, defect_model):
        function = get_benchmark("rd53")
        kwargs = dict(
            sample_size=24,
            seed=19,
            algorithms=("hybrid", "exact", "greedy"),
            workers=workers,
            chunk_size=5,
        )
        if defect_model is not None:
            kwargs["defect_model"] = defect_model
        ref = run_mapping_monte_carlo(function, engine="reference", **kwargs)
        vec = run_mapping_monte_carlo(function, engine="vectorized", **kwargs)
        assert self.counting(ref) == self.counting(vec)
        assert vec.engine == "vectorized" and ref.engine == "reference"

    def test_redundancy_levels_match(self):
        function = get_benchmark("rd53")
        for extra_rows, extra_columns in [(1, 0), (0, 2), (2, 2)]:
            kwargs = dict(
                defect_rate=0.15,
                sample_size=20,
                seed=5,
                extra_rows=extra_rows,
                extra_columns=extra_columns,
                workers=1,
            )
            ref = run_mapping_monte_carlo(function, engine="reference", **kwargs)
            vec = run_mapping_monte_carlo(function, engine="vectorized", **kwargs)
            assert self.counting(ref) == self.counting(vec)

    def test_design_pipeline_exposes_engine(self):
        from repro.api import Design

        design = Design.from_benchmark("rd53")
        ref = design.monte_carlo(sample_size=10, seed=3, workers=1,
                                 engine="reference")
        vec = design.monte_carlo(sample_size=10, seed=3, workers=1,
                                 engine="vectorized")
        assert self.counting(ref) == self.counting(vec)
        assert (ref.engine, vec.engine) == ("reference", "vectorized")

    def test_unknown_engine_rejected(self):
        function = get_benchmark("rd53")
        with pytest.raises(ExperimentError):
            run_mapping_monte_carlo(function, sample_size=1, engine="warp")

    def test_engine_field_round_trips(self):
        function = get_benchmark("rd53")
        result = run_mapping_monte_carlo(
            function, sample_size=3, seed=1, workers=1, engine="vectorized"
        )
        payload = result.to_dict()
        assert payload["engine"] == "vectorized"
        rebuilt = type(result).from_dict(payload)
        assert rebuilt.engine == "vectorized"
        # Pre-engine payloads deserialise as the behaviour they ran with.
        payload.pop("engine")
        assert type(result).from_dict(payload).engine == "reference"


class TestDefectBatch:
    def test_tensors_match_object_path(self):
        model = create_defect_model("uniform", rate=0.2, stuck_open_fraction=0.5)
        batch = DefectBatch.generate(model, 6, 8, seed=3, start=0, stop=12)
        for offset, index in enumerate(range(12)):
            expected = model.inject(6, 8, seed=derive_seed(3, index))
            assert batch.functional[offset].tolist() == expected.functional_matrix()
            assert (
                set(np.flatnonzero(batch.closed_rows[offset]).tolist())
                == expected.stuck_closed_rows()
            )
            assert (
                set(np.flatnonzero(batch.closed_columns[offset]).tolist())
                == expected.stuck_closed_columns()
            )

    def test_spare_column_repair_matches_serial(self):
        # Sparse enough that repair keeps some samples and drops others,
        # so both branches below run.
        model = create_defect_model("uniform", rate=0.15, stuck_open_fraction=0.7)
        batch = DefectBatch.generate(
            model, 5, 9, seed=7, start=0, stop=20, required_columns=6
        )
        assert batch.columns == 6
        kept = dropped = 0
        for offset, index in enumerate(range(20)):
            raw = model.inject(5, 9, seed=derive_seed(7, index))
            repaired = repair_spare_columns(raw, 6)
            if repaired is None:
                dropped += 1
                assert batch.dropped[offset]
            else:
                kept += 1
                assert not batch.dropped[offset]
                assert (
                    batch.functional[offset].tolist()
                    == repaired.functional_matrix()
                )
        assert kept > 0 and dropped > 0

    @pytest.mark.parametrize("native", [False, True])
    def test_row_bank_is_a_view(self, native):
        kernels = get_kernels() if native else None
        if native and kernels is None:
            pytest.skip("no compiled backend to draw the batch natively")
        model = create_defect_model("uniform", rate=0.2, stuck_open_fraction=0.5)
        batch = DefectBatch.generate(
            model, 7, 5, seed=11, start=3, stop=13, kernels=kernels
        )
        bank = batch.restricted_to_rows(2, 5)
        assert (bank.start, bank.stop, bank.rows, bank.columns) == (3, 13, 3, 5)
        assert np.shares_memory(bank.functional, batch.functional)
        assert np.shares_memory(bank.closed_rows, batch.closed_rows)
        assert bank.functional.tolist() == batch.functional[:, 2:5].tolist()
        assert bank.closed_rows.tolist() == batch.closed_rows[:, 2:5].tolist()
        assert bank.dropped is batch.dropped
        assert bank.closed_columns is batch.closed_columns
        # A bank spanning every row is the batch itself.
        assert batch.restricted_to_rows(0, 7) is batch
        with pytest.raises(DefectError):
            batch.restricted_to_rows(4, 8)

    def test_row_bank_keeps_spare_column_drops(self):
        model = create_defect_model("uniform", rate=0.15, stuck_open_fraction=0.7)
        batch = DefectBatch.generate(
            model, 5, 9, seed=7, start=0, stop=20, required_columns=6
        )
        assert batch.dropped.any() and not batch.dropped.all()
        bank = batch.restricted_to_rows(2, 5)
        assert bank.columns == 6
        assert bank.dropped is batch.dropped
        for offset in np.flatnonzero(~bank.dropped):
            raw = model.inject(5, 9, seed=derive_seed(7, int(offset)))
            repaired = repair_spare_columns(raw, 6).restricted_to_rows(2, 5)
            assert bank.functional[offset].tolist() == repaired.functional_matrix()

    def test_to_arrays_matches_legacy_accessors(self):
        defect_map = DefectMap(
            4,
            5,
            [
                Defect(0, 1, DefectType.STUCK_OPEN),
                Defect(2, 3, DefectType.STUCK_CLOSED),
                Defect(3, 0, DefectType.STUCK_CLOSED),
            ],
        )
        functional, closed_rows, closed_columns = defect_map.to_arrays()
        assert functional.tolist() == defect_map.functional_matrix()
        assert set(np.flatnonzero(closed_rows).tolist()) == \
            defect_map.stuck_closed_rows()
        assert set(np.flatnonzero(closed_columns).tolist()) == \
            defect_map.stuck_closed_columns()


class TestCompatibilityTensor:
    def test_matches_per_sample_matrix(self):
        rng = np.random.default_rng(5)
        fm = (rng.random((6, 9)) < 0.4).astype(np.uint8)
        cms = (rng.random((7, 10, 9)) < 0.8).astype(np.uint8)
        tensor = compatibility_tensor(fm, cms)
        assert tensor.shape == (7, 6, 10)  # (samples, FM rows, CM rows)
        for sample in range(cms.shape[0]):
            assert tensor[sample].T.tolist() == \
                compatibility_matrix(fm, cms[sample]).tolist()

    def test_shape_validation(self):
        with pytest.raises(MappingError):
            compatibility_tensor(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(MappingError):
            compatibility_tensor(np.zeros((2, 3)), np.zeros((4, 5, 6)))


class TestBatchPlanFloor:
    def test_min_chunk_size_floors_auto(self):
        plan = BatchRunner(4).plan(200, min_chunk_size=32)
        assert plan.chunk_size >= 32

    def test_explicit_chunk_size_wins(self):
        plan = BatchRunner(4).plan(200, 5, min_chunk_size=32)
        assert plan.chunk_size == 5

    def test_floor_clamped_to_batch(self):
        plan = BatchRunner(1).plan(3, min_chunk_size=64)
        assert plan.chunk_size <= max(3, 1)
        assert plan.num_chunks >= 1

    def test_invalid_floor_rejected(self):
        with pytest.raises(ExperimentError):
            BatchRunner(1).plan(10, min_chunk_size=0)

    def test_zero_chunk_size_rejected(self):
        # Zero used to fall through to the auto size.
        with pytest.raises(ExperimentError, match="chunk_size"):
            BatchRunner(4).plan(200, 0, min_chunk_size=32)
