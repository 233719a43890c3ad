"""Differential tests pinning the packed Boolean kernels to the object path.

Every packed kernel must agree with the object reference bit for bit:
truth tables, containment, cofactors, the full minimisation loop, the
Quine-McCluskey front-end, random-function generation, the function
matrix, the batched crossbar simulator and the end-to-end functional
validator.  Randomised sweeps cover the Fig. 6 workload shapes; the
edge cases (empty cover, tautology, single minterm, full don't-care
cubes) are pinned explicitly on both engines.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.boolean.function import BooleanFunction
from repro.boolean.minimize import (
    merge_distance_one,
    minimize_cover,
    prime_implicants,
    quine_mccluskey,
)
from repro.boolean.packed import (
    PackedCover,
    PackedTruthTable,
    bit_planes,
    evaluate_function_batch,
    merge_distance_one_packed,
    minimize_cover_packed,
    prime_implicants_packed,
    table_words,
    tail_mask,
)
from repro.boolean.random_functions import (
    RandomFunctionSpec,
    random_cover,
    random_multi_output_function,
    random_single_output_function,
)
from repro.boolean.truth_table import (
    all_assignments,
    verification_assignment_matrix,
    verification_assignments,
)
from repro.crossbar.simulator import (
    evaluate_two_level,
    evaluate_two_level_batch,
    verify_layout,
)
from repro.crossbar.two_level import TwoLevelDesign
from repro.defects.injection import inject_uniform
from repro.defects.types import DefectProfile
from repro.engines import resolve_boolean_engine
from repro.exceptions import (
    BooleanFunctionError,
    CrossbarError,
    ExperimentError,
    MappingError,
)
from repro.mapping.function_matrix import FunctionMatrix


def _random_cover(num_inputs: int, seed: int, *, max_products: int = 12) -> Cover:
    rng = random.Random(seed)
    spec = RandomFunctionSpec(
        num_inputs=num_inputs, min_products=1, max_products=max_products
    )
    return random_cover(spec, rng, engine="reference")


class TestBitPlanes:
    def test_planes_match_assignment_bits(self):
        for n in (1, 3, 5, 6, 8):
            planes = bit_planes(n)
            assert planes.shape == (n, table_words(n))
            for index in range(1 << n):
                word, bit = index >> 6, index & 63
                for j in range(n):
                    expected = (index >> j) & 1
                    actual = (int(planes[j, word]) >> bit) & 1
                    assert actual == expected, (n, index, j)

    def test_tail_mask_small_widths(self):
        assert int(tail_mask(2)[0]) == 0b1111
        assert int(tail_mask(6)[0]) == (1 << 64) - 1

    def test_width_limits_rejected(self):
        with pytest.raises(BooleanFunctionError):
            bit_planes(0)
        with pytest.raises(BooleanFunctionError):
            bit_planes(21)


class TestPackedTruthTable:
    @pytest.mark.parametrize("n,seed", [(3, 0), (5, 1), (8, 2), (10, 3)])
    def test_matches_object_truth_table(self, n, seed):
        cover = _random_cover(n, seed)
        packed = PackedTruthTable.from_cover(cover)
        assert packed.to_list() == cover.truth_table()
        assert packed.count() == cover.count_minterms()
        assert packed.minterms() == sorted(cover.minterms())

    def test_from_minterms_and_algebra(self):
        a = PackedTruthTable.from_minterms(4, [0, 3, 9])
        b = PackedTruthTable.from_minterms(4, [3, 5])
        assert (a | b).minterms() == [0, 3, 5, 9]
        assert (a & b).minterms() == [3]
        assert (~a).count() == 16 - 3
        assert a.covers(a & b)
        assert not b.covers(a)

    def test_zero_one_tautology(self):
        assert PackedTruthTable.zero(5).is_zero()
        assert PackedTruthTable.one(5).is_tautology()
        assert not PackedTruthTable.from_minterms(5, [1]).is_tautology()

    def test_equality_and_hash(self):
        a = PackedTruthTable.from_minterms(3, [1, 2])
        b = PackedTruthTable.from_minterms(3, [2, 1])
        assert a == b and hash(a) == hash(b)
        assert a != PackedTruthTable.from_minterms(3, [1])

    def test_width_mismatch_rejected(self):
        a = PackedTruthTable.zero(3)
        with pytest.raises(BooleanFunctionError):
            a | PackedTruthTable.zero(4)
        with pytest.raises(BooleanFunctionError):
            PackedTruthTable.from_minterms(3, [8])


class TestPackedCover:
    @pytest.mark.parametrize("n,seed", [(3, 10), (6, 11), (9, 12)])
    def test_round_trip_and_strings(self, n, seed):
        cover = _random_cover(n, seed)
        packed = PackedCover.from_cover(cover)
        assert packed.to_cover() == cover
        assert packed.cube_strings() == cover.to_strings()
        assert list(packed.literal_counts()) == [
            c.literal_count() for c in cover.cubes
        ]
        assert list(packed.num_minterms_per_cube()) == [
            c.num_minterms() for c in cover.cubes
        ]

    @pytest.mark.parametrize("n,seed", [(4, 20), (7, 21)])
    def test_contains_matrix_matches_object(self, n, seed):
        cover = _random_cover(n, seed)
        packed = PackedCover.from_cover(cover)
        matrix = packed.contains_matrix()
        for i, a in enumerate(cover.cubes):
            for j, b in enumerate(cover.cubes):
                assert bool(matrix[i, j]) == a.contains(b)

    @pytest.mark.parametrize("n,seed", [(4, 30), (8, 31)])
    def test_cofactor_matches_object(self, n, seed):
        cover = _random_cover(n, seed)
        packed = PackedCover.from_cover(cover)
        for variable in range(n):
            for value in (0, 1):
                expected = cover.cofactor(variable, value)
                got = packed.cofactor(variable, value).to_cover()
                assert got == expected

    @pytest.mark.parametrize("n,seed", [(4, 40), (9, 41)])
    def test_evaluate_and_tautology(self, n, seed):
        cover = _random_cover(n, seed)
        packed = PackedCover.from_cover(cover)
        batch = np.array(list(all_assignments(n)), dtype=np.uint8)
        got = packed.evaluate(batch)
        expected = [cover.evaluate(a) for a in all_assignments(n)]
        assert [bool(v) for v in got] == expected
        assert packed.is_tautology() == cover.is_tautology()
        assert PackedCover.from_cover(Cover.one(n)).is_tautology()

    @pytest.mark.parametrize("n,seed", [(5, 50), (8, 51)])
    def test_covers_cube_matches_object(self, n, seed):
        cover = _random_cover(n, seed)
        packed = PackedCover.from_cover(cover)
        probes = list(cover.cubes) + [
            Cube.from_minterm(m, n) for m in range(min(8, 1 << n))
        ]
        for cube in probes:
            assert packed.covers_cube(cube) == cover.covers_cube(cube)

    def test_without_contained_matches_object(self):
        for seed in range(6):
            cover = Cover(
                5,
                _random_cover(5, 60 + seed, max_products=10).cubes
                + _random_cover(5, 90 + seed, max_products=4).cubes,
            )
            got = PackedCover.from_cover(cover).without_contained().to_cover()
            expected = cover.without_contained_cubes()
            assert got.to_strings() == expected.to_strings()

    def test_from_minterms_matches_object(self):
        packed = PackedCover.from_minterms(4, [0, 5, 13])
        expected = Cover.from_minterms(4, [0, 5, 13])
        assert packed.to_cover() == expected

    def test_invalid_values_rejected(self):
        with pytest.raises(BooleanFunctionError):
            PackedCover(3, np.array([[0, 1, 3]], dtype=np.uint8))
        with pytest.raises(BooleanFunctionError):
            PackedCover(3, np.array([[0, 1]], dtype=np.uint8))
        with pytest.raises(BooleanFunctionError):
            PackedCover.from_cover(Cover.zero(3)).evaluate(
                np.zeros((1, 4), dtype=np.uint8)
            )


class TestPackedCoverSurface:
    def test_cover_level_coverage_and_counts(self):
        a = PackedCover.from_cover(_random_cover(5, 70))
        b = PackedCover.from_cover(_random_cover(5, 71))
        cover_a, cover_b = a.to_cover(), b.to_cover()
        assert a.covers(b) == cover_a.covers(cover_b)
        assert a.covers(a)
        assert a.minterm_count() == cover_a.count_minterms()
        assert a.truth_table().count() == a.minterm_count()
        assert len(a) == len(cover_a)
        assert "PackedCover" in repr(a) and "PackedTruthTable" in repr(
            a.truth_table()
        )

    def test_from_cubes_and_cross_containment(self):
        cubes = [Cube.from_string("1-0"), Cube.from_string("--1")]
        packed = PackedCover.from_cubes(3, cubes)
        other = PackedCover.from_cubes(3, [Cube.from_string("110")])
        matrix = packed.contains_matrix(other)
        assert matrix.shape == (2, 1)
        assert bool(matrix[0, 0]) == cubes[0].contains(Cube.from_string("110"))
        with pytest.raises(BooleanFunctionError):
            packed.contains_matrix(PackedCover.from_cubes(4, []))
        with pytest.raises(BooleanFunctionError):
            packed.covers(PackedCover.from_cubes(4, []))

    def test_full_dont_care_probes(self):
        packed = PackedCover.from_cover(Cover.from_strings(4, ["1---"]))
        universal = Cube.full_dont_care(4)
        assert not packed.covers_cube(universal)
        assert PackedCover.from_cover(Cover.one(4)).covers_cube(universal)
        assert packed.evaluate([1, 0, 0, 0]).tolist() == [True]

    def test_cofactor_argument_errors(self):
        packed = PackedCover.from_cover(Cover.from_strings(3, ["1-0"]))
        with pytest.raises(BooleanFunctionError):
            packed.cofactor(0, 2)
        with pytest.raises(BooleanFunctionError):
            packed.cofactor(5, 1)
        with pytest.raises(BooleanFunctionError):
            PackedCover.from_minterms(3, [9])

    def test_planes_are_cached(self):
        assert bit_planes(7) is bit_planes(7)
        assert tail_mask(7) is tail_mask(7)


class TestMinimizeParity:
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 10, 12])
    def test_minimize_cover_differential(self, n):
        for seed in range(8):
            cover = _random_cover(n, 1000 * n + seed, max_products=3 * n)
            obj = minimize_cover(cover, engine="reference")
            packed = minimize_cover(cover, engine="vectorized")
            assert packed.to_strings() == obj.to_strings(), (n, seed)
            # Function preservation, independently of the reference.
            assert packed.equivalent(cover)

    def test_merge_distance_one_differential(self):
        for seed in range(10):
            cover = _random_cover(6, 300 + seed, max_products=14)
            assert (
                merge_distance_one_packed(cover).to_strings()
                == merge_distance_one(cover).to_strings()
            )

    @pytest.mark.parametrize("n", [3, 4, 6, 8])
    def test_quine_mccluskey_differential(self, n):
        for seed in range(6):
            cover = _random_cover(n, 2000 * n + seed)
            minterms = sorted(cover.minterms())
            obj = quine_mccluskey(n, minterms, engine="reference")
            packed = quine_mccluskey(n, minterms, engine="vectorized")
            assert packed.to_strings() == obj.to_strings(), (n, seed)
            assert sorted(packed.minterms()) == minterms

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_prime_implicants_differential(self, n):
        for seed in range(5):
            cover = _random_cover(n, 4000 * n + seed)
            minterms = sorted(cover.minterms())
            assert prime_implicants_packed(n, minterms) == prime_implicants(
                n, minterms
            )

    def test_engine_validation(self):
        cover = _random_cover(4, 1)
        with pytest.raises(ExperimentError):
            minimize_cover(cover, engine="warp")
        # Widths beyond the packed limit silently use the reference walk.
        assert resolve_boolean_engine("auto", 25) == "reference"
        assert resolve_boolean_engine("vectorized", 25) == "reference"
        assert resolve_boolean_engine("vectorized", 8) == "vectorized"
        assert resolve_boolean_engine("reference", 8) == "reference"


#: The edge cases' two engines, labelled by the implementation each
#: runs (the object walk, the packed kernels) like the rows of
#: ``benchmarks/bench_boolean.py``.
both_engines = pytest.mark.parametrize(
    "engine", ["reference", "vectorized"], ids=["object", "packed"]
)


class TestMinimizeEdgeCases:
    """The satellite edge cases, pinned on both engines."""

    @both_engines
    def test_empty_cover(self, engine):
        result = minimize_cover(Cover.zero(4), engine=engine)
        assert result.is_empty()
        assert quine_mccluskey(4, [], engine=engine).is_empty()

    @both_engines
    def test_tautology_cover(self, engine):
        # A cover whose union is the whole space must minimise to
        # something equivalent to constant 1 (and QM to the single
        # universal cube).
        cover = Cover.from_strings(3, ["0--", "1--"])
        result = minimize_cover(cover, engine=engine)
        assert result.is_tautology()
        qm = quine_mccluskey(3, range(8), engine=engine)
        assert qm.to_strings() == ["---"]

    @both_engines
    def test_single_minterm(self, engine):
        cover = Cover.from_minterms(5, [19])
        result = minimize_cover(cover, engine=engine)
        assert result.to_strings() == cover.to_strings()
        qm = quine_mccluskey(5, [19], engine=engine)
        assert qm.to_strings() == cover.to_strings()

    @both_engines
    def test_full_dont_care_cube(self, engine):
        # The universal cube swallows everything else.
        cover = Cover.from_strings(4, ["----", "10--", "0011"])
        result = minimize_cover(cover, engine=engine)
        assert result.to_strings() == ["----"]

    @both_engines
    def test_duplicate_and_contained_cubes(self, engine):
        cover = Cover(4, [Cube.from_string("1-0-"), Cube.from_string("110-")])
        result = minimize_cover(cover, engine=engine)
        assert result.to_strings() == ["1-0-", "110-"] or result.equivalent(cover)
        assert result.to_strings() == minimize_cover(
            cover, engine="reference"
        ).to_strings()

    def test_minimize_cover_packed_direct(self):
        cover = _random_cover(7, 77)
        assert (
            minimize_cover_packed(cover).to_strings()
            == minimize_cover(cover, engine="reference").to_strings()
        )


class TestRandomGenerationParity:
    @pytest.mark.parametrize("n", [4, 8, 12, 15])
    def test_random_cover_engines_identical(self, n):
        spec = RandomFunctionSpec(num_inputs=n, min_products=2, max_products=3 * n)
        for seed in range(6):
            obj = random_cover(spec, random.Random(seed), engine="reference")
            packed = random_cover(spec, random.Random(seed), engine="vectorized")
            assert packed.to_strings() == obj.to_strings(), (n, seed)

    def test_random_function_engines_identical(self):
        spec = RandomFunctionSpec(num_inputs=9, min_products=2, max_products=20)
        for seed in range(5):
            obj = random_single_output_function(spec, seed=seed, engine="reference")
            packed = random_single_output_function(spec, seed=seed, engine="vectorized")
            assert obj.cover_for_output(0) == packed.cover_for_output(0)
            assert obj.name == packed.name

    def test_rng_stream_position_identical(self):
        # Both engines must leave the RNG in the same state so any
        # downstream draw (the empty-cover fallback) stays aligned.
        spec = RandomFunctionSpec(num_inputs=6, min_products=2, max_products=10)
        rng_a, rng_b = random.Random(3), random.Random(3)
        random_cover(spec, rng_a, engine="reference")
        random_cover(spec, rng_b, engine="vectorized")
        assert rng_a.random() == rng_b.random()


class TestFunctionMatrixFastPaths:
    def test_matrix_matches_layout_matrix(self):
        for seed in range(8):
            function = random_multi_output_function(
                5, 1 + seed % 3, 4 + seed % 5, seed=seed
            )
            fm = FunctionMatrix(function)
            layout_matrix = np.array(fm.layout.to_matrix(), dtype=np.uint8)
            assert (fm.matrix == layout_matrix).all(), seed

    def test_from_cover_matches_function_path(self):
        cover = _random_cover(6, 5)
        fast = FunctionMatrix.from_cover(cover, name="probe")
        reference = FunctionMatrix(
            BooleanFunction.single_output(cover, name="probe")
        )
        assert (fast.matrix == reference.matrix).all()
        assert fast.shape == reference.shape
        assert fast.num_minterm_rows == reference.num_minterm_rows
        assert fast.num_output_rows == 1
        # The lazy function/layout materialise on demand and agree.
        assert fast.function.equivalent(reference.function)
        assert fast.layout.to_matrix() == reference.layout.to_matrix()
        assert "probe" in repr(fast)

    def test_from_cover_empty_rejected(self):
        with pytest.raises(MappingError):
            FunctionMatrix.from_cover(Cover.zero(4))


class TestBatchSimulator:
    def _design_and_array(self, seed: int, *, rate: float = 0.3):
        n = 3 + seed % 4
        if seed % 3 == 0:
            function = random_multi_output_function(
                n, 2 + seed % 2, 4 + seed % 4, seed=seed
            )
        else:
            spec = RandomFunctionSpec(
                num_inputs=n, min_products=1, max_products=6
            )
            function = random_single_output_function(spec, seed=seed)
        design = TwoLevelDesign(function)
        profile = DefectProfile(rate=rate, stuck_open_fraction=0.6)
        defect_map = inject_uniform(
            design.layout.rows + 2, design.layout.columns, profile, seed=seed
        )
        array = defect_map.to_array()
        array.program_active(design.layout.active_crosspoints)
        return function, design, array

    def test_matches_scalar_simulator_defect_free(self):
        for seed in range(6):
            function, design, _ = self._design_and_array(seed)
            batch = np.array(
                list(all_assignments(function.num_inputs)), dtype=np.uint8
            )
            got = evaluate_two_level_batch(design.layout, batch)
            for index, assignment in enumerate(all_assignments(function.num_inputs)):
                reference = evaluate_two_level(design.layout, assignment)
                assert list(got[index]) == reference.outputs, (seed, assignment)

    def test_matches_scalar_simulator_with_defects(self):
        # High defect rates exercise stuck-open, stuck-closed and the
        # column-poisoning paths.
        for seed in range(10):
            function, design, array = self._design_and_array(seed, rate=0.35)
            batch = np.array(
                list(all_assignments(function.num_inputs)), dtype=np.uint8
            )
            got = evaluate_two_level_batch(design.layout, batch, array=array)
            for index, assignment in enumerate(all_assignments(function.num_inputs)):
                reference = evaluate_two_level(
                    design.layout, assignment, array=array
                )
                assert list(got[index]) == reference.outputs, (seed, assignment)

    def test_single_assignment_and_bad_width(self):
        function, design, _ = self._design_and_array(1)
        assignment = [0] * function.num_inputs
        got = evaluate_two_level_batch(design.layout, assignment)
        assert got.shape == (1, function.num_outputs)
        with pytest.raises(CrossbarError):
            evaluate_two_level_batch(
                design.layout, np.zeros((2, function.num_inputs + 1), dtype=np.uint8)
            )

    def test_verify_layout_engines_agree(self):
        for seed in range(6):
            function, design, array = self._design_and_array(seed)
            for arr in (None, array):
                assert verify_layout(
                    design.layout, function, array=arr, engine="vectorized"
                ) == verify_layout(
                    design.layout, function, array=arr, engine="reference"
                ), seed
        with pytest.raises(ExperimentError):
            verify_layout(design.layout, function, engine="hyperdrive")
        # An explicit batched tier on a multi-level layout is an error,
        # not a silent object-path fallback; auto falls back quietly.
        for engine in ("vectorized", "compiled"):
            with pytest.raises(CrossbarError):
                verify_layout(
                    design.layout, function, multi_level=True, engine=engine
                )

    def test_evaluate_function_batch_matches_object(self):
        for seed in range(5):
            function = random_multi_output_function(5, 3, 6, seed=seed)
            batch = np.array(list(all_assignments(5)), dtype=np.uint8)
            got = evaluate_function_batch(function, batch)
            for index, assignment in enumerate(all_assignments(5)):
                expected = [1 if v else 0 for v in function.evaluate(assignment)]
                assert list(got[index]) == expected


class TestBatchAreaCost:
    def test_matches_scalar_including_extra_rows(self):
        from repro.crossbar.two_level import (
            two_level_area_cost,
            two_level_area_cost_batch,
        )

        products = [0, 1, 3, 7, 12, 40]
        for extra in (0, 1):
            batched = two_level_area_cost_batch(
                8, 2, products, extra_rows=extra
            )
            assert [int(a) for a in batched] == [
                two_level_area_cost(8, 2, p, extra_rows=extra)
                for p in products
            ]
        with pytest.raises(CrossbarError):
            two_level_area_cost_batch(8, 1, [3, -1])


class TestVerificationAssignmentCache:
    def test_generator_behaviour_unchanged(self):
        exhaustive = list(verification_assignments(3))
        assert exhaustive == list(all_assignments(3))
        sampled_a = list(verification_assignments(20, samples=16))
        sampled_b = list(verification_assignments(20, samples=16))
        assert sampled_a == sampled_b
        assert len(sampled_a) == 16
        # Mutating a yielded row must not corrupt the cache.
        first = next(verification_assignments(3))
        first[0] = 99
        assert next(verification_assignments(3)) == [0, 0, 0]

    def test_matrix_is_cached_and_immutable(self):
        a = verification_assignment_matrix(4)
        b = verification_assignment_matrix(4)
        assert a is b
        # In the exhaustive regime samples/seed/limit are ignored, so
        # differing values must share the same cache entry.
        assert verification_assignment_matrix(4, samples=128, seed=9) is a
        assert verification_assignment_matrix(4, exhaustive_limit=10) is a
        assert a.shape == (16, 4)
        with pytest.raises(ValueError):
            a[0, 0] = 1
        wide = verification_assignment_matrix(20, samples=8)
        assert wide.shape == (8, 20)
        assert [list(r) for r in wide] == list(
            verification_assignments(20, samples=8)
        )


class TestValidateFunctionallyEngines:
    def test_engines_agree_on_real_mappings(self):
        from repro.api.defect_models import create_defect_model
        from repro.api.registry import resolve_mappers
        from repro.mapping.crossbar_matrix import CrossbarMatrix
        from repro.mapping.validate import validate_functionally

        spec = RandomFunctionSpec(num_inputs=4, min_products=2, max_products=5)
        model = create_defect_model("uniform", rate=0.12, stuck_open_fraction=0.8)
        mapper = resolve_mappers(["hybrid"])["hybrid"]
        checked = 0
        for seed in range(12):
            function = random_single_output_function(spec, seed=seed)
            fm = FunctionMatrix(function)
            defect_map = model.inject(fm.num_rows, fm.num_columns, seed=seed)
            result = mapper.map(fm, CrossbarMatrix(defect_map))
            if not result.success:
                continue
            batch = validate_functionally(
                function, defect_map, result, engine="vectorized"
            )
            obj = validate_functionally(
                function, defect_map, result, engine="reference"
            )
            assert batch == obj, seed
            checked += 1
        assert checked > 0

    def test_failed_result_and_bad_engine(self):
        from repro.mapping.result import MappingResult
        from repro.mapping.validate import validate_functionally

        spec = RandomFunctionSpec(num_inputs=3, min_products=1, max_products=3)
        function = random_single_output_function(spec, seed=0)
        fm = FunctionMatrix(function)
        profile = DefectProfile(rate=0.0)
        defect_map = inject_uniform(fm.num_rows, fm.num_columns, profile, seed=0)
        failed = MappingResult(success=False, algorithm="probe")
        assert not validate_functionally(function, defect_map, failed)
        good = MappingResult(
            success=True,
            algorithm="probe",
            row_assignment={i: i for i in range(fm.num_rows)},
        )
        with pytest.raises(ExperimentError):
            validate_functionally(function, defect_map, good, engine="warp")


class TestRunnerEngines:
    def test_vectorized_and_reference_parity(self):
        from repro.experiments.figure6 import Figure6Config, run_figure6

        config = Figure6Config(input_sizes=(8,), sample_size=5, seed=3)
        vectorized = run_figure6(config, workers=1, engine="vectorized")
        reference = run_figure6(config, workers=1, engine="reference")

        def rows(result):
            return [
                (s.num_products, s.two_level_cost, s.multi_level_cost, s.gate_count)
                for s in result.panels[8].samples
            ]

        assert rows(vectorized) == rows(reference)

    def test_unknown_engine_rejected(self):
        from repro.api.runner import run_scenario
        from repro.experiments.figure6 import Figure6Config, scenario_for

        scenario = scenario_for(Figure6Config(sample_size=1), 8)
        with pytest.raises(ExperimentError):
            run_scenario(scenario, engine="warp")
