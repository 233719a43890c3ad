"""Tests for the compiled kernel tier, ``auto`` resolution and merging.

Covers the ISSUE 8 acceptance matrix:

* the engine vocabulary — one tuple of names, registry-style
  rejection of unknown names, and the ``auto`` → compiled →
  vectorized fallback chain (simulated backend absence via a
  monkeypatched probe and the ``REPRO_COMPILED`` kill switch);
* kernel-level differentials — the plain-Python oracle in
  :mod:`repro.compiled._kernels_py` against the NumPy replicas, and the
  loaded C backend against that oracle, from toy instances up to Table
  II-sized matchings and the native compatibility tensor;
* end-to-end parity — compiled vs vectorized vs reference counting
  statistics, including multilevel and redundancy sweeps, and the
  packed Boolean minimiser with ``compiled`` merge passes;
* cross-engine merging — ``MonteCarloResult.merge`` accepts results
  from different engines (recording ``engine="mixed"``) while still
  rejecting genuine statistics-contract conflicts, and round-trips
  through ``CheckpointStore`` resume;
* CLI engine names on every subcommand (run / analyze / serve).
"""

from __future__ import annotations

import asyncio
import math
import random

import numpy as np
import pytest

from repro import compiled
from repro.api import defect_models
from repro.api.defect_models import (
    create_defect_model,
    register_defect_model,
)
from repro.api.runner import run_scenario
from repro.api.scenarios import FunctionSource, Scenario
from repro.api.seeding import derive_seed
from repro.boolean.cover import Cover
from repro.boolean.minimize import minimize_cover
from repro.boolean.packed import _merge_distance_one_values
from repro.boolean.random_functions import RandomFunctionSpec, random_cover
from repro.circuits import get_benchmark
from repro.cli import build_parser
from repro.compiled import _kernels_py as kernels_py
from repro.defects.batch import DefectBatch
from repro.defects.defect_map import DefectMap
from repro.defects.injection import draw_uniform
from repro.defects.types import Defect, DefectProfile, DefectType
from repro.engines import (
    ENGINES,
    canonical_engine,
    resolve_boolean_engine,
    resolve_mapping_engine,
)
from repro.exceptions import ExperimentError
from repro.experiments.monte_carlo import (
    MonteCarloResult,
    run_mapping_monte_carlo,
)
from repro.mapping.batch_kernel import _replica_exact, _replica_hybrid
from repro.mapping.matching import compatibility_tensor
from repro.service.jobs import (
    ChunkJob,
    execute_chunk,
    merge_mapping_chunks,
    plan_range_chunks,
)
from repro.service.orchestrator import Orchestrator
from repro.service.store import CheckpointStore

requires_backend = pytest.mark.skipif(
    not compiled.compiled_available(),
    reason="no compiled backend (a C compiler) on this machine",
)


@pytest.fixture
def clean_backend(monkeypatch):
    """Reset the probed-backend cache after a test that tampers with it."""
    yield monkeypatch
    compiled.reset_compiled_backend()


def counting(result: MonteCarloResult) -> dict:
    return {
        name: (o.successes, o.samples, o.total_backtracks, o.invalid_mappings)
        for name, o in result.outcomes.items()
    }


# ----------------------------------------------------------------------
# Engine vocabulary: one tuple, rejection, auto resolution
# ----------------------------------------------------------------------
class TestEngineRegistry:
    def test_choice_lists_are_consistent(self):
        assert ENGINES == ("auto", "compiled", "vectorized", "reference")

    def test_names_validate_to_themselves(self):
        # One vocabulary: nothing is folded, and the old per-layer
        # spellings (the retired ``packed`` alias among them) are unknown.
        for name in ENGINES:
            assert canonical_engine(name) == name
        for name in ("packed", "object", "batch"):
            with pytest.raises(ExperimentError, match="unknown engine"):
                canonical_engine(name)

    def test_unknown_engine_rejected_naming_choices(self):
        with pytest.raises(ExperimentError, match="'warp'") as excinfo:
            canonical_engine("warp")
        message = str(excinfo.value)
        for choice in ENGINES:
            assert choice in message

    def test_resolution_is_always_concrete(self):
        assert resolve_mapping_engine("vectorized") == "vectorized"
        assert resolve_mapping_engine("reference") == "reference"
        for name in ("auto", "compiled"):
            assert resolve_mapping_engine(name) in ("compiled", "vectorized")

    @requires_backend
    def test_auto_selects_compiled_when_available(self):
        assert compiled.compiled_backend() == "cext"
        assert resolve_mapping_engine("auto") == "compiled"
        assert resolve_mapping_engine("compiled") == "compiled"
        assert resolve_boolean_engine("auto", 5) == "compiled"

    def test_auto_degrades_without_any_backend(self, clean_backend):
        clean_backend.setattr(compiled, "_probe", lambda: (None, None))
        compiled.reset_compiled_backend()
        assert not compiled.compiled_available()
        assert compiled.compiled_backend() is None
        assert compiled.get_kernels() is None
        # compiled -> vectorized -> (explicit) reference fallback chain.
        assert resolve_mapping_engine("auto") == "vectorized"
        assert resolve_mapping_engine("compiled") == "vectorized"
        assert resolve_mapping_engine("reference") == "reference"
        # The Boolean side degrades the same way, and to the reference
        # walk beyond its truth-table width.
        assert resolve_boolean_engine("auto", 5) == "vectorized"
        assert resolve_boolean_engine("compiled", 5) == "vectorized"
        assert resolve_boolean_engine("auto", 25) == "reference"

    def test_kill_switch_disables_the_tier(self, clean_backend):
        clean_backend.setenv("REPRO_COMPILED", "off")
        compiled.reset_compiled_backend()
        assert not compiled.compiled_available()
        assert resolve_mapping_engine("auto") == "vectorized"

    def test_auto_run_records_resolved_engine(self, clean_backend):
        clean_backend.setattr(compiled, "_probe", lambda: (None, None))
        compiled.reset_compiled_backend()
        result = run_mapping_monte_carlo(
            get_benchmark("rd53"), sample_size=4, seed=3,
            algorithms=("hybrid",), workers=1, engine="auto",
        )
        assert result.engine == "vectorized"


# ----------------------------------------------------------------------
# Kernel differentials: portable kernels vs the NumPy replicas
# ----------------------------------------------------------------------
def random_instance(rng: np.random.Generator):
    num_minterms = int(rng.integers(1, 7))
    num_outputs = int(rng.integers(0, 3))
    num_fm_rows = num_minterms + num_outputs
    num_rows = int(rng.integers(1, num_fm_rows + 4))
    num_samples = int(rng.integers(1, 6))
    density = rng.uniform(0.2, 0.9)
    compat = (
        rng.random((num_samples, num_fm_rows, num_rows)) < density
    ).astype(np.uint8)
    closed = (rng.random((num_samples, num_rows)) < 0.25).astype(np.uint8)
    # map_sample_batch zeroes closed rows out of the compatibility
    # tensor before the kernels see it; mirror that here.
    compat &= 1 - closed[:, None, :]
    return compat, closed, num_minterms


class TestKernelOracle:
    """`_kernels_py` (pure Python) against the NumPy replicas."""

    @pytest.mark.parametrize(
        "mode,backtracking",
        [(kernels_py.MODE_GREEDY, False), (kernels_py.MODE_HYBRID, True)],
    )
    def test_first_fit_modes_match_replica(self, mode, backtracking):
        rng = np.random.default_rng(2024 + mode)
        for _ in range(60):
            compat, closed, num_minterms = random_instance(rng)
            success, backtracks, valid = kernels_py.map_builtin_batch(
                compat, closed, num_minterms, mode
            )
            for s in range(compat.shape[0]):
                usable = np.flatnonzero(closed[s] == 0)
                ok, bt, good = _replica_hybrid(
                    compat[s], usable, num_minterms, backtracking=backtracking
                )
                assert bool(success[s]) == ok
                assert int(backtracks[s]) == bt
                if ok:
                    assert bool(valid[s]) == good

    def test_exact_mode_matches_replica(self):
        rng = np.random.default_rng(4242)
        for _ in range(60):
            compat, closed, num_minterms = random_instance(rng)
            success, backtracks, _ = kernels_py.map_builtin_batch(
                compat, closed, compat.shape[1], kernels_py.MODE_EXACT
            )
            assert not backtracks.any()  # the exact mapper never backtracks
            for s in range(compat.shape[0]):
                usable = np.flatnonzero(closed[s] == 0)
                ok, _, _ = _replica_exact(compat[s], usable)
                assert bool(success[s]) == ok

    def test_merge_pass_matches_replica(self):
        rng = random.Random(99)
        for trial in range(40):
            num_inputs = rng.randint(2, 8)
            num_cubes = rng.randint(0, 12)
            values = np.array(
                [
                    [rng.choice((0, 1, 2)) for _ in range(num_inputs)]
                    for _ in range(num_cubes)
                ],
                dtype=np.uint8,
            ).reshape(num_cubes, num_inputs)
            expected = _merge_distance_one_values(values, compiled=False)
            from repro.boolean.packed import (
                _dedupe_values,
                _without_contained_values,
            )

            merged = kernels_py.merge_distance_one(values)
            actual = _without_contained_values(_dedupe_values(merged))
            assert np.array_equal(actual, expected), f"trial {trial}"


@requires_backend
class TestLoadedBackend:
    """The loaded C backend against the pure-Python oracle."""

    def test_map_builtin_batch_matches_oracle(self):
        kernels = compiled.get_kernels()
        rng = np.random.default_rng(7)
        modes = {
            "exact": kernels_py.MODE_EXACT,
            "greedy": kernels_py.MODE_GREEDY,
            "hybrid": kernels_py.MODE_HYBRID,
        }
        for _ in range(40):
            compat, closed, num_minterms = random_instance(rng)
            for kind, mode in modes.items():
                got = kernels.map_builtin_batch(
                    compat, closed, num_minterms, kind=kind
                )
                want = kernels_py.map_builtin_batch(
                    compat, closed, num_minterms, mode
                )
                for g, w in zip(got, want):
                    assert np.array_equal(g, w), kind

    def test_rejects_shapes_the_kernels_would_overrun(self):
        kernels = compiled.get_kernels()
        compat = np.ones((2, 3, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match="closed mask"):
            kernels.map_builtin_batch(
                compat, np.zeros((2, 5), dtype=np.uint8), 1, kind="exact"
            )
        with pytest.raises(ValueError, match="minterm"):
            kernels.map_builtin_batch(
                compat, np.zeros((2, 4), dtype=np.uint8), 4, kind="hybrid"
            )
        with pytest.raises(ValueError, match="column count"):
            kernels.compatibility_tensor(
                np.ones((3, 5), dtype=np.uint8), np.ones((2, 4, 6), dtype=np.uint8)
            )

    def test_merge_distance_one_matches_oracle(self):
        kernels = compiled.get_kernels()
        rng = random.Random(5)
        for _ in range(40):
            num_inputs = rng.randint(2, 10)
            num_cubes = rng.randint(0, 10)
            values = np.array(
                [
                    [rng.choice((0, 1, 2)) for _ in range(num_inputs)]
                    for _ in range(num_cubes)
                ],
                dtype=np.uint8,
            ).reshape(num_cubes, num_inputs)
            assert np.array_equal(
                kernels.merge_distance_one(values),
                kernels_py.merge_distance_one(values),
            )


def _int_id(value: int) -> str:
    """A test id for an int: its digits, or their count when there are many."""
    digits = str(abs(value))
    if len(digits) <= 20:
        return str(value)
    return f"{'-' if value < 0 else ''}{len(digits)}digits"


#: Sample starts at the edges of the decimal and uint64 ranges.
EDGE_STARTS = [0, 2**32 - 1, 2**63 - 16, 2**64 - 4]
#: Decimal roots whose first message, "<root>,<start>", is 127, 128, 129
#: or 256 bytes long: BLAKE2b's last-block cases.
SIZED_ROOTS = [
    (10 ** (length - 2 - len(str(start))), start)
    for start in EDGE_STARTS
    for length in (127, 128, 129, 256)
]


@requires_backend
class TestNativeUniformDraw:
    """The native uniform draw against ``random.Random`` and the per-sample path."""

    @pytest.mark.parametrize("raw", [0, 1, 2**32 - 1, 2**32, 2**63 - 1])
    def test_kernel_replays_random_random(self, raw):
        kernels = compiled.get_kernels()
        for rows, columns in [(1, 1), (3, 7), (19, 30)]:
            for rate, fraction in [(0.1, 1.0), (0.5, 0.7), (1.0, 0.0)]:
                profile = DefectProfile(rate=rate, stuck_open_fraction=fraction)
                defects = draw_uniform(random.Random(raw), rows, columns, profile)
                want = DefectMap(rows, columns, defects).to_arrays()
                got = kernels.inject_uniform_batch(
                    [raw], rows, columns, rate=rate, stuck_open_fraction=fraction
                )
                for g, w in zip(got, want):
                    assert np.array_equal(g[0], w), (rows, columns, rate, fraction)

    @pytest.mark.parametrize(
        "rows, columns, samples",
        [(1, 1, 4), (3, 7, 4), (19, 30, 4), (583, 44, 2)],
        ids=["1x1", "3x7", "19x30", "583x44"],
    )
    def test_batch_matches_per_sample_path(self, rows, columns, samples):
        kernels = compiled.get_kernels()
        # The last five sit next to a threshold the kernel rounds up.
        for rate in (
            0.0, 0.02, 0.1, 0.5, 1.0,
            5e-324, 1e-300, math.nextafter(0.1, 0), math.nextafter(0.1, 1),
            1 - 2**-53,
        ):
            for fraction in (1.0, 0.7, 0.0):
                model = create_defect_model(
                    "uniform", rate=rate, stuck_open_fraction=fraction
                )
                kwargs = dict(seed=11, start=5, stop=5 + samples)
                native = DefectBatch.generate(
                    model, rows, columns, kernels=kernels, **kwargs
                )
                oracle = DefectBatch.generate(model, rows, columns, **kwargs)
                assert len(native) == len(oracle) == samples
                assert (native.rows, native.columns) == (oracle.rows, oracle.columns)
                for name in ("functional", "closed_rows", "closed_columns", "dropped"):
                    got, want = getattr(native, name), getattr(oracle, name)
                    assert got.dtype == want.dtype, name
                    assert np.array_equal(got, want), (name, rate, fraction)

    @pytest.mark.parametrize("raw", [0, 1, 2**32 - 1, 2**32, 2**63 - 1])
    def test_rate_threshold_is_exact(self, raw):
        kernels = compiled.get_kernels()
        rng = random.Random(raw)
        rate_draw, kind_draw = rng.random(), rng.random()

        def first_crosspoint(rate, fraction):
            functional, closed_rows, _ = kernels.inject_uniform_batch(
                [raw], 1, 1, rate=rate, stuck_open_fraction=fraction
            )
            return int(functional[0, 0, 0]), bool(closed_rows[0, 0])

        # A draw equal to the rate is not below it; one ulp more is.
        assert first_crosspoint(rate_draw, 1.0) == (1, False)
        assert first_crosspoint(math.nextafter(rate_draw, 1), 1.0) == (0, False)
        # The same for the kind draw: stuck-closed unless below the fraction.
        assert first_crosspoint(1.0, kind_draw) == (0, True)
        assert first_crosspoint(1.0, math.nextafter(kind_draw, 1)) == (0, False)

    @pytest.fixture
    def overridden_uniform(self):
        registry = defect_models.default_registry
        injector = registry.injector("uniform")
        validator = registry._validators["uniform"]

        def every_other_row(rows, columns, *, seed=0, rate=0.1,
                            stuck_open_fraction=1.0):
            del seed, rate, stuck_open_fraction
            return DefectMap(rows, columns, [
                Defect(row, 0, DefectType.STUCK_CLOSED)
                for row in range(0, rows, 2)
            ])

        register_defect_model("uniform", every_other_row, override=True)
        yield every_other_row
        register_defect_model(
            "uniform", injector, override=True, validate=validator
        )

    def test_overridden_uniform_keeps_the_per_sample_path(self, overridden_uniform):
        model = create_defect_model("uniform", rate=0.1)
        batch = DefectBatch.generate(
            model, 5, 3, seed=4, start=0, stop=3, kernels=compiled.get_kernels()
        )
        want = overridden_uniform(5, 3).to_arrays()
        for offset in range(3):
            for got, expected in zip(
                (batch.functional, batch.closed_rows, batch.closed_columns), want
            ):
                assert np.array_equal(got[offset], expected)

    @pytest.mark.parametrize(
        "root, start",
        [
            (root, start)
            for root in (0, 1, -1, 2**63 - 1, 2**64 + 5, -(10**200), 10**300)
            for start in EDGE_STARTS
        ]
        + SIZED_ROOTS,
        ids=_int_id,
    )
    def test_stream_seeds_match_derive_seed(self, root, start):
        stop = min(start + 8, 2**64)
        got = compiled.get_kernels().uniform_stream_seeds(
            root, "inject-uniform", start, stop
        )
        assert got.dtype == np.uint64
        assert got.tolist() == [
            derive_seed(derive_seed(root, index), "inject-uniform")
            for index in range(start, stop)
        ]

    @pytest.mark.parametrize(
        "start, stop", [(-1, 4), (5, 4), (0, 2**64 + 1)],
        ids=["negative-start", "stop-before-start", "stop-past-2**64"],
    )
    def test_stream_seeds_reject_ranges_outside_uint64(self, start, stop):
        with pytest.raises(ValueError, match="sample range"):
            compiled.get_kernels().uniform_stream_seeds(
                7, "inject-uniform", start, stop
            )

    def test_stream_seeds_accept_an_empty_range_at_2_64(self):
        got = compiled.get_kernels().uniform_stream_seeds(
            7, "inject-uniform", 2**64, 2**64
        )
        assert got.shape == (0,) and got.dtype == np.uint64

    def test_rejects_arguments_the_kernel_would_overrun(self):
        kernels = compiled.get_kernels()
        with pytest.raises(ValueError, match="1-D"):
            kernels.inject_uniform_batch(
                [[1, 2]], 2, 2, rate=0.1, stuck_open_fraction=1.0
            )
        with pytest.raises(ValueError, match="crosspoints"):
            kernels.inject_uniform_batch(
                [1], 0, 2, rate=0.1, stuck_open_fraction=1.0
            )


# ----------------------------------------------------------------------
# Kernel differentials at Table II scale
# ----------------------------------------------------------------------
def hall_threshold_batch(rng, num_fm_rows: int, num_samples: int):
    """Dense samples with about ln(n) compatible rows per FM row.

    At that density about as many samples admit a saturating matching
    as not, and the ones that do need long augmenting paths.  Every FM
    row keeps at least one compatible usable row and the usable rows
    outnumber the FM rows, so only the matching itself can fail.
    """
    num_rows = num_fm_rows + int(rng.integers(1, 5))
    closed = np.zeros((num_samples, num_rows), dtype=np.uint8)
    compat = np.zeros((num_samples, num_fm_rows, num_rows), dtype=np.uint8)
    for s in range(num_samples):
        spare = num_rows - num_fm_rows
        closed[s, rng.choice(num_rows, int(rng.integers(0, spare)), replace=False)] = 1
        density = rng.uniform(0.85, 1.1) * np.log(num_rows) / num_rows
        compat[s] = rng.random((num_fm_rows, num_rows)) < density
        compat[s] &= 1 - closed[s]
        usable = np.flatnonzero(closed[s] == 0)
        for row in np.flatnonzero(compat[s].sum(axis=1) == 0):
            compat[s, row, rng.choice(usable)] = 1
    return compat, closed


def long_path_instance(chain: int, *, satisfiable: bool):
    """One sample that only an augmenting path of 2 * chain + 1 edges saturates.

    FM row ``i < chain`` fits crossbar rows ``i`` and ``i + 1``, so the
    greedy first-free pass gives row ``i`` crossbar row ``i``.  The last
    FM row fits only crossbar row 0, and the one crossbar row still free
    (``chain``) is reachable from it only through the whole chain.  In
    the unsatisfiable variant that row is stuck-closed.
    """
    compat = np.zeros((1, chain + 1, chain + 1), dtype=np.uint8)
    for i in range(chain):
        compat[0, i, i] = compat[0, i, i + 1] = 1
    compat[0, chain, 0] = 1
    closed = np.zeros((1, chain + 1), dtype=np.uint8)
    if not satisfiable:
        closed[0, chain] = 1
        compat &= 1 - closed[:, None, :]
    return compat, closed


def assert_kernels_agree(compat, closed, num_minterms, kind):
    """C vs the Python oracle vs the NumPy replicas; returns the successes."""
    mode = {"exact": kernels_py.MODE_EXACT, "hybrid": kernels_py.MODE_HYBRID}[kind]
    got = compiled.get_kernels().map_builtin_batch(
        compat, closed, num_minterms, kind=kind
    )
    want = kernels_py.map_builtin_batch(compat, closed, num_minterms, mode)
    for g, w in zip(got, want):
        assert np.array_equal(g, w), kind
    success, backtracks, valid = got
    for s in range(compat.shape[0]):
        usable = np.flatnonzero(closed[s] == 0)
        if kind == "exact":
            replica = _replica_exact(compat[s], usable)
        else:
            replica = _replica_hybrid(
                compat[s], usable, num_minterms, backtracking=True
            )
        assert (bool(success[s]), int(backtracks[s])) == replica[:2]
        if success[s]:
            assert valid[s] and replica[2]
    return success.astype(bool)


@requires_backend
class TestTableIIScaleKernels:
    """Matchings as large and as deep as Table II's circuits produce."""

    @pytest.mark.parametrize("kind,num_minterms", [("exact", 0), ("hybrid", 4)])
    def test_hall_threshold_instances(self, kind, num_minterms):
        rng = np.random.default_rng(31)
        outcomes = []
        for num_fm_rows in (100, 250, 400, 600):
            compat, closed = hall_threshold_batch(rng, num_fm_rows, 2)
            outcomes += assert_kernels_agree(compat, closed, num_minterms, kind).tolist()
        # Near the threshold both answers occur; neither side is vacuous.
        assert any(outcomes) and not all(outcomes)

    @pytest.mark.parametrize("kind", ["exact", "hybrid"])
    @pytest.mark.parametrize("stage", ["minterm", "output"])
    def test_a_row_with_no_compatible_row_fails_every_sample(self, kind, stage):
        # One minterm or output row fits no usable crossbar row.  Every
        # sample fails, but HBA may count backtracks before the dead end.
        rng = np.random.default_rng(47)
        num_minterms = 8
        backtracks = 0
        for num_fm_rows in (12, 30, 60):
            dead = num_minterms - 1 if stage == "minterm" else num_fm_rows - 1
            compat, closed = hall_threshold_batch(rng, num_fm_rows, 4)
            compat[:, dead] = 0
            assert not assert_kernels_agree(compat, closed, num_minterms, kind).any()
            backtracks += int(compiled.get_kernels().map_builtin_batch(
                compat, closed, num_minterms, kind=kind
            )[1].sum())
        assert (backtracks > 0) == (kind == "hybrid")

    @pytest.mark.parametrize("kind", ["exact", "hybrid"])
    @pytest.mark.parametrize("chain", [5, 12, 40])
    def test_only_a_long_augmenting_path_saturates(self, kind, chain):
        # 2 * chain + 1 >= 11 edges.  In hybrid mode every FM row is an
        # output row, so the output stage's matching does the search.
        compat, closed = long_path_instance(chain, satisfiable=True)
        assert assert_kernels_agree(compat, closed, 0, kind).tolist() == [True]
        compat, closed = long_path_instance(chain, satisfiable=False)
        assert assert_kernels_agree(compat, closed, 0, kind).tolist() == [False]

    @pytest.mark.parametrize("columns", [44, 64, 65, 142])
    def test_native_tensor_matches_blas(self, columns):
        # 44: alu4's width, one word; 64/65: either side of a word
        # boundary; 142: exp5's width, three words.
        rng = np.random.default_rng(columns)
        fm = (rng.random((37, columns)) < 0.15).astype(np.uint8)
        fm[5] = 0  # an FM row that needs no device fits every row
        fm[6] = 1
        cm = (rng.random((6, 41, columns)) < 0.97).astype(np.uint8)
        want = compatibility_tensor(fm, cm)
        got = compatibility_tensor(fm, cm, kernels=compiled.get_kernels())
        assert got.dtype == want.dtype == np.bool_
        assert got.shape == want.shape == (6, 37, 41)
        assert np.array_equal(got, want)
        assert got[:, 5].all()
        assert got.any() and not got.all()


# ----------------------------------------------------------------------
# End-to-end parity: compiled vs vectorized vs reference
# ----------------------------------------------------------------------
@requires_backend
class TestCompiledEngineParity:
    @pytest.mark.parametrize("rate", [0.0, 0.05, 0.15, 0.30])
    def test_counting_statistics_match_across_engines(self, rate):
        function = get_benchmark("rd53")
        kwargs = dict(
            defect_rate=rate, sample_size=30, seed=17,
            algorithms=("hybrid", "exact", "greedy"), workers=1,
        )
        results = {
            engine: run_mapping_monte_carlo(function, engine=engine, **kwargs)
            for engine in ("compiled", "vectorized", "reference")
        }
        assert counting(results["compiled"]) == counting(results["vectorized"])
        assert counting(results["compiled"]) == counting(results["reference"])
        assert results["compiled"].engine == "compiled"

    def test_redundancy_parity(self):
        function = get_benchmark("rd53")
        for extra_rows, extra_columns in [(1, 0), (2, 2)]:
            kwargs = dict(
                defect_rate=0.15, sample_size=16, seed=5,
                extra_rows=extra_rows, extra_columns=extra_columns,
                workers=1,
            )
            com = run_mapping_monte_carlo(function, engine="compiled", **kwargs)
            vec = run_mapping_monte_carlo(function, engine="vectorized", **kwargs)
            assert counting(com) == counting(vec)

    def test_multilevel_parity(self):
        function = get_benchmark("rd53")
        kwargs = dict(
            defect_rate=0.10, sample_size=12, seed=9,
            algorithms=("hybrid",), workers=1,
            multilevel={"strategy": "best"},
        )
        com = run_mapping_monte_carlo(function, engine="compiled", **kwargs)
        vec = run_mapping_monte_carlo(function, engine="vectorized", **kwargs)
        assert counting(com) == counting(vec)

    def test_boolean_minimize_parity(self):
        for num_inputs in (3, 5, 8):
            for seed in range(4):
                rng = random.Random(1000 * num_inputs + seed)
                spec = RandomFunctionSpec(
                    num_inputs=num_inputs, min_products=1,
                    max_products=3 * num_inputs,
                )
                cover = random_cover(spec, rng, engine="reference")
                strings = {
                    engine: minimize_cover(cover, engine=engine).to_strings()
                    for engine in ("reference", "vectorized", "compiled")
                }
                assert strings["compiled"] == strings["vectorized"]
                assert strings["compiled"] == strings["reference"]

    def test_minimize_empty_and_tautology(self):
        assert minimize_cover(Cover.zero(4), engine="compiled").is_empty()
        tautology = Cover.from_strings(3, ["0--", "1--"])
        assert minimize_cover(tautology, engine="compiled").is_tautology()


# ----------------------------------------------------------------------
# Cross-engine merge (the satellite bugfix)
# ----------------------------------------------------------------------
class TestCrossEngineMerge:
    @staticmethod
    def run_slice(engine: str, offset: int, size: int, **overrides):
        kwargs = dict(
            defect_rate=0.10, sample_size=size, seed=23,
            algorithms=("hybrid", "exact"), workers=1,
            sample_offset=offset, engine=engine,
        )
        kwargs.update(overrides)
        return run_mapping_monte_carlo(get_benchmark("rd53"), **kwargs)

    def test_cross_engine_merge_matches_single_run(self):
        first = self.run_slice("vectorized", 0, 12)
        second = self.run_slice("reference", 12, 12)
        first.merge(second)
        assert first.engine == "mixed"
        assert first.sample_ranges == [[0, 24]]
        single = self.run_slice("vectorized", 0, 24)
        assert counting(first) == counting(single)

    def test_same_engine_merge_keeps_the_name(self):
        first = self.run_slice("vectorized", 0, 8)
        first.merge(self.run_slice("vectorized", 8, 8))
        assert first.engine == "vectorized"

    def test_mixed_engine_round_trips_serialization(self):
        first = self.run_slice("vectorized", 0, 8)
        first.merge(self.run_slice("reference", 8, 8))
        rebuilt = MonteCarloResult.from_dict(first.to_dict())
        assert rebuilt.engine == "mixed"
        assert counting(rebuilt) == counting(first)
        # and a mixed result merges onward without complaint
        rebuilt.merge(self.run_slice("vectorized", 16, 8))
        assert rebuilt.engine == "mixed"
        assert rebuilt.sample_ranges == [[0, 24]]

    def test_contract_conflicts_still_raise(self):
        base = self.run_slice("vectorized", 0, 8)
        with pytest.raises(ExperimentError):
            base.merge(self.run_slice("reference", 8, 8, defect_rate=0.2))
        with pytest.raises(ExperimentError, match="overlap"):
            base.merge(self.run_slice("reference", 4, 8))


# ----------------------------------------------------------------------
# Cross-engine checkpoint resume (service layer)
# ----------------------------------------------------------------------
def tiny_scenario(**overrides) -> Scenario:
    spec = {
        "name": "compiled-svc",
        "source": FunctionSource.benchmark("rd53"),
        "mappers": ("hybrid",),
        "samples": 32,
        "seed": 6,
    }
    spec.update(overrides)
    return Scenario(**spec)


class TestCrossEngineCheckpointResume:
    def test_chunks_from_different_engines_merge(self, tmp_path):
        scenario = tiny_scenario()
        checkpoints = CheckpointStore(tmp_path / "ckpt")
        spec_hash = scenario.content_hash()
        plan = plan_range_chunks(0, 0, scenario.samples, 8)
        engines = ["vectorized", "reference", "auto", "vectorized"]
        for chunk, engine in zip(plan, engines):
            payload = execute_chunk(
                ChunkJob(
                    spec_hash=spec_hash,
                    scenario_payload=scenario.to_dict(),
                    chunk=chunk,
                    engine=engine,
                )
            )
            checkpoints.write_chunk(spec_hash, chunk.key, payload)
        # Reload from disk — the resume path — and merge across engines.
        restored = [
            checkpoints.read_chunk(spec_hash, chunk.key) for chunk in plan
        ]
        assert all(restored)
        merged = merge_mapping_chunks(restored)
        assert merged.engine == "mixed"
        assert merged.sample_ranges == [[0, 32]]
        direct = run_scenario(scenario, workers=1).monte_carlo()
        assert merged.counting_statistics() == direct.counting_statistics()

    def test_orchestrator_resumes_over_foreign_engine_chunks(self, tmp_path):
        # A campaign checkpointed on a reference-engine machine must
        # resume cleanly on a machine whose `auto` resolves differently.
        scenario = tiny_scenario(samples=40)
        checkpoints = CheckpointStore(tmp_path / "ckpt")
        spec_hash = scenario.content_hash()
        plan = plan_range_chunks(0, 0, scenario.samples, 8)
        for chunk in plan[:2]:
            payload = execute_chunk(
                ChunkJob(
                    spec_hash=spec_hash,
                    scenario_payload=scenario.to_dict(),
                    chunk=chunk,
                    engine="reference",
                )
            )
            checkpoints.write_chunk(spec_hash, chunk.key, payload)

        async def resume():
            orchestrator = Orchestrator(
                checkpoints, workers=1, chunk_size=8, engine="auto"
            )
            job = await orchestrator.submit(scenario)
            await orchestrator.wait(job.job_id)
            orchestrator.shutdown()
            return job

        job = asyncio.run(resume())
        assert job.status == "done", job.error
        assert job.loaded_chunks == 2
        assert job.executed_chunks == len(plan) - 2
        direct = run_scenario(scenario, workers=1)
        assert job.result.counting_statistics() == direct.counting_statistics()


# ----------------------------------------------------------------------
# CLI engine names on every subcommand
# ----------------------------------------------------------------------
class TestCLIEngineAliases:
    @pytest.mark.parametrize("spelling", ENGINES)
    def test_every_subcommand_parses_every_spelling(self, spelling):
        parser = build_parser()
        for argv in (
            ["run", "sweep", "--engine", spelling],
            ["analyze", "yield", "--engine", spelling],
            ["serve", "--engine", spelling],
        ):
            assert parser.parse_args(argv).engine == spelling

    def test_unknown_engine_rejected_at_parse_time(self, capsys):
        parser = build_parser()
        for spelling in ("warp", "packed", "object", "batch"):
            for argv in (
                ["run", "sweep", "--engine", spelling],
                ["analyze", "yield", "--engine", spelling],
                ["serve", "--engine", spelling],
            ):
                with pytest.raises(SystemExit):
                    parser.parse_args(argv)
        capsys.readouterr()

    def test_serve_rejects_unknown_engine(self, tmp_path):
        with pytest.raises(ExperimentError, match="unknown engine"):
            Orchestrator(CheckpointStore(tmp_path / "ckpt"), engine="warp")
