"""Every tiered layer takes the one engine vocabulary, ``repro.engines.ENGINES``.

Each entry point runs once per name in :data:`~repro.engines.ENGINES`
and must accept it, and once per retired per-layer spelling
(``packed``, ``object``, ``batch``) or unknown name and must raise the
shared ``ExperimentError("unknown engine ...")``.
"""

from __future__ import annotations

import pytest

from repro.api.runner import run_scenario
from repro.api.scenarios import FunctionSource, Scenario
from repro.boolean.cover import Cover
from repro.boolean.minimize import minimize_cover, quine_mccluskey
from repro.boolean.random_functions import (
    RandomFunctionSpec,
    random_single_output_function,
)
from repro.circuits import get_benchmark
from repro.crossbar.simulator import verify_layout
from repro.crossbar.two_level import TwoLevelDesign
from repro.defects.injection import inject_uniform
from repro.defects.types import DefectProfile
from repro.engines import ENGINES, resolve_mapping_engine
from repro.exceptions import ExperimentError
from repro.experiments.figure6 import Figure6Config, evaluate_sample, scenario_for
from repro.experiments.monte_carlo import run_mapping_monte_carlo
from repro.mapping.function_matrix import FunctionMatrix
from repro.mapping.result import MappingResult
from repro.mapping.validate import validate_functionally
from repro.service.orchestrator import Orchestrator
from repro.service.store import CheckpointStore

REJECTED = ("packed", "object", "batch", "warp")

SPEC = RandomFunctionSpec(num_inputs=5, min_products=2, max_products=6)


def _function():
    return random_single_output_function(SPEC, seed=1)


def _monte_carlo(engine, tmp_path):
    result = run_mapping_monte_carlo(
        get_benchmark("rd53"), sample_size=2, algorithms=("hybrid",),
        workers=1, engine=engine,
    )
    assert result.engine == resolve_mapping_engine(engine)


def _mapping_scenario(engine, tmp_path):
    scenario = Scenario(
        name="vocabulary", source=FunctionSource.benchmark("rd53"),
        mappers=("hybrid",), samples=2, seed=1,
    )
    assert len(run_scenario(scenario, workers=1, engine=engine).rows) == 1


def _area_scenario(engine, tmp_path):
    scenario = scenario_for(Figure6Config(sample_size=1), 8)
    assert len(run_scenario(scenario, workers=1, engine=engine).rows) == 1


def _minimize_cover(engine, tmp_path):
    cover = Cover.from_strings(4, ["1-0-", "110-", "0011", "0111"])
    assert minimize_cover(cover, engine=engine).equivalent(cover)


def _quine_mccluskey(engine, tmp_path):
    cover = quine_mccluskey(4, [1, 3, 5, 7], engine=engine)
    assert sorted(cover.minterms()) == [1, 3, 5, 7]


def _random_function(engine, tmp_path):
    function = random_single_output_function(SPEC, seed=1, engine=engine)
    assert function.cover_for_output(0) == _function().cover_for_output(0)


def _evaluate_sample(engine, tmp_path):
    assert evaluate_sample(_function(), engine=engine).two_level_cost > 0


def _verify_layout(engine, tmp_path):
    function = _function()
    layout = TwoLevelDesign(function).layout
    assert verify_layout(layout, function, engine=engine)


def _validate_functionally(engine, tmp_path):
    function = _function()
    fm = FunctionMatrix(function)
    defect_map = inject_uniform(
        fm.num_rows, fm.num_columns, DefectProfile(rate=0.0), seed=0
    )
    identity = MappingResult(
        success=True,
        algorithm="identity",
        row_assignment={row: row for row in range(fm.num_rows)},
    )
    assert validate_functionally(function, defect_map, identity, engine=engine)


def _orchestrator(engine, tmp_path):
    orchestrator = Orchestrator(
        CheckpointStore(tmp_path / "ckpt"), workers=1, engine=engine
    )
    orchestrator.shutdown()
    assert orchestrator.engine == engine


ENTRY_POINTS = {
    "run_mapping_monte_carlo": _monte_carlo,
    "run_scenario[mapping]": _mapping_scenario,
    "run_scenario[area]": _area_scenario,
    "minimize_cover": _minimize_cover,
    "quine_mccluskey": _quine_mccluskey,
    "random_single_output_function": _random_function,
    "evaluate_sample": _evaluate_sample,
    "verify_layout": _verify_layout,
    "validate_functionally": _validate_functionally,
    "Orchestrator": _orchestrator,
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_layer_accepts_every_engine(entry, engine, tmp_path):
    ENTRY_POINTS[entry](engine, tmp_path)


@pytest.mark.parametrize("engine", REJECTED)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_layer_rejects_other_names(entry, engine, tmp_path):
    with pytest.raises(ExperimentError, match="unknown engine") as excinfo:
        ENTRY_POINTS[entry](engine, tmp_path)
    for name in ENGINES:
        assert repr(name) in str(excinfo.value)
