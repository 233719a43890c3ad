"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.scenarios import FunctionSource, Scenario, ScenarioSuite
from repro.cli import main, resolve_target

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def tiny_scenario_file(tmp_path):
    scenario = Scenario(
        name="tiny",
        source=FunctionSource.benchmark("rd53"),
        mappers=("hybrid",),
        samples=3,
        seed=1,
    )
    path = tmp_path / "tiny.json"
    path.write_text(scenario.to_json())
    return path


@pytest.fixture
def tiny_suite_file(tmp_path):
    suite = ScenarioSuite(
        "tiny-suite",
        (
            Scenario(
                name="a",
                source=FunctionSource.benchmark("rd53"),
                mappers=("hybrid",),
                samples=2,
            ),
            Scenario(
                name="b",
                source=FunctionSource.benchmark("rd53"),
                mappers=("greedy",),
                samples=2,
            ),
        ),
    )
    path = tmp_path / "suite.json"
    path.write_text(suite.to_json())
    return path


def test_import_leaves_scipy_unloaded():
    # SciPy is most of the CLI's start-up time, and only the NumPy
    # replicas (and large Munkres problems) use it.
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    probe = "import sys, repro.cli; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert result.stdout.strip() == "False"


class TestList:
    def test_list_mappers(self, capsys):
        assert main(["list", "mappers"]) == 0
        out = capsys.readouterr().out.split()
        assert "hybrid" in out and "exact" in out

    def test_list_defect_models(self, capsys):
        assert main(["list", "defect-models"]) == 0
        out = capsys.readouterr().out.split()
        assert "uniform" in out and "clustered" in out

    def test_list_scenarios(self, capsys):
        assert main(["list", "scenarios"]) == 0
        out = capsys.readouterr().out
        for target in ("table2", "sweep", "redundancy", "figure6"):
            assert target in out


class TestResolveTarget:
    def test_builtin_targets(self):
        for target in ("table2", "sweep", "redundancy", "figure6"):
            suite = resolve_target(target)
            assert len(suite) >= 1

    def test_scenario_name_from_builtin_suite(self):
        suite = resolve_target("rd53")
        assert suite.names() == ["rd53"]

    def test_unknown_target(self):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError):
            resolve_target("no-such-thing")

    def test_missing_json_file(self):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError):
            resolve_target("missing.json")

    def test_json_without_expected_keys(self, tmp_path):
        from repro.exceptions import ExperimentError

        path = tmp_path / "bogus.json"
        path.write_text("{}")
        with pytest.raises(ExperimentError):
            resolve_target(str(path))

    def test_malformed_json_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_object_json_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["run", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_spec_with_missing_fields_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text('{"source": {"kind": "benchmark", "spec": {}}}')
        assert main(["run", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestRun:
    def test_run_scenario_file(self, tiny_scenario_file, tmp_path, capsys):
        jsonl = tmp_path / "artifacts.jsonl"
        code = main(
            ["run", str(tiny_scenario_file), "--workers", "1", "--jsonl", str(jsonl)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Psucc[hybrid]" in captured.out
        assert jsonl.exists()

    def test_rerun_hits_cache(self, tiny_scenario_file, tmp_path, capsys):
        jsonl = tmp_path / "artifacts.jsonl"
        argv = [
            "run",
            str(tiny_scenario_file),
            "--workers",
            "1",
            "--jsonl",
            str(jsonl),
        ]
        assert main(argv) == 0
        size_after_first = jsonl.stat().st_size
        capsys.readouterr()
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "cached" in captured.err
        assert jsonl.stat().st_size == size_after_first  # nothing re-appended
        assert main(argv + ["--force"]) == 0
        captured = capsys.readouterr()
        assert "cached" not in captured.err
        assert jsonl.stat().st_size > size_after_first

    def test_run_suite_file_with_overrides(self, tiny_suite_file, tmp_path, capsys):
        jsonl = tmp_path / "artifacts.jsonl"
        code = main(
            [
                "run",
                str(tiny_suite_file),
                "--workers",
                "1",
                "--samples",
                "4",
                "--seed",
                "9",
                "--jsonl",
                str(jsonl),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "tiny-suite"
        assert [r["scenario"]["name"] for r in payload["results"]] == ["a", "b"]
        assert all(r["scenario"]["samples"] == 4 for r in payload["results"])
        assert all(r["scenario"]["seed"] == 9 for r in payload["results"])

    def test_out_markdown(self, tiny_scenario_file, tmp_path, capsys):
        jsonl = tmp_path / "artifacts.jsonl"
        out = tmp_path / "report.md"
        code = main(
            [
                "run",
                str(tiny_scenario_file),
                "--workers",
                "1",
                "--jsonl",
                str(jsonl),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[0].startswith("**")
        assert "| Psucc[hybrid] |" in text.replace("  ", " ") or "Psucc" in text
        # tables are not duplicated on stdout when --out is given
        assert "Psucc" not in capsys.readouterr().out

    def test_out_monospace(self, tiny_scenario_file, tmp_path):
        jsonl = tmp_path / "artifacts.jsonl"
        out = tmp_path / "report.txt"
        assert (
            main(
                [
                    "run",
                    str(tiny_scenario_file),
                    "--workers",
                    "1",
                    "--jsonl",
                    str(jsonl),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert "Psucc[hybrid]" in out.read_text()

    def test_unknown_target_exit_code(self, capsys):
        assert main(["run", "no-such-thing"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_builtin_sweep_small(self, tmp_path, capsys):
        jsonl = tmp_path / "artifacts.jsonl"
        code = main(
            [
                "run",
                "sweep",
                "--samples",
                "2",
                "--workers",
                "1",
                "--jsonl",
                str(jsonl),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "misex1@0.1" in out
