"""Crash-safety and concurrency tests for the store + service layer.

Four properties the service layer stakes its correctness on:

* a crash-truncated artifact store stays readable (the torn trailing
  line is skipped with a warning, not an exception);
* a long-lived store's incremental scan always equals a fresh full
  scan of the same file, whatever was appended, torn, truncated or
  replaced in between, and threads may read while another appends;
* N processes appending blocks to one JSONL store lose nothing and
  never interleave partial records;
* an orchestrator killed mid-campaign resumes from its chunk
  checkpoints, executes *only* the missing chunks, and the merged
  counting statistics are bit-for-bit those of an uninterrupted run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
import warnings
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.api.artifacts import ArtifactStore
from repro.api.defect_models import (
    DefectModel,
    register_defect_model,
    unregister_defect_model,
)
from repro.api.runner import run_scenario
from repro.api.scenarios import FunctionSource, Scenario
from repro.defects.injection import inject_uniform
from repro.service.orchestrator import Orchestrator
from repro.service.store import CheckpointStore

SRC = str(Path(__file__).resolve().parents[1] / "src")


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# ----------------------------------------------------------------------
# Crash-truncated / malformed store lines (hardened scan)
# ----------------------------------------------------------------------
class TestStoreRobustness:
    @staticmethod
    def complete_block(store: ArtifactStore, spec_hash: str) -> None:
        store.write_block(spec_hash, {"name": spec_hash}, [{"value": 1}])

    def test_truncated_trailing_line_is_skipped_with_warning(self, tmp_path):
        path = tmp_path / "artifacts.jsonl"
        store = ArtifactStore(path)
        self.complete_block(store, "good")
        # Simulate a crash mid-append: a torn, newline-less final record.
        with path.open("a") as handle:
            handle.write('{"kind": "row", "hash": "torn", "da')
        fresh = ArtifactStore(path)
        with pytest.warns(RuntimeWarning, match="crash-truncated final"):
            records = fresh.scan()
        assert records["good"].complete
        assert fresh.load("good") is not None

    def test_malformed_middle_line_is_skipped_with_warning(self, tmp_path):
        path = tmp_path / "artifacts.jsonl"
        store = ArtifactStore(path)
        self.complete_block(store, "first")
        with path.open("a") as handle:
            handle.write("not json at all\n")
        self.complete_block(store, "second")
        fresh = ArtifactStore(path)
        with pytest.warns(RuntimeWarning, match=r"malformed record at .*:4"):
            records = fresh.scan()
        assert records["first"].complete and records["second"].complete

    def test_non_string_hash_is_skipped_with_warning(self, tmp_path):
        path = tmp_path / "artifacts.jsonl"
        store = ArtifactStore(path)
        self.complete_block(store, "good")
        with path.open("a") as handle:
            handle.write('{"kind": "row", "hash": [1]}\n')
            handle.write('{"kind": "begin", "hash": {"h": 1}, "spec": {}}\n')
        records, messages = scan_with_warnings(store)
        assert records["good"].complete and store.load("good") is not None
        assert messages == {
            f"skipping malformed record at {path}:{line}" for line in (4, 5)
        }

    def test_unfinished_block_does_not_hide_the_complete_one(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts.jsonl")
        store.write_block("a", {"v": 1}, [{"row": 0}])
        # A killed ``--force`` rerun: a block that never finishes...
        store.begin("a", {"v": 2})
        store.append_row("a", 0, {"row": 1})
        assert store.load("a").spec == {"v": 1}
        # ...and another, killed before its first row.
        store.begin("a", {"v": 3})
        assert store.load("a").rows == [{"row": 0}]
        assert ArtifactStore(store.path).load("a").spec == {"v": 1}
        assert "a" in store
        # Once a later block finishes, it is the one served.
        store.append_row("a", 0, {"row": 3})
        store.finish("a", rows=1)
        assert store.load("a").spec == {"v": 3}
        assert store.load("a").rows == [{"row": 3}]

    def test_write_block_is_one_append_of_the_streamed_bytes(
        self, tmp_path, monkeypatch
    ):
        spec = {"name": "svc", "seed": 7}
        rows = [{"row": 0}, {"row": 1}]
        streamed = ArtifactStore(tmp_path / "streamed.jsonl")
        streamed.begin("h", spec)
        for index, row in enumerate(rows):
            streamed.append_row("h", index, row)
        streamed.finish("h", rows=len(rows), elapsed_seconds=1.25)

        store = ArtifactStore(tmp_path / "block.jsonl")
        appends = []
        original = ArtifactStore._append_lines

        def counting(self, entries):
            appends.append(len(entries))
            original(self, entries)

        monkeypatch.setattr(ArtifactStore, "_append_lines", counting)
        store.write_block("h", spec, rows, elapsed_seconds=1.25)
        assert appends == [4]
        assert store.path.read_bytes() == streamed.path.read_bytes()
        assert store.load("h").rows == rows

    def test_truncation_only_loses_the_torn_block(self, tmp_path):
        path = tmp_path / "artifacts.jsonl"
        store = ArtifactStore(path)
        self.complete_block(store, "good")
        self.complete_block(store, "victim")
        # Chop the file mid-way through the last block's end marker.
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        fresh = ArtifactStore(path)
        with pytest.warns(RuntimeWarning, match="crash-truncated final"):
            assert fresh.load("good") is not None
            assert fresh.load("victim") is None  # incomplete, not poisonous


# ----------------------------------------------------------------------
# Incremental scans of a long-lived store
# ----------------------------------------------------------------------
HASHES = ("a", "b", "c")

#: Newline-terminated lines a fresh scan skips: not JSON, not an object,
#: not UTF-8, an object whose hash is not a string, and a blank line it
#: ignores silently.
MALFORMED_LINES = (
    b"not json\n",
    b"{\n",
    b"[1, 2]\n",
    b"\xff\xfe\n",
    b'{"kind": "row", "hash": [1]}\n',
    b'{"kind": "begin", "hash": {"h": 1}}\n',
    b"  \n",
)

store_operations = st.lists(
    st.one_of(
        st.tuples(st.just("block"), st.sampled_from(HASHES), st.integers(0, 3)),
        st.tuples(
            st.just("stream"), st.sampled_from(HASHES), st.integers(0, 3), st.booleans()
        ),
        st.tuples(st.just("torn"), st.sampled_from(HASHES), st.floats(0, 1)),
        st.tuples(st.just("newline")),
        st.tuples(st.just("malformed"), st.sampled_from(MALFORMED_LINES)),
        st.tuples(st.just("truncate"), st.floats(0, 1)),
        st.tuples(st.just("replace"), st.floats(0, 1)),
        st.tuples(st.just("delete")),
    ),
    min_size=1,
    max_size=25,
)


def apply_operation(store: ArtifactStore, operation: tuple, step: int) -> None:
    """One append-only write, or one of the ways a store file gets damaged."""
    path = store.path
    kind = operation[0]
    if kind == "block":
        _, spec_hash, rows = operation
        store.write_block(
            spec_hash,
            {"step": step},
            [{"row": index} for index in range(rows)],
            elapsed_seconds=float(step),
        )
    elif kind == "stream":
        _, spec_hash, rows, finished = operation
        store.begin(spec_hash, {"step": step})
        for index in range(rows):
            store.append_row(spec_hash, index, {"row": index})
        if finished:
            store.finish(spec_hash, rows=rows, elapsed_seconds=float(step))
    elif kind == "torn":
        _, spec_hash, fraction = operation
        line = json.dumps({"kind": "end", "hash": spec_hash, "rows": 0})
        with path.open("a") as handle:
            handle.write(line[: round(len(line) * fraction)])
    elif kind == "newline":
        with path.open("a") as handle:
            handle.write("\n")
    elif kind == "malformed":
        with path.open("ab") as handle:
            handle.write(operation[1])
    elif path.exists():
        raw = path.read_bytes()
        if kind == "truncate":
            os.truncate(path, round(len(raw) * operation[1]))
        elif kind == "replace":
            # A new inode holding a prefix of the old bytes.
            staged = path.with_name("staged.jsonl")
            staged.write_bytes(raw[: round(len(raw) * operation[1])])
            os.replace(staged, path)
        else:
            path.unlink()


def scan_with_warnings(store: ArtifactStore) -> tuple[dict, set[str]]:
    """A scan and the warnings it gave about its own file.

    The recorder is process-wide, so a warning garbage collection
    raises for an earlier test's objects can land in it too.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = store.scan()
    messages = {str(warning.message) for warning in caught}
    return records, {message for message in messages if str(store.path) in message}


class TestIncrementalScan:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(store_operations)
    def test_long_lived_scan_equals_a_fresh_scan(self, operations):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "artifacts.jsonl"
            store = ArtifactStore(path)
            reported: set[str] = set()
            for step, operation in enumerate(operations):
                apply_operation(store, operation, step)
                records, messages = scan_with_warnings(store)
                fresh, fresh_messages = scan_with_warnings(ArtifactStore(path))
                assert records == fresh, (step, operation)
                # The long-lived store reports only lines the fresh scan
                # reports, at the same path:line, and by now it has
                # reported every one of them.
                reported |= messages
                assert messages <= fresh_messages, (step, operation)
                assert fresh_messages <= reported, (step, operation)

    def test_appends_are_folded_without_rereading(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "artifacts.jsonl")
        for index in range(5):
            store.write_block(f"h{index}", {}, [{"row": 0}])
        assert len(store.scan()) == 5
        decoded = []
        original = ArtifactStore._decode_entry

        def counting(records, entry):
            decoded.append(entry)
            original(records, entry)

        monkeypatch.setattr(ArtifactStore, "_decode_entry", staticmethod(counting))
        store.write_block("h5", {}, [{"row": 0}])
        assert len(store.scan()) == 6
        assert [entry["kind"] for entry in decoded] == ["begin", "row", "end"]

    def test_unchanged_file_returns_the_same_result(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts.jsonl")
        store.write_block("a", {}, [{"row": 0}])
        first = store.scan()
        assert store.scan() is first
        store.write_block("b", {}, [{"row": 0}])
        second = store.scan()
        assert second is not first and set(first) == {"a"}
        assert second["a"] is first["a"]  # complete records are shared

    def test_rewrite_in_place_restarts_the_fold(self, tmp_path):
        path = tmp_path / "artifacts.jsonl"
        store = ArtifactStore(path)
        store.write_block("a", {"v": 1}, [{"row": 0}])
        assert store.load("a").spec == {"v": 1}
        inode = path.stat().st_ino
        # Same inode and not shorter, but the folded bytes changed.
        text = path.read_text().replace('"v": 1', '"v": 2')
        with path.open("r+") as handle:
            handle.write(text)
        store.write_block("b", {}, [{"row": 0}])
        assert path.stat().st_ino == inode
        assert store.load("a").spec == {"v": 2}
        assert store.scan() == ArtifactStore(path).scan()

    def test_torn_tail_is_reread_once_completed(self, tmp_path):
        path = tmp_path / "artifacts.jsonl"
        store = ArtifactStore(path)
        store.begin("a", {})
        line = json.dumps({"kind": "row", "hash": "a", "index": 0, "data": {"x": 1}})
        with path.open("a") as handle:
            handle.write(line[:20])
        with pytest.warns(RuntimeWarning, match=r"crash-truncated final record at .*:2"):
            assert store.scan()["a"].rows == []
        with path.open("a") as handle:
            handle.write(line[20:] + "\n")
        store.finish("a", rows=1)
        assert store.load("a").rows == [{"x": 1}]

    def test_records_of_earlier_scans_do_not_change(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts.jsonl")
        store.begin("a", {})
        store.append_row("a", 0, {"row": 0})
        incomplete = store.scan()["a"]
        store.append_row("a", 1, {"row": 1})
        store.finish("a", rows=2, elapsed_seconds=1.0)
        complete = store.load("a")
        assert complete.rows == [{"row": 0}, {"row": 1}]
        assert incomplete.rows == [{"row": 0}] and not incomplete.complete
        # A repeated end marker updates the record without touching the
        # one an earlier scan returned.
        store.finish("a", rows=2, elapsed_seconds=2.0)
        assert store.load("a").elapsed_seconds == 2.0
        assert complete.elapsed_seconds == 1.0

    def test_replaced_file_restarts_even_when_its_tail_matches(self, tmp_path):
        path = tmp_path / "artifacts.jsonl"
        store = ArtifactStore(path)
        store.write_block("a", {"v": 1}, [{"row": 0}])
        # More than TAIL_CHECK_BYTES after "a", so only the inode tells.
        store.write_block("b", {}, [{"pad": "x" * 100} for _ in range(60)])
        assert store.load("a").spec == {"v": 1}
        staged = tmp_path / "staged.jsonl"
        staged.write_text(path.read_text().replace('"v": 1', '"v": 2'))
        os.replace(staged, path)
        assert store.load("a").spec == {"v": 2}

    def test_one_fold_at_a_time(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "artifacts.jsonl")
        store.write_block("a", {}, [{"row": 0}])
        entered, release = threading.Event(), threading.Event()
        paused_threads = []
        original = ArtifactStore._decode_entry

        def pausing(records, entry):
            if not paused_threads:
                paused_threads.append(threading.current_thread())
                entered.set()
                release.wait(timeout=30)
            original(records, entry)

        monkeypatch.setattr(ArtifactStore, "_decode_entry", staticmethod(pausing))
        results = {}
        first = threading.Thread(target=lambda: results.setdefault("first", store.scan()))
        second = threading.Thread(target=lambda: results.setdefault("second", store.scan()))
        first.start()
        assert entered.wait(timeout=30)
        second.start()
        second.join(timeout=0.2)
        assert second.is_alive(), "a second fold ran while the first was paused"
        release.set()
        first.join(timeout=30)
        second.join(timeout=30)
        assert not first.is_alive() and not second.is_alive()
        assert results["first"] == results["second"] == ArtifactStore(store.path).scan()
        assert results["first"]["a"].rows == [{"row": 0}]

    def test_threads_scan_while_another_appends(self, tmp_path):
        path = tmp_path / "artifacts.jsonl"
        store = ArtifactStore(path)
        blocks, readers = 40, 4
        expected = [{"row": index} for index in range(3)]
        errors: list[BaseException] = []
        written = threading.Event()

        def writer() -> None:
            try:
                for index in range(blocks):
                    store.begin(f"h{index}", {"i": index})
                    for row in expected:
                        store.append_row(f"h{index}", row["row"], row)
                    store.finish(f"h{index}", rows=len(expected))
            except Exception as error:  # surfaced below
                errors.append(error)
            finally:
                written.set()

        def reader() -> None:
            try:
                while not written.is_set():
                    for record in store.scan().values():
                        # Two folds over the same lines would repeat rows.
                        assert record.rows == expected[: len(record.rows)]
                        if record.complete:
                            assert record.rows == expected
            except Exception as error:  # surfaced below
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(readers)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-fold
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert all(store.load(f"h{index}") is not None for index in range(blocks))
        assert store.scan() == ArtifactStore(path).scan()


# ----------------------------------------------------------------------
# Multi-process append stress
# ----------------------------------------------------------------------
WRITER_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.api.artifacts import ArtifactStore

    path, writer, blocks = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    store = ArtifactStore(path)
    for index in range(blocks):
        spec_hash = f"w{writer}-b{index}"
        store.write_block(
            spec_hash,
            {"writer": writer, "block": index},
            [{"writer": writer, "block": index, "row": row} for row in range(3)],
        )
    """
)


class TestConcurrentAppendStress:
    WRITERS = 4
    BLOCKS = 12

    def test_parallel_writers_lose_nothing_and_never_interleave(self, tmp_path):
        path = tmp_path / "artifacts.jsonl"
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", WRITER_SCRIPT, str(path), str(writer),
                 str(self.BLOCKS)],
                env=subprocess_env(),
            )
            for writer in range(self.WRITERS)
        ]
        for proc in procs:
            assert proc.wait(timeout=120) == 0

        # No lost records: every block of every writer is complete.
        store = ArtifactStore(path)
        records = store.scan()
        assert len(records) == self.WRITERS * self.BLOCKS
        for writer in range(self.WRITERS):
            for index in range(self.BLOCKS):
                record = records[f"w{writer}-b{index}"]
                assert record.complete
                assert [row["row"] for row in record.rows] == [0, 1, 2]

        # No interleaving: every line parses, and each block's
        # begin/rows/end lines are contiguous in the file.
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == self.WRITERS * self.BLOCKS * 5
        for offset in range(0, len(lines), 5):
            block = lines[offset : offset + 5]
            assert [entry["kind"] for entry in block] == [
                "begin", "row", "row", "row", "end",
            ]
            assert len({entry["hash"] for entry in block}) == 1


# ----------------------------------------------------------------------
# Kill-and-resume
# ----------------------------------------------------------------------
DRIVER_SCRIPT = textwrap.dedent(
    """
    import asyncio
    import json
    import sys
    import time

    from repro.api.defect_models import register_defect_model
    from repro.api.scenarios import Scenario
    from repro.defects.injection import inject_uniform
    from repro.service.orchestrator import Orchestrator
    from repro.service.store import CheckpointStore

    def slow_uniform(rows, columns, *, seed=0, rate=0.1):
        time.sleep(0.03)  # slow enough for the parent to SIGTERM mid-campaign
        return inject_uniform(rows, columns, rate, seed=seed)

    register_defect_model("slow-uniform", slow_uniform)

    with open(sys.argv[2]) as handle:
        scenario = Scenario.from_dict(json.load(handle))

    async def main():
        orchestrator = Orchestrator(
            CheckpointStore(sys.argv[1]),
            workers=1,
            chunk_size=4,
            engine="reference",
        )
        job = await orchestrator.submit(scenario)
        await orchestrator.wait(job.job_id)
        orchestrator.shutdown()

    asyncio.run(main())
    print("campaign-completed", flush=True)
    """
)


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals required")
class TestKillAndResume:
    @staticmethod
    def scenario() -> Scenario:
        return Scenario(
            name="kill-resume",
            source=FunctionSource.benchmark("rd53"),
            mappers=("hybrid",),
            samples=48,
            seed=7,
            defect_model=DefectModel("slow-uniform", {"rate": 0.1}),
        )

    def test_sigterm_mid_campaign_then_resume_matches_golden(self, tmp_path):
        scenario = self.scenario()
        spec_path = tmp_path / "scenario.json"
        spec_path.write_text(json.dumps(scenario.to_dict()))
        checkpoint_root = tmp_path / "ckpt"
        checkpoints = CheckpointStore(checkpoint_root)
        spec_hash = scenario.content_hash()
        chunks_dir = checkpoint_root / spec_hash / "chunks"

        proc = subprocess.Popen(
            [sys.executable, "-c", DRIVER_SCRIPT, str(checkpoint_root),
             str(spec_path)],
            env=subprocess_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            # Wait for a few chunk checkpoints, then kill mid-campaign.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if len(list(chunks_dir.glob("*.json"))) >= 3:
                    break
                if proc.poll() is not None:
                    pytest.fail("driver exited before writing 3 checkpoints")
                time.sleep(0.01)
            else:
                pytest.fail("driver never wrote 3 chunk checkpoints")
            proc.send_signal(signal.SIGTERM)
            stdout, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert "campaign-completed" not in stdout

        # 48 samples / chunk_size 4 = 12 machine-invariant chunk keys.
        surviving = checkpoints.completed_chunks(spec_hash)
        assert 0 < len(surviving) < 12
        assert checkpoints.read_result(spec_hash) is None

        # Resume with a *fast* injector under the same model name: the
        # defect maps are identical, only the sleep is gone.
        def fast_uniform(rows, columns, *, seed=0, rate=0.1):
            return inject_uniform(rows, columns, rate, seed=seed)

        register_defect_model("slow-uniform", fast_uniform)
        try:
            import asyncio

            async def resume():
                orchestrator = Orchestrator(checkpoints, workers=1)
                job = await orchestrator.submit(scenario)
                await orchestrator.wait(job.job_id)
                orchestrator.shutdown()
                return job

            job = asyncio.run(resume())
            assert job.status == "done", job.error
            # Only the unfinished chunks were executed.
            assert job.loaded_chunks == len(surviving)
            assert job.executed_chunks == 12 - len(surviving)
            # Bit-for-bit parity with an uninterrupted golden run.
            golden = run_scenario(scenario, workers=1)
            assert (
                job.result.counting_statistics()
                == golden.counting_statistics()
            )
        finally:
            unregister_defect_model("slow-uniform")
