"""The benchmark's three workloads, their inputs and their output pins.

Every workload drives the program through a public entry point:
``repro.cli.main`` for ``repro run table2`` and ``repro analyze curve``
(called in this process, which plays the CLI process), and a
``repro serve`` subprocess driven over HTTP by ``ServiceClient`` for the
service.  A run does a fixed number of whole user-level jobs, sized from
``--seconds`` (:func:`jobs_per_run`).

Inputs come from pinned pools.  Checking an output needs the counting
statistics the reference engine (the object-per-sample oracle) produces
for the same input, and that engine is 10-25x slower than the tier under
test, too slow to run inside a timed benchmark.  So each workload draws
its scenario seeds from a fixed pool whose reference statistics are
recorded once (``run.py --record-pins``) and committed under ``pins/``;
the ``--seed`` argument picks where in the pool a run starts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINS_DIR = BENCH_DIR / "pins"

#: Table II: every circuit, HBA + EA, 10 % uniform stuck-open, at this
#: many samples per circuit (the paper's 200 takes 45 s a pass on a
#: 2-vCPU box; 64 is the smallest count that still takes the default
#: 2-worker pool path, and two passes fit a run).
TABLE2_SAMPLES = 64
TABLE2_POOL = 8

#: ``repro analyze curve`` at the CLI defaults (misex1, rates 0.02 to
#: 0.15, HBA + EA, Wilson 95 %) with an adaptive tolerance tight enough
#: that one curve (about 53,000 samples) outlasts the box's fast drift.
CURVE_CIRCUIT = "misex1"
CURVE_TOLERANCE = 0.003
CURVE_POOL = 6

#: One service job: the paper's protocol on rd53 with its own seed.
SERVICE_CIRCUIT = "rd53"
SERVICE_SAMPLES = 200
SERVICE_POOL = 160
#: Completed records in the artifact store every service session starts from.
SERVICE_PREFILL = 500
#: Jobs per service session (one server launch on a fresh store copy).
SESSION_JOBS = 120

#: Wall seconds per job on a 2-vCPU box with the cext backend: a Table
#: II pass, one curve, and one service job at the closed loop's rate.
JOB_SECONDS = {"table2": 16.0, "yield-curve": 7.5, "service": 0.075}

MAPPERS = ("hybrid", "exact")
COUNT_KEYS = ("successes", "samples", "total_backtracks", "invalid_mappings")


def pool_seed(seed: int, index: int, pool: int) -> int:
    """The scenario seed of a run's ``index``-th job."""
    return (seed + index) % pool


def cli_json(argv: list[str]) -> dict:
    """``repro <argv> --json`` in this process; the decoded stdout."""
    import repro.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = repro.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited {code}: {err.getvalue()}")
    return json.loads(out.getvalue())


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def table2_argv(seed: int, store: Path, *extra: str) -> list[str]:
    return ["run", "table2", "--samples", str(TABLE2_SAMPLES),
            "--seed", str(seed), "--jsonl", str(store), "--json", *extra]


def curve_argv(seed: int, store: Path, *extra: str) -> list[str]:
    return ["analyze", "curve", "--circuit", CURVE_CIRCUIT,
            "--tolerance", str(CURVE_TOLERANCE), "--seed", str(seed),
            "--jsonl", str(store), "--json", *extra]


def service_scenario(seed: int, name: str, samples: int = SERVICE_SAMPLES):
    """One service job: rd53, HBA + EA, 10 % uniform, 200 samples."""
    from repro.api.defect_models import create_defect_model
    from repro.api.scenarios import FunctionSource, Scenario

    return Scenario(
        name=name,
        source=FunctionSource.benchmark(SERVICE_CIRCUIT),
        mappers=MAPPERS,
        defect_model=create_defect_model("uniform", rate=0.10),
        samples=samples,
        seed=seed,
    )


# ----------------------------------------------------------------------
# Counting statistics, as each entry point returns them
# ----------------------------------------------------------------------
def counts_of(outcomes: dict) -> dict:
    return {
        name: {key: outcome[key] for key in COUNT_KEYS}
        for name, outcome in sorted(outcomes.items())
    }


def table2_rows(payload: dict) -> dict:
    """``{circuit: counts}`` from ``repro run --json`` output."""
    return {
        result["scenario"]["name"]: counts_of(
            result["rows"][0]["monte_carlo"]["outcomes"]
        )
        for result in payload["results"]
    }


def curve_points(payload: dict) -> dict:
    """``{rate: {samples_used, converged, mapper: successes/samples}}``."""
    points = {}
    for point in payload["result"]["points"]:
        entry = {"samples_used": point["samples"], "converged": point["converged"]}
        for name, estimate in sorted(point["estimates"].items()):
            entry[name] = {
                "successes": estimate["successes"],
                "samples": estimate["samples"],
            }
        points[repr(float(point["defect_rate"]))] = entry
    return points


def service_counts(result: dict) -> dict:
    return counts_of(result["rows"][0]["monte_carlo"]["outcomes"])


# ----------------------------------------------------------------------
# Pins: reference-engine statistics of every pooled input
# ----------------------------------------------------------------------
def _reference_pin(task: tuple[str, int, str]) -> tuple[int, dict]:
    workload, seed, scratch = task
    store = Path(scratch) / f"{workload}-{seed}.jsonl"
    reference = ("--engine", "reference", "--workers", "1")
    if workload == "table2":
        return seed, table2_rows(cli_json(table2_argv(seed, store, *reference)))
    if workload == "yield-curve":
        return seed, curve_points(cli_json(curve_argv(seed, store, *reference)))
    from repro.api.runner import run_scenario

    result = run_scenario(
        service_scenario(seed, f"pin-{seed}"), workers=1, engine="reference"
    )
    return seed, service_counts(result.to_dict())


POOLS = {"table2": TABLE2_POOL, "yield-curve": CURVE_POOL, "service": SERVICE_POOL}


def record_pins(workload: str, scratch: Path, workers: int) -> Path:
    """Compute every pooled input's pins on the reference engine."""
    from concurrent.futures import ProcessPoolExecutor

    scratch.mkdir(parents=True, exist_ok=True)
    tasks = [(workload, seed, str(scratch)) for seed in range(POOLS[workload])]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pins = dict(pool.map(_reference_pin, tasks))
    path = PINS_DIR / f"{workload}.json"
    PINS_DIR.mkdir(exist_ok=True)
    payload = {
        "engine": "reference",
        "workload": workload,
        "pins": {str(seed): pins[seed] for seed in sorted(pins)},
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def load_pins(workload: str) -> dict:
    payload = json.loads((PINS_DIR / f"{workload}.json").read_text())
    if payload.get("engine") != "reference":
        raise RuntimeError(f"pins for {workload} were not recorded on the reference engine")
    return payload["pins"]


# ----------------------------------------------------------------------
# One run's measurements
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one measured run produced, before it becomes metrics."""

    attempted: int = 0
    failed: int = 0
    samples: int = 0
    seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Job status payloads (service only), for the traced run's counts.
    statuses: list[dict] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)

    def check(self, label: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failed += 1
            if len(self.mismatches) < 5:
                self.mismatches.append(f"{label}: got {got!r}, pinned {want!r}")


def peak_rss_mb(*, include_self: bool) -> float:
    """Largest resident set of this process and its reaped children."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if include_self:
        peak = max(peak, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return peak / 1024.0


def jobs_per_run(workload: str, seconds: float) -> int:
    """The fixed number of jobs a ``seconds``-long run does.

    Sized from each job's wall time on a 2-vCPU box, so a run lasts
    about ``seconds`` there, while its work (and so every per-layer
    count) is the same on every run of a seed and on every commit.
    """
    return max(1, round(seconds / JOB_SECONDS[workload]))


#: How each CLI workload builds its command line, reads its JSON output
#: and counts the samples of one pinned operation.
CLI_WORKLOADS = {
    "table2": (table2_argv, table2_rows, lambda counts: counts[MAPPERS[0]]["samples"]),
    "yield-curve": (curve_argv, curve_points, lambda point: point["samples_used"]),
}


def run_cli(
    workload: str, jobs: int, seed: int, scratch: Path, tracer=None, before_job=None
) -> Outcome:
    """``jobs`` CLI jobs on successive pooled seeds, each on a fresh store.

    Every operation (a Table II row, a curve point) is checked against
    its pin; a job that raises fails all of its operations.
    ``before_job(index)`` runs untimed before each job.
    """
    argv, parse, samples_of = CLI_WORKLOADS[workload]
    pins = load_pins(workload)
    outcome = Outcome()
    for index in range(jobs):
        if before_job is not None:
            before_job(index)
        scenario_seed = pool_seed(seed, index, POOLS[workload])
        if tracer is not None:
            tracer.op = f"job{index}-seed{scenario_seed}"
        began = time.perf_counter()
        try:
            got = parse(cli_json(argv(scenario_seed, scratch / f"artifacts-{index}.jsonl")))
        except Exception as error:
            got = {}
            outcome.mismatches.append(f"seed {scenario_seed}: {error!r}")
        outcome.latencies.append(time.perf_counter() - began)
        outcome.seconds += outcome.latencies[-1]
        for key, want in pins[str(scenario_seed)].items():
            outcome.check(f"{workload} seed {scenario_seed} {key}", got.get(key), want)
            if got.get(key) == want:
                outcome.samples += samples_of(want)
    return outcome


# ----------------------------------------------------------------------
# Service
# ----------------------------------------------------------------------
def source_digest() -> str:
    """Digest of every file under ``src/repro``: one per commit's program."""
    digest = hashlib.blake2b(digest_size=8)
    source = ROOT / "src" / "repro"
    for path in sorted(source.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(source)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def build_service_template(path: Path) -> None:
    """A store of completed records, like a long-lived deployment's.

    Written through the runner's own streaming store protocol, once per
    source digest (the caller keys ``path`` on it), so every commit's
    service runs start from a copy of a store its own code wrote.
    """
    from repro.api.artifacts import ArtifactStore
    from repro.api.runner import run_scenario

    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".partial")
    partial.unlink(missing_ok=True)
    store = ArtifactStore(partial)
    for index in range(SERVICE_PREFILL):
        # A record's size does not depend on its sample count.
        scenario = service_scenario(10_000 + index, f"prefill-{index}", samples=32)
        run_scenario(scenario, workers=1, store=store)
    os.replace(partial, path)


def start_server(argv: list[str], log: Path) -> tuple[subprocess.Popen, str, float]:
    """Launch a server; returns it, its URL and the seconds until healthy."""
    began = time.perf_counter()
    with log.open("ab") as stderr:
        process = subprocess.Popen(
            argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=stderr,
            text=True,
        )
    try:
        line = process.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"server did not start: {line!r}; see {log}")
        url = line.split("listening on", 1)[1].strip()
        deadline = time.monotonic() + 60
        while True:
            try:
                with urllib.request.urlopen(f"{url}/healthz", timeout=5) as answer:
                    if answer.status == 200:
                        break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)
        return process, url, time.perf_counter() - began
    except BaseException:
        stop_server(process)
        raise


def stop_server(process: subprocess.Popen) -> None:
    """SIGTERM (graceful drain), then wait; kill if it hangs."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()


def sessions(jobs: int) -> list[range]:
    """Split a run's job indices into sessions of about SESSION_JOBS."""
    count = max(1, round(jobs / SESSION_JOBS))
    bounds = [jobs * number // count for number in range(count + 1)]
    return [range(low, high) for low, high in zip(bounds, bounds[1:])]


def drive_service(
    url: str, indices: range, seed: int, clients: int, outcome: Outcome
) -> None:
    """Closed loop: ``clients`` threads submit, wait for and fetch jobs.

    Each job is a distinct scenario (its name is part of the content
    hash), so no store answers it from cache even when its seed recurs
    in the pool.  Clients wait with ``ServiceClient.wait``'s own 50-ms
    poll, the traffic the documented client sends; latency comes from
    the server's own timestamps, which the poll does not quantize.
    """
    from repro.service.client import ServiceClient

    pins = load_pins("service")
    lock = threading.Lock()
    pending = iter(indices)

    def client_loop() -> None:
        client = ServiceClient(url, retries=0)
        while True:
            with lock:
                index = next(pending, None)
            if index is None:
                return
            scenario_seed = pool_seed(seed, index, SERVICE_POOL)
            want = pins[str(scenario_seed)]
            scenario = service_scenario(scenario_seed, f"job-{seed}-{index}")
            submitted = time.time()
            status = None
            try:
                status = client.submit(scenario)
                status = client.wait(status["job_id"], timeout=60)
                counts = service_counts(client.result(status["job_id"]).to_dict())
                if status["partial"]:
                    counts = "partial result"
            except Exception as error:  # refused, failed, drained, timed out
                counts = repr(error)
            with lock:
                outcome.check(f"service job {index} seed {scenario_seed}", counts, want)
                if counts == want:
                    outcome.samples += SERVICE_SAMPLES
                    outcome.latencies.append(status["finished_at"] - submitted)
                if status is not None:
                    outcome.statuses.append(status)

    start = time.perf_counter()
    threads = [threading.Thread(target=client_loop) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    outcome.seconds += time.perf_counter() - start


def percentile(values: list[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
