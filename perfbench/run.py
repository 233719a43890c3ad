#!/usr/bin/env python3
"""The repro benchmark: Table II, a yield curve and the job service.

One run of one workload (run from the root of a checkout):

    python3 perfbench/run.py --workload table2 --seed 0 --seconds 20 --trace 0

prints the machine fingerprint and every metric with its unit, then, as
its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Steadiness record: each workload N times on seeds S..S+N-1, each in a
fresh process, then once traced; prints every metric's median,
quartiles, min, max and spread beside its bound, and the tracing
overhead:

    python3 perfbench/run.py --repeat 10 --seed 0 --seconds 20

Pins (the reference engine's counting statistics of every pooled
input, committed under perfbench/pins/):

    python3 perfbench/run.py --record-pins table2

See perfbench/NOTES.md for why each workload exists and how steady it is.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"

# This process and every program process it starts run the checkout's
# sources, and whatever they build or cache stays inside the checkout
# (the C kernel reads its build directory when it is first loaded).
os.environ["PYTHONPATH"] = str(ROOT / "src")
os.environ["REPRO_COMPILED_CACHE"] = str(BUILD_DIR / "compiled")
os.environ["TMPDIR"] = str(BUILD_DIR / "tmp")
os.environ.pop("REPRO_FAULTS", None)
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("table2", "yield-curve", "service")

#: Program launches per run, spread over it; ``setup_s`` is their median.
SETUP_LAUNCHES = 5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def build() -> dict:
    """Compile the C kernel and byte-compile the sources, untimed.

    Users pay this once per source digest.  Returns the machine
    fingerprint, including the tier ``engine="auto"`` resolved to.
    """
    for name in ("compiled", "tmp"):
        (BUILD_DIR / name).mkdir(parents=True, exist_ok=True)
    import platform

    import numpy
    import scipy

    import repro.cli  # noqa: F401
    from repro.compiled import compiled_backend
    from repro.engines import resolve_mapping_engine

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "compiled_backend": compiled_backend(),
        "auto_engine": resolve_mapping_engine("auto"),
        "cpu": cpu_model(),
        "nproc": nproc(),
    }


def spread(launches: int, slots: int) -> list[int]:
    """``launches`` split as evenly as possible over ``slots``."""
    return [launches * (i + 1) // slots - launches * i // slots for i in range(slots)]


def launch_cli(argv: list[str], log: Path, *, split: bool = False):
    """Launch ``repro ARGV`` through the start-up probe until it is ready.

    Returns the probe unreaped, the seconds from launch to its ready
    line, and the line.  The probe and its pool workers have exited by
    then.  The caller reaps the probe only after it reads the peak
    resident set, so that the peak leaves the probes out.
    """
    read_fd, write_fd = os.pipe()
    command = [sys.executable, str(BENCH_DIR / "probe.py"), str(write_fd)]
    if split:
        command.append("--split")
    began = time.perf_counter()
    with log.open("ab") as stderr:
        process = subprocess.Popen(
            [*command, "--", *argv], cwd=ROOT, pass_fds=(write_fd,),
            stdout=subprocess.DEVNULL, stderr=stderr, start_new_session=True,
        )
    os.close(write_fd)
    # A hung probe and its workers hold the pipe open; kill them all.
    watchdog = threading.Timer(120, os.killpg, (process.pid, signal.SIGKILL))
    watchdog.start()
    with os.fdopen(read_fd, "rb") as ready:
        line = ready.readline()
        elapsed = time.perf_counter() - began
        ready.read()  # to the end: every process holding the pipe has exited
    watchdog.cancel()
    return process, elapsed, line


def reap(probes: list, log: Path) -> tuple[list[float], list[dict]]:
    """Wait for every probe; their seconds to ready and their splits."""
    codes = [process.wait(timeout=60) for process, _, _ in probes]
    if any(codes) or not all(line for _, _, line in probes):
        raise RuntimeError(f"a start-up probe failed (exit codes {codes}); see {log}")
    return [elapsed for _, elapsed, _ in probes], [json.loads(line) for _, _, line in probes]


def setup_layers(splits: list[dict]) -> dict[str, float]:
    return {
        "setup.import_s": statistics.median(s["import_s"] for s in splits),
        "setup.compiled_load_s": statistics.median(
            s["compiled_load_s"] for s in splits
        ),
    }


def run_cli_workload(args, scratch: Path):
    """The workload's jobs, with its CLI command launched between them.

    The launches for ``setup_s`` are spread before, between and after
    the jobs, so that their median spans the run rather than one stretch
    of the box's drift.  They run the workload's own subcommand on a
    fresh store each, through ``probe.py``.
    """
    tracer = spans.install(scratch / "spans") if args.trace else None
    # This process plays the CLI process: it pays the same start-up
    # before its first job, outside the measured loop.
    import repro.cli  # noqa: F401
    from repro.compiled import get_kernels

    get_kernels()
    argv = workloads.CLI_WORKLOADS[args.workload][0]
    jobs = workloads.jobs_per_run(args.workload, args.seconds)
    per_slot = spread(SETUP_LAUNCHES, jobs + 1)
    log = scratch / "probe.log"
    probes = []

    def launch(slot: int) -> None:
        for _ in range(per_slot[slot]):
            store = scratch / f"probe-{len(probes)}.jsonl"
            probes.append(launch_cli(argv(args.seed, store), log, split=bool(args.trace)))

    try:
        outcome = workloads.run_cli(
            args.workload, jobs, args.seed, scratch, tracer, before_job=launch
        )
        launch(jobs)
        outcome.peak_rss_mb = workloads.peak_rss_mb(include_self=True)
    finally:
        times, splits = reap(probes, log)
    layers = None
    if tracer is not None:
        tracer.flush()
        layers = spans.layer_metrics(spans.load_spans(scratch / "spans"), [])
        layers.update(setup_layers(splits))
    return outcome, statistics.median(times), layers


def run_service_workload(args, scratch: Path):
    """Sessions of jobs, each on a fresh server, store copy and checkpoints.

    Every submission re-scans the whole store on the server's loop
    thread and every finished job grows it, so a long session would
    drive that thread toward saturation, where latency swings with the
    smallest change in machine speed.  Short sessions that each start
    from the same 500-record template keep every job at one store size.
    """
    template = BUILD_DIR / f"service-template-{workloads.source_digest()}.jsonl"
    if not template.exists():
        workloads.build_service_template(template)

    def argv(session: Path, trace_dir: Path) -> list[str]:
        serve = ["serve", "--port", "0", "--jsonl", str(session / "artifacts.jsonl"),
                 "--checkpoints", str(session / "checkpoints")]
        if args.trace:
            return [sys.executable, str(BENCH_DIR / "serve_traced.py"),
                    str(trace_dir), *serve]
        return [sys.executable, "-m", "repro", *serve]

    log = scratch / "server.log"
    jobs = workloads.jobs_per_run("service", args.seconds)
    sessions = workloads.sessions(jobs)
    # Each session's launch counts; the others are spread before,
    # between and after the sessions.
    per_slot = spread(SETUP_LAUNCHES - len(sessions), len(sessions) + 1)
    times = []

    def launch(slot: int) -> None:
        for _ in range(per_slot[slot]):
            process, _, elapsed = workloads.start_server(
                argv(scratch / "launch", scratch / "launch-spans"), log
            )
            workloads.stop_server(process)
            times.append(elapsed)

    outcome = workloads.Outcome()
    for number, indices in enumerate(sessions):
        launch(number)
        session = scratch / f"session-{number}"
        session.mkdir()
        shutil.copyfile(template, session / "artifacts.jsonl")
        process, url, elapsed = workloads.start_server(
            argv(session, scratch / "spans"), log
        )
        times.append(elapsed)
        try:
            workloads.drive_service(url, indices, args.seed, nproc(), outcome)
        finally:
            workloads.stop_server(process)
    launch(len(sessions))
    outcome.peak_rss_mb = workloads.peak_rss_mb(include_self=False)
    layers = None
    if args.trace:
        probe_log = scratch / "probe.log"
        _, splits = reap(
            [launch_cli([], probe_log, split=True) for _ in range(SETUP_LAUNCHES)],
            probe_log,
        )
        layers = spans.layer_metrics(
            spans.load_spans(scratch / "spans"), outcome.statuses
        )
        layers.update(setup_layers(splits))
    return outcome, statistics.median(times), layers


def run_once(args) -> int:
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    fingerprint = build()
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    scratch = BUILD_DIR / "runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        if args.workload == "service":
            outcome, setup_s, layers = run_service_workload(args, scratch)
        else:
            outcome, setup_s, layers = run_cli_workload(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    latencies = outcome.latencies or [0.0]
    end_to_end = {
        "setup_s": setup_s,
        "samples_per_s": outcome.samples / outcome.seconds,
        "job_p50_s": workloads.percentile(latencies, 0.5),
        "job_p90_s": workloads.percentile(latencies, 0.9),
        "peak_rss_mb": outcome.peak_rss_mb,
    }
    print(
        f"{args.workload} seed {args.seed}: {len(outcome.latencies)} jobs in "
        f"{outcome.seconds:.2f} s, {outcome.samples} samples; operations "
        f"attempted {outcome.attempted}, failed {outcome.failed} "
        f"(failed_ratio {outcome.failed / max(1, outcome.attempted):.4f})"
    )
    for line in outcome.mismatches:
        print(f"  mismatch: {line}")
    last = BUILD_DIR / "last" / f"{args.workload}-{args.seed}-{args.seconds}.json"
    if layers is None:
        wanted = definition["end_to_end"]
        values = end_to_end
        last.parent.mkdir(parents=True, exist_ok=True)
        last.write_text(json.dumps(end_to_end))
    else:
        wanted = definition["per_layer"]
        values = layers
        untraced = json.loads(last.read_text()) if last.exists() else None
        overhead = (
            f"untraced {untraced['samples_per_s']:.1f} /s, overhead "
            f"{1 - end_to_end['samples_per_s'] / untraced['samples_per_s']:+.1%}"
            if untraced
            else "no untraced run of this workload and seed to compare"
        )
        print(
            f"tracing overhead: samples_per_s traced "
            f"{end_to_end['samples_per_s']:.1f} /s, {overhead}"
        )
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:28s} {value:14.6f} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_child(
    workload: str, seed: int, seconds: int, trace: int, *, first: bool = False
) -> tuple[dict, float]:
    """One run in a fresh process; echoes its summary lines."""
    began = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - began
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stdout}{done.stderr}")
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        if line.startswith(("tracing overhead", f"{workload} seed", "  mismatch")) or (
            first and line.startswith("fingerprint")
        ):
            print(f"    {line}")
    return json.loads(lines[-1]), wall


def repeat(args) -> int:
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in definition["end_to_end"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        runs = []
        for index in range(args.repeat):
            result, wall = run_child(
                name, args.seed + index, args.seconds, 0, first=index == 0
            )
            runs.append(result)
            print(
                f"  {name} seed {args.seed + index}: correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']} wall={wall:.1f}s "
                + " ".join(
                    f"{key}={entry['value']:.4g}"
                    for key, entry in result["metrics"].items()
                ),
                flush=True,
            )
        print(f"{name}: {args.repeat} runs of {args.seconds} s")
        print(
            f"  {'metric':14s} {'unit':6s} {'median':>10s} {'q1':>10s} "
            f"{'q3':>10s} {'min':>10s} {'max':>10s} {'spread':>7s} {'bound':>6s}"
        )
        for metric, bound in bounds.items():
            values = [run["metrics"][metric]["value"] for run in runs]
            middle = statistics.median(values)
            q1, _, q3 = (
                statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            )
            unit = runs[0]["metrics"][metric]["unit"]
            print(
                f"  {metric:14s} {unit:6s} {middle:10.4g} {q1:10.4g} {q3:10.4g} "
                f"{min(values):10.4g} {max(values):10.4g} "
                f"{(q3 - q1) / middle:7.1%} {bound:6.0%}"
            )
        traced, wall = run_child(name, args.seed, args.seconds, 1)
        print(f"  traced run (seed {args.seed}, wall {wall:.1f} s):")
        for metric, entry in traced["metrics"].items():
            print(f"    {metric:28s} {entry['value']:14.6f} {entry['unit']}")
        sys.stdout.flush()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="N")
    parser.add_argument("--record-pins", choices=WORKLOADS, default=None)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.record_pins:
        path = workloads.record_pins(args.record_pins, BUILD_DIR / "pins", nproc())
        print(f"wrote {path}")
        return 0
    if args.repeat:
        return repeat(args)
    if args.workload == "all":
        parser.error("a single run needs --workload table2|yield-curve|service")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
