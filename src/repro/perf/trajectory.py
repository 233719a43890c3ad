"""Reading and atomically appending perf-trajectory files.

A trajectory file ``BENCH_<suite>.json`` holds::

    {"benchmark": "<suite>", "runs": [ {run row}, ... ]}

where every run row records its UTC ``timestamp``, the ``commit`` it
measured, the workload parameters, and the measured metrics (wall-clock
seconds and speedups).  Rows are append-only: history is the whole point
— the regression gate (:mod:`repro.perf.gate`) compares each fresh run
against the median of the recorded rows.

Appends go through a temp file + ``os.replace`` so a crashed or killed
benchmark run can never truncate the recorded history.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import tempfile
from datetime import datetime, timezone
from pathlib import Path


def trajectory_path(results_dir: str | Path, name: str) -> Path:
    """The trajectory file of one suite inside a results directory."""
    return Path(results_dir) / f"BENCH_{name}.json"


def load_trajectory(path: str | Path, *, name: str | None = None) -> dict:
    """Load a trajectory file; a missing file is an empty trajectory.

    Raises ``ValueError`` when the file exists but is not a trajectory
    (corrupt JSON, or no ``runs`` list) — silent fallback would make the
    gate pass vacuously exactly when the history was damaged.
    """
    path = Path(path)
    if name is None:
        name = path.stem.removeprefix("BENCH_")
    if not path.exists():
        return {"benchmark": name, "runs": []}
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise ValueError(f"trajectory {path} is unreadable: {error}") from None
    if not isinstance(payload, dict) or not isinstance(
        payload.get("runs"), list
    ):
        raise ValueError(f"trajectory {path} has no 'runs' list")
    return payload


def append_run(
    path: str | Path,
    metrics: dict,
    *,
    commit: str = "unknown",
    timestamp: str | None = None,
) -> dict:
    """Append one run row to a trajectory file, atomically.

    Returns the appended row.  The file is created on demand; the write
    replaces the file in one ``os.replace`` so concurrent readers always
    see either the old or the new complete trajectory.
    """
    path = Path(path)
    payload = load_trajectory(path)
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    row = {"timestamp": timestamp, "commit": commit, **metrics}
    payload["runs"].append(row)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return row


def git_commit(root: str | Path | None = None) -> str:
    """The short commit hash of the checkout containing ``root``.

    ``root`` should be the *repository* root (or any path inside it) —
    callers that live in a subdirectory must resolve upward first, so a
    run invoked from elsewhere (``python /path/to/run_all.py``) still
    records the right checkout.  Returns ``"unknown"`` outside git.
    """
    if root is None:
        root = Path.cwd()
    try:
        result = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return result.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown cpu"


def machine_fingerprint() -> str:
    """The machine a run measured: CPU model, cores, Python, NumPy, backend.

    ``run_all.py`` stores it as each row's ``machine``, a scale key of
    :mod:`repro.perf.gate`, so rows from different machines (a CI
    runner and a dev box) never gate each other.
    """
    import numpy

    from repro.compiled import compiled_backend

    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - platforms without affinity masks
        cores = os.cpu_count() or 1
    return (
        f"{_cpu_model()} | nproc {cores} | python "
        f"{platform.python_version()} | numpy {numpy.__version__} | "
        f"backend {compiled_backend() or 'none'}"
    )
