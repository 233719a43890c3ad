"""Start-up probe: one CLI command from launch to its first unit of work.

    PYTHONPATH=src python3 perfbench/probe.py FD [--split] -- ARGV...

Runs ``repro.cli.main(ARGV)`` the way ``python -m repro ARGV`` does,
with one change: the first chunk that any ``BatchRunner.run`` call
starts, in a pool worker or in this process, writes one JSON line to
file descriptor FD instead of doing its work, and stops the command.
The caller times the launch up to that line, and reads FD to its end,
which comes once this process and its pool workers have all exited.

The line carries ``import_s``, the time ``import repro.cli`` took.
``--split`` adds ``compiled_load_s``, the time of a first
``get_kernels()`` called right after the import; with ``--split`` and
no ARGV the probe writes the line after those two steps and exits.
"""

from __future__ import annotations

import json
import os
import sys
import time

#: What the ready line reports; filled in before any pool forks.
SPLIT: dict[str, float] = {}
READY_FD = -1
_signalled = False


class Ready(BaseException):
    """Stops the command at its first chunk.

    Not an ``Exception``, so no handler in the program takes it for an
    error of its own.
    """


def _signal_ready() -> None:
    global _signalled
    if not _signalled:
        _signalled = True
        os.write(READY_FD, (json.dumps(SPLIT) + "\n").encode())


def first_chunk(payload) -> None:
    """Stands in for a batch's chunk function: signals, then stops."""
    _signal_ready()
    raise Ready


def main(argv: list[str]) -> int:
    global READY_FD
    READY_FD = int(argv[0])
    split = "--split" in argv[1:argv.index("--")]
    command = argv[argv.index("--") + 1:]
    began = time.perf_counter()
    import repro.cli

    SPLIT["import_s"] = time.perf_counter() - began
    if split:
        from repro.compiled import get_kernels

        began = time.perf_counter()
        get_kernels()
        SPLIT["compiled_load_s"] = time.perf_counter() - began
        if not command:
            _signal_ready()
            return 0
    from repro.api.batch import BatchRunner

    run = BatchRunner.run

    def first_chunk_run(self, fn, payloads, **options):
        return run(self, first_chunk, payloads, **options)

    BatchRunner.run = first_chunk_run
    try:
        repro.cli.main(command)
    except Ready:
        return 0
    print(f"repro {' '.join(command)} ran no chunk", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
