"""``repro serve`` with the benchmark's span wrappers installed.

    PYTHONPATH=src python3 perfbench/serve_traced.py TRACE_DIR serve [options]

Installs the wrappers of :mod:`spans` (the server's pool forks after
this, so its workers inherit them), runs ``repro.cli.main`` with the
remaining arguments, and writes the server's own spans to TRACE_DIR
when it exits.
"""

from __future__ import annotations

import sys
from pathlib import Path

import spans


def main() -> int:
    tracer = spans.install(Path(sys.argv[1]))
    import repro.cli

    try:
        return repro.cli.main(sys.argv[2:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
