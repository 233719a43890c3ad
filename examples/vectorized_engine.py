"""The vectorized Monte-Carlo engine: same statistics, multiples faster.

Runs one Table II-style experiment on both execution engines, proves the
counting statistics are bit-identical and reports the wall-clock speedup.

Run with::

    python examples/vectorized_engine.py
"""

from __future__ import annotations

import time

from repro.circuits import get_benchmark
from repro.experiments.monte_carlo import run_mapping_monte_carlo


def counting_statistics(result):
    return {
        name: {
            "successes": outcome.successes,
            "samples": outcome.samples,
            "backtracks": outcome.total_backtracks,
            "invalid": outcome.invalid_mappings,
        }
        for name, outcome in result.outcomes.items()
    }


def main() -> None:
    function = get_benchmark("sao2")

    # Identical experiments on the two engines.  Both draw every
    # sample's defect map from the same derive_seed(seed, index) stream,
    # so the defect maps — and therefore every counting statistic — are
    # bit-identical; only wall-clock time changes.
    kwargs = dict(defect_rate=0.10, sample_size=200, seed=7, workers=1)
    start = time.perf_counter()
    reference = run_mapping_monte_carlo(function, engine="reference", **kwargs)
    reference_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    vectorized = run_mapping_monte_carlo(function, engine="vectorized", **kwargs)
    vectorized_elapsed = time.perf_counter() - start

    assert counting_statistics(reference) == counting_statistics(vectorized)
    print(f"counting statistics identical: {counting_statistics(vectorized)}")
    print(
        f"reference {reference_elapsed:.2f} s, vectorized "
        f"{vectorized_elapsed:.2f} s -> "
        f"{reference_elapsed / vectorized_elapsed:.1f}x"
    )

    # The equivalent CLI runs:
    #   python -m repro run table2 --engine vectorized --workers 4
    #   python -m repro run table2 --engine reference   # ground truth


if __name__ == "__main__":
    main()
