"""Throughput of the batched Monte-Carlo engines vs the reference path.

Runs the same Table II-sized Monte-Carlo mapping experiment on the
reference object-per-sample engine, on the batched NumPy kernel and —
when the C backend loads — on the compiled kernel tier, verifies the
counting statistics are bit-identical across every engine, and reports
the wall-clock speedups over the reference.  The acceptance bar for the
vectorized engine is a >= 3x throughput gain on a Table II-sized
workload (one circuit, 200 samples, 10 % uniform stuck-open defects,
HBA + EA); the compiled tier must beat vectorized, which the perf gate
checks per circuit on every recorded row.  The default circuits include
Table II's two largest, alu4 and apex4, where EA's matching does real
work; on rd53 and misex1 it settles in milliseconds on every tier.

Standalone script so it can be pointed at any circuit / budget::

    PYTHONPATH=src python benchmarks/bench_vectorized.py
    PYTHONPATH=src python benchmarks/bench_vectorized.py \
        --circuits rd53 sao2 ex1010 --samples 400
"""

from __future__ import annotations

import argparse
import time

from repro.circuits import get_benchmark
from repro.compiled import compiled_available, compiled_backend
from repro.experiments.monte_carlo import run_mapping_monte_carlo


def _counting_stats(result):
    return {
        name: (o.successes, o.samples, o.total_backtracks, o.invalid_mappings)
        for name, o in result.outcomes.items()
    }


def bench_circuit(name: str, *, samples: int, defect_rate: float,
                  algorithms: tuple, seed: int, workers: int) -> dict:
    """Benchmark one circuit; returns per-engine speedups over reference."""
    function = get_benchmark(name)
    kwargs = dict(
        defect_rate=defect_rate,
        sample_size=samples,
        algorithms=algorithms,
        seed=seed,
        workers=workers,
    )

    engines = ["reference", "vectorized"]
    if compiled_available():
        engines.append("compiled")
    elapsed = {}
    results = {}
    for engine in engines:
        start = time.perf_counter()
        results[engine] = run_mapping_monte_carlo(
            function, engine=engine, **kwargs
        )
        elapsed[engine] = time.perf_counter() - start

    baseline = _counting_stats(results["reference"])
    for engine in engines[1:]:
        if _counting_stats(results[engine]) != baseline:
            raise SystemExit(
                f"FAIL: {name}: counting statistics differ between "
                f"reference and {engine}"
            )

    speedups = {
        engine: (
            elapsed["reference"] / elapsed[engine] if elapsed[engine] else 0.0
        )
        for engine in engines[1:]
    }
    success = results["reference"].outcome(algorithms[0]).success_rate
    timings = " | ".join(
        f"{engine} {elapsed[engine]:7.3f} s" for engine in engines
    )
    gains = " | ".join(
        f"{engine} {speedup:5.1f}x" for engine, speedup in speedups.items()
    )
    print(
        f"{name:10s}: {timings} | speedup {gains} | "
        f"Psucc[{algorithms[0]}] {success:.0%} | statistics identical"
    )
    return speedups


def collect(
    *,
    circuits=("rd53", "misex1", "alu4", "apex4"),
    samples=60,
    defect_rate=0.10,
    algorithms=("hybrid", "exact"),
    seed=7,
    workers=1,
) -> dict:
    """Run the benchmark and return machine-readable metrics."""
    start = time.perf_counter()
    speedups = {
        name: bench_circuit(
            name,
            samples=samples,
            defect_rate=defect_rate,
            algorithms=tuple(algorithms),
            seed=seed,
            workers=workers,
        )
        for name in circuits
    }
    metrics = {
        "benchmark": "vectorized",
        "circuits": list(circuits),
        "samples": samples,
        "defect_rate": defect_rate,
        "seed": seed,
        "compiled_backend": compiled_backend(),
        # Named like the row's own metrics, so the perf gate checks the
        # compiled tier against the vectorized one circuit by circuit.
        "per_circuit": {
            name: {
                ("speedup" if engine == "vectorized" else "compiled_speedup"): round(s, 2)
                for engine, s in gains.items()
            }
            for name, gains in speedups.items()
        },
        "elapsed_seconds": round(time.perf_counter() - start, 4),
        "speedup": round(
            sum(gains["vectorized"] for gains in speedups.values())
            / len(speedups),
            2,
        ),
    }
    if compiled_available():
        metrics["compiled_speedup"] = round(
            sum(gains["compiled"] for gains in speedups.values())
            / len(speedups),
            2,
        )
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--circuits", nargs="+",
                        default=["rd53", "misex1", "sqrt8", "sao2", "alu4",
                                 "apex4"],
                        help="benchmark circuit names")
    parser.add_argument("--samples", type=int, default=200,
                        help="Monte-Carlo sample size (default: 200, the paper's)")
    parser.add_argument("--defect-rate", type=float, default=0.10,
                        help="stuck-open defect rate (default: 0.10)")
    parser.add_argument("--algorithms", nargs="+", default=["hybrid", "exact"],
                        help="registered mapper names (default: hybrid exact)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for BOTH engines (default: 1, "
                        "so the speedup isolates the kernel)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--require", type=float, default=None,
                        help="exit non-zero unless the mean speedup reaches "
                        "this factor (e.g. 3.0)")
    args = parser.parse_args()

    print(
        f"{args.samples} samples at {args.defect_rate:.0%} defects, "
        f"algorithms={args.algorithms}, workers={args.workers}"
    )
    speedups = [
        bench_circuit(
            name,
            samples=args.samples,
            defect_rate=args.defect_rate,
            algorithms=tuple(args.algorithms),
            seed=args.seed,
            workers=args.workers,
        )
        for name in args.circuits
    ]
    mean = sum(gains["vectorized"] for gains in speedups) / len(speedups)
    print(f"mean vectorized speedup: {mean:.1f}x over {len(speedups)} circuit(s)")
    if compiled_available():
        compiled_mean = sum(
            gains["compiled"] for gains in speedups
        ) / len(speedups)
        print(
            f"mean compiled speedup:   {compiled_mean:.1f}x "
            f"(backend: {compiled_backend()})"
        )
    else:
        print("compiled tier: no backend available, skipped")
    if args.require is not None and mean < args.require:
        raise SystemExit(
            f"FAIL: mean speedup {mean:.1f}x below required {args.require}x"
        )


if __name__ == "__main__":
    main()
