"""Packed/compiled vs object Boolean pipeline throughput at Fig. 6 scale.

Runs the Fig. 6 front-end — random-function generation, two-level
minimisation, area costing and end-to-end functional validation of the
minimised two-level design — on every Boolean engine tier (the object
reference, the packed bitset kernels and, when a backend is available,
the compiled merge passes), verifies the results are bit-identical
(covers, costs and validation verdicts), and reports the wall-clock
speedups over the object path.  The acceptance bar for the packed
kernel is a >= 5x throughput gain at paper scale (input sizes 8..15,
200 samples per size).

Standalone script::

    PYTHONPATH=src python benchmarks/bench_boolean.py
    PYTHONPATH=src python benchmarks/bench_boolean.py \
        --sizes 8 9 10 11 12 13 14 15 --samples 200 --require 5.0
"""

from __future__ import annotations

import argparse
import time

from repro.api.seeding import derive_seed
from repro.boolean.function import BooleanFunction
from repro.boolean.minimize import minimize_cover
from repro.boolean.random_functions import random_single_output_function
from repro.compiled import compiled_available, compiled_backend
from repro.crossbar.simulator import verify_layout
from repro.crossbar.two_level import (
    TwoLevelDesign,
    two_level_area_cost,
    two_level_area_cost_batch,
)
from repro.experiments.figure6 import Figure6Config

#: Result row label → the engine it runs (the labels name the
#: ``BENCH_boolean.json`` metric keys, so they stay comparable).
LABEL_ENGINES = {
    "compiled": "compiled",
    "packed": "vectorized",
    "object": "reference",
}


def run_pipeline(
    num_inputs: int, samples: int, *, seed: int, engine: str
) -> tuple[float, list[tuple]]:
    """One engine's full pipeline over one input size.

    Returns ``(elapsed_seconds, per-sample result tuples)``; the tuples
    carry everything the differential check compares.
    """
    spec = Figure6Config().spec_for(num_inputs)
    results = []
    start = time.perf_counter()
    for index in range(samples):
        function = random_single_output_function(
            spec,
            seed=derive_seed(seed, "random-function", index),
            engine=engine,
        )
        cover = minimize_cover(function.cover_for_output(0), engine=engine)
        minimized = BooleanFunction.single_output(
            cover, input_names=function.input_names, name=function.name
        )
        area = two_level_area_cost(num_inputs, 1, minimized.num_products)
        design = TwoLevelDesign(minimized)
        valid = verify_layout(design.layout, function, engine=engine)
        results.append((cover.to_strings(), area, valid))
    return time.perf_counter() - start, results


def collect(
    *, sizes=(8, 10, 12, 15), samples=50, seed=7, verbose=True
) -> dict:
    """Run the benchmark and return machine-readable metrics."""
    wall_start = time.perf_counter()
    engines = ["object", "packed"]
    if compiled_available():
        engines.append("compiled")
    per_size = []
    totals = dict.fromkeys(engines, 0.0)
    for num_inputs in sizes:
        elapsed = {}
        results = {}
        for engine in engines:
            elapsed[engine], results[engine] = run_pipeline(
                num_inputs, samples, seed=seed, engine=LABEL_ENGINES[engine]
            )
            totals[engine] += elapsed[engine]
        for engine in engines[1:]:
            if results[engine] != results["object"]:
                raise SystemExit(
                    f"FAIL: n={num_inputs}: {engine} and object pipelines "
                    "disagree"
                )
        # Cross-check: recompute every sample's area in one vectorized call.
        batched_areas = two_level_area_cost_batch(
            num_inputs, 1, [len(cover) for cover, _, _ in results["packed"]]
        )
        if [int(a) for a in batched_areas] != [
            a for _, a, _ in results["packed"]
        ]:
            raise SystemExit(
                f"FAIL: n={num_inputs}: batched area costs disagree"
            )
        row = {"num_inputs": num_inputs, "samples": samples}
        for engine in engines:
            row[f"{engine}_seconds"] = round(elapsed[engine], 4)
        row["speedup"] = round(
            elapsed["object"] / elapsed["packed"] if elapsed["packed"] else 0.0,
            2,
        )
        if "compiled" in engines:
            row["compiled_speedup"] = round(
                elapsed["object"] / elapsed["compiled"]
                if elapsed["compiled"]
                else 0.0,
                2,
            )
        per_size.append(row)
        if verbose:
            timings = " | ".join(
                f"{engine} {elapsed[engine]:7.2f} s" for engine in engines
            )
            print(
                f"n={num_inputs:2d}: {timings} | packed speedup "
                f"{row['speedup']:5.1f}x | results identical"
            )
    overall = totals["object"] / totals["packed"] if totals["packed"] else 0.0
    if verbose:
        timings = " | ".join(
            f"{engine} {totals[engine]:.2f} s" for engine in engines
        )
        print(f"overall: {timings} | packed speedup {overall:.1f}x")
    metrics = {
        "benchmark": "boolean",
        "sizes": list(sizes),
        "samples": samples,
        "seed": seed,
        "compiled_backend": compiled_backend(),
        "per_size": per_size,
        "elapsed_seconds": round(time.perf_counter() - wall_start, 4),
        "object_seconds": round(totals["object"], 4),
        "packed_seconds": round(totals["packed"], 4),
        "speedup": round(overall, 2),
    }
    if "compiled" in engines:
        metrics["compiled_seconds"] = round(totals["compiled"], 4)
        metrics["compiled_speedup"] = round(
            totals["object"] / totals["compiled"]
            if totals["compiled"]
            else 0.0,
            2,
        )
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes",
        nargs="+",
        type=int,
        default=[8, 10, 12, 15],
        help="input sizes to benchmark (paper scale: 8..15)",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=50,
        help="random functions per input size (paper scale: 200)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--require",
        type=float,
        default=None,
        help="exit non-zero unless the overall speedup reaches this factor "
        "(e.g. 5.0)",
    )
    args = parser.parse_args()
    metrics = collect(
        sizes=tuple(args.sizes), samples=args.samples, seed=args.seed
    )
    if args.require is not None and metrics["speedup"] < args.require:
        raise SystemExit(
            f"FAIL: overall speedup {metrics['speedup']:.1f}x below required "
            f"{args.require}x"
        )


if __name__ == "__main__":
    main()
