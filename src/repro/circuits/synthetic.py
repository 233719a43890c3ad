"""Synthetic benchmark circuits matching the paper's reported statistics.

The original MCNC PLA files cannot be shipped with this repository, so
for every benchmark of Tables I/II we generate a deterministic circuit
with *exactly* the paper's input, output and product counts and with a
literal density calibrated to reproduce the reported inclusion ratio.
Those four quantities are the only properties the paper's experiments
depend on:

* the two-level area is a pure function of (I, O, P);
* defect-tolerant-mapping difficulty is governed by the function-matrix
  shape and its inclusion ratio (how many functional crosspoints each row
  needs);
* the multi-level comparison (Table I) depends on how much structure the
  NAND mapper can extract, which is again driven by (I, O, P) and the
  literal distribution.

The substitution is documented in the "Deviations" section of
``docs/paper_map.md``.
"""

from __future__ import annotations

import random

from repro.boolean.cube import Cube
from repro.boolean.function import BooleanFunction, Product
from repro.circuits.specs import BenchmarkSpec
from repro.exceptions import BenchmarkError


def _calibration_targets(spec: BenchmarkSpec) -> tuple[float, float]:
    """Average literals and output-connections per product to hit the IR.

    The two-level design uses ``literals + connections + 2·O`` devices on
    an area of ``(P+O)(2I+2O)``; solving ``IR = used / area`` gives the
    per-product device budget, which is split between input literals
    (preferred, capped at roughly 3/4 of the inputs) and output fan-out
    (the remainder, capped at the output count).
    """
    if spec.inclusion_ratio is None:
        return max(2.0, spec.inputs / 2), 1.0
    area = spec.two_level_area()
    used_target = spec.inclusion_ratio * area - 2 * spec.outputs
    per_product = max(2.0, used_target / max(1, spec.products))
    literal_cap = max(1.0, spec.inputs - 0.5)
    literals = min(literal_cap, max(1.0, per_product - 1.0))
    fanout = min(float(spec.outputs), max(1.0, per_product - literals))
    return literals, fanout


def synthetic_benchmark(
    spec: BenchmarkSpec,
    *,
    seed: int = 0,
    name_suffix: str = "",
) -> BooleanFunction:
    """Generate a deterministic circuit with the spec's exact (I, O, P).

    Every output is driven by at least one product and every product
    drives at least one output; product cubes are pairwise distinct.
    """
    if spec.products < spec.outputs and spec.products * 3 < spec.outputs:
        # Products can drive several outputs, so P may be below O, but a
        # pathological ratio cannot be satisfied.
        raise BenchmarkError(
            f"spec {spec.name}: cannot drive {spec.outputs} outputs with only "
            f"{spec.products} products"
        )
    rng = random.Random(seed if seed else _stable_seed(spec.name))

    literal_target, outputs_per_product = _calibration_targets(spec)

    products: list[Product] = []
    seen: set[Cube] = set()
    attempts = 0
    while len(products) < spec.products:
        attempts += 1
        if attempts > 200 * spec.products + 10_000:
            raise BenchmarkError(
                f"could not generate {spec.products} distinct products for "
                f"{spec.name}"
            )
        literal_count = _draw_literal_count(rng, literal_target, spec.inputs)
        variables = rng.sample(range(spec.inputs), literal_count)
        literals = {variable: rng.random() < 0.5 for variable in variables}
        cube = Cube.from_literals(literals, spec.inputs)
        if cube in seen:
            continue
        seen.add(cube)
        fanout = _draw_fanout(rng, outputs_per_product, spec.outputs)
        outputs = frozenset(rng.sample(range(spec.outputs), fanout))
        products.append(Product(cube, outputs))

    products = _ensure_all_outputs_driven(products, spec.outputs)

    input_names = [f"x{i + 1}" for i in range(spec.inputs)]
    output_names = [f"f{i}" for i in range(spec.outputs)]
    return BooleanFunction(
        input_names,
        output_names,
        products,
        name=f"{spec.name}{name_suffix}",
    )


def synthetic_complement_benchmark(
    spec: BenchmarkSpec, *, seed: int = 0
) -> BooleanFunction | None:
    """Synthetic stand-in for the *complemented* circuit of Table I.

    Only the product count differs (taken from the Table I negation area);
    returns ``None`` when the paper gives no complement data.
    """
    if spec.complement_products is None:
        return None
    complemented = BenchmarkSpec(
        name=f"{spec.name}_neg",
        inputs=spec.inputs,
        outputs=spec.outputs,
        products=spec.complement_products,
        inclusion_ratio=spec.inclusion_ratio,
    )
    return synthetic_benchmark(complemented, seed=seed or _stable_seed(complemented.name))


def _draw_literal_count(rng: random.Random, target: float, num_inputs: int) -> int:
    """Literal count around the calibration target (±1, clamped)."""
    jitter = rng.choice((-1, 0, 0, 1))
    base = int(round(target)) + jitter
    return max(1, min(num_inputs, base))


def _draw_fanout(rng: random.Random, target: float, num_outputs: int) -> int:
    """Output fan-out around the calibration target (±1, clamped)."""
    jitter = rng.choice((-1, 0, 0, 1))
    base = int(round(target)) + jitter
    return max(1, min(num_outputs, base))


def _ensure_all_outputs_driven(
    products: list[Product], num_outputs: int
) -> list[Product]:
    driven: set[int] = set()
    for product in products:
        driven |= product.outputs
    missing = [output for output in range(num_outputs) if output not in driven]
    result = list(products)
    for index, output in enumerate(missing):
        victim_index = index % len(result)
        victim = result[victim_index]
        result[victim_index] = Product(victim.cube, victim.outputs | {output})
    return result


def _stable_seed(name: str) -> int:
    """Deterministic per-benchmark seed derived from the name."""
    return sum((i + 1) * ord(ch) for i, ch in enumerate(name)) + 7919
