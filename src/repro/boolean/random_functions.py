"""Random Boolean function generation for the Fig. 6 Monte-Carlo study.

The paper generates random single-output functions for input sizes 8–15,
maps them both as a two-level and a multi-level crossbar, and reports the
fraction of samples where the multi-level design is cheaper.  The exact
generation procedure is not published beyond "randomly generating Boolean
functions"; we expose a parameterised generator whose defaults produce
the qualitative regime the figure shows:

* product counts span a wide range (the figure's x-axes are sorted by
  product count from a handful up to well over a hundred products);
* literal counts per product are biased towards small products for small
  product counts and towards wider products as the count grows, matching
  the behaviour of minimised random on-sets.

All generation is deterministic given a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.boolean.function import BooleanFunction
from repro.boolean.minimize import merge_distance_one
from repro.engines import resolve_boolean_engine
from repro.exceptions import BooleanFunctionError


@dataclass(frozen=True)
class RandomFunctionSpec:
    """Parameters of the random-function generator.

    Attributes
    ----------
    num_inputs:
        Input count ``n``.
    min_products / max_products:
        Range of the number of products before light minimisation.
    min_literals / max_literals:
        Range of literals per product; ``max_literals`` of ``None`` means
        up to ``num_inputs``.
    """

    num_inputs: int
    min_products: int = 2
    max_products: int | None = None
    min_literals: int = 1
    max_literals: int | None = None

    def resolved_max_products(self) -> int:
        """Upper bound on products (defaults to ``4 * n`` like the figure)."""
        if self.max_products is not None:
            return self.max_products
        return 4 * self.num_inputs

    def resolved_max_literals(self) -> int:
        """Upper bound on literals per product (defaults to ``n``)."""
        if self.max_literals is not None:
            return min(self.max_literals, self.num_inputs)
        return self.num_inputs


def random_cube(num_inputs: int, num_literals: int, rng: random.Random) -> Cube:
    """A random cube with exactly ``num_literals`` literals."""
    if not 0 <= num_literals <= num_inputs:
        raise BooleanFunctionError(
            f"cannot place {num_literals} literals on {num_inputs} inputs"
        )
    variables = rng.sample(range(num_inputs), num_literals)
    literals = {variable: rng.random() < 0.5 for variable in variables}
    return Cube.from_literals(literals, num_inputs)


def random_cover(
    spec: RandomFunctionSpec, rng: random.Random, *, engine: str = "auto"
) -> Cover:
    """A random sum-of-products cover following ``spec``.

    ``engine`` selects the clean-up implementation — the packed bitset
    kernels or the reference walk.  The RNG draw sequence is shared, so
    every engine returns the identical cover for the same ``rng`` state.
    """
    resolved = resolve_boolean_engine(engine, spec.num_inputs)
    max_products = spec.resolved_max_products()
    if spec.min_products > max_products:
        raise BooleanFunctionError("min_products exceeds max_products")
    num_products = rng.randint(spec.min_products, max_products)
    max_literals = spec.resolved_max_literals()

    cubes = []
    for _ in range(num_products):
        num_literals = rng.randint(max(1, spec.min_literals), max_literals)
        cubes.append(random_cube(spec.num_inputs, num_literals, rng))
    cover = Cover(spec.num_inputs, cubes)
    # Light clean-up: drop contained cubes and merge trivially mergeable
    # pairs, mirroring the fact that the paper feeds *functions*, not raw
    # redundant cube lists, into the cost comparison.
    if resolved != "reference":
        from repro.boolean.packed import merge_distance_one_packed

        return merge_distance_one_packed(
            cover.without_contained_cubes(), compiled=resolved == "compiled"
        )
    return merge_distance_one(cover.without_contained_cubes())


def random_single_output_function(
    spec: RandomFunctionSpec, *, seed: int, engine: str = "auto"
) -> BooleanFunction:
    """A random single-output function, deterministic in ``seed``.

    ``engine`` is forwarded to :func:`random_cover`; every engine draws
    the same RNG stream and returns the identical function.
    """
    rng = random.Random(seed)
    cover = random_cover(spec, rng, engine=engine)
    if cover.is_empty():
        cover = Cover(spec.num_inputs, [random_cube(spec.num_inputs, 1, rng)])
    return BooleanFunction.single_output(
        cover, name=f"rand_n{spec.num_inputs}_s{seed}"
    )


def random_function_sample(
    spec: RandomFunctionSpec, sample_size: int, *, seed: int = 0
) -> list[BooleanFunction]:
    """A reproducible sample of random functions (Fig. 6 workload).

    Per-sample seeds come from the hash-based
    :func:`repro.api.seeding.derive_seed` stream (domain
    ``"random-function"``), so distinct ``(seed, index)`` pairs can never
    alias — and the stream matches what the parallel Fig. 6 harness
    derives per *global* sample index, keeping serial and chunked
    generation identical.
    """
    from repro.api.seeding import derive_seed

    return [
        random_single_output_function(
            spec, seed=derive_seed(seed, "random-function", index)
        )
        for index in range(sample_size)
    ]


def random_multi_output_function(
    num_inputs: int,
    num_outputs: int,
    num_products: int,
    *,
    seed: int = 0,
    min_literals: int = 1,
    max_literals: int | None = None,
    max_outputs_per_product: int | None = None,
) -> BooleanFunction:
    """A random multi-output function with exact ``(I, O, P)`` statistics.

    Used by the synthetic benchmark generator to match the paper's
    benchmark dimensions when the original MCNC PLA is not available.
    Every output is guaranteed to be driven by at least one product.
    """
    from repro.boolean.function import Product

    rng = random.Random(seed)
    if max_literals is None:
        max_literals = num_inputs
    if max_outputs_per_product is None:
        max_outputs_per_product = max(1, min(3, num_outputs))

    products: list[Product] = []
    seen_cubes: set[Cube] = set()
    attempts = 0
    while len(products) < num_products:
        attempts += 1
        if attempts > 50 * num_products + 1000:
            raise BooleanFunctionError(
                "could not generate enough distinct products; relax the spec"
            )
        num_literals = rng.randint(min_literals, max_literals)
        cube = random_cube(num_inputs, num_literals, rng)
        if cube in seen_cubes:
            continue
        seen_cubes.add(cube)
        fanout = rng.randint(1, max_outputs_per_product)
        outputs = frozenset(rng.sample(range(num_outputs), min(fanout, num_outputs)))
        products.append(Product(cube, outputs))

    # Ensure every output is driven.
    driven = set()
    for product in products:
        driven |= product.outputs
    undriven = [o for o in range(num_outputs) if o not in driven]
    for index, output in enumerate(undriven):
        victim = products[index % len(products)]
        products[products.index(victim)] = Product(
            victim.cube, victim.outputs | {output}
        )

    input_names = [f"x{i + 1}" for i in range(num_inputs)]
    output_names = [f"f{i}" for i in range(num_outputs)]
    return BooleanFunction(
        input_names, output_names, products, name=f"randmo_s{seed}"
    )
