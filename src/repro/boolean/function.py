"""Multi-output Boolean functions in PLA-style shared-product form.

The crossbar architecture of the paper implements a *multi-output*
sum-of-products: each product term occupies one horizontal line of the
NAND plane and may feed any subset of the outputs through the AND plane.
:class:`BooleanFunction` therefore stores a list of
:class:`Product` objects — a cube plus the set of outputs it belongs to —
exactly mirroring one row of the paper's *function matrix*.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from repro.boolean.complement import ComplementOverflowError, complement_cover
from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.exceptions import BooleanFunctionError


@dataclass(frozen=True)
class Product:
    """One shared product term: a cube and the outputs it drives."""

    cube: Cube
    outputs: frozenset[int]

    def __post_init__(self) -> None:
        if not self.outputs:
            raise BooleanFunctionError(
                "a product must drive at least one output"
            )
        object.__setattr__(self, "outputs", frozenset(int(o) for o in self.outputs))

    def literal_count(self) -> int:
        """Number of input literals in the product."""
        return self.cube.literal_count()

    def connection_count(self) -> int:
        """Number of output connections of the product."""
        return len(self.outputs)


class BooleanFunction:
    """A named multi-output Boolean function in sum-of-products form.

    Parameters
    ----------
    input_names:
        Names of the input variables (order defines the column order of the
        crossbar's input latch).
    output_names:
        Names of the outputs.
    products:
        Shared product terms.  Identical cubes driving different outputs may
        either appear as separate products or be merged; the constructor
        merges duplicates so each distinct cube appears once.
    name:
        Optional benchmark/circuit name.
    """

    def __init__(
        self,
        input_names: Sequence[str],
        output_names: Sequence[str],
        products: Iterable[Product],
        *,
        name: str = "",
    ):
        self._input_names = tuple(str(n) for n in input_names)
        self._output_names = tuple(str(n) for n in output_names)
        if len(set(self._input_names)) != len(self._input_names):
            raise BooleanFunctionError("duplicate input names")
        if len(set(self._output_names)) != len(self._output_names):
            raise BooleanFunctionError("duplicate output names")
        self._name = str(name)

        merged: dict[Cube, set[int]] = {}
        order: list[Cube] = []
        for product in products:
            cube = product.cube
            if cube.num_inputs != len(self._input_names):
                raise BooleanFunctionError(
                    f"product cube {cube!r} has {cube.num_inputs} inputs, function "
                    f"has {len(self._input_names)}"
                )
            for output in product.outputs:
                if not 0 <= output < len(self._output_names):
                    raise BooleanFunctionError(
                        f"product references output {output}, function has "
                        f"{len(self._output_names)} outputs"
                    )
            if cube not in merged:
                merged[cube] = set()
                order.append(cube)
            merged[cube].update(product.outputs)
        self._products = tuple(
            Product(cube, frozenset(merged[cube])) for cube in order
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_covers(
        cls,
        covers: Mapping[str, Cover] | Sequence[Cover],
        *,
        input_names: Sequence[str] | None = None,
        name: str = "",
    ) -> "BooleanFunction":
        """Build a function from one single-output cover per output.

        ``covers`` may be a mapping ``{output_name: Cover}`` or a sequence of
        covers (outputs are then named ``f0, f1, …``).
        """
        if isinstance(covers, Mapping):
            output_names = list(covers.keys())
            cover_list = [covers[n] for n in output_names]
        else:
            cover_list = list(covers)
            output_names = [f"f{i}" for i in range(len(cover_list))]
        if not cover_list:
            raise BooleanFunctionError("at least one output cover is required")
        widths = {cover.num_inputs for cover in cover_list}
        if len(widths) != 1:
            raise BooleanFunctionError(
                f"covers have inconsistent input counts: {sorted(widths)}"
            )
        num_inputs = widths.pop()
        if input_names is None:
            input_names = [f"x{i + 1}" for i in range(num_inputs)]
        if len(input_names) != num_inputs:
            raise BooleanFunctionError(
                "input_names length does not match cover width"
            )
        products = []
        for output_index, cover in enumerate(cover_list):
            for cube in cover:
                products.append(Product(cube, frozenset({output_index})))
        return cls(input_names, output_names, products, name=name)

    @classmethod
    def single_output(
        cls,
        cover: Cover,
        *,
        input_names: Sequence[str] | None = None,
        output_name: str = "f",
        name: str = "",
    ) -> "BooleanFunction":
        """Convenience constructor for a single-output function."""
        return cls.from_covers(
            {output_name: cover}, input_names=input_names, name=name
        )

    @classmethod
    def from_truth_tables(
        cls,
        num_inputs: int,
        tables: Sequence[Sequence[bool]] | Sequence[Sequence[int]],
        *,
        input_names: Sequence[str] | None = None,
        output_names: Sequence[str] | None = None,
        name: str = "",
        minimize: bool = True,
    ) -> "BooleanFunction":
        """Build a function from explicit truth tables (one per output)."""
        from repro.boolean.minimize import minimize_cover

        covers = []
        for table in tables:
            if len(table) != (1 << num_inputs):
                raise BooleanFunctionError(
                    f"truth table must have {1 << num_inputs} rows, got {len(table)}"
                )
            minterms = [i for i, value in enumerate(table) if value]
            cover = Cover.from_minterms(num_inputs, minterms)
            if minimize:
                cover = minimize_cover(cover)
            covers.append(cover)
        if output_names is None:
            output_names = [f"f{i}" for i in range(len(covers))]
        return cls.from_covers(
            dict(zip(output_names, covers)), input_names=input_names, name=name
        )

    # ------------------------------------------------------------------
    # Accessors and statistics
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Benchmark/circuit name (may be empty)."""
        return self._name

    @property
    def input_names(self) -> tuple[str, ...]:
        """Input variable names."""
        return self._input_names

    @property
    def output_names(self) -> tuple[str, ...]:
        """Output names."""
        return self._output_names

    @property
    def products(self) -> tuple[Product, ...]:
        """Shared product terms."""
        return self._products

    @property
    def num_inputs(self) -> int:
        """Number of inputs (``I`` in the paper's tables)."""
        return len(self._input_names)

    @property
    def num_outputs(self) -> int:
        """Number of outputs (``O`` in the paper's tables)."""
        return len(self._output_names)

    @property
    def num_products(self) -> int:
        """Number of shared products (``P`` in the paper's tables)."""
        return len(self._products)

    def literal_count(self) -> int:
        """Total number of input literals over all products."""
        return sum(product.literal_count() for product in self._products)

    def connection_count(self) -> int:
        """Total number of product→output connections."""
        return sum(product.connection_count() for product in self._products)

    def with_name(self, name: str) -> "BooleanFunction":
        """Return a copy with a different circuit name."""
        return BooleanFunction(
            self._input_names, self._output_names, self._products, name=name
        )

    def __repr__(self) -> str:
        label = self._name or "<anonymous>"
        return (
            f"BooleanFunction({label}: I={self.num_inputs}, O={self.num_outputs}, "
            f"P={self.num_products})"
        )

    # ------------------------------------------------------------------
    # Per-output views
    # ------------------------------------------------------------------
    def cover_for_output(self, output: int | str) -> Cover:
        """The single-output cover of one output."""
        index = self._output_index(output)
        cubes = [p.cube for p in self._products if index in p.outputs]
        return Cover(self.num_inputs, cubes)

    def covers(self) -> dict[str, Cover]:
        """All per-output covers keyed by output name."""
        return {
            name: self.cover_for_output(i)
            for i, name in enumerate(self._output_names)
        }

    def _output_index(self, output: int | str) -> int:
        if isinstance(output, str):
            try:
                return self._output_names.index(output)
            except ValueError:
                raise BooleanFunctionError(f"unknown output {output!r}") from None
        if not 0 <= output < self.num_outputs:
            raise BooleanFunctionError(f"output index {output} out of range")
        return int(output)

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def evaluate(self, assignment: Sequence[int] | Sequence[bool]) -> list[bool]:
        """Evaluate all outputs on a complete input assignment."""
        if len(assignment) != self.num_inputs:
            raise BooleanFunctionError(
                f"assignment has {len(assignment)} values, function expects "
                f"{self.num_inputs}"
            )
        results = [False] * self.num_outputs
        for product in self._products:
            if product.cube.evaluate(assignment):
                for output in product.outputs:
                    results[output] = True
        return results

    def evaluate_named(self, assignment: Mapping[str, int]) -> dict[str, bool]:
        """Evaluate with a ``{input_name: value}`` mapping."""
        vector = [assignment[name] for name in self._input_names]
        values = self.evaluate(vector)
        return dict(zip(self._output_names, values))

    def equivalent(
        self,
        other: "BooleanFunction",
        *,
        exhaustive_limit: int = 14,
        samples: int = 2000,
        seed: int = 0,
    ) -> bool:
        """Semantic equivalence check against another function.

        Exhaustive up to ``exhaustive_limit`` inputs, randomised sampling
        beyond that (a standard practical compromise; the library's own
        transformations are additionally covered by exact per-cover
        containment tests in the test-suite).
        """
        if (
            self.num_inputs != other.num_inputs
            or self.num_outputs != other.num_outputs
        ):
            return False
        if self.num_inputs <= exhaustive_limit:
            points = (
                [(point >> i) & 1 for i in range(self.num_inputs)]
                for point in range(1 << self.num_inputs)
            )
        else:
            rng = random.Random(seed)
            points = (
                [rng.randint(0, 1) for _ in range(self.num_inputs)]
                for _ in range(samples)
            )
        return all(
            self.evaluate(assignment) == other.evaluate(assignment)
            for assignment in points
        )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def complement(
        self, *, max_cubes: int = 200_000, name: str | None = None
    ) -> "BooleanFunction":
        """The output-wise complement ("negation of circuit" in the paper).

        Raises
        ------
        ComplementOverflowError
            If any output's complement exceeds the cube budget.
        """
        covers = {}
        for index, output_name in enumerate(self._output_names):
            cover = self.cover_for_output(index)
            covers[output_name] = complement_cover(cover, max_cubes=max_cubes)
        if name is None:
            name = f"{self._name}_neg" if self._name else ""
        return BooleanFunction.from_covers(
            covers, input_names=self._input_names, name=name
        )

    def try_complement(
        self, *, max_cubes: int = 50_000
    ) -> "BooleanFunction | None":
        """Complement, or ``None`` when it would exceed the cube budget."""
        try:
            return self.complement(max_cubes=max_cubes)
        except ComplementOverflowError:
            return None

    def minimized(self) -> "BooleanFunction":
        """Output-wise two-level minimisation (see :mod:`repro.boolean.minimize`)."""
        from repro.boolean.minimize import minimize_cover

        covers = {
            output_name: minimize_cover(self.cover_for_output(index))
            for index, output_name in enumerate(self._output_names)
        }
        return BooleanFunction.from_covers(
            covers, input_names=self._input_names, name=self._name
        )

    def renamed(
        self,
        *,
        input_names: Sequence[str] | None = None,
        output_names: Sequence[str] | None = None,
    ) -> "BooleanFunction":
        """Return a copy with different input/output names."""
        return BooleanFunction(
            input_names if input_names is not None else self._input_names,
            output_names if output_names is not None else self._output_names,
            self._products,
            name=self._name,
        )

    def restricted_to_outputs(self, outputs: Iterable[int | str]) -> "BooleanFunction":
        """Project the function onto a subset of its outputs."""
        indices = [self._output_index(o) for o in outputs]
        index_map = {old: new for new, old in enumerate(indices)}
        products = []
        for product in self._products:
            kept = frozenset(index_map[o] for o in product.outputs if o in index_map)
            if kept:
                products.append(Product(product.cube, kept))
        return BooleanFunction(
            self._input_names,
            [self._output_names[i] for i in indices],
            products,
            name=self._name,
        )

    def iter_assignments(self) -> Iterable[list[int]]:
        """Iterate all ``2**n`` input assignments (small inputs only)."""
        for bits in itertools.product((0, 1), repeat=self.num_inputs):
            yield list(bits)
