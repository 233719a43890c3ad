"""Declarative, serializable experiment scenarios.

The paper's evaluation used to be five hand-coded harnesses; a
:class:`Scenario` turns "map *this function* with *these mappers* under
*this defect model* at *these redundancy levels*, N samples, seed s"
into pure data: it JSON round-trips (:meth:`to_dict` / :meth:`from_dict`),
hashes to a stable content key (:meth:`content_hash`, the artifact-cache
key of :mod:`repro.api.runner`) and runs from the CLI
(``python -m repro run <file.json>``).

Two protocols cover every experiment in the paper:

* ``"mapping"`` — the §V Monte-Carlo mapping protocol (Table II, the
  defect-rate sweep, the redundancy/yield study);
* ``"area"`` — the Fig. 6 two-level vs multi-level area comparison on
  random functions.

:class:`ScenarioSuite` is an ordered, named collection of scenarios —
each experiment module predeclares its paper workload as a
``paper_suite()``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any

from repro.api.defect_models import DefectModel, resolve_defect_model
from repro.boolean.function import BooleanFunction
from repro.exceptions import ExperimentError

#: Protocols a scenario can declare.
PROTOCOLS = ("mapping", "area")

#: Kinds of function source a scenario can declare.
SOURCE_KINDS = ("benchmark", "pla", "sop", "random", "inline")


@dataclass(frozen=True)
class FunctionSource:
    """Where a scenario's Boolean function(s) come from.

    ``kind`` selects the constructor, ``spec`` holds its JSON-safe
    parameters.  Use the classmethod constructors rather than spelling
    the spec dict by hand.
    """

    kind: str
    spec: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in SOURCE_KINDS:
            raise ExperimentError(
                f"unknown function source kind {self.kind!r}; expected one of "
                f"{list(SOURCE_KINDS)}"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def benchmark(cls, name: str, *, variant: str = "table2") -> "FunctionSource":
        """A named benchmark circuit from :mod:`repro.circuits`."""
        return cls("benchmark", {"name": name, "variant": variant})

    @classmethod
    def pla(cls, text: str, *, name: str = "") -> "FunctionSource":
        """Inline PLA text (read files before constructing, so the
        scenario stays self-contained and serializable)."""
        return cls("pla", {"text": text, "name": name})

    @classmethod
    def sop(cls, expression: str, *, name: str = "") -> "FunctionSource":
        """A sum-of-products expression, e.g. ``"x1 + x2 x3"``."""
        return cls("sop", {"expression": expression, "name": name})

    @classmethod
    def random(
        cls,
        num_inputs: int,
        *,
        min_products: int = 2,
        max_products: int | None = None,
        min_literals: int = 1,
        max_literals: int | None = None,
    ) -> "FunctionSource":
        """Random single-output functions (the Fig. 6 workload).

        The scenario's ``seed`` drives generation; under the ``"area"``
        protocol every sample index gets its own function from the
        ``("random-function", index)`` seed stream.
        """
        return cls(
            "random",
            {
                "num_inputs": num_inputs,
                "min_products": min_products,
                "max_products": max_products,
                "min_literals": min_literals,
                "max_literals": max_literals,
            },
        )

    @classmethod
    def from_function(cls, function: BooleanFunction) -> "FunctionSource":
        """Embed an arbitrary function verbatim (JSON-safe snapshot)."""
        from repro.api.results import function_to_dict

        return cls("inline", {"function": function_to_dict(function)})

    @classmethod
    def coerce(
        cls, value: "FunctionSource | BooleanFunction | str"
    ) -> "FunctionSource":
        """Turn the common experiment spellings into a source.

        A string is a benchmark name, a :class:`BooleanFunction` is
        embedded inline, and an existing source passes through — the
        shape every ``run_*(function_or_name)`` wrapper accepts.
        """
        if isinstance(value, FunctionSource):
            return value
        if isinstance(value, str):
            return cls.benchmark(value)
        if isinstance(value, BooleanFunction):
            return cls.from_function(value)
        raise ExperimentError(
            f"cannot turn {value!r} into a function source; expected a "
            "benchmark name, a BooleanFunction or a FunctionSource"
        )

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def random_spec(self):
        """The :class:`RandomFunctionSpec` of a ``random`` source."""
        if self.kind != "random":
            raise ExperimentError(f"source kind {self.kind!r} has no random spec")
        from repro.boolean.random_functions import RandomFunctionSpec

        return RandomFunctionSpec(
            num_inputs=self.spec["num_inputs"],
            min_products=self.spec.get("min_products", 2),
            max_products=self.spec.get("max_products"),
            min_literals=self.spec.get("min_literals", 1),
            max_literals=self.spec.get("max_literals"),
        )

    def build(self, *, seed: int = 0) -> BooleanFunction:
        """Materialise the function (``seed`` only matters for ``random``)."""
        if self.kind == "benchmark":
            from repro.circuits.registry import get_benchmark

            return get_benchmark(
                self.spec["name"], variant=self.spec.get("variant", "table2")
            )
        if self.kind == "pla":
            from repro.circuits.pla import parse_pla

            return parse_pla(self.spec["text"], name=self.spec.get("name", ""))
        if self.kind == "sop":
            from repro.boolean.expression import parse_sop

            cover, input_names = parse_sop(self.spec["expression"])
            return BooleanFunction.single_output(
                cover, input_names=input_names, name=self.spec.get("name", "")
            )
        if self.kind == "random":
            from repro.api.seeding import derive_seed
            from repro.boolean.random_functions import random_single_output_function

            return random_single_output_function(
                self.random_spec(), seed=derive_seed(seed, "random-function", 0)
            )
        from repro.api.results import function_from_dict

        return function_from_dict(self.spec["function"])

    def label(self) -> str:
        """Short human-readable description of the source."""
        if self.kind == "benchmark":
            return self.spec["name"]
        if self.kind == "random":
            return f"random(n={self.spec['num_inputs']})"
        if self.kind == "inline":
            return self.spec["function"].get("name") or "<anonymous>"
        return self.spec.get("name") or self.kind

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {"kind": self.kind, "spec": dict(self.spec)}

    @classmethod
    def from_dict(cls, payload: dict) -> "FunctionSource":
        """Rebuild a source serialized by :meth:`to_dict`."""
        return cls(kind=payload["kind"], spec=dict(payload.get("spec", {})))


def _normalise_redundancy(levels) -> tuple[tuple[int, int], ...]:
    normalised = []
    for level in levels:
        rows, columns = level
        rows, columns = int(rows), int(columns)
        if rows < 0 or columns < 0:
            raise ExperimentError(
                f"redundancy levels must be non-negative, got {(rows, columns)}"
            )
        normalised.append((rows, columns))
    if not normalised:
        raise ExperimentError("a scenario needs at least one redundancy level")
    return tuple(normalised)


@dataclass(frozen=True)
class Scenario:
    """One declarative experiment: everything a run needs, as pure data.

    Attributes
    ----------
    name:
        Unique label within a suite; also the CLI handle.
    source:
        Where the function(s) come from (:class:`FunctionSource`).
    mappers:
        Mapper registry names raced against each other (``"mapping"``
        protocol; resolved at run time so plugin mappers work).
    defect_model:
        A :class:`~repro.api.defect_models.DefectModel` (or ``None`` for
        the paper's 10 % uniform stuck-open default).
    redundancy:
        ``(extra_rows, extra_columns)`` levels; one result row each.
    samples:
        Monte-Carlo sample count per redundancy level.
    seed:
        Root seed; all sample streams derive from it collision-free.
    protocol:
        ``"mapping"`` or ``"area"`` (see the module docstring).
    options:
        Free-form JSON-safe protocol options: mapping runs honour
        ``multilevel``, ``confidence`` and ``ci_method``, area runs
        ``minimize_before_synthesis``.  Other keys are hashed with the
        spec but never read.
    tolerance:
        Each ``"mapping"`` redundancy level is one run of the adaptive
        sampler of :mod:`repro.analysis`.  ``None`` (default) is its
        one-batch case, the fixed ``samples`` budget — the paper's
        protocol.  A float draws samples until every mapper's CI
        half-width reaches the tolerance, with ``samples`` acting as
        the budget ceiling.
    """

    name: str
    source: FunctionSource
    mappers: tuple[str, ...] = ("hybrid", "exact")
    defect_model: DefectModel | None = None
    redundancy: tuple[tuple[int, int], ...] = ((0, 0),)
    samples: int = 200
    seed: int = 0
    protocol: str = "mapping"
    options: dict = field(default_factory=dict)
    tolerance: float | None = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ExperimentError(
                f"scenario name must be a non-empty string, got {self.name!r}"
            )
        if self.protocol not in PROTOCOLS:
            raise ExperimentError(
                f"unknown protocol {self.protocol!r}; expected one of "
                f"{list(PROTOCOLS)}"
            )
        if self.samples <= 0:
            raise ExperimentError(f"samples must be positive, got {self.samples}")
        object.__setattr__(self, "mappers", tuple(self.mappers))
        object.__setattr__(
            self, "redundancy", _normalise_redundancy(self.redundancy)
        )
        if self.protocol == "mapping" and not self.mappers:
            raise ExperimentError("a mapping scenario needs at least one mapper")
        if self.tolerance is not None:
            if self.protocol != "mapping":
                raise ExperimentError(
                    "tolerance only applies to the mapping protocol, not "
                    f"{self.protocol!r}"
                )
            if not 0.0 < self.tolerance < 0.5:
                raise ExperimentError(
                    f"tolerance must lie in (0, 0.5), got {self.tolerance}"
                )
        if "multilevel" in self.options:
            if self.protocol != "mapping":
                raise ExperimentError(
                    "the multilevel option only applies to the mapping "
                    f"protocol, not {self.protocol!r}"
                )
            from repro.multilevel import normalize_multilevel_spec

            # Validate eagerly (typos fail at construction time) but keep
            # the spec as declared — normalising inside options would
            # change existing content hashes.
            normalize_multilevel_spec(self.options["multilevel"])

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def resolved_defect_model(self) -> DefectModel:
        """The defect model with the paper default filled in."""
        return resolve_defect_model(self.defect_model)

    def multilevel_spec(self) -> dict | None:
        """The normalized multi-level spec, or None for two-level runs.

        Carried as ``options["multilevel"]`` so multi-level scenarios
        flow through the existing mapping protocol — chunk planning,
        result assembly and content hashing — unchanged.
        """
        if "multilevel" not in self.options:
            return None
        from repro.multilevel import normalize_multilevel_spec

        return normalize_multilevel_spec(self.options["multilevel"])

    def with_overrides(
        self,
        *,
        samples: int | None = None,
        seed: int | None = None,
        tolerance: float | None = None,
    ) -> "Scenario":
        """A copy with CLI-style overrides applied (``None`` = keep).

        ``tolerance`` only applies to mapping scenarios; area scenarios
        ignore it rather than erroring, so a suite-wide override doesn't
        trip over its area members.
        """
        updates: dict[str, Any] = {}
        if samples is not None:
            updates["samples"] = samples
        if seed is not None:
            updates["seed"] = seed
        if tolerance is not None and self.protocol == "mapping":
            updates["tolerance"] = tolerance
        return replace(self, **updates) if updates else self

    def describe(self) -> str:
        """One-line summary used by ``repro list scenarios``."""
        model = self.resolved_defect_model().describe()
        if self.protocol == "area":
            return (
                f"{self.name}: area protocol on {self.source.label()}, "
                f"{self.samples} samples, seed {self.seed}"
            )
        levels = "+".join(f"{r}r{c}c" for r, c in self.redundancy)
        sampling = (
            f"adaptive to +/-{self.tolerance:g} (<= {self.samples} samples)"
            if self.tolerance is not None
            else f"{self.samples} samples"
        )
        staging = ""
        spec = self.multilevel_spec()
        if spec is not None:
            staging = f", multi-level ({spec['strategy']})"
        return (
            f"{self.name}: map {self.source.label()} with "
            f"{'/'.join(self.mappers)} under {model}, redundancy {levels}, "
            f"{sampling}{staging}, seed {self.seed}"
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe representation (full round-trip via :meth:`from_dict`).

        ``tolerance`` is emitted only when set, so every fixed-budget
        spec keeps the content hash (and therefore the cached artifact)
        it had before the adaptive extension existed.
        """
        payload = {
            "name": self.name,
            "source": self.source.to_dict(),
            "mappers": list(self.mappers),
            "defect_model": (
                self.defect_model.to_dict() if self.defect_model else None
            ),
            "redundancy": [list(level) for level in self.redundancy],
            "samples": self.samples,
            "seed": self.seed,
            "protocol": self.protocol,
            "options": dict(self.options),
        }
        if self.tolerance is not None:
            payload["tolerance"] = self.tolerance
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Scenario":
        """Rebuild a scenario serialized by :meth:`to_dict`."""
        model = payload.get("defect_model")
        return cls(
            name=payload["name"],
            source=FunctionSource.from_dict(payload["source"]),
            mappers=tuple(payload.get("mappers", ("hybrid", "exact"))),
            defect_model=DefectModel.from_dict(model) if model else None,
            redundancy=tuple(
                tuple(level) for level in payload.get("redundancy", [[0, 0]])
            ),
            samples=payload.get("samples", 200),
            seed=payload.get("seed", 0),
            protocol=payload.get("protocol", "mapping"),
            options=dict(payload.get("options", {})),
            tolerance=payload.get("tolerance"),
        )

    def to_json(self, **dumps_kwargs) -> str:
        """JSON text of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Rebuild a scenario from :meth:`to_json` text."""
        return cls.from_dict(json.loads(text))

    def content_hash(self) -> str:
        """Stable content key of the spec (the artifact-cache key).

        Canonical JSON (sorted keys, no whitespace) hashed with BLAKE2b;
        two specs that run the same experiment hash equal regardless of
        construction order, and any parameter change — samples, seed,
        defect model, redundancy — changes the key.
        """
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.blake2b(
            canonical.encode(), digest_size=16, person=b"repro-scenario"
        ).hexdigest()


@dataclass(frozen=True)
class ScenarioSuite:
    """An ordered, named collection of scenarios (one experiment's workload)."""

    name: str
    scenarios: tuple[Scenario, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ExperimentError(
                f"suite name must be a non-empty string, got {self.name!r}"
            )
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        seen: set[str] = set()
        for scenario in self.scenarios:
            if scenario.name in seen:
                raise ExperimentError(
                    f"duplicate scenario name {scenario.name!r} in suite "
                    f"{self.name!r}"
                )
            seen.add(scenario.name)

    def __iter__(self):
        return iter(self.scenarios)

    def __len__(self) -> int:
        return len(self.scenarios)

    def names(self) -> list[str]:
        """Scenario names in suite order."""
        return [scenario.name for scenario in self.scenarios]

    def scenario(self, name: str) -> Scenario:
        """Fetch one scenario by name."""
        for scenario in self.scenarios:
            if scenario.name == name:
                return scenario
        raise ExperimentError(
            f"no scenario {name!r} in suite {self.name!r}; it has {self.names()}"
        )

    def with_overrides(
        self,
        *,
        samples: int | None = None,
        seed: int | None = None,
        tolerance: float | None = None,
    ) -> "ScenarioSuite":
        """A copy with overrides applied to every scenario."""
        return ScenarioSuite(
            self.name,
            tuple(
                scenario.with_overrides(
                    samples=samples, seed=seed, tolerance=tolerance
                )
                for scenario in self.scenarios
            ),
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "name": self.name,
            "scenarios": [scenario.to_dict() for scenario in self.scenarios],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSuite":
        """Rebuild a suite serialized by :meth:`to_dict`."""
        return cls(
            name=payload["name"],
            scenarios=tuple(
                Scenario.from_dict(entry) for entry in payload.get("scenarios", [])
            ),
        )

    def to_json(self, **dumps_kwargs) -> str:
        """JSON text of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSuite":
        """Rebuild a suite from :meth:`to_json` text."""
        return cls.from_dict(json.loads(text))
