"""Named, parameterized defect models — the injector counterpart of the
mapper registry.

The injectors in :mod:`repro.defects.injection` are plain functions; an
experiment that wanted clustered defects had to hand-wire the call.  The
defect-model registry mirrors :mod:`repro.api.registry`: injectors are
registered under a public name, instantiated with keyword parameters
into a serializable :class:`DefectModel`, and resolvable *by string*
everywhere — declarative :class:`~repro.api.scenarios.Scenario` specs,
``run_mapping_monte_carlo(defect_model=...)`` and
``Design.map(defects="clustered")``.

Built-ins (mirroring the injector module):

* ``uniform`` — independent per-crosspoint defects
  (``rate``, ``stuck_open_fraction``); the paper's §V protocol;
* ``exact-count`` — exactly ``count`` defects of one ``kind``;
* ``clustered`` — spatially clustered defects
  (``rate``, ``stuck_open_fraction``, ``cluster_radius``,
  ``cluster_spread``);
* ``radial`` — wafer-style radial gradient, edge crosspoints
  ``edge_factor`` times as defective as the centre at the same mean rate
  (``rate``, ``stuck_open_fraction``, ``edge_factor``);
* ``lines`` — whole broken nanowires
  (``broken_rows``, ``broken_columns``, ``kind``).

Example
-------
>>> from repro.api.defect_models import create_defect_model
>>> model = create_defect_model("clustered", rate=0.08, cluster_radius=2)
>>> defect_map = model.inject(16, 24, seed=7)
>>> model.to_dict()
{'name': 'clustered', 'params': {'rate': 0.08, 'cluster_radius': 2}}
"""

from __future__ import annotations

import inspect
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.defects.defect_map import DefectMap
from repro.defects.injection import (
    inject_clustered,
    inject_exact_count,
    inject_line_defects,
    inject_radial,
    inject_uniform,
)
from repro.defects.types import DefectProfile, DefectType
from repro.exceptions import DefectError, RegistryError

#: An injector: ``(rows, columns, *, seed=..., **params) -> DefectMap``.
Injector = Callable[..., DefectMap]


@dataclass(frozen=True)
class DefectModel:
    """A named defect model bound to concrete parameters.

    A ``DefectModel`` is pure data — ``name`` resolves the injector in
    the default registry at :meth:`inject` time, so the model pickles
    across process-pool workers and round-trips through JSON
    (:meth:`to_dict` / :meth:`from_dict`).  Models registered at runtime
    are visible to forked workers; under the ``spawn`` start method a
    third-party model must be registered at import time of its module
    (the same caveat as runtime-registered mappers).
    """

    name: str
    params: dict = field(default_factory=dict)

    def inject(self, rows: int, columns: int, *, seed: int = 0) -> DefectMap:
        """Generate one defect map for a ``rows x columns`` crossbar."""
        injector = default_registry.injector(self.name)
        return injector(rows, columns, seed=seed, **self.params)

    @property
    def rate(self) -> float | None:
        """The model's nominal defect rate, when it has one."""
        value = self.params.get("rate")
        return float(value) if value is not None else None

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, payload: dict) -> "DefectModel":
        """Rebuild a model serialized by :meth:`to_dict`."""
        return cls(name=payload["name"], params=dict(payload.get("params", {})))

    def describe(self) -> str:
        """One-line human-readable rendering, e.g. ``uniform(rate=0.1)``."""
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"{self.name}({inner})"


class DefectModelRegistry:
    """A named registry of defect injectors.

    Most code uses the module-level default registry through
    :func:`register_defect_model` / :func:`create_defect_model`;
    separate instances exist so tests can build isolated namespaces.
    """

    def __init__(self) -> None:
        self._injectors: dict[str, Injector] = {}
        self._validators: dict[str, Callable[..., None]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        injector: Injector | None = None,
        *,
        override: bool = False,
        validate: Callable[..., None] | None = None,
    ):
        """Register an injector, usable directly or as a decorator.

        Parameters
        ----------
        name:
            Public model name (``defect_model="clustered"`` etc.).
        injector:
            Callable ``(rows, columns, *, seed=..., **params) ->
            DefectMap``.  Omit it to use the function as a decorator.
        override:
            Allow replacing an existing registration; without it a
            duplicate name raises :class:`RegistryError` so two plugins
            cannot silently shadow each other.
        validate:
            Optional ``validate(**params)`` hook raising
            :class:`~repro.exceptions.DefectError` on bad parameter
            *values*; :meth:`create` calls it so an out-of-range rate
            fails at spec-construction time, not inside a pool worker.
        """
        if not name or not isinstance(name, str):
            raise RegistryError(
                f"defect-model name must be a non-empty string, got {name!r}"
            )

        def _register(target: Injector) -> Injector:
            if not callable(target):
                raise RegistryError(
                    f"injector for {name!r} must be callable, got {target!r}"
                )
            if name in self._injectors and not override:
                raise RegistryError(
                    f"defect model {name!r} is already registered; pass "
                    "override=True to replace it"
                )
            self._injectors[name] = target
            if validate is not None:
                self._validators[name] = validate
            else:
                self._validators.pop(name, None)
            return target

        if injector is None:
            return _register
        return _register(injector)

    def unregister(self, name: str) -> None:
        """Remove a registration (unknown names raise)."""
        if name not in self._injectors:
            raise RegistryError(self._unknown_message(name))
        del self._injectors[name]
        self._validators.pop(name, None)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        """Registered model names, sorted."""
        return sorted(self._injectors)

    def __contains__(self, name: str) -> bool:
        return name in self._injectors

    def injector(self, name: str) -> Injector:
        """The registered injector for a name."""
        try:
            return self._injectors[name]
        except KeyError:
            raise RegistryError(self._unknown_message(name)) from None

    def create(self, name: str, **params) -> DefectModel:
        """Bind a registered injector's name to concrete parameters.

        Parameter names are validated eagerly against the injector's
        signature, so a typo (``cluster_radii=2``) surfaces here rather
        than deep inside a Monte-Carlo worker; the model's ``validate``
        hook (all built-ins have one) additionally rejects out-of-range
        *values* (``rate=5.0``) at the same point.
        """
        injector = self.injector(name)
        try:
            inspect.signature(injector).bind(0, 0, seed=0, **params)
        except TypeError as error:
            raise RegistryError(
                f"invalid parameters for defect model {name!r}: {error}"
            ) from None
        validator = self._validators.get(name)
        if validator is not None:
            validator(**params)
        return DefectModel(name=name, params=dict(params))

    def _unknown_message(self, name: str) -> str:
        return (
            f"unknown defect model {name!r}; registered models are "
            f"{self.names()} (add new ones with repro.api.register_defect_model)"
        )


def _as_defect_type(kind: DefectType | str) -> DefectType:
    if isinstance(kind, DefectType):
        return kind
    try:
        return DefectType(kind)
    except ValueError:
        raise DefectError(
            f"unknown defect kind {kind!r}; expected one of "
            f"{[k.value for k in DefectType]}"
        ) from None


# ----------------------------------------------------------------------
# Built-in models: thin keyword adapters over the injector functions so
# the JSON-facing parameters stay primitive (kinds are strings, line
# lists are lists).
# ----------------------------------------------------------------------
def _uniform_model(
    rows: int,
    columns: int,
    *,
    seed: int = 0,
    rate: float = 0.10,
    stuck_open_fraction: float = 1.0,
) -> DefectMap:
    profile = DefectProfile(rate=rate, stuck_open_fraction=stuck_open_fraction)
    return inject_uniform(rows, columns, profile, seed=seed)


def _exact_count_model(
    rows: int,
    columns: int,
    *,
    seed: int = 0,
    count: int = 1,
    kind: str = "stuck_open",
) -> DefectMap:
    return inject_exact_count(
        rows, columns, count, kind=_as_defect_type(kind), seed=seed
    )


def _clustered_model(
    rows: int,
    columns: int,
    *,
    seed: int = 0,
    rate: float = 0.10,
    stuck_open_fraction: float = 1.0,
    cluster_radius: int = 1,
    cluster_spread: float = 0.5,
) -> DefectMap:
    profile = DefectProfile(rate=rate, stuck_open_fraction=stuck_open_fraction)
    return inject_clustered(
        rows,
        columns,
        profile,
        cluster_radius=cluster_radius,
        cluster_spread=cluster_spread,
        seed=seed,
    )


def _radial_model(
    rows: int,
    columns: int,
    *,
    seed: int = 0,
    rate: float = 0.10,
    stuck_open_fraction: float = 1.0,
    edge_factor: float = 3.0,
) -> DefectMap:
    profile = DefectProfile(rate=rate, stuck_open_fraction=stuck_open_fraction)
    return inject_radial(rows, columns, profile, edge_factor=edge_factor, seed=seed)


def _lines_model(
    rows: int,
    columns: int,
    *,
    seed: int = 0,
    broken_rows: list[int] | tuple[int, ...] = (),
    broken_columns: list[int] | tuple[int, ...] = (),
    kind: str = "stuck_closed",
) -> DefectMap:
    del seed  # line defects are deterministic
    return inject_line_defects(
        rows,
        columns,
        broken_rows=broken_rows,
        broken_columns=broken_columns,
        kind=_as_defect_type(kind),
    )


# Eager value validation for the built-ins, so a bad rate fails when the
# spec is constructed (create_defect_model / Scenario building) instead
# of inside the first Monte-Carlo worker chunk.
def _validate_profile_params(
    rate: float = 0.10, stuck_open_fraction: float = 1.0, **_ignored
) -> None:
    DefectProfile(rate=rate, stuck_open_fraction=stuck_open_fraction)


def _validate_clustered_params(
    cluster_radius: int = 1, cluster_spread: float = 0.5, **params
) -> None:
    _validate_profile_params(**params)
    if cluster_radius < 0:
        raise DefectError("cluster_radius must be non-negative")
    if not 0.0 <= cluster_spread <= 1.0:
        raise DefectError("cluster_spread must lie in [0, 1]")


def _validate_radial_params(edge_factor: float = 3.0, **params) -> None:
    _validate_profile_params(**params)
    if edge_factor <= 0.0:
        raise DefectError(f"edge_factor must be positive, got {edge_factor}")


def _validate_exact_count_params(
    count: int = 1, kind: str = "stuck_open"
) -> None:
    if count < 0:
        raise DefectError(f"defect count must be non-negative, got {count}")
    _as_defect_type(kind)


def _validate_lines_params(
    broken_rows=(), broken_columns=(), kind: str = "stuck_closed"
) -> None:
    del broken_rows, broken_columns
    _as_defect_type(kind)


#: The process-wide default registry used by scenarios and pipelines.
default_registry = DefectModelRegistry()

default_registry.register("uniform", _uniform_model, validate=_validate_profile_params)
default_registry.register(
    "exact-count", _exact_count_model, validate=_validate_exact_count_params
)
default_registry.register(
    "clustered", _clustered_model, validate=_validate_clustered_params
)
default_registry.register("radial", _radial_model, validate=_validate_radial_params)
default_registry.register("lines", _lines_model, validate=_validate_lines_params)


def register_defect_model(
    name: str,
    injector: Injector | None = None,
    *,
    override: bool = False,
    validate: Callable[..., None] | None = None,
):
    """Register an injector in the default registry (decorator-friendly)."""
    return default_registry.register(
        name, injector, override=override, validate=validate
    )


def unregister_defect_model(name: str) -> None:
    """Remove a defect model from the default registry."""
    default_registry.unregister(name)


def create_defect_model(name: str, **params) -> DefectModel:
    """Bind a registered model to parameters, from the default registry."""
    return default_registry.create(name, **params)


def list_defect_models() -> list[str]:
    """Names registered in the default registry, sorted."""
    return default_registry.names()


def builtin_uniform_profile(model) -> DefectProfile | None:
    """``model``'s profile when it draws with the built-in uniform injector.

    ``None`` for every other model.  The decision follows the injector
    registered under the model's name, not the name: after
    ``register_defect_model("uniform", ..., override=True)`` a
    ``"uniform"`` model is someone else's and gets ``None``.
    """
    if not isinstance(model, DefectModel) or model.name not in default_registry:
        return None
    if default_registry.injector(model.name) is not _uniform_model:
        return None
    bound = inspect.signature(_uniform_model).bind(0, 0, **model.params)
    bound.apply_defaults()
    return DefectProfile(
        rate=bound.arguments["rate"],
        stuck_open_fraction=bound.arguments["stuck_open_fraction"],
    )


def resolve_defect_model(spec) -> DefectModel:
    """Coerce the many accepted spellings into one :class:`DefectModel`.

    Accepted: a ``DefectModel`` (returned as-is), a registered name, a
    plain defect rate (``0.10``), a :class:`~repro.defects.types.DefectProfile`,
    a ``{"name": ..., "params": ...}`` dict, or ``None`` (the paper's
    default: 10 % uniform stuck-open defects).
    """
    if spec is None:
        return create_defect_model("uniform", rate=0.10)
    if isinstance(spec, DefectModel):
        if spec.name not in default_registry:
            raise RegistryError(default_registry._unknown_message(spec.name))
        return spec
    if isinstance(spec, str):
        return create_defect_model(spec)
    if isinstance(spec, DefectProfile):
        return create_defect_model(
            "uniform", rate=spec.rate, stuck_open_fraction=spec.stuck_open_fraction
        )
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return create_defect_model("uniform", rate=float(spec))
    if isinstance(spec, dict):
        model = DefectModel.from_dict(spec)
        return default_registry.create(model.name, **model.params)
    raise RegistryError(
        f"cannot resolve {spec!r} into a defect model; pass a registered "
        f"name ({list_defect_models()}), a rate, a DefectProfile, a "
        "DefectModel or a to_dict() payload"
    )
