"""The one vocabulary of execution engines, and its ``auto`` resolution.

Every tiered layer — Monte-Carlo mapping, the Boolean minimiser, the
crossbar simulator and the pipeline above them — takes ``engine=``
from one tuple, :data:`ENGINES`:

* ``"compiled"`` — the native kernels of :mod:`repro.compiled`;
* ``"vectorized"`` — the NumPy kernels: the batched mapping kernel,
  the packed ``uint64`` bit-plane Boolean kernels and the batched
  crossbar simulation;
* ``"reference"`` — the object path every other tier is differentially
  tested against;
* ``"auto"`` — the fastest tier this machine can run.

This module alone names and resolves them:

* :func:`canonical_engine` rejects unknown names with a registry-style
  error listing :data:`ENGINES`;
* :func:`resolve_mapping_engine` and :func:`resolve_boolean_engine`
  resolve ``"auto"`` (and an explicitly requested but unavailable
  ``"compiled"``) to the tier a layer actually runs.

The fallback order is ``compiled`` → ``vectorized`` → ``reference``:
``auto`` picks the compiled tier whenever a backend loaded
(:mod:`repro.compiled`), the NumPy tier otherwise; ``reference`` is
only ever selected explicitly, or by the Boolean layer for covers too
wide for its truth-table kernels.  Because all tiers are
differentially tested to identical counting statistics, resolution may
differ from machine to machine without affecting any result — which is
also why engines are never part of artifact cache keys.
"""

from __future__ import annotations

from repro.exceptions import ExperimentError

#: Every engine name a layer accepts (``"auto"`` resolves per machine
#: at run time).
ENGINES = ("auto", "compiled", "vectorized", "reference")


def canonical_engine(engine: str) -> str:
    """Validate an engine name; returns it unchanged.

    Raises :class:`~repro.exceptions.ExperimentError` naming the valid
    choices for anything unknown, like the mapper / defect-model
    registries do.
    """
    if engine not in ENGINES:
        raise ExperimentError(
            f"unknown engine {engine!r}; expected one of {list(ENGINES)}"
        )
    return engine


def resolve_mapping_engine(engine: str) -> str:
    """Resolve ``engine=`` into a concrete, runnable mapping engine.

    ``"auto"`` picks the compiled tier when a backend is available and
    the NumPy tier otherwise; an explicit ``"compiled"`` likewise
    degrades silently to ``"vectorized"`` on machines without any
    backend, so campaigns never fail over an optional dependency.
    """
    name = canonical_engine(engine)
    if name in ("auto", "compiled"):
        from repro import compiled

        return "compiled" if compiled.compiled_available() else "vectorized"
    return name


def resolve_boolean_engine(engine: str, num_inputs: int) -> str:
    """Resolve ``engine=`` for the Boolean minimiser of ``num_inputs`` inputs.

    Returns ``"compiled"`` (the packed kernels with native merge
    passes), ``"vectorized"`` (the packed ``uint64`` bit-plane kernels
    of :mod:`repro.boolean.packed`) or ``"reference"`` (the
    :class:`~repro.boolean.cover.Cover` walk).  Outside the packed
    truth-table budget (1..``PACKED_INPUT_LIMIT`` inputs) every name
    degrades to ``"reference"``; inside it the rule is
    :func:`resolve_mapping_engine`'s.
    """
    from repro.boolean.packed import PACKED_INPUT_LIMIT

    name = resolve_mapping_engine(engine)
    return name if 1 <= num_inputs <= PACKED_INPUT_LIMIT else "reference"
