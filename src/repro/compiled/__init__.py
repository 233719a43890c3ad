"""Optional compiled backend for the hot kernels.

The vectorized NumPy engines (``repro.mapping.batch_kernel`` and
``repro.boolean.packed``) still fall back to per-sample / per-cube
Python loops for the work their counting pre-screens cannot decide.
This package compiles exactly those loops, plus the tensor they read:

* the compatibility tensor, bit-packed into ``uint64`` column words
  instead of a BLAS matmul;
* the built-in mapper replicas (exact saturating matching, greedy /
  hybrid first-fit with one-step backtracking) over that tensor,
  batched across all undecided samples in one native call;
* the distance-1 cube-merge pass of the packed Boolean minimiser.

One backend implements them, ``"cext"``: :mod:`repro.compiled._kernels.c`
built once with the system C compiler into a cached shared library and
driven through :mod:`ctypes` (no build-time dependency beyond ``cc``).
:mod:`repro.compiled._kernels_py` is its plain-Python oracle, run only
by the test suite.

When the backend cannot load the compiled tier is simply *absent*:
:func:`compiled_available` returns ``False`` and
``repro.engines.resolve_mapping_engine`` degrades ``"compiled"`` /
``"auto"`` to the NumPy tier without error.  The backend is held to the
same sample-for-sample differential contract as the NumPy engines
(``tests/test_compiled_engine.py``), so counting statistics never
depend on whether it is present.

The probe can be steered with the ``REPRO_COMPILED`` environment
variable: ``off`` (also ``0`` / ``false`` / ``none`` / ``disabled``)
hides the tier entirely; anything else (``cext``, or unset) probes the
C extension.
"""

from __future__ import annotations

import os

__all__ = [
    "compiled_available",
    "compiled_backend",
    "get_kernels",
    "reset_compiled_backend",
]

_UNSET = object()

#: Cached probe result: ``(backend name or None, kernels or None)``.
_BACKEND = _UNSET


def _probe():
    """Load the C extension unless ``REPRO_COMPILED`` turns it off."""
    choice = os.environ.get("REPRO_COMPILED", "").strip().lower()
    if choice in ("off", "0", "false", "none", "disabled"):
        return None, None
    try:
        from repro.compiled import cext

        return "cext", cext.kernels()
    except Exception:
        return None, None


def _ensure():
    global _BACKEND
    if _BACKEND is _UNSET:
        _BACKEND = _probe()
    return _BACKEND


def compiled_backend() -> str | None:
    """Name of the active backend (``"cext"``) or ``None``."""
    return _ensure()[0]


def compiled_available() -> bool:
    """Whether the ``engine="compiled"`` tier can actually run here."""
    return _ensure()[0] is not None


def get_kernels():
    """The loaded kernel object, or ``None`` when no backend is usable.

    The object exposes ``backend`` (name), ``compatibility_tensor(fm_rows,
    cm_stack)``, ``map_builtin_batch(compat, closed, num_minterms,
    kind=..., check_validity=...)`` and ``merge_distance_one(values)`` —
    see :mod:`repro.compiled.cext` and the oracle module for the exact
    array contracts.
    """
    return _ensure()[1]


def reset_compiled_backend() -> None:
    """Forget the probed backend so the next call re-detects.

    Tests use this together with monkeypatched ``_probe`` /
    ``REPRO_COMPILED`` to simulate machines without any compiled
    backend.
    """
    global _BACKEND
    _BACKEND = _UNSET
