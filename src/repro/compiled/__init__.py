"""Optional compiled backend for the hot kernels.

The vectorized NumPy engines (``repro.mapping.batch_kernel`` and
``repro.boolean.packed``) still map each sample and merge each cube in
a Python loop, and draw every sample's defects in a per-crosspoint
Python loop.  This package compiles exactly those loops, plus the
tensor they read:

* the compatibility tensor, bit-packed into ``uint64`` column words
  instead of a BLAS matmul;
* the built-in mapper replicas (exact saturating matching, greedy /
  hybrid first-fit with one-step backtracking) over that tensor,
  batched across every sample the structural screen passes in one
  native call;
* the distance-1 cube-merge pass of the packed Boolean minimiser;
* the built-in ``uniform`` defect model's draws for a whole chunk:
  every sample's stream seed on a BLAKE2b written from RFC 7693, then
  the draws on a port of CPython's MT19937 that replays
  ``random.Random``'s stream.

One backend implements them, ``"cext"``: :mod:`repro.compiled._kernels.c`
built once with the system C compiler into a cached shared library and
driven through :mod:`ctypes` (no build-time dependency beyond ``cc``).
:mod:`repro.compiled._kernels_py` is the plain-Python oracle of the
mapping and merge kernels, run only by the test suite; the seed
streams' oracle is :func:`repro.api.seeding.derive_seed` and the defect
draw's is :func:`repro.defects.injection.inject_uniform` itself.

When the backend cannot load the compiled tier is simply *absent*:
:func:`compiled_available` returns ``False`` and the resolvers of
:mod:`repro.engines` degrade ``"compiled"`` / ``"auto"`` to the NumPy
tier without error.  The backend is held to the
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
    kind=...)``, ``merge_distance_one(values)``,
    ``uniform_stream_seeds(root, domain, start, stop)`` and
    ``inject_uniform_batch(stream_seeds, rows, columns, rate=...,
    stuck_open_fraction=...)`` — see :mod:`repro.compiled.cext` and the
    oracle module for the exact array contracts.  ``map_builtin_batch``
    always checks each assignment its greedy and hybrid modes find and
    returns the verdicts as its ``valid`` array (exact mode only decides
    existence, so its ``valid`` stays 1).  ``uniform_stream_seeds``
    returns ``derive_seed(derive_seed(root, i), domain)`` for every
    ``i`` in ``[start, stop)`` as a uint64 array (any int ``root``,
    ``0 <= start <= stop <= 2**64``).  ``inject_uniform_batch`` returns
    the ``(functional, closed_rows, closed_columns)`` tensors of what
    ``random.Random(stream_seed)`` draws under
    :func:`repro.defects.injection.draw_uniform`, one sample per seed.
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
