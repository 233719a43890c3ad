"""The ``"cext"`` backend: build ``_kernels.c`` once, drive it via ctypes.

The shared library is compiled with whatever plain C compiler the
machine has (``$CC`` / ``cc`` / ``gcc`` / ``clang``) into a per-user
temp directory keyed by the source digest, so every process — test
runs, service pool workers — reuses one artifact and only the first
builder pays the (sub-second) compile.  The atomic rename makes
concurrent builders idempotent.  Any failure (no compiler, sandboxed
``/tmp``, broken toolchain) raises, which the backend probe in
:mod:`repro.compiled` treats as "backend absent".
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

from repro.api.seeding import _encode_field, derive_seed

_SOURCE_PATH = Path(__file__).with_name("_kernels.c")

#: Mapper kind → the MODE_* constant shared with the C source.
_MODES = {"exact": 0, "greedy": 1, "hybrid": 2}

_U8 = ctypes.POINTER(ctypes.c_uint8)
_I64 = ctypes.POINTER(ctypes.c_int64)
_U64 = ctypes.POINTER(ctypes.c_uint64)


def _compiler() -> str | None:
    """First usable C compiler: the interpreter's own, then the usuals."""
    candidates = []
    configured = sysconfig.get_config_var("CC")
    if configured:
        candidates.append(configured.split()[0])
    candidates += ["cc", "gcc", "clang"]
    for name in candidates:
        path = shutil.which(name)
        if path:
            return path
    return None


#: Environment override for the build directory root.  CI jobs point
#: this at a cached path (e.g. ``actions/cache``) so the ``.so`` —
#: keyed by the source digest, hence safely shareable across commits
#: that don't touch ``_kernels.c`` — survives between runs.
CACHE_ENV = "REPRO_COMPILED_CACHE"


def build_library(build_root: str | os.PathLike | None = None) -> Path:
    """Compile (once) and return the shared-library path.

    The build root resolves as: explicit ``build_root`` argument, then
    the :data:`CACHE_ENV` environment variable, then the system temp
    directory.
    """
    source = _SOURCE_PATH.read_bytes()
    digest = hashlib.blake2b(source, digest_size=8).hexdigest()
    uid = getattr(os, "getuid", lambda: 0)()
    if build_root is None:
        build_root = os.environ.get(CACHE_ENV) or None
    root = Path(build_root) if build_root is not None else Path(
        tempfile.gettempdir()
    )
    build_dir = root / f"repro-compiled-{uid}"
    lib_path = build_dir / f"repro_kernels_{digest}.so"
    if lib_path.exists():
        return lib_path
    compiler = _compiler()
    if compiler is None:
        raise RuntimeError("no C compiler available for the cext backend")
    build_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=build_dir, suffix=".so")
    os.close(fd)
    try:
        subprocess.run(
            [compiler, "-O2", "-fPIC", "-shared", "-o", tmp,
             str(_SOURCE_PATH)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp, lib_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib_path


def _load(lib_path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(lib_path))
    lib.repro_map_builtin_batch.argtypes = [
        _U8, _U8,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int32,
        _U8, _I64, _U8,
    ]
    lib.repro_map_builtin_batch.restype = ctypes.c_int
    lib.repro_compatibility_tensor.argtypes = [
        _U8, _U8,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        _U8,
    ]
    lib.repro_compatibility_tensor.restype = ctypes.c_int
    lib.repro_merge_distance_one.argtypes = [
        _U8, ctypes.c_int64, ctypes.c_int64, _U8,
    ]
    lib.repro_merge_distance_one.restype = ctypes.c_int64
    lib.repro_inject_uniform_batch.argtypes = [
        _U64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_double, ctypes.c_double,
        _U8, _U8, _U8,
    ]
    lib.repro_inject_uniform_batch.restype = ctypes.c_int
    lib.repro_uniform_stream_seeds.argtypes = [
        ctypes.c_char_p, ctypes.c_int64, ctypes.c_char_p, ctypes.c_int64,
        ctypes.c_uint64, ctypes.c_int64, _U64,
    ]
    lib.repro_uniform_stream_seeds.restype = ctypes.c_int
    return lib


def _as_u8(array) -> np.ndarray:
    """A C-contiguous uint8 view of a 0/1 array (bool is viewed, not copied)."""
    array = np.ascontiguousarray(array)
    if array.dtype == np.bool_:
        return array.view(np.uint8)
    return array.astype(np.uint8, copy=False)


class CKernels:
    """ctypes facade implementing the shared kernel contract."""

    backend = "cext"

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib

    def map_builtin_batch(self, compat, closed, num_minterms, *, kind):
        compat = _as_u8(compat)
        closed = _as_u8(closed)
        num_samples, num_fm_rows, num_rows = compat.shape
        if closed.shape != (num_samples, num_rows):
            raise ValueError(
                f"closed mask {closed.shape} does not match the tensor "
                f"{compat.shape}"
            )
        if not 0 <= num_minterms <= num_fm_rows:
            raise ValueError(f"{num_minterms} minterm rows of {num_fm_rows}")
        success = np.zeros(num_samples, dtype=np.uint8)
        backtracks = np.zeros(num_samples, dtype=np.int64)
        valid = np.ones(num_samples, dtype=np.uint8)
        status = self._lib.repro_map_builtin_batch(
            compat.ctypes.data_as(_U8),
            closed.ctypes.data_as(_U8),
            num_samples, num_fm_rows, num_rows, num_minterms,
            _MODES[kind],
            success.ctypes.data_as(_U8),
            backtracks.ctypes.data_as(_I64),
            valid.ctypes.data_as(_U8),
        )
        if status != 0:
            raise MemoryError("repro_map_builtin_batch scratch allocation")
        return success, backtracks, valid

    def compatibility_tensor(self, fm_rows, cm_stack):
        """Boolean ``(samples, fm_rows, rows)`` tensor, bit-packed in C.

        Same contract as the NumPy tier's
        :func:`repro.mapping.matching.compatibility_tensor`, without a
        BLAS call.
        """
        fm_rows = _as_u8(fm_rows)
        cm_stack = _as_u8(cm_stack)
        num_fm_rows, num_columns = fm_rows.shape
        num_samples, num_rows, cm_columns = cm_stack.shape
        if cm_columns != num_columns:
            raise ValueError(
                f"column count mismatch: FM has {num_columns}, CM stack "
                f"has {cm_columns}"
            )
        out = np.empty((num_samples, num_fm_rows, num_rows), dtype=bool)
        status = self._lib.repro_compatibility_tensor(
            fm_rows.ctypes.data_as(_U8),
            cm_stack.ctypes.data_as(_U8),
            num_samples, num_fm_rows, num_rows, num_columns,
            out.ctypes.data_as(_U8),
        )
        if status != 0:
            raise MemoryError("repro_compatibility_tensor scratch allocation")
        return out

    def merge_distance_one(self, values):
        values = _as_u8(values)
        num_cubes, num_inputs = values.shape
        out = np.empty((num_cubes, num_inputs), dtype=np.uint8)
        count = self._lib.repro_merge_distance_one(
            values.ctypes.data_as(_U8), num_cubes, num_inputs,
            out.ctypes.data_as(_U8),
        )
        if count < 0:
            raise MemoryError("repro_merge_distance_one scratch allocation")
        return out[:count]

    def inject_uniform_batch(self, stream_seeds, rows, columns, *, rate,
                             stuck_open_fraction):
        """``inject_uniform``'s draws as ``(functional, closed_rows,
        closed_columns)`` tensors, one sample per stream seed.

        Sample ``s`` holds exactly what
        :func:`repro.defects.injection.draw_uniform` draws from
        ``random.Random(stream_seeds[s])``; seeds must lie in
        ``[0, 2**64)``.
        """
        seeds = np.ascontiguousarray(stream_seeds, dtype=np.uint64)
        if seeds.ndim != 1:
            raise ValueError(f"stream seeds must be 1-D, got {seeds.shape}")
        if rows < 1 or columns < 1:
            raise ValueError(f"a {rows}x{columns} crossbar has no crosspoints")
        num_samples = seeds.shape[0]
        functional = np.empty((num_samples, rows, columns), dtype=np.uint8)
        closed_rows = np.empty((num_samples, rows), dtype=bool)
        closed_columns = np.empty((num_samples, columns), dtype=bool)
        status = self._lib.repro_inject_uniform_batch(
            seeds.ctypes.data_as(_U64), num_samples, rows, columns,
            rate, stuck_open_fraction,
            functional.ctypes.data_as(_U8),
            closed_rows.ctypes.data_as(_U8),
            closed_columns.ctypes.data_as(_U8),
        )
        if status != 0:
            raise MemoryError("repro_inject_uniform_batch scratch allocation")
        return functional, closed_rows, closed_columns

    def uniform_stream_seeds(self, root, domain, start, stop):
        """``derive_seed(derive_seed(root, i), domain)`` for every ``i``
        in ``[start, stop)``, as a uint64 array.

        With ``domain="inject-uniform"`` these are the stream seeds that
        :meth:`inject_uniform_batch` takes for samples ``start`` to
        ``stop`` of root seed ``root`` (any Python int).
        """
        if not 0 <= start <= stop <= 2**64:
            raise ValueError(
                f"sample range [{start}, {stop}) is not within [0, 2**64]"
            )
        root = _encode_field(root).encode()
        domain = _encode_field(domain).encode()
        out = np.empty(stop - start, dtype=np.uint64)
        status = self._lib.repro_uniform_stream_seeds(
            root, len(root), domain, len(domain), start, stop - start,
            out.ctypes.data_as(_U64),
        )
        if status != 0:
            raise MemoryError("repro_uniform_stream_seeds scratch allocation")
        return out


def kernels() -> CKernels:
    """Build + load the library and smoke-test every entry point."""
    backend = CKernels(_load(build_library()))
    # A trivial call per kernel so a broken build surfaces at probe
    # time, not deep inside an experiment.
    compat = backend.compatibility_tensor(
        np.ones((1, 1), dtype=np.uint8), np.ones((1, 1, 1), dtype=np.uint8)
    )
    assert compat.tolist() == [[[True]]]
    closed = np.zeros((1, 1), dtype=np.uint8)
    success, backtracks, valid = backend.map_builtin_batch(
        compat, closed, 1, kind="hybrid"
    )
    assert int(success[0]) == 1 and int(backtracks[0]) == 0
    merged = backend.merge_distance_one(
        np.array([[0, 1], [1, 1]], dtype=np.uint8)
    )
    assert merged.shape == (1, 2)
    # random.Random(0) draws 0.844 (below the rate: a defect), then
    # 0.758 (not below the stuck-open fraction: stuck-closed).
    drawn = backend.inject_uniform_batch(
        [0], 1, 1, rate=0.9, stuck_open_fraction=0.5
    )
    assert [a.tolist() for a in drawn] == [[[[0]]], [[True]], [[True]]]
    seeds = backend.uniform_stream_seeds(-7, "inject-uniform", 3, 5)
    assert seeds.tolist() == [
        derive_seed(derive_seed(-7, index), "inject-uniform") for index in (3, 4)
    ]
    return backend
