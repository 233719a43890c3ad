"""Random defect injection for Monte-Carlo experiments.

The paper generates defective crossbars "with assigning an independent
defect probability/rate to each crosspoint that shows a uniform
distribution" (§V).  :func:`inject_uniform` reproduces that protocol; the
other injectors support the extension studies (exact defect counts for
controlled comparisons, clustered defects modelling localised fabrication
damage, and line defects).
"""

from __future__ import annotations

import random
from collections.abc import Iterable

import numpy as np

from repro.api.seeding import derive_seed
from repro.defects.defect_map import DefectMap
from repro.defects.types import Defect, DefectProfile, DefectType
from repro.exceptions import DefectError


def _injector_rng(seed: int, domain: str) -> random.Random:
    """A domain-separated RNG for one injector.

    Injector seeds routinely come straight out of the Monte-Carlo sample
    stream (``derive_seed(root, sample)``); hashing them again under an
    injector-specific domain guarantees the bits an injector consumes can
    never alias the sample stream itself (or another injector fed the
    same seed).
    """
    return random.Random(derive_seed(seed, domain))


def _pick_kind(rng: random.Random, profile: DefectProfile) -> DefectType:
    if rng.random() < profile.stuck_open_fraction:
        return DefectType.STUCK_OPEN
    return DefectType.STUCK_CLOSED


#: Seed domain of :func:`inject_uniform`'s stream.
_UNIFORM_DOMAIN = "inject-uniform"


def draw_uniform(
    rng: random.Random, rows: int, columns: int, profile: DefectProfile
) -> list[Defect]:
    """The uniform protocol's draws from ``rng``.

    One rate draw per crosspoint, in row-major order; after each defect,
    one kind draw, which happens even when every defect is stuck-open.
    The native batch kernel behind :func:`inject_uniform_batch`
    transcribes this loop.
    """
    defects = []
    for row in range(rows):
        for column in range(columns):
            if rng.random() < profile.rate:
                defects.append(Defect(row, column, _pick_kind(rng, profile)))
    return defects


def inject_uniform(
    rows: int,
    columns: int,
    profile: DefectProfile | float,
    *,
    seed: int = 0,
) -> DefectMap:
    """Independent per-crosspoint defects with a uniform rate.

    ``profile`` may be a plain float, in which case it is interpreted as a
    stuck-open-only rate (the paper's Table II protocol).
    """
    if isinstance(profile, (int, float)):
        profile = DefectProfile(rate=float(profile))
    rng = _injector_rng(seed, _UNIFORM_DOMAIN)
    return DefectMap(rows, columns, draw_uniform(rng, rows, columns, profile))


def inject_uniform_batch(
    rows: int,
    columns: int,
    profile: DefectProfile,
    *,
    seed: int,
    start: int,
    stop: int,
    kernels,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`inject_uniform` for samples ``[start, stop)`` of root ``seed``.

    Sample ``i`` is ``inject_uniform(rows, columns, profile,
    seed=derive_seed(seed, i))``.  Returns the ``(functional,
    closed_rows, closed_columns)`` tensors that the maps'
    :meth:`~repro.defects.defect_map.DefectMap.to_arrays` would give,
    stacked one sample per index, from two native calls: one derives
    every sample's stream seed, the other draws from them.  ``kernels``
    is a loaded :mod:`repro.compiled` backend.
    """
    stream_seeds = kernels.uniform_stream_seeds(seed, _UNIFORM_DOMAIN, start, stop)
    return kernels.inject_uniform_batch(
        stream_seeds,
        rows,
        columns,
        rate=profile.rate,
        stuck_open_fraction=profile.stuck_open_fraction,
    )


def inject_exact_count(
    rows: int,
    columns: int,
    count: int,
    *,
    kind: DefectType = DefectType.STUCK_OPEN,
    seed: int = 0,
) -> DefectMap:
    """Exactly ``count`` defects of one kind at uniformly random positions."""
    area = rows * columns
    if count < 0 or count > area:
        raise DefectError(f"cannot place {count} defects on {area} crosspoints")
    rng = _injector_rng(seed, "inject-exact-count")
    positions = rng.sample(
        [(r, c) for r in range(rows) for c in range(columns)], count
    )
    return DefectMap(
        rows, columns, [Defect(r, c, kind) for r, c in positions]
    )


def inject_clustered(
    rows: int,
    columns: int,
    profile: DefectProfile | float,
    *,
    cluster_radius: int = 1,
    cluster_spread: float = 0.5,
    seed: int = 0,
) -> DefectMap:
    """Spatially clustered defects (an extension beyond the paper).

    Seeds are drawn like :func:`inject_uniform` at a reduced rate and then
    each seed contaminates its Chebyshev neighbourhood with probability
    ``cluster_spread`` — a crude model of localised fabrication damage
    (contamination particles, line scratches).  The expected overall rate
    approximately matches the requested rate.
    """
    if isinstance(profile, (int, float)):
        profile = DefectProfile(rate=float(profile))
    if cluster_radius < 0:
        raise DefectError("cluster_radius must be non-negative")
    if not 0.0 <= cluster_spread <= 1.0:
        raise DefectError("cluster_spread must lie in [0, 1]")
    rng = _injector_rng(seed, "inject-clustered")

    neighbourhood = (2 * cluster_radius + 1) ** 2
    expected_cluster_size = 1 + (neighbourhood - 1) * cluster_spread
    seed_rate = min(1.0, profile.rate / expected_cluster_size)

    defects: dict[tuple[int, int], DefectType] = {}
    for row in range(rows):
        for column in range(columns):
            if rng.random() >= seed_rate:
                continue
            kind = _pick_kind(rng, profile)
            defects[(row, column)] = kind
            for dr in range(-cluster_radius, cluster_radius + 1):
                for dc in range(-cluster_radius, cluster_radius + 1):
                    if dr == 0 and dc == 0:
                        continue
                    r, c = row + dr, column + dc
                    if 0 <= r < rows and 0 <= c < columns:
                        if rng.random() < cluster_spread:
                            defects.setdefault((r, c), kind)
    return DefectMap(rows, columns, defects)


def inject_radial(
    rows: int,
    columns: int,
    profile: DefectProfile | float,
    *,
    edge_factor: float = 3.0,
    seed: int = 0,
) -> DefectMap:
    """Wafer-style radial defect gradient (an extension beyond the paper).

    Dies near the wafer edge see more fabrication damage than dies at the
    centre; the same gradient is applied in miniature across the array:
    each crosspoint's defect probability scales with its normalised
    Chebyshev distance from the array centre, the edge being
    ``edge_factor`` times as defective as the centre.  The per-crosspoint
    probabilities are normalised so their *mean* equals the profile rate,
    which keeps radial runs directly comparable to uniform runs at the
    same nominal rate.
    """
    if isinstance(profile, (int, float)):
        profile = DefectProfile(rate=float(profile))
    if edge_factor <= 0.0:
        raise DefectError(f"edge_factor must be positive, got {edge_factor}")
    rng = _injector_rng(seed, "inject-radial")

    centre_row = (rows - 1) / 2.0
    centre_column = (columns - 1) / 2.0
    # Normalised Chebyshev distance from the centre, 0 at the centre and
    # 1 at the farthest edge crosspoint; a 1x1 array is all centre.
    max_distance = max(centre_row, centre_column, 1e-12)
    weights = [
        [
            1.0
            + (edge_factor - 1.0)
            * (max(abs(row - centre_row), abs(column - centre_column)) / max_distance)
            for column in range(columns)
        ]
        for row in range(rows)
    ]
    mean_weight = sum(sum(line) for line in weights) / (rows * columns)

    defects = []
    for row in range(rows):
        for column in range(columns):
            probability = min(1.0, profile.rate * weights[row][column] / mean_weight)
            if rng.random() < probability:
                defects.append(Defect(row, column, _pick_kind(rng, profile)))
    return DefectMap(rows, columns, defects)


def inject_line_defects(
    rows: int,
    columns: int,
    *,
    broken_rows: Iterable[int] = (),
    broken_columns: Iterable[int] = (),
    kind: DefectType = DefectType.STUCK_CLOSED,
) -> DefectMap:
    """Whole-line defects: every crosspoint of the given lines is defective.

    Used to model broken nanowires; a stuck-closed line defect reproduces
    the worst case discussed in §IV-A where an entire horizontal and
    vertical line become unusable.
    """
    defects = []
    for row in broken_rows:
        for column in range(columns):
            defects.append(Defect(row, column, kind))
    for column in broken_columns:
        for row in range(rows):
            defects.append(Defect(row, column, kind))
    return DefectMap(rows, columns, {(d.row, d.column): d.kind for d in defects})
