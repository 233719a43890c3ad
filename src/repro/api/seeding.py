"""Collision-free seed-stream derivation for batched experiments.

The original Monte-Carlo harness derived per-sample seeds as
``seed * 1_000_003 + sample``, which aliases as soon as two ``(seed,
sample)`` pairs land on the same lattice point — e.g. ``(0, 1_000_003)``
and ``(1, 0)`` produce the *same* defective crossbar.  Chunked parallel
execution makes such collisions far more likely because chunk boundaries
multiply the index arithmetic in play.

:func:`derive_seed` replaces the affine formula with a keyed hash over
the whole derivation path (root seed plus any number of stream indices),
so distinct paths map to independent 63-bit seeds with cryptographic
collision resistance.  The derivation is pure and stable across
processes and Python versions (BLAKE2b is part of :mod:`hashlib`), which
is exactly what the deterministic ``workers=1`` vs ``workers=N`` merge
of :class:`repro.api.batch.BatchRunner` relies on.
"""

from __future__ import annotations

import hashlib

#: Domain-separation key so repro seed streams never collide with other
#: BLAKE2b users hashing the same byte strings.
_PERSON = b"repro-seeds"

_SEED_BITS = 63
_SEED_MASK = (1 << _SEED_BITS) - 1


def _encode_field(value: int | str) -> str:
    if isinstance(value, str):
        # Length-prefixed so a string containing the separator (or one
        # that looks like a decimal int) cannot collide with any other
        # path: the declared length pins the field boundary.
        return f"s{len(value)}:{value}"
    return str(int(value))


def derive_seed(root_seed: int, *path: int | str) -> int:
    """Derive an independent 63-bit seed from a root seed and a path.

    Parameters
    ----------
    root_seed:
        The experiment's user-facing seed (any Python int, negative
        allowed).
    path:
        Any number of stream indices — e.g. ``(sample,)`` for per-sample
        defect injection, or ``(chunk, sample)`` for nested streams.
        String components name *domains* (``("inject-uniform", sample)``)
        so structurally different consumers of the same root seed can
        never alias each other's streams.

    Distinct ``(root_seed, *path)`` tuples yield independent seeds; the
    same tuple always yields the same seed, in every process.  Integer
    paths keep their original encoding, so pre-existing streams are
    unchanged; a string field is length-prefixed, which keeps the
    tuple -> bytes map injective even when the string contains the
    separator or spells a decimal number.
    """
    digest = hashlib.blake2b(digest_size=8, person=_PERSON)
    # Decimal encoding with a separator that cannot appear inside an
    # integer field makes the tuple -> bytes map injective.
    digest.update(",".join(_encode_field(value) for value in (root_seed, *path)).encode())
    return int.from_bytes(digest.digest(), "big") & _SEED_MASK
