"""Deterministic seed derivation for independent random streams.

Benchmark cells, repetition loops, and solver internals each need their own
reproducible generator. Deriving child seeds by hashing the master seed with
a path of string parts keeps streams independent of execution order and of
each other, so adding a cell never perturbs the randomness of existing ones.
"""

from __future__ import annotations

import hashlib

from qopt.model import as_count

__all__ = ["derive_seed"]

_SEED_BYTES = 8


def derive_seed(master: int, *parts: object) -> int:
    """Derive a 64-bit child seed from a master seed and a label path.

    The same ``(master, parts)`` always yields the same child; any change to
    a part yields an unrelated one. Parts are joined by their string form, so
    pass stable labels (family names, indices), not repr-unstable objects.
    """
    h = hashlib.sha256()
    h.update(str(as_count("seed", master, least=None)).encode("utf-8"))
    for part in parts:
        h.update(b"\x1f")
        h.update(str(part).encode("utf-8"))
    return int.from_bytes(h.digest()[:_SEED_BYTES], "big")
