"""Large transient buffers, each mapped on its own.

A checkpoint-sized buffer taken from the C heap and freed raises glibc's
dynamic mmap threshold, so the next ones of that size come from the heap
as well, and the heap's free memory stays resident after them.  A buffer
from :func:`fresh` at or above :data:`MAPPED_BYTES` is instead an
anonymous private mapping of its own, zero and unbacked until written,
which goes back to the host as soon as nothing refers to it.  The EPC
arena is mapped the same way (:func:`lazy_zero_mapping`).
"""

from __future__ import annotations

import mmap

import numpy as np

#: Buffers from this size up are mapped on their own; smaller ones come
#: from the heap as any small object does.
MAPPED_BYTES = 256 * 1024


def lazy_zero_mapping(size: int) -> mmap.mmap:
    """``size`` bytes of anonymous memory, zero and unbacked until written."""
    if hasattr(mmap, "MAP_PRIVATE"):
        return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return mmap.mmap(-1, size)  # Windows: a pagefile section, backed as touched


def fresh(n_bytes: int) -> np.ndarray:
    """A writable ``uint8`` array of ``n_bytes`` (contents unspecified)."""
    if n_bytes < MAPPED_BYTES:
        return np.empty(n_bytes, dtype=np.uint8)
    return np.frombuffer(lazy_zero_mapping(n_bytes), dtype=np.uint8)
