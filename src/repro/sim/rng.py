"""Deterministic randomness.

All "random" material in the simulation (keys, nonces, workload data) comes
from seeded generators so that every test and benchmark run is exactly
reproducible.  Security in this model comes from the *protocol structure*,
not from entropy quality, so a PRNG is the right substitute for an HWRNG.
"""

from __future__ import annotations

import random


class DeterministicRng:
    """A seeded random source with the handful of draws the system needs."""

    def __init__(self, seed: int | str | bytes = 0) -> None:
        self._rng = random.Random(seed)
        self.seed = seed

    def bytes(self, n: int) -> bytes:
        """Return ``n`` pseudo-random bytes."""
        return self._rng.randbytes(n)

    def u64(self) -> int:
        """Return a pseudo-random unsigned 64-bit integer."""
        return self._rng.getrandbits(64)

    def randint(self, lo: int, hi: int) -> int:
        """Return a pseudo-random integer in ``[lo, hi]``."""
        return self._rng.randint(lo, hi)

    def getrandbits(self, k: int) -> int:
        """Return a pseudo-random integer with ``k`` random bits."""
        return self._rng.getrandbits(k)

    def choice(self, seq):
        """Return a pseudo-random element of ``seq``."""
        return self._rng.choice(seq)

    def shuffle(self, seq: list) -> None:
        """Shuffle ``seq`` in place."""
        self._rng.shuffle(seq)

    def random(self) -> float:
        """Return a pseudo-random float in ``[0, 1)``."""
        return self._rng.random()

    def getstate(self) -> tuple:
        """The generator's exact state, for :meth:`setstate`."""
        return self._rng.getstate()

    def setstate(self, state: tuple) -> None:
        """Rewind or fast-forward to a state from :meth:`getstate`."""
        self._rng.setstate(state)

    def fork(self, label: str) -> "DeterministicRng":
        """Derive an independent child generator from this one.

        Children created with distinct labels produce independent streams,
        which keeps component randomness decoupled from draw order.
        """
        return DeterministicRng(f"{self.seed}/{label}")
