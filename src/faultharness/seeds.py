"""Deterministic 64-bit seed derivation.

All per-episode and per-event randomness is derived from a master seed with
splitmix64, so results are independent of generation or scheduling order.
The mixing function is recorded in suite manifests.
"""

from __future__ import annotations

import random

_MASK = (1 << 64) - 1

SEED_MIXER = "splitmix64"


def splitmix64(x: int) -> int:
    """One splitmix64 step; maps any 64-bit value to a well-mixed one."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def derive_seed(master: int, *indices: int) -> int:
    """Derive a child seed from a master seed and an index path."""
    x = master & _MASK
    for i in indices:
        x = splitmix64(x ^ splitmix64(i & _MASK))
    return x


def rng_for(master: int, *indices: int) -> random.Random:
    """A `random.Random` seeded from the derived child seed."""
    return random.Random(derive_seed(master, *indices))

