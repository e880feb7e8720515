"""Seeded random-stream derivation.

Every source of randomness in the package draws from a named substream of
one user-supplied seed, so e.g. changing the epoch count never perturbs a
data split made from the same seed.
"""

from __future__ import annotations

import zlib

import numpy as np


def substream(seed: int, name: str, *indices: int) -> np.random.Generator:
    """Return a Generator for the (name, *indices) substream of ``seed``."""
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, key, *indices]))

