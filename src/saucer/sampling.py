"""Deterministic seeded sampling shared by tests, suites, and the CLI."""
from __future__ import annotations

import zlib

import numpy as np

#: Default seed; hex respelling of the obvious pun, overridable per call,
#: by --seed, or by the SAUCER_SEED environment variable.
DEFAULT_SEED = 0x5A0CE2

BOX_HALF_WIDTH = 2.0


def rng_for(seed: int, label: str = "") -> np.random.Generator:
    """Independent stream per (seed, label); stable across runs and platforms."""
    entropy = (int(seed) & 0xFFFFFFFFFFFFFFFF, zlib.crc32(label.encode("utf-8")))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def sample_vectors(count: int, dim: int, seed: int = DEFAULT_SEED,
                   label: str = "vec", box: float = BOX_HALF_WIDTH) -> np.ndarray:
    """Seeded points in [-box, box]^dim, (count, dim); chart points take dim 5."""
    return rng_for(seed, label).uniform(-box, box, size=(count, dim))
