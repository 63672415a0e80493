"""Deterministic, parallelism-invariant derivation of random streams.

Every stream is a pure function of (master seed, integer path), so the
b-th bootstrap replicate or the r-th Monte Carlo replication draws the
same numbers no matter how work is scheduled across workers.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

__all__ = ["check_seed", "derive_seed", "stream_rng", "TAG_DATA", "TAG_BOOT"]

# Path tags separating the independent uses of one replication's seed.
TAG_DATA = 0
TAG_BOOT = 1


def check_seed(seed: int) -> None:
    """A ConfigError naming ``seed`` unless numpy takes it as a master seed
    (an integer >= 0)."""
    if seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {seed}")


def stream_rng(seed: int, *path: int) -> np.random.Generator:
    """Child generator for the stream addressed by (seed, path)."""
    return np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    )


def derive_seed(seed: int, *path: int) -> int:
    """Collapse (seed, path) to a plain integer usable as a fresh master seed."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])
