"""Deterministic, parallelism-invariant derivation of random streams.

Every stream is a pure function of (master seed, integer path), so the
b-th bootstrap replicate or the r-th Monte Carlo replication draws the
same numbers no matter how work is scheduled across workers.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

__all__ = ["check_seed", "derive_seed", "stream_raw", "stream_rng", "TAG_DATA", "TAG_BOOT"]

# Path tags separating the independent uses of one replication's seed.
TAG_DATA = 0
TAG_BOOT = 1

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


def _hashmix(value: np.ndarray, const: list, mult: int = 0x931E8875) -> np.ndarray:
    """SeedSequence's hashmix on uint32 arrays; ``const`` holds its running
    hash constant, which each call multiplies by ``mult`` in place."""
    value = value ^ np.uint32(const[0])
    const[0] = const[0] * mult & _MASK32
    value = value * np.uint32(const[0])
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
    return r ^ (r >> np.uint32(16))


def stream_raw(seed: int, first: int, count: int, n: int) -> np.ndarray:
    """The first ``n`` 64-bit outputs of ``stream_rng(seed, b).bit_generator``
    for b = first, ..., first + count - 1 (each b < 2**32), bit for bit, as
    (count, n) uint64.

    SeedSequence's pool mixing and ``generate_state`` run as uint32 arrays
    over the block: the entropy words are the seed's, padded to four, then
    b. PCG64's 128-bit seeding runs on Python ints, and numpy's own
    ``random_raw`` steps each generator.
    """
    check_seed(seed)
    words, seed = [], int(seed)
    while seed or not words:
        words.append(seed & _MASK32)
        seed >>= 32
    words += [0] * (4 - len(words))
    entropy = np.empty((len(words) + 1, count), dtype=np.uint32)
    entropy[:-1] = np.array(words, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(first, first + count)
    const = [0x43B0D7E5]
    pool = [_hashmix(entropy[i], const) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], const))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, const))
    # generate_state(4, np.uint64): eight words from the pool, paired little-endian
    const = [0x8B51F9DD]
    state = np.array([_hashmix(pool[i % 4], const, 0x58F38DED) for i in range(8)], np.uint64)
    seeds = (state[0::2] | state[1::2] << np.uint64(32)).T.tolist()
    out = np.empty((count, n), dtype=np.uint64)
    gen = np.random.PCG64(0)
    for row, (s_hi, s_lo, i_hi, i_lo) in zip(out, seeds):
        # pcg64_srandom_r: inc = 2 initseq + 1, then two LCG steps around += initstate
        inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
        lcg = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        gen.state = {"bit_generator": "PCG64", "state": {"state": lcg, "inc": inc},
                     "has_uint32": 0, "uinteger": 0}
        row[:] = gen.random_raw(n)
    return out


def derive_seed(seed: int, *path: int) -> int:
    """Collapse (seed, path) to a plain integer usable as a fresh master seed."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])
