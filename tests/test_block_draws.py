"""Replicate weights drawn in blocks equal the scalar draws bit for bit.

``run_bootstrap`` hands replicate b the counts of
``draw_weights(dims, stream_rng(seed, b))``, but draws them for a block of
replicates at a time: SeedSequence and PCG64 seeding as arrays, then
Lemire's bounded method on the 32-bit halves of the raw outputs. Every
replicate a hook sees must hold the scalar draw's counts, dtype and
shape, across block boundaries, odd and single-cluster dimensions,
multi-word seeds and rejected draws.
"""

import tracemalloc

import numpy as np
import pytest

import multiway.bootstrap as bootstrap
from multiway import CellSums, Dimensions, draw_weights, run_bootstrap
from multiway.seeding import stream_raw, stream_rng


def hooked_counts(dims, seed, b):
    """The per-dimension counts each replicate's hook call receives, in order."""
    seen = []

    def hook(sums, weights):
        seen.append(weights.per_dim_counts)
        return np.array([1.0])

    run_bootstrap(hook, CellSums(dims, np.ones((dims.pi_c, 1))), [1.0], b=b, seed=seed)
    return seen


def assert_scalar_draws(dims, seed, b):
    got = hooked_counts(dims, seed, b)
    assert len(got) == b
    for idx, counts in enumerate(got):
        expected = draw_weights(dims, stream_rng(seed, idx)).per_dim_counts
        for have, want in zip(counts, expected, strict=True):
            assert have.dtype == want.dtype and have.shape == want.shape, (dims, seed, idx)
            assert np.array_equal(have, want), (dims, seed, idx)


@pytest.mark.parametrize(
    "counts", [(7, 5), (1,), (2,), (13,), (1, 1), (1, 9), (4, 1), (3, 1, 1), (2, 1, 3), (5, 7, 2)],
    ids=str,
)
@pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 3], ids=["0", "2**32", "2**64+3"])
def test_block_draws_equal_the_scalar_draws(counts, seed):
    # 300 replicates straddle the boundary of the first 256-replicate block
    assert_scalar_draws(Dimensions(counts), seed, 300)


def test_block_draws_on_a_large_lattice_across_two_blocks():
    assert_scalar_draws(Dimensions((200, 200)), 11, 258)


def test_block_path_redraws_only_rejected_replicates(monkeypatch):
    calls = []
    real = bootstrap.draw_weights
    monkeypatch.setattr(
        bootstrap, "draw_weights", lambda dims, rng: calls.append(None) or real(dims, rng)
    )
    # a rejection has probability 2**32 % C / 2**32 <= 4e-9 per draw here
    hooked_counts(Dimensions((7, 5)), 1, 300)
    assert calls == []
    # 2**32 % 1,048,577 = 1,044,481: all C draws of a replicate pass with
    # probability about exp(-254), so every replicate takes the scalar path
    assert_scalar_draws(Dimensions((1_048_577,)), 5, 2)
    assert len(calls) == 2


def test_block_arrays_stay_bounded():
    dims = Dimensions((200, 200))
    tracemalloc.start()
    try:
        for _ in bootstrap._replicate_weights(dims, 3, 4999):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block of 256 replicates holds about 2 MB; all 4999 at once would be 20x that
    assert peak < 8 * 2**20


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 + 3, 2**130 + 7], ids=str)
def test_stream_raw_equals_the_generators_raw_outputs(seed):
    got = stream_raw(seed, 254, 4, 3)
    for row, b in zip(got, range(254, 258)):
        assert np.array_equal(row, stream_rng(seed, b).bit_generator.random_raw(3))


def test_a_negative_seed_is_refused_before_any_draw():
    with pytest.raises(ValueError, match="seed"):
        hooked_counts(Dimensions((3, 3)), -1, 5)
