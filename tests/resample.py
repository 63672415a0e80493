"""The materialised pigeonhole resample, a reference for the bootstrap hooks.

A draw stands for the sample in which every unit of cell j appears W_j
times, in cell j. A weighted replicate must equal the estimator fitted to
that sample. This builds it unit by unit, with no cell sums and no
per-dimension contraction, so it stays independent of the library's
weighted sum.
"""

from __future__ import annotations

import numpy as np

from multiway.data import ClusteredSample


def materialise(sample: ClusteredSample, weights) -> ClusteredSample:
    """``sample`` with each unit of cell j repeated W_j times, in cell j."""
    w = weights.cell_weights()
    rows = [
        np.tile(sample.values[sample.offsets[j]:sample.offsets[j + 1]], (int(w[j]), 1))
        for j in range(sample.dims.pi_c)
    ]
    sizes = [block.shape[0] for block in rows]
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    return ClusteredSample(sample.dims, np.vstack(rows), offsets)
