"""``wald_region`` takes its normal and chi-square quantiles from
``scipy.special`` without importing ``scipy.stats``; they equal the
``scipy.stats`` quantiles bit for bit. (That ``import multiway.cli`` loads
no scipy at all is checked in test_cold_start.py.)
"""

import numpy as np
import pytest

from multiway import Dimensions, wald_region


@pytest.mark.parametrize("alpha", [0.5, 0.2, 0.1, 0.05, 0.01, 1e-3, 1e-6])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_wald_quantiles_equal_scipy_stats_bit_for_bit(alpha, m):
    from scipy import stats

    # identity variance and c_min = 1: the half-width is the normal quantile itself
    region = wald_region(np.zeros(m), np.eye(m), Dimensions((1,) * m), alpha)
    z = stats.norm.ppf(1 - alpha / 2)
    assert region.intervals[:, 1].tolist() == [float(z)] * m
    assert region.threshold == float(stats.chi2.ppf(1 - alpha, df=m))
