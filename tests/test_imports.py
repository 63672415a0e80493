"""``wald_region`` takes its normal and chi-square quantiles from
:func:`multiway.tails.wald_quantiles`, which needs only the standard
library. They are the exact upper-tail quantiles correctly rounded to
float: mpmath's at 50 digits, rounded once, bit for bit. (That
``import multiway.cli``, ``estimate`` and a Wald ``mc`` load no scipy at
all is checked in test_cold_start.py.)
"""

import mpmath
import numpy as np
import pytest

from multiway import Dimensions, wald_region
from multiway.tails import wald_quantiles

ALPHAS = [0.999, 0.5, 0.2, 0.1, 0.05, 0.01, 1e-3, 1e-6, 1e-9, 1e-12]


def exact_root(tail, alpha, start):
    """The float nearest the x > 0 with tail(x) = alpha: mpmath's secant
    solve of log tail(e^w) = log alpha at 50 digits, from ``start``."""
    with mpmath.workdps(50):
        log_alpha = mpmath.log(mpmath.mpf(alpha))
        w = mpmath.findroot(lambda w: mpmath.log(tail(mpmath.exp(w))) - log_alpha,
                            mpmath.log(start))
        return float(mpmath.exp(w))


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 10])
def test_wald_quantiles_equal_mpmath_correctly_rounded(alpha, m):
    from scipy import stats

    z_scipy, x_scipy = stats.norm.isf(alpha / 2), stats.chi2.isf(alpha, df=m)
    # P(Z > z) = alpha / 2 and P(chi2_m > x) = alpha
    z = exact_root(lambda z: mpmath.erfc(z / mpmath.sqrt(2)) / 2, alpha / 2, z_scipy)
    x = exact_root(
        lambda x: mpmath.gammainc(mpmath.mpf(m) / 2, x / 2, mpmath.inf, regularized=True),
        alpha, x_scipy,
    )
    # identity variance and c_min = 1: the half-width is the normal quantile itself
    region = wald_region(np.zeros(m), np.eye(m), Dimensions((1,) * m), alpha)
    assert region.intervals[:, 1].tolist() == [z] * m
    assert region.threshold == x
    assert wald_quantiles(m, alpha) == (z, x)
    assert z == pytest.approx(z_scipy, rel=1e-11)
    assert x == pytest.approx(x_scipy, rel=1e-11)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_wald_quantiles_far_in_the_tail_equal_mpmath(m):
    # at alpha = 1e-300 erfc(sqrt(y)) cancels about 300 of the digits summed
    # for 1 - erf, which the guard digits must make up
    alpha = 1e-300
    x = exact_root(
        lambda x: mpmath.gammainc(mpmath.mpf(m) / 2, x / 2, mpmath.inf, regularized=True),
        alpha, 1380.0,
    )
    z = exact_root(lambda z: mpmath.erfc(z / mpmath.sqrt(2)) / 2, alpha / 2, 37.0)
    assert wald_quantiles(m, alpha) == (z, x)
