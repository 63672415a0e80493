"""The true theta of the additive design with factor-linked cell sizes,
N = 1 + Poisson(mu expit(A)) with A ~ N(0, s^2), against mpmath at 40
digits over factor SDs from 1e-8 to 1e300.

The reference integrates E[A expit(A)] = E[A tanh(A/2)] / 2 directly,
not through the Stein identity the code uses. The ratio truth is
mu E[A expit(A)] / (1 + mu/2), the mean truth mu E[A expit(A)].
"""

import warnings

import mpmath
import pytest

from multiway.simulation import CellSizeLaw, DgpSpec, _mean_cell_size, true_theta

mpmath.mp.dps = 40
SDS = [1e-8, 1e-4, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 1e3, 1e6, 1e300]
MUS = [0.5, 2.0]


def a_expit_mean(s: float) -> mpmath.mpf:
    """E[A expit(A)] = integral over a > 0 of a tanh(a/2) phi(a/s) / s,
    split where the integrand bends: near 0, where tanh saturates, and at
    multiples of s, to 40 s (beyond which the Gaussian is below 1e-340)."""
    s = mpmath.mpf(s)

    def f(a):
        return a * mpmath.tanh(a / 2) * mpmath.npdf(a, 0, s)

    points = {mpmath.mpf(p) for p in (0, 1, 5, 20, 60)} | {k * s for k in (0.5, 1, 2, 4, 8, 16, 40)}
    return mpmath.quad(f, sorted(p for p in points if p <= 40 * s))


def linked(s: float, mu: float) -> DgpSpec:
    law = CellSizeLaw(kind="one_plus_poisson", mu=mu, factor_linked=True)
    return DgpSpec(variant="additive", sigma_factors=(s, 1.0), cell_sizes=law)


@pytest.mark.parametrize("mu", MUS)
@pytest.mark.parametrize("s", SDS)
def test_truth_within_1e_15_of_mpmath(s, mu):
    m1 = a_expit_mean(s)
    expected = {"ratio": mu * m1 / (1 + mpmath.mpf(mu) / 2), "mean": mu * m1}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for estimator, ref in expected.items():
            got = true_theta(linked(s, mu), estimator)[0]
            assert abs((got - ref) / ref) < 1e-15, (estimator, got, float(ref))


@pytest.mark.parametrize("mu", MUS)
@pytest.mark.parametrize("s", [0.0] + SDS)
def test_mean_cell_size_is_one_plus_half_mu(s, mu):
    # E[expit(A)] = 1/2 exactly: expit(a) + expit(-a) = 1 and A is symmetric
    assert _mean_cell_size(linked(s, mu)) == 1 + mu / 2


def test_zero_factor_sd_gives_a_zero_truth():
    assert true_theta(linked(0.0, 2.0), "ratio").tolist() == [0.0]
    assert true_theta(linked(0.0, 2.0), "mean").tolist() == [0.0]
