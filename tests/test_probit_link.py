"""The probit link's inverse Mills ratio lam(q) = phi(q) / Phi(q) against
mpmath at 60 digits, range by range.

``multiway.gmm._probit_lam`` is a numpy kernel on the Cephes rationals for
erf and erfcx, so its accuracy depends on numpy's ``exp`` and on nothing
that loads scipy. Errors are relative, |got - ref| / max(|ref|, tiny), so
the subnormal results next to q = 38.6 count in units of the smallest
normal number. The bounds must hold at every SIMD level numpy dispatches.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import special

from multiway.gmm import _probit_lam, probit_score_moments

mpmath.mp.dps = 60
EPS = np.finfo(np.float64).eps
TINY = np.finfo(np.float64).tiny
# where the former log-domain kernel failed: 1e-4 relative, 0.79, inf and NaN
FAR_LEFT = [-1e4, -1e6, -1e8, -1e10, -1e300]


def reference(q: float) -> float:
    """phi(q) / Phi(q) at 60 digits; below -1e3 from the asymptotic series
    q / (1 - 1/q^2 + 3/q^4 - ...), whose truncation is below 1e-40 there."""
    x = mpmath.mpf(q)
    if q >= -1e3:
        return float(mpmath.npdf(x) / mpmath.ncdf(x))
    total, term = mpmath.mpf(1), mpmath.mpf(1)
    for k in range(1, 8):
        term *= -(2 * k - 1) / x**2
        total += term
    return float(-x / total)


def relative_errors(q: np.ndarray) -> np.ndarray:
    got = _probit_lam(q)
    ref = np.array([reference(v) for v in q.tolist()])
    return np.abs(got - ref) / np.maximum(np.abs(ref), TINY)


RANGES = {
    # (grid, bound on the relative error): a few ulps where no exp(-q^2 / 2)
    # of a large q enters; above q = 8 that exponential's own error, from
    # q^2 rounded to the nearest float, up to about q^2 / 2 ulps
    "|q| <= 8": (np.linspace(-8.0, 8.0, 8001), 16 * EPS),
    "-1e8 <= q < -8": (
        np.concatenate([-np.geomspace(8.0, 1e8, 2001)[1:], -np.linspace(8.0, 60.0, 2001)[1:]]),
        1e-14,
    ),
    "8 < q <= 38": (np.linspace(8.0, 38.0, 3001)[1:], None),
}


@pytest.mark.parametrize("name", list(RANGES))
def test_matches_mpmath_range_by_range(name):
    q, bound = RANGES[name]
    err = relative_errors(q)
    if bound is None:
        bound = (0.5 * q * q + 16) * EPS
    worst = int(np.argmax(err / bound))
    assert (err <= bound).all(), (name, q[worst], err[worst])


def test_far_left_tail_is_accurate_where_the_log_domain_kernel_failed():
    q = np.array(FAR_LEFT + [-1e20, -1e100, -1.7976931348623157e308])
    err = relative_errors(q)
    assert (err <= 1e-14).all(), dict(zip(q.tolist(), err.tolist()))


def test_finite_and_positive_for_every_finite_q_up_to_phi_underflow():
    q = np.concatenate([
        -np.geomspace(1e-300, 1e308, 4001),
        np.geomspace(1e-300, 38.5, 4001),
        [0.0, -0.0, 5e-324, -5e-324, -1.7976931348623157e308],
    ])
    lam = _probit_lam(q)
    assert np.isfinite(lam).all() and (lam > 0).all()


def test_underflows_to_zero_only_where_phi_does():
    q = np.concatenate([np.linspace(37.0, 40.0, 3001), [1e3, 1e300, np.inf]])
    lam = _probit_lam(q)
    phi = np.array([float(mpmath.npdf(mpmath.mpf(v))) for v in q.tolist()])
    smallest = 5e-324
    assert (phi[lam == 0] <= smallest).all()  # lam is 0 only where phi rounds to 0 or 1 step
    assert (lam[phi > smallest] > 0).all()
    assert lam[-1] == 0 and lam[-2] == 0


def test_nan_maps_to_nan_and_the_infinities_to_their_limits():
    lam = _probit_lam(np.array([np.nan, -np.inf, np.inf, np.nan, -1e10]))
    assert np.isnan(lam[[0, 3]]).all()
    assert lam[1] == np.inf and lam[2] == 0.0 and lam[4] == pytest.approx(1e10, rel=1e-15)


def test_agrees_with_scipy_for_moderate_q():
    q = np.linspace(-8.0, 8.0, 16001)
    log_phi = -0.5 * q * q - 0.5 * math.log(2 * math.pi)
    expected = np.exp(log_phi - special.log_ndtr(q))
    assert np.allclose(_probit_lam(q), expected, rtol=1e-13, atol=0)


def test_each_element_depends_on_its_own_q_alone():
    """A subset of q gets the bits of the same elements of the whole array,
    which the bootstrap's kept-units replicates rely on."""
    rng = np.random.default_rng(5)
    q = np.concatenate([rng.normal(0, 3, 3000), -np.geomspace(1, 1e12, 300),
                        rng.uniform(-40, 40, 300)])
    rng.shuffle(q)
    whole = _probit_lam(q)
    for size in (1, 2, 3, 7, 17, 64, 1001):
        keep = np.sort(rng.choice(q.size, size=size, replace=False))
        assert _probit_lam(q[keep]).tobytes() == whole[keep].tobytes(), size


def slope_reference(q: float) -> float:
    """The probit Jacobian's g = -lam(q) (q + lam(q)) at 60 digits; below
    -1e3 with x = -q and the Mills ratio's series A = 1 - 1/x^2 + 3/x^4 - ...
    (lam = x / A), so that q + lam = x (1 - A) / A cancels nothing."""
    x = mpmath.mpf(q)
    if q >= -1e3:
        lam = mpmath.npdf(x) / mpmath.ncdf(x)
        return float(-lam * (x + lam))
    x = -x
    rest, term = mpmath.mpf(0), mpmath.mpf(1)
    for k in range(1, 8):
        term *= -(2 * k - 1) / x**2
        rest += term
    return float(x / (1 + rest) * x * rest / (1 + rest))


def probit_slopes(q: np.ndarray) -> np.ndarray:
    """g at each q from ``probit_score_moments``' Jacobian, half of the units
    with Y = 1 and X = q, half with Y = 0 and X = -q, at theta = (0, 1)."""
    half = q.size // 2
    y = np.r_[np.ones(half), np.zeros(q.size - half)]
    x = np.r_[q[:half], -q[half:]]
    with np.errstate(over="ignore"):  # the design's X * X beyond |X| = 1.3e154
        d = probit_score_moments(0, 1).jacobian(np.column_stack([y, x]), np.array([0.0, 1.0]))
    return d[:, 0, 0]


@pytest.mark.parametrize("name,q,bound", [
    ("q <= -100", np.r_[-np.geomspace(100.0, 1e300, 601), -1.7976931348623157e308], 1e-14),
    ("-100 < q <= 8", np.r_[-np.geomspace(np.nextafter(100.0, 0.0), 1e-3, 800),
                            np.linspace(0.0, 8.0, 201)], 1e-11),
])
def test_jacobian_slope_matches_mpmath(name, q, bound):
    """Where lam(q) -> -q, g = -lam (eta + lam) would lose about q^2 ulps
    (-1.25 at q = -1e7, -0.0 below -1e8, where g is about -1)."""
    g = probit_slopes(q)
    ref = np.array([slope_reference(v) for v in q.tolist()])
    err = np.abs(g - ref) / np.abs(ref)
    worst = int(np.argmax(err))
    assert err[worst] <= bound, (name, q[worst], err[worst])


def test_jacobian_slope_is_negative_up_to_phi_underflow():
    """g is never -0.0 (or 0) where its true value is a nonzero float; past
    q = 38.6, where lam itself underflows to 0, it is -0.0, the true value
    rounded."""
    q = np.r_[-np.geomspace(1e-300, 1e308, 3001), -1.7976931348623157e308, 0.0,
              np.geomspace(1e-300, 38.0, 3001)]
    g = probit_slopes(q)
    assert (g < 0).all()
