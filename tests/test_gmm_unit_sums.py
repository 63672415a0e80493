"""Per-unit sums and the probit rows keep their bits.

``_unit_mean`` adds each entry's column of unit values in unit order,
whatever the memory layout of the rows, so every sum must equal a plain
left-to-right Python sum. The probit model returns unit-major moments and
Jacobians; byte for byte they must equal the stacked formulas
lam[:, None] * (1, x) and g[:, None, None] * [[1, x], [x, x^2]] built on
the log-domain link, all kept below as they read before the unit-major
layout.
"""

import math

import numpy as np
import pytest
from scipy import special

import multiway.gmm as gmm
from multiway.gmm import probit_score_moments

PI_C = 7


def _left_to_right(rows, weights, pi_c):
    """(1/pi_c) times each entry's sum over units, one Python add per unit."""
    out = np.zeros(rows.shape[1:])
    for entry in np.ndindex(rows.shape[1:]):
        total = None
        for i in range(rows.shape[0]):
            term = float(rows[(i, *entry)])
            if weights is not None:
                term *= float(weights[i])
            total = term if total is None else total + term
        out[entry] = 0.0 if total is None else total / pi_c
    return out


def _values(rng, shape):
    """Terms over many magnitudes, where pairwise and sequential sums part."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)


def _layouts(base):
    """The same (n, ...) rows C-ordered, F-ordered and unit-major."""
    unit_major = np.ascontiguousarray(np.moveaxis(base, 0, -1))
    return {
        "C": np.ascontiguousarray(base),
        "F": np.asfortranarray(base),
        "unit-major": np.moveaxis(unit_major, -1, 0),
    }


SHAPES = [(0, 2), (1, 2), (1, 2, 2), (37, 1), (37, 2), (37, 2, 2), (37, 3, 2)]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_unit_mean_is_a_left_to_right_sum(shape, weighted):
    rng = np.random.default_rng(sum(shape) + 10 * weighted)
    base = _values(rng, shape)
    weights = rng.integers(0, 4, size=shape[0]).astype(np.float64) if weighted else None
    expected = _left_to_right(base, weights, PI_C)
    for layout, rows in _layouts(base).items():
        got = gmm._unit_mean(rows, weights, PI_C)
        assert got.shape == shape[1:], layout
        assert got.tobytes() == expected.tobytes(), layout


def test_reference_tells_a_pairwise_sum_apart():
    """The data above tells the two orders apart, so the checks have teeth."""
    col = _values(np.random.default_rng(0), (37,))
    assert np.add.reduce(col) != _left_to_right(col[:, None], None, 1)[0]


def test_unit_major_rows_are_read_as_contiguous_columns():
    rows = probit_score_moments(0, 1).fn(
        np.column_stack([np.ones(5), np.arange(5.0)]), np.array([0.1, 0.2])
    )
    assert rows.T.flags.c_contiguous


def _parent_probit(values, theta):
    """The moments and Jacobian rows as the probit model computed them before."""
    y, x = values[:, 0], values[:, 1]
    sign = 2.0 * y - 1.0
    eta = theta[0] + theta[1] * x
    q = sign * eta
    log_phi = -0.5 * q**2 - 0.5 * math.log(2 * math.pi)
    lam = sign * np.exp(log_phi - special.log_ndtr(q))
    ones_x = np.column_stack([np.ones_like(x), x])
    outer = np.empty((x.shape[0], 2, 2))
    outer[:, 0, 0] = 1.0
    outer[:, 0, 1] = outer[:, 1, 0] = x
    outer[:, 1, 1] = x * x
    g = -lam * (eta + lam)
    return lam[:, None] * ones_x, g[:, None, None] * outer


def _probit_values(rng, n, scale):
    y = (rng.uniform(size=n) < 0.5).astype(np.float64)
    return np.column_stack([y, rng.normal(size=n) * scale])


BOX = [(-5.0, -5.0), (-5.0, 5.0), (5.0, -5.0), (5.0, 5.0)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and nan rows at huge |x|
@pytest.mark.parametrize(
    "scale,thetas",
    [
        (1.0, "random"),
        (1.0, "box"),
        (1e3, "random"),
        (1e3, "box"),
        (1e160, "box"),
    ],
    ids=["random", "box", "large-x-random", "large-x-box", "huge-x-box"],
)
def test_probit_rows_match_the_stacked_formula(scale, thetas):
    rng = np.random.default_rng(int(math.log10(scale)) + len(thetas))
    values = _probit_values(rng, 64, scale)
    values[:3, 1] = [0.0, -0.0, 1.0]
    points = BOX if thetas == "box" else [rng.uniform(-5, 5, size=2) for _ in range(6)]
    model = probit_score_moments(0, 1)
    for theta in map(np.asarray, points):
        moments, jacobian = _parent_probit(values, theta)
        assert model.fn(values, theta).tobytes() == moments.tobytes(), theta
        assert model.jacobian(values, theta).tobytes() == jacobian.tobytes(), theta
