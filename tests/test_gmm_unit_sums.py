"""Per-unit sums and the probit rows keep their bits.

``multiway.data.row_sum``, which m_bar and J_hat divide by pi_c, adds
each entry's column of unit values in unit order, whatever the memory
layout of the rows, so every mean must equal a plain left-to-right Python
sum over pi_c; the shapes include rows longer than numpy's 8,192-element
iterator buffer. ``crossprod``, the pair sums' and OLS's a'b, is that sum
column by column. The probit model returns C-ordered moments
and Jacobians; byte for byte they must equal the stacked formulas
lam[:, None] * (1, x) and g[:, None, None] * [[1, x], [x, x^2]] with
lam = sign * lam(q) from the link's kernel and g = -lam (eta + lam), all
kept below as they read before the unit-major layout, except that g at
q <= -100, where eta + lam cancels, comes from the series of
``gmm._left_slope``.
"""

import math

import numpy as np
import pytest

from multiway.data import crossprod, row_sum
from multiway.gmm import _TAIL, _left_slope, _probit_lam, probit_score_moments

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


SHAPES = [
    (0, 2), (1, 2), (1, 2, 2), (37, 1), (37, 2), (37, 2, 2), (37, 3, 2),
    (9001, 1), (9001, 2), (9001, 4),
]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_unit_mean_is_a_left_to_right_sum(shape, weighted):
    rng = np.random.default_rng(sum(shape) + 10 * weighted)
    base = _values(rng, shape)
    weights = rng.integers(0, 4, size=shape[0]).astype(np.float64) if weighted else None
    expected = _left_to_right(base, weights, PI_C)
    for layout, rows in _layouts(base).items():
        got = row_sum(rows, weights) / PI_C
        assert got.shape == shape[1:], layout
        assert got.tobytes() == expected.tobytes(), layout


@pytest.mark.parametrize("n,d,k", [(1, 2, 2), (37, 1, 1), (37, 3, 1), (37, 3, 3), (9001, 2, 4)])
def test_crossprod_is_a_left_to_right_sum_per_column(n, d, k):
    rng = np.random.default_rng(n + d + k)
    a, b = _values(rng, (n, d)), _values(rng, (n, k))
    expected = np.column_stack([_left_to_right(a, b[:, j], 1) for j in range(k)])
    got = crossprod(a, b)
    assert got.shape == (d, k) and got.tobytes() == expected.tobytes()
    assert crossprod(a, b[:, 0]).tobytes() == expected[:, 0].tobytes()
    gram = crossprod(a, a)
    assert np.array_equal(gram, gram.T)


def test_reference_tells_a_pairwise_sum_apart():
    """The data above tells the two orders apart, so the checks have teeth."""
    col = _values(np.random.default_rng(0), (37,))
    assert np.add.reduce(col) != _left_to_right(col[:, None], None, 1)[0]


def test_probit_rows_are_c_ordered():
    rows = probit_score_moments(0, 1).fn(
        np.column_stack([np.ones(5), np.arange(5.0)]), np.array([0.1, 0.2])
    )
    assert rows.flags.c_contiguous


def _parent_probit(values, theta):
    """The moments and Jacobian rows as the probit model computed them before."""
    y, x = values[:, 0], values[:, 1]
    sign = 2.0 * y - 1.0
    eta = theta[0] + theta[1] * x
    lam = sign * _probit_lam(sign * eta)
    ones_x = np.column_stack([np.ones_like(x), x])
    outer = np.empty((x.shape[0], 2, 2))
    outer[:, 0, 0] = 1.0
    outer[:, 0, 1] = outer[:, 1, 0] = x
    outer[:, 1, 1] = x * x
    g = -lam * (eta + lam)
    tail = sign * eta <= -_TAIL
    g[tail] = _left_slope((sign * eta)[tail], _probit_lam((sign * eta)[tail]))
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
