"""Import cost: the CLI loads no slow scipy subpackage it does not use.

``wald_region`` takes its normal and chi-square quantiles from
``scipy.special``; ``scipy.optimize`` and ``scipy.integrate`` are imported
where they are called.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from multiway import Dimensions, wald_region

SRC = Path(__file__).resolve().parents[1] / "src"
SLOW = ("scipy.stats", "scipy.optimize", "scipy.integrate")


def test_cli_import_skips_slow_scipy_subpackages():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = f"import sys, multiway.cli; print([m for m in {SLOW!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("alpha", [0.5, 0.2, 0.1, 0.05, 0.01, 1e-3, 1e-6])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_wald_quantiles_equal_scipy_stats_bit_for_bit(alpha, m):
    from scipy import stats

    # identity variance and c_min = 1: the half-width is the normal quantile itself
    region = wald_region(np.zeros(m), np.eye(m), Dimensions((1,) * m), alpha)
    z = stats.norm.ppf(1 - alpha / 2)
    assert region.intervals[:, 1].tolist() == [float(z)] * m
    assert region.threshold == float(stats.chi2.ppf(1 - alpha, df=m))
