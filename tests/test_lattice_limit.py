"""Lattices too large for the dense per-cell layout are refused up front,
and so are fits that would keep more per-cell columns on a lattice than
the dense-lattice byte budget."""

import json
import tracemalloc

import numpy as np
import pytest

from multiway import Dimensions
from multiway.cli import main
from multiway.data import LATTICE_BYTES, MAX_CELLS, check_dense_lattice
from multiway.errors import ConfigError
from multiway.estimators import LinearModelSpec, cell_columns
from multiway.simulation import MAX_UNITS, CellSizeLaw, DgpSpec, _check_unit_count

BIG = "1000,1000,1000"
MESSAGE = (
    "error: dims 1000,1000,1000: pi_c = 1000000000 cells exceeds the dense-lattice "
    "limit of 16777216; each per-cell float64 array would need 8000000000 bytes "
    "(7.45 GiB)"
)


def _run_traced(argv, capsys):
    """Exit code, stderr and the peak traced allocation of one CLI call."""
    tracemalloc.start()
    try:
        code = main([str(a) for a in argv])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, capsys.readouterr().err, peak


def test_estimate_refuses_big_lattice_csv(tmp_path, capsys):
    data = tmp_path / "three.csv"
    data.write_text("dim1,dim2,dim3,y1\n1,1,1,0.5\n2,3,4,1.5\n1000,1000,1000,2.0\n")
    out = tmp_path / "est.json"
    code, err, peak = _run_traced(
        ["estimate", "--input", data, "--dims", BIG, "--out", out], capsys
    )
    assert code == 2
    assert MESSAGE in err
    assert peak < 16 * 2**20
    assert not out.exists()


def test_estimate_refuses_big_lattice_json(tmp_path, capsys):
    data = tmp_path / "three.json"
    doc = {"dims": [1000, 1000, 1000],
           "units": [{"cell": [1, 1, 1], "y": [0.5]}, {"cell": [9, 9, 9], "y": [1.0]}]}
    data.write_text(json.dumps(doc))
    code, err, peak = _run_traced(
        ["estimate", "--input", data, "--out", tmp_path / "est.json"], capsys
    )
    assert code == 2
    assert MESSAGE in err
    assert peak < 16 * 2**20


HUGE = "10000000,10000000,10000000"


@pytest.mark.parametrize("command", ["estimate", "bootstrap"])
@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_lattice_over_int64_is_refused_before_any_cell_id(tmp_path, capsys, command, suffix):
    """pi_c = 10^21 overflows int64, so the flat cell ids of its units cannot
    even be formed: the lattice is checked before they are."""
    data = tmp_path / f"three{suffix}"
    if suffix == ".csv":
        data.write_text(f"dim1,dim2,dim3,y1\n1,1,1,0.5\n{HUGE},2.0\n")
        dims = ["--dims", HUGE]
    else:
        units = [{"cell": [1, 1, 1], "y": [0.5]}, {"cell": [10**7] * 3, "y": [2.0]}]
        data.write_text(json.dumps({"dims": [10**7] * 3, "units": units}))
        dims = []
    argv = [command, "--input", data, *dims, "--out", tmp_path / "out"]
    if command == "bootstrap":
        argv += ["--b", 40, "--seed", 1]
    code, err, peak = _run_traced(argv, capsys)
    assert code == 2
    assert f"error: dims {HUGE}: pi_c = {10**21} cells exceeds the dense-lattice limit" in err
    assert peak < 16 * 2**20
    assert list(tmp_path.iterdir()) == [data]


@pytest.mark.parametrize("dgp", ["additive", "additive3"])
def test_simulate_refuses_big_lattice(tmp_path, capsys, dgp):
    out = tmp_path / "sim.csv"
    code, err, peak = _run_traced(
        ["simulate", "--dgp", dgp, "--dims", BIG, "--seed", 1, "--out", out], capsys
    )
    assert code == 2
    assert MESSAGE in err
    assert peak < 16 * 2**20
    assert not out.exists()


def test_limit_is_inclusive():
    check_dense_lattice(Dimensions((MAX_CELLS,)))
    check_dense_lattice(Dimensions((2**12, 2**12)))
    with pytest.raises(ConfigError, match="dims 16777217: pi_c = 16777217"):
        check_dense_lattice(Dimensions((MAX_CELLS + 1,)))


@pytest.mark.parametrize("counts", [(), (3, 0), (-1,)])
def test_bad_dims_are_config_errors(counts):
    with pytest.raises(ConfigError, match="dims: "):
        Dimensions(counts)
    with pytest.raises(ValueError):
        Dimensions(counts)


HUGE_CELLS = "cell_sizes: pi_c = 1 cells times a mean cell size of 268435457 is 268435457 units"


def test_simulate_refuses_huge_unit_count(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code, err, peak = _run_traced(
        ["simulate", "--dgp", "additive", "--dims", 1, "--cell-sizes", "poisson:268435456",
         "--seed", 1, "--out", out],
        capsys,
    )
    assert code == 2
    assert HUGE_CELLS in err
    assert peak < 16 * 2**20
    assert list(tmp_path.iterdir()) == []


def test_mc_refuses_huge_unit_count(tmp_path, capsys):
    config = tmp_path / "mc.json"
    config.write_text(json.dumps({
        "dgp": {"variant": "additive", "sigma_factors": [1.0],
                "cell_sizes": {"kind": "one_plus_poisson", "mu": 268435456}},
        "dims": [1], "replications": 2, "methods": ["wald-v1"], "estimator": "ratio",
    }))
    out = tmp_path / "r"
    code, err, peak = _run_traced(
        ["mc", "--config", config, "--workers", 1, "--out", out], capsys
    )
    assert code == 2
    assert HUGE_CELLS in err
    assert peak < 16 * 2**20
    assert list(tmp_path.iterdir()) == [config]


def test_unit_limit_is_inclusive():
    fixed = DgpSpec(sigma_factors=(1.0,), cell_sizes=CellSizeLaw("fixed", n=2**14))
    _check_unit_count(fixed, Dimensions((2**14,)))
    with pytest.raises(ConfigError, match="cell_sizes: pi_c = 16385 cells"):
        _check_unit_count(fixed, Dimensions((2**14 + 1,)))
    poisson = DgpSpec(sigma_factors=(1.0,), cell_sizes=CellSizeLaw("one_plus_poisson", mu=3.0))
    _check_unit_count(poisson, Dimensions((MAX_UNITS // 4,)))
    with pytest.raises(ConfigError, match="cell_sizes: "):
        _check_unit_count(poisson, Dimensions((MAX_UNITS // 4 + 1,)))
    # product draws one unit per cell whatever the law says
    product = DgpSpec(variant="product", cell_sizes=CellSizeLaw("fixed", n=2**20))
    _check_unit_count(product, Dimensions((2**10, 2**10)))


def _wide_csv(path, n, n_columns, n_units=12, seed=0):
    """``n_units`` units with ``n_columns`` normal observation columns on an
    n x n lattice, the first in cell (1, 1) and the last in cell (n, n)."""
    rng = np.random.default_rng(seed)
    cells = rng.integers(1, n + 1, size=(n_units, 2))
    cells[0], cells[-1] = 1, n
    header = ["dim1", "dim2", *(f"y{i + 1}" for i in range(n_columns))]
    rows = [",".join(map(str, [*c, *rng.normal(size=n_columns)])) for c in cells]
    path.write_text("\n".join([",".join(header), *rows]) + "\n")
    return path


@pytest.mark.parametrize(
    "n_columns, argv, columns",
    [
        # 11 regressors and the intercept: 144 Gram, 24 score and cross-product columns and 1
        (12, ["bootstrap", "--estimator", "ols", "--regressors",
              ",".join(map(str, range(1, 12))), "--b", 40, "--seed", 1], 169),
        (96, ["estimate", "--estimator", "mean"], 192),
        # sums with sizes (97 columns) beside their unstacked parts (97)
        (96, ["bootstrap", "--estimator", "ratio", "--b", 40, "--seed", 1], 194),
    ],
    ids=["ols-bootstrap", "mean-estimate", "ratio-bootstrap"],
)
def test_fit_over_the_column_budget_is_refused_before_its_cell_sums(
    tmp_path, capsys, n_columns, argv, columns
):
    # 640 x 640 cells are within MAX_CELLS, but each fit would keep more than
    # LATTICE_BYTES there; its first per-cell sums alone (n_columns columns,
    # 39 MB or more) would exceed the traced peak allowed
    data = _wide_csv(tmp_path / "wide.csv", 640, n_columns)
    code, err, peak = _run_traced(
        [argv[0], "--input", data, "--dims", "640,640", *argv[1:], "--out", tmp_path / "o"],
        capsys,
    )
    assert code == 2
    need = 8 * columns * 640**2
    assert (f"error: dims 640,640: {argv[0]} {argv[1]} {argv[2]} keeps {columns} float64 "
            f"columns per cell, {need} bytes") in err
    assert f"budget of {LATTICE_BYTES} bytes" in err
    assert peak < 24 * 2**20
    assert list(tmp_path.iterdir()) == [data]


def test_column_budget_is_the_ratio_bootstrap_at_max_cells():
    """The reference fit of the budget is accepted at MAX_CELLS and one more
    column is not; OLS with two regressors fits its estimate there but not
    its bootstrap's Gram blocks, which failed with a MemoryError."""
    ref = cell_columns("ratio", 1, True)
    assert LATTICE_BYTES == 8 * ref * MAX_CELLS
    dims = Dimensions((2**12, 2**12))
    check_dense_lattice(dims, ref, "bootstrap --estimator ratio")
    with pytest.raises(ConfigError, match="^dims 4096,4096: x keeps 5 float64 columns"):
        check_dense_lattice(dims, ref + 1, "x")
    ols = LinearModelSpec(outcome_index=0, regressor_indices=(1, 2))
    check_dense_lattice(dims, cell_columns("ols", 4, False, ols), "estimate --estimator ols")
    with pytest.raises(ConfigError, match="bootstrap --estimator ols keeps 16 float64 columns"):
        check_dense_lattice(dims, cell_columns("ols", 4, True, ols), "bootstrap --estimator ols")
