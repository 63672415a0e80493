"""Lattices too large for the dense per-cell layout are refused up front."""

import json
import tracemalloc

import pytest

from multiway import Dimensions
from multiway.cli import main
from multiway.data import MAX_CELLS, check_dense_lattice
from multiway.errors import ConfigError
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
