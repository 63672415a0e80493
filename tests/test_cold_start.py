"""Cold start: numpy is the package's only numerical dependency.
Importing multiway and running every command load no scipy: the Wald
quantiles need only the standard library, the probit link is a numpy
kernel, linked cell sizes take expit in Python floats and their true value
from a trapezoid rule, and Nelder-Mead is a numpy port.

Every check runs in a fresh interpreter in which ``import scipy`` fails,
so a stray import fails the test instead of merely loading, and since an
earlier test in this process may already have loaded scipy. The process
pool is imported only when ``mc`` runs more than one worker.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy", "multiprocessing", "concurrent.futures.process")


def fresh(*argv, module="multiway.cli"):
    """Import ``module`` in a fresh interpreter whose ``import scipy`` raises
    ImportError, and run the CLI on ``argv`` (if any); returns the exit
    code and the heavy modules then loaded."""
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        f"import {module}\n"
        "code = multiway.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
        "heavy = sorted(m for m, v in sys.modules.items()\n"
        f"               if v is not None and m.startswith({HEAVY!r}))\n"
        "print(json.dumps({'code': code, 'heavy': heavy}))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    env.pop("MULTIWAY_WORKERS", None)
    out = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["multiway", "multiway.cli"])
def test_import_loads_no_scipy_and_no_process_pool(module):
    assert fresh(module=module) == {"code": 0, "heavy": []}


@pytest.fixture(scope="module")
def additive_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cold") / "add.csv"
    res = fresh("simulate", "--dgp", "additive", "--dims", "6,6",
                "--cell-sizes", "poisson:2", "--seed", "3", "-o", path)
    assert res == {"code": 0, "heavy": []}
    return path


@pytest.mark.parametrize("estimator", ["mean", "ratio", "quantile"])
def test_linear_and_quantile_bootstrap_load_no_scipy(additive_csv, estimator):
    base = additive_csv.parent / f"boot-{estimator}"
    res = fresh("bootstrap", "--input", additive_csv, "--dims", "6,6", "--estimator",
                estimator, "--b", "40", "--seed", "5", "-o", base)
    assert res == {"code": 0, "heavy": []}
    assert json.loads(Path(f"{base}.ci.json").read_text())["n_failed"] == 0


def test_ratio_estimate_with_three_wald_regions_loads_no_scipy(additive_csv):
    out = additive_csv.parent / "est-ratio.json"
    res = fresh("estimate", "--input", additive_csv, "--dims", "6,6", "--estimator", "ratio",
                "--variance", "v1,v2,cgm", "-o", out)
    assert res == {"code": 0, "heavy": []}
    assert set(json.loads(out.read_text())["wald"]) == {"v1", "v2", "cgm"}


def test_ols_estimate_loads_no_scipy(tmp_path):
    data = tmp_path / "p.csv"
    assert fresh("simulate", "--dgp", "probit", "--dims", "6,6", "--cell-sizes",
                 "poisson:3", "--seed", "4", "-o", data)["code"] == 0
    out = tmp_path / "est-ols.json"
    res = fresh("estimate", "--input", data, "--dims", "6,6", "--estimator", "ols",
                "--regressors", "1", "-o", out)
    assert res == {"code": 0, "heavy": []}
    assert list(json.loads(out.read_text())["wald"]) == ["v1"]


def test_wald_mc_loads_no_scipy(tmp_path):
    config = tmp_path / "mc.json"
    config.write_text(json.dumps({
        "dgp": {"variant": "additive", "sigma_factors": [1.0, 1.0],
                "cell_sizes": {"kind": "one_plus_poisson", "mu": 2.0}},
        "dims": [5, 5],
        "replications": 6,
        "methods": ["wald-v1", "wald-cgm"],
        "estimator": "ratio",
        "seed": 3,
    }))
    base = tmp_path / "mc"
    res = fresh("mc", "--config", config, "--workers", 1, "-o", base)
    assert res == {"code": 0, "heavy": []}
    methods = json.loads(Path(f"{base}.json").read_text())["methods"]
    assert {m["method"] for m in methods} == {"wald-v1", "wald-cgm"}


def test_linked_cell_sizes_load_no_scipy(tmp_path):
    res = fresh("simulate", "--dgp", "additive", "--dims", "6,6",
                "--cell-sizes", "poisson:2:linked", "--seed", "3", "-o", tmp_path / "l.csv")
    assert res == {"code": 0, "heavy": []}
    assert json.loads((tmp_path / "l.truth.json").read_text())["theta0"][0] > 0


def test_linked_mc_loads_no_scipy(tmp_path):
    config = tmp_path / "mc.json"
    config.write_text(json.dumps({
        "dgp": {"variant": "additive", "sigma_factors": [1.0, 1.0],
                "cell_sizes": {"kind": "one_plus_poisson", "mu": 2.0, "factor_linked": True}},
        "dims": [5, 5],
        "replications": 4,
        "methods": ["wald-v1", "boot-symabs"],
        "bootstrap_b": 40,
        "estimator": "ratio",
        "seed": 3,
    }))
    base = tmp_path / "mc"
    res = fresh("mc", "--config", config, "--workers", 1, "-o", base)
    assert res == {"code": 0, "heavy": []}
    methods = json.loads(Path(f"{base}.json").read_text())["methods"]
    assert {m["method"] for m in methods} == {"wald-v1", "boot-symabs"}


@pytest.fixture(scope="module")
def probit_csv(tmp_path_factory):
    data = tmp_path_factory.mktemp("probit") / "p.csv"
    res = fresh("simulate", "--dgp", "probit", "--dims", "6,6", "--cell-sizes",
                "poisson:3", "--seed", "4", "-o", data)
    assert res == {"code": 0, "heavy": []}
    model = data.parent / "probit.json"
    model.write_text(json.dumps({"family": "probit", "outcome_index": 0, "x_index": 1}))
    return data, model


@pytest.mark.parametrize("adjustment", ["unit", "cgm"])
def test_probit_estimate_loads_no_scipy(probit_csv, adjustment):
    data, model = probit_csv
    out = data.parent / f"est-{adjustment}.json"
    res = fresh("estimate", "--input", data, "--dims", "6,6", "--estimator", "gmm",
                "--model-config", model, "--variance", "v1,cgm", "--adjustment", adjustment,
                "-o", out)
    assert res == {"code": 0, "heavy": []}
    assert set(json.loads(out.read_text())["wald"]) == {"v1", "cgm"}


def test_probit_bootstrap_loads_no_scipy(probit_csv):
    data, model = probit_csv
    base = data.parent / "boot"
    res = fresh("bootstrap", "--input", data, "--dims", "6,6", "--estimator", "gmm",
                "--model-config", model, "--b", "40", "--seed", "5", "-o", base)
    assert res == {"code": 0, "heavy": []}
    assert Path(f"{base}.replicates.csv").read_text().count("\n") > 1


def test_probit_mc_loads_no_scipy(tmp_path):
    config = tmp_path / "mc.json"
    config.write_text(json.dumps({
        "dgp": {"variant": "probit"},
        "dims": [5, 5],
        "replications": 3,
        "methods": ["wald-v1", "boot-symabs"],
        "bootstrap_b": 40,
        "estimator": "probit",
        "seed": 6,
    }))
    base = tmp_path / "mc"
    res = fresh("mc", "--config", config, "--workers", 1, "-o", base)
    assert res == {"code": 0, "heavy": []}
    methods = json.loads(Path(f"{base}.json").read_text())["methods"]
    assert {m["method"] for m in methods} == {"wald-v1", "boot-symabs"}


def test_two_coefficient_quantile_iv_loads_no_scipy(tmp_path):
    # W = 0.5 + 1.5 X + U on 6x5 cells; the coefficients of (1, X) are fit by Nelder-Mead
    rng = np.random.default_rng(3)
    cells, x = rng.integers(1, [7, 6], size=(120, 2)), rng.normal(size=120)
    w = 0.5 + 1.5 * x + rng.normal(size=120)
    data = tmp_path / "q.csv"
    rows = zip(cells.tolist(), w.tolist(), x.tolist())
    data.write_text("dim1,dim2,y1,y2,y3\n"
                    + "".join(f"{a},{b},{wi!r},1.0,{xi!r}\n" for (a, b), wi, xi in rows))
    model = tmp_path / "qiv.json"
    model.write_text(json.dumps({"family": "quantile_iv", "tau": 0.5, "outcome_index": 0,
                                 "x_indices": [1, 2], "z_indices": [1, 2]}))
    res = fresh("estimate", "--input", data, "--dims", "6,5", "--estimator", "gmm",
                "--model-config", model, "-o", tmp_path / "est.json")
    assert res == {"code": 0, "heavy": []}
    assert len(json.loads((tmp_path / "est.json").read_text())["theta"]) == 2


def test_mc_writes_the_same_bytes_with_one_and_two_worker_processes(tmp_path):
    config = tmp_path / "mc.json"
    config.write_text(json.dumps({
        "dgp": {"variant": "additive", "sigma_factors": [1.0, 1.0],
                "cell_sizes": {"kind": "one_plus_poisson", "mu": 2.0}},
        "dims": [5, 5],
        "replications": 6,
        "methods": ["wald-v1", "wald-cgm", "boot-symabs", "boot-percentile"],
        "bootstrap_b": 40,
        "estimator": "ratio",
        "seed": 3,
    }))
    outputs = {}
    for workers in (1, 2):
        base = tmp_path / f"w{workers}"
        res = fresh("mc", "--config", config, "--workers", workers, "-o", base)
        assert res["code"] == 0
        assert ("concurrent.futures.process" in res["heavy"]) == (workers > 1)
        outputs[workers] = [Path(f"{base}{ext}").read_bytes() for ext in (".json", ".csv")]
    assert outputs[1] == outputs[2]
