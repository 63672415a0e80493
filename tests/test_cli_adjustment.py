"""End-to-end tests of the CGM finite-sample adjustment (`--adjustment cgm`)."""

import json
from pathlib import Path

import pytest

from multiway.cli import main
from multiway.data import Dimensions
from multiway.dataio import read_dataset_csv, write_json
from multiway.estimators import ratio_estimate
from multiway.variance import vhat1, vhat_cgm


def run(argv):
    return main([str(a) for a in argv])


@pytest.mark.parametrize("variance", ["cgm", "v1,cgm"])
def test_estimate_cgm_adjustment_writes_adjusted_cgm(tmp_path, variance):
    data = tmp_path / "d.csv"
    assert run(["simulate", "--dgp", "additive", "--dims", "6,5", "--seed", 4,
                "--cell-sizes", "poisson:1", "-o", data]) == 0
    out = tmp_path / "est.json"
    assert run(["estimate", "--input", data, "--dims", "6,5", "--variance", variance,
                "--adjustment", "cgm", "--out", out]) == 0
    doc = json.loads(out.read_text())
    scores = ratio_estimate(read_dataset_csv(data, Dimensions((6, 5)))).scores
    assert doc["variance"]["cgm"] == vhat_cgm(scores, "cgm").to_json_dict()
    assert doc["variance"]["cgm"] != vhat_cgm(scores).to_json_dict()
    if "v1" in variance:
        assert doc["variance"]["v1"] == vhat1(scores).to_json_dict()
    # the two-way identity only holds for unit factors
    assert "two_way_identity_residual" not in doc["diagnostics"]


def test_mc_cgm_adjustment_runs_and_is_reproducible(tmp_path):
    config = {
        "dgp": {"variant": "additive", "sigma_factors": [1.0, 0.5]},
        "dims": [6, 5],
        "replications": 6,
        "methods": ["wald-v1", "wald-cgm"],
        "estimator": "ratio",
        "seed": 9,
    }
    reports = {}
    for name, adjustment in [("a", "cgm"), ("b", "cgm"), ("unit", "unit")]:
        cfg = tmp_path / f"{name}.cfg.json"
        write_json(cfg, {**config, "adjustment": adjustment})
        assert run(["mc", "--config", cfg, "--out", tmp_path / name]) == 0
        reports[name] = {
            ext: Path(f"{tmp_path / name}.{ext}").read_bytes() for ext in ("json", "csv")
        }
    assert reports["a"] == reports["b"]
    doc = json.loads(reports["a"]["json"])
    assert doc["config"]["adjustment"] == "cgm"
    unit = json.loads(reports["unit"]["json"])
    lengths = {m["method"]: m["avg_length"] for m in doc["methods"]}
    unit_lengths = {m["method"]: m["avg_length"] for m in unit["methods"]}
    assert lengths["wald-v1"] == unit_lengths["wald-v1"]
    assert lengths["wald-cgm"] != unit_lengths["wald-cgm"]
