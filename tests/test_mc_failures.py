"""Monte Carlo failure accounting: a replication whose fit or bootstrap
raises an error of the package fails the methods that need it, the others
go on, and the JSON report stays strict JSON (null, not NaN, for a method
used in no replication)."""

import json

import pytest

import multiway.simulation
from multiway.cli import main
from multiway.errors import InsufficientReplicatesError

METHODS = ["wald-v1", "wald-cgm", "boot-symabs", "boot-percentile"]


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def run_mc(tmp_path, doc) -> tuple[dict, str]:
    """The strictly parsed JSON report and the CSV of ``mc`` on ``doc``, one worker."""
    config = tmp_path / "mc.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "report"
    assert main(["mc", "--config", str(config), "--workers", "1", "-o", str(out)]) == 0
    report = json.loads((tmp_path / "report.json").read_text(), parse_constant=_refuse_constant)
    return report, (tmp_path / "report.csv").read_text()


def test_failed_fits_fail_every_method_and_write_null_statistics(tmp_path):
    # no units in any cell: the ratio fit raises in every replication
    doc = {"dgp": {"variant": "additive", "cell_sizes": {"kind": "fixed", "n": 0}},
           "dims": [3, 3], "replications": 3, "methods": METHODS, "bootstrap_b": 40}
    report, csv_text = run_mc(tmp_path, doc)
    assert report["theta_mc_sd"] == []
    assert report["mean_boot_se"] is None
    for method in report["methods"]:
        assert (method["n_used"], method["n_failed"]) == (0, 3)
        for key in ("coverage", "mc_se", "rejection_rate", "avg_length"):
            assert method[key] is None
    assert csv_text.splitlines()[1] == "wald-v1,nan,nan,nan,nan,0,3"


def test_failed_bootstraps_fail_the_bootstrap_methods_only(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise InsufficientReplicatesError("refused")

    monkeypatch.setattr(multiway.simulation, "run_bootstrap", refuse)
    doc = {"dgp": {"variant": "additive"}, "dims": [6, 6], "replications": 4,
           "methods": METHODS, "bootstrap_b": 40, "seed": 5}
    report, _ = run_mc(tmp_path, doc)
    counts = {m["method"]: (m["n_used"], m["n_failed"]) for m in report["methods"]}
    assert counts == {"wald-v1": (4, 0), "wald-cgm": (4, 0),
                      "boot-symabs": (0, 4), "boot-percentile": (0, 4)}
    assert report["mean_boot_se"] is None
    assert len(report["theta_mc_sd"]) == 1
    boot = report["methods"][2]
    assert boot["coverage"] is None and boot["avg_length"] is None
    assert report["methods"][0]["coverage"] == pytest.approx(
        1.0 - report["methods"][0]["rejection_rate"]
    )
