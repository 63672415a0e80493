"""End-to-end tests of the command-line interface."""

import json
from pathlib import Path

import numpy as np
import pytest

from multiway.cli import main
from multiway.dataio import read_dataset_csv, read_dataset_json, write_json
from multiway.data import Dimensions


def run(argv):
    return main([str(a) for a in argv])


def read_bytes(path):
    return Path(path).read_bytes()


def simulate(tmp_path, name="d.csv", dims="5,5", seed=1, dgp="additive", extra=()):
    out = tmp_path / name
    code = run(["simulate", "--dgp", dgp, "--dims", dims, "--seed", seed, "-o", out, *extra])
    assert code == 0
    return out


def test_simulate_row_count_and_truth(tmp_path):
    out = simulate(tmp_path)
    lines = out.read_text().splitlines()
    assert lines[0] == "dim1,dim2,y1"
    assert len(lines) == 1 + 25  # header + one unit per cell under fixed:1
    truth = json.loads(out.with_suffix(".truth.json").read_text())
    assert truth["theta0"] == [0.0]
    assert truth["seed"] == 1
    assert truth["dims"] == [5, 5]


def test_simulate_byte_identical(tmp_path):
    a = simulate(tmp_path, "a.csv", seed=11)
    b = simulate(tmp_path, "b.csv", seed=11)
    assert read_bytes(a) == read_bytes(b)
    assert (
        json.loads(a.with_suffix(".truth.json").read_text())["theta0"]
        == json.loads(b.with_suffix(".truth.json").read_text())["theta0"]
    )


def test_simulate_three_way(tmp_path):
    out = simulate(tmp_path, "t.csv", dims="3,4,2", dgp="additive3")
    sample = read_dataset_csv(out, Dimensions((3, 4, 2)))
    assert sample.n_units == 24


def test_estimate_intercept_only_ols_equals_ratio(tmp_path):
    data = simulate(tmp_path, seed=3)
    out_ols = tmp_path / "ols.json"
    out_ratio = tmp_path / "ratio.json"
    assert run(
        ["estimate", "--input", data, "--dims", "5,5", "--estimator", "ols",
         "--out", out_ols]
    ) == 0
    assert run(
        ["estimate", "--input", data, "--dims", "5,5", "--estimator", "ratio",
         "--out", out_ratio]
    ) == 0
    t1 = json.loads(out_ols.read_text())["theta"]
    t2 = json.loads(out_ratio.read_text())["theta"]
    np.testing.assert_allclose(t1, t2, rtol=1e-12)


def test_estimate_reports_identity_diagnostic(tmp_path):
    data = simulate(tmp_path, seed=5)
    out = tmp_path / "est.json"
    assert run(
        ["estimate", "--input", data, "--dims", "5,5", "--variance", "v1,v2,cgm",
         "--out", out]
    ) == 0
    doc = json.loads(out.read_text())
    assert set(doc["variance"]) == {"v1", "v2", "cgm"}
    assert doc["diagnostics"]["two_way_identity_residual"] <= 1e-12
    assert "v1" in doc["wald"]


def test_estimate_degenerate_design_exit_code(tmp_path):
    data = simulate(tmp_path, "deg.csv", dims="4,1", seed=2)
    out = tmp_path / "deg.json"
    code = run(
        ["estimate", "--input", data, "--dims", "4,1", "--variance", "v2", "--out", out]
    )
    assert code == 3


def test_estimate_json_input(tmp_path):
    doc = {
        "dims": [2, 2],
        "units": [
            {"cell": [1, 1], "y": [1.0]},
            {"cell": [1, 2], "y": [2.0]},
            {"cell": [2, 1], "y": [3.0]},
            {"cell": [2, 2], "y": [4.0]},
        ],
    }
    path = tmp_path / "d.json"
    write_json(path, doc)
    sample = read_dataset_json(path)
    assert sample.n_units == 4
    out = tmp_path / "est.json"
    assert run(["estimate", "--input", path, "--estimator", "mean", "--out", out]) == 0
    assert json.loads(out.read_text())["theta"] == [2.5]


def test_estimate_parse_error_line_number(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("dim1,dim2,y1\n1,1,2.0\n1,oops,3.0\n")
    out = tmp_path / "x.json"
    code = run(["estimate", "--input", bad, "--dims", "2,2", "--out", out])
    assert code == 2


def test_estimate_quantile(tmp_path):
    data = simulate(tmp_path, seed=9)
    out = tmp_path / "q.json"
    assert run(
        ["estimate", "--input", data, "--dims", "5,5", "--estimator", "quantile",
         "--tau", "0.5", "--variance", "", "--out", out]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["estimator"] == "quantile"
    assert doc["variance"] == {}


def test_estimate_ols_with_regressors(tmp_path):
    rng = np.random.default_rng(33)
    rows = ["dim1,dim2,y1,y2"]
    for i in range(1, 5):
        for j in range(1, 5):
            for _ in range(3):
                x = rng.normal()
                y = 1.0 + 2.0 * x + 0.1 * rng.normal()
                rows.append(f"{i},{j},{y!r},{x!r}")
    data = tmp_path / "lin.csv"
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "lin.json"
    assert run(
        ["estimate", "--input", data, "--dims", "4,4", "--estimator", "ols",
         "--outcome", "0", "--regressors", "1", "--out", out]
    ) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["theta"][0] - 1.0) < 0.2
    assert abs(doc["theta"][1] - 2.0) < 0.2
    assert doc["diagnostics"]["gram_condition"] > 1.0


def test_estimate_gmm_quantile_iv(tmp_path):
    rng = np.random.default_rng(35)
    rows = ["dim1,dim2,y1,y2,y3"]
    for i in range(1, 7):
        for j in range(1, 7):
            x = rng.uniform(0.5, 2.0)
            w = 1.5 * x + rng.normal()
            rows.append(f"{i},{j},{w!r},{x!r},{x!r}")
    data = tmp_path / "qiv.csv"
    data.write_text("\n".join(rows) + "\n")
    model = tmp_path / "model.json"
    write_json(
        model,
        {"family": "quantile_iv", "tau": 0.5, "outcome_index": 0,
         "x_indices": [1], "z_indices": [2], "bounds": [[-5, 5]]},
    )
    out = tmp_path / "qiv.json"
    assert run(
        ["estimate", "--input", data, "--dims", "6,6", "--estimator", "gmm",
         "--model-config", model, "--variance", "", "--out", out]
    ) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["theta"][0] - 1.5) < 1.0


def test_estimate_nonsmooth_gmm_defaults_to_no_variance(tmp_path, capsys):
    data = simulate(tmp_path, "p.csv", seed=4, dgp="probit")
    model = tmp_path / "model.json"
    write_json(
        model,
        {"family": "quantile_iv", "tau": 0.5, "outcome_index": 0,
         "x_indices": [1], "z_indices": [1]},
    )
    argv = ["estimate", "--input", data, "--dims", "5,5", "--estimator", "gmm",
            "--model-config", model]
    out = tmp_path / "g.json"
    assert run([*argv, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["variance"] == {} and doc["wald"] == {}
    capsys.readouterr()
    assert run([*argv, "--variance", "v1", "--out", tmp_path / "v1.json"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: variance: nonsmooth model has no Jacobian; use the bootstrap"
    )
    assert not (tmp_path / "v1.json").exists()


def test_estimate_gmm_model_config_missing_field(tmp_path):
    data = simulate(tmp_path, seed=36)
    model = tmp_path / "model.json"
    write_json(model, {"family": "quantile_iv", "tau": 0.5})
    code = run(
        ["estimate", "--input", data, "--dims", "5,5", "--estimator", "gmm",
         "--model-config", model, "--out", tmp_path / "x.json"]
    )
    assert code == 2


def test_estimate_gmm_probit(tmp_path):
    data = simulate(tmp_path, "p.csv", dims="8,8", seed=21, dgp="probit")
    model = tmp_path / "model.json"
    write_json(model, {"family": "probit", "outcome_index": 0, "x_index": 1})
    out = tmp_path / "g.json"
    assert run(
        ["estimate", "--input", data, "--dims", "8,8", "--estimator", "gmm",
         "--model-config", model, "--out", out]
    ) == 0
    doc = json.loads(out.read_text())
    assert len(doc["theta"]) == 2
    assert "objective_value" in doc["diagnostics"]


def test_bootstrap_outputs_and_determinism(tmp_path):
    data = simulate(tmp_path, seed=13)
    outs = []
    for name, workers in (("b1", "1"), ("b2", "1"), ("b8", "8")):
        base = tmp_path / name
        code = run(
            ["bootstrap", "--input", data, "--dims", "5,5", "--b", "200",
             "--seed", "77", "--workers", workers, "--out", base]
        )
        assert code == 0
        outs.append(base)
    first = read_bytes(str(outs[0]) + ".replicates.csv")
    assert first == read_bytes(str(outs[1]) + ".replicates.csv")
    assert first == read_bytes(str(outs[2]) + ".replicates.csv")
    ci1 = read_bytes(str(outs[0]) + ".ci.json")
    assert ci1 == read_bytes(str(outs[2]) + ".ci.json")
    doc = json.loads(ci1)
    assert doc["b"] == 200 and doc["seed"] == 77
    assert doc["symmetric_abs"]["quantile_rule"] == "ceil-order-statistic"
    header = Path(str(outs[0]) + ".replicates.csv").read_text().splitlines()[0]
    assert header == "replicate,theta_1"


def test_bootstrap_constant_dataset(tmp_path):
    path = tmp_path / "const.csv"
    rows = ["dim1,dim2,y1"]
    for i in range(1, 4):
        for j in range(1, 4):
            rows.append(f"{i},{j},2.5")
    path.write_text("\n".join(rows) + "\n")
    base = tmp_path / "c"
    assert run(
        ["bootstrap", "--input", path, "--dims", "3,3", "--b", "50", "--seed", "1",
         "--alpha", "0.1", "--out", base]
    ) == 0
    doc = json.loads(read_bytes(str(base) + ".ci.json"))
    assert doc["symmetric_abs"]["interval"] == [2.5, 2.5]
    assert doc["percentile"]["intervals"] == [[2.5, 2.5]]


def test_bootstrap_insufficient_b(tmp_path):
    data = simulate(tmp_path, seed=15)
    code = run(
        ["bootstrap", "--input", data, "--dims", "5,5", "--b", "5", "--seed", "1",
         "--out", tmp_path / "x"]
    )
    assert code == 2


def test_bootstrap_refuses_b_below_the_percentile_minimum(tmp_path, capsys):
    # b = 20 resolves the symmetric-abs 0.95 quantile, but the percentile
    # interval's 0.025 quantile needs b >= 2 / alpha = 40: refused before
    # resampling, so neither output file is written
    data = simulate(tmp_path, seed=15)
    code = run(
        ["bootstrap", "--input", data, "--dims", "5,5", "--b", "20", "--alpha", "0.05",
         "--seed", "1", "--out", tmp_path / "x"]
    )
    assert code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: --b: 20 replicates cannot resolve --alpha 0.05; need at least 40"
    )
    assert list(tmp_path.glob("x*")) == []


def test_estimate_singular_variance_exit_code(tmp_path):
    # constant data: every score is zero, so vhat1 = 0 and the Wald region
    # cannot be formed
    rows = ["dim1,dim2,y1"]
    for i in range(1, 4):
        for j in range(1, 4):
            rows.append(f"{i},{j},1.0")
    path = tmp_path / "const.csv"
    path.write_text("\n".join(rows) + "\n")
    code = run(
        ["estimate", "--input", path, "--dims", "3,3", "--variance", "v1",
         "--out", tmp_path / "x.json"]
    )
    assert code == 4


def test_estimate_gmm_convergence_failure_exit_code(tmp_path):
    data = simulate(tmp_path, "conv.csv", dims="4,4", seed=40, dgp="probit")
    model = tmp_path / "model.json"
    write_json(
        model,
        {"family": "probit", "outcome_index": 0, "x_index": 1,
         "optimizer": {"max_evals": 1}},
    )
    code = run(
        ["estimate", "--input", data, "--dims", "4,4", "--estimator", "gmm",
         "--model-config", model, "--out", tmp_path / "x.json"]
    )
    assert code == 5


def test_mc_runs_and_is_reproducible(tmp_path):
    config = {
        "dgp": {"variant": "additive", "sigma_factors": [1.0, 1.0]},
        "dims": [6, 6],
        "replications": 8,
        "alpha": 0.05,
        "methods": ["wald-v1", "boot-symabs"],
        "bootstrap_b": 30,
        "estimator": "ratio",
        "seed": 5,
    }
    cfg = tmp_path / "mc.json"
    write_json(cfg, config)
    a = tmp_path / "ra"
    b = tmp_path / "rb"
    assert run(["mc", "--config", cfg, "--out", a]) == 0
    assert run(["mc", "--config", cfg, "--out", b, "--workers", "4"]) == 0
    assert read_bytes(str(a) + ".json") == read_bytes(str(b) + ".json")
    assert read_bytes(str(a) + ".csv") == read_bytes(str(b) + ".csv")
    doc = json.loads(read_bytes(str(a) + ".json"))
    assert doc["n_replications"] == 8
    assert {m["method"] for m in doc["methods"]} == {"wald-v1", "boot-symabs"}
    csv_lines = (tmp_path / "ra.csv").read_text().splitlines()
    assert csv_lines[0].startswith("method,coverage")


def test_mc_trivial_noiseless_covers(tmp_path):
    # zero factor noise but positive cell noise: theta_hat is near 0 and V1
    # is positive, so the Wald region covers in every replication
    config = {
        "dgp": {
            "variant": "additive",
            "sigma_factors": [0.0, 0.0],
            "sigma_cell": 1.0,
            "sigma_unit": 0.0,
        },
        "dims": [8, 8],
        "replications": 2,
        "methods": ["wald-v1"],
        "estimator": "ratio",
        "seed": 2,
    }
    cfg = tmp_path / "mc.json"
    write_json(cfg, config)
    out = tmp_path / "r"
    assert run(["mc", "--config", cfg, "--out", out]) == 0
    doc = json.loads(read_bytes(str(out) + ".json"))
    assert doc["methods"][0]["coverage"] == 1.0


def test_mc_config_error_names_field(tmp_path, capsys):
    cfg = tmp_path / "mc.json"
    write_json(cfg, {"dims": [4, 4], "replications": 2})
    assert run(["mc", "--config", cfg, "--out", tmp_path / "r"]) == 2
    assert "dgp" in capsys.readouterr().err


def test_seed_is_printed(tmp_path, capsys):
    simulate(tmp_path, seed=123)
    assert "seed: 123" in capsys.readouterr().err


NAN_OUTCOME = "1,1,1.0,0.5\n1,2,nan,1.0\n2,1,2.0,1.5\n2,2,4.0,3.0\n"
INF_REGRESSOR = "1,1,1.0,0.5\n1,2,0.0,inf\n2,1,1.0,1.5\n2,2,0.0,3.0\n"
NAN_IN_CELL_1_2 = "non-finite data: observation column 0 is nan in cell (1, 2)"
INF_IN_CELL_1_2 = "non-finite data: observation column 1 is inf in cell (1, 2)"

# case -> (rows, argv after the input and dims, the error); estimators.fit
# refuses the first non-finite value for every estimator, before any fitting
NON_FINITE = {
    "ols-inf-regressor": (
        INF_REGRESSOR, ["estimate", "--estimator", "ols", "--regressors", "1"], INF_IN_CELL_1_2
    ),
    "ratio-nan-outcome": (NAN_OUTCOME, ["estimate", "--estimator", "ratio"], NAN_IN_CELL_1_2),
    # a NaN would sort last and go unnoticed by the quantile
    "quantile-nan-outcome": (
        NAN_OUTCOME, ["estimate", "--estimator", "quantile"], NAN_IN_CELL_1_2
    ),
    # not "every bootstrap replicate failed" (exit 2)
    "bootstrap-ratio-nan-outcome": (
        NAN_OUTCOME, ["bootstrap", "--estimator", "ratio", "--b", "40"], NAN_IN_CELL_1_2
    ),
    # not an exhausted Gauss-Newton budget (exit 5)
    "gmm-probit-inf-regressor": (
        INF_REGRESSOR,
        ["estimate", "--estimator", "gmm", "--model-config", "{model}"],
        INF_IN_CELL_1_2,
    ),
}


@pytest.mark.parametrize("case", list(NON_FINITE))
def test_non_finite_input_exits_4_writing_nothing(case, tmp_path, capsys):
    rows, argv, message = NON_FINITE[case]
    data = tmp_path / "d.csv"
    data.write_text("dim1,dim2,y1,y2\n" + rows)
    model = tmp_path / "m.json"
    write_json(model, {"family": "probit", "outcome_index": 0, "x_index": 1})
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    command, *flags = [a.format(model=model) for a in argv]
    capsys.readouterr()
    assert run([command, "--input", data, "--dims", "2,2", *flags,
                "--out", out_dir / "e"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == f"error: {message}"
    assert not list(out_dir.iterdir())


def test_unknown_variance_kind_exits_2_naming_the_flag(tmp_path, capsys):
    data = simulate(tmp_path)
    capsys.readouterr()
    assert run(["estimate", "--input", data, "--dims", "5,5", "--variance", "v1,v3",
                "--out", tmp_path / "e.json"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: --variance: unknown kind 'v3'; expected v1, v2 or cgm"
    )
    assert not (tmp_path / "e.json").exists()


# case -> (file name, bytes, argv, the error's start); in the argv "{path}"
# stands for the file and "{data}" for a readable dataset
UNREADABLE = {
    "csv input": ("d.csv", b"dim1,dim2,y1\n1,1,\xff\xfe\n",
                  ["estimate", "--input", "{path}", "--dims", "2,2"],
                  "error: {path}: 'utf-8' codec"),
    "json input": ("d.json", b'{"dims": [2, 2], "units": "\xff"}',
                   ["bootstrap", "--input", "{path}", "--b", "40"],
                   "error: {path}: 'utf-8' codec"),
    "mc config": ("c.json", b'{"dims": "\xff"}', ["mc", "--config", "{path}"],
                  "error: config {path}: 'utf-8' codec"),
    "model config": ("m.json", b'{"family": "\xff"}',
                     ["estimate", "--input", "{data}", "--dims", "5,5", "--estimator", "gmm",
                      "--model-config", "{path}"],
                     "error: model config {path}: 'utf-8' codec"),
}


@pytest.mark.parametrize("case", list(UNREADABLE))
def test_non_utf8_file_exits_2_naming_it(case, tmp_path, capsys):
    name, content, argv, message = UNREADABLE[case]
    data = simulate(tmp_path)
    path = tmp_path / name
    path.write_bytes(content)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = [a.format(path=path, data=data) for a in argv]
    capsys.readouterr()
    assert run([*argv, "--out", out_dir / "result"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(message.format(path=path))
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("sizes", ["fixed:abc", "fixed:1.5", "fixed:", "poisson:x",
                                   "poisson:1:other", "poisson"])
def test_malformed_cell_sizes_exit_2_naming_the_flag(sizes, tmp_path, capsys):
    argv = ["simulate", "--dgp", "additive", "--dims", "3,3", "--seed", "1",
            "--cell-sizes", sizes, "--out", tmp_path / "d.csv"]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error: --cell-sizes: expected fixed:<n>")
    assert list(tmp_path.iterdir()) == []
