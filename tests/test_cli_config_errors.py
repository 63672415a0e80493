"""Malformed config documents and settings exit 2 with a message naming the field;
each config key sets the dataclass field of its name, whose default it takes."""

import inspect
import json
from dataclasses import fields

import pytest

from multiway import cli
from multiway.cli import main
from multiway.dataio import write_json
from multiway.gmm import OptimizerConfig
from multiway.simulation import CellSizeLaw, DgpSpec, McConfig

MC_BASE = {
    "dgp": {"variant": "additive"},
    "dims": [4, 4],
    "replications": 2,
    "methods": ["wald-v1"],
    "estimator": "ratio",
}
PROBIT = {"family": "probit", "outcome_index": 0, "x_index": 1}
QUANTILE_IV = {
    "family": "quantile_iv", "tau": 0.5, "outcome_index": 0, "x_indices": [1], "z_indices": [1]
}


def mc_case(**changes):
    doc = {**MC_BASE, **changes}
    return "mc", {key: value for key, value in doc.items() if value is not None}


def dgp_case(**changes):
    return mc_case(dgp={**MC_BASE["dgp"], **changes})


# case -> (command, config document, environment, the field stderr must name);
# for the "estimate" command the second entry is the estimator flags instead,
# and for "simulate" the DGP flags
CASES = {
    "model config array": ("gmm", [PROBIT], {}, "model config"),
    "optimizer not an object": ("gmm", {**PROBIT, "optimizer": [1]}, {}, "optimizer"),
    "optimizer field type": (
        "gmm", {**PROBIT, "optimizer": {"n_starts": "5"}}, {}, "optimizer.n_starts"
    ),
    "tau string": ("gmm", {**QUANTILE_IV, "tau": "x"}, {}, "tau"),
    "x_indices number": ("gmm", {**QUANTILE_IV, "x_indices": 1}, {}, "x_indices"),
    "z_indices entry string": ("gmm", {**QUANTILE_IV, "z_indices": ["1"]}, {}, "z_indices"),
    "outcome_index string": ("gmm", {**PROBIT, "outcome_index": "a"}, {}, "outcome_index"),
    "x_index number": ("gmm", {**PROBIT, "x_index": 1.5}, {}, "x_index"),
    "x_index negative": ("gmm", {**PROBIT, "x_index": -1}, {}, "x_index"),
    "x_index out of range": ("gmm", {**PROBIT, "x_index": 7}, {}, "x_index"),
    "z_indices entry negative": ("gmm", {**QUANTILE_IV, "z_indices": [-1]}, {}, "z_indices"),
    "probit outcome not binary": (
        "gmm", {**PROBIT, "outcome_index": 1, "x_index": 0}, {}, "outcome must be binary"
    ),
    "ols outcome negative": (
        "estimate", ["--estimator", "ols", "--outcome", "-1", "--regressors", "1"], {},
        "outcome_index",
    ),
    "ols regressor out of range": (
        "estimate", ["--estimator", "ols", "--regressors", "5"], {}, "regressor_indices"
    ),
    "quantile coordinate negative": (
        "estimate", ["--estimator", "quantile", "--coordinate", "-1"], {}, "coordinate"
    ),
    "bounds string": ("gmm", {**PROBIT, "bounds": "wide"}, {}, "bounds"),
    "unknown xi": ("gmm", {**PROBIT, "xi": "twostep"}, {}, "xi"),
    "mc config array": ("mc", [MC_BASE], {}, "config"),
    "dgp not an object": (*mc_case(dgp=["additive"]), {}, "dgp"),
    "unknown cell_sizes key": (
        *dgp_case(cell_sizes={"kind": "fixed", "size": 3}), {}, "dgp.cell_sizes"
    ),
    "cell_sizes not an object": (*dgp_case(cell_sizes=[1]), {}, "dgp.cell_sizes"),
    "sigma_factors number": (*dgp_case(sigma_factors=1.0), {}, "dgp.sigma_factors"),
    "dims number": (*mc_case(dims=4), {}, "dims"),
    "dims entry object": (*mc_case(dims=[{}, 3]), {}, "dims"),
    "dims entry string": (*mc_case(dims=["a", 3]), {}, "dims"),
    "cell_sizes.n fraction": (*dgp_case(cell_sizes={"kind": "fixed", "n": 2.5}), {},
                              "dgp.cell_sizes.n"),
    "ragged bounds": ("gmm", {**PROBIT, "bounds": [[1, 2], [3]]}, {}, "bounds"),
    "replications string": (*mc_case(replications="2"), {}, "replications"),
    "replications boolean": (*mc_case(replications=True), {}, "replications"),
    "methods string": (*mc_case(methods="wald-v1"), {}, "methods: expected a JSON array"),
    "alpha string": (*mc_case(alpha="0.05"), {}, "alpha"),
    "bootstrap_b string": (
        *mc_case(methods=["boot-symabs"], bootstrap_b="40"), {}, "bootstrap_b"
    ),
    "seed string": (*mc_case(seed="7"), {}, "seed"),
    "unknown adjustment": (*mc_case(adjustment="foo"), {}, "adjustment:"),
    "unknown adjustment with wald-cgm": (
        *mc_case(methods=["wald-cgm"], adjustment="foo"), {}, "adjustment:"
    ),
    "workers environment": ("mc", MC_BASE, {"MULTIWAY_WORKERS": "abc"}, "MULTIWAY_WORKERS"),
    "factor_linked string": (
        *dgp_case(cell_sizes={"kind": "one_plus_poisson", "mu": 1.0, "factor_linked": "no"}),
        {}, "dgp.cell_sizes.factor_linked: expected a boolean",
    ),
    "misspelt config key": (*mc_case(adjustmnet="cgm"), {}, "config: unknown key 'adjustmnet'"),
    "misspelt dgp key": (
        *dgp_case(sigma_factor=[1.0, 1.0]), {}, "dgp: unknown key 'sigma_factor'"
    ),
    "misspelt cell_sizes key": (
        *dgp_case(cell_sizes={"knd": "fixed"}), {}, "dgp.cell_sizes: unknown key 'knd'"
    ),
    "misspelt optimizer key": (
        "gmm", {**PROBIT, "optimizer": {"n_start": 3}}, {}, "optimizer: unknown key 'n_start'"
    ),
    "optimizer seed": (
        "gmm", {**PROBIT, "optimizer": {"seed": 3}}, {}, "optimizer: unknown key 'seed'"
    ),
    "misspelt model config key": (
        "gmm", {**PROBIT, "outcome_idx": 1}, {}, "model config: unknown key 'outcome_idx'"
    ),
    "probit with tau": ("gmm", {**PROBIT, "tau": 0.5}, {}, "model config: unknown key 'tau'"),
    "quantile_iv with x_index": (
        "gmm", {**QUANTILE_IV, "x_index": 1}, {}, "model config: unknown key 'x_index'"
    ),
    "quantile_iv without tau": (
        "gmm", {key: v for key, v in QUANTILE_IV.items() if key != "tau"}, {}, "tau: missing"
    ),
    "optimizer n_starts zero": (
        "gmm", {**PROBIT, "optimizer": {"n_starts": 0}}, {}, "optimizer.n_starts"
    ),
    "optimizer n_starts negative": (
        "gmm", {**PROBIT, "optimizer": {"n_starts": -2}}, {}, "optimizer.n_starts"
    ),
    "optimizer max_evals zero": (
        "gmm", {**PROBIT, "optimizer": {"max_evals": 0}}, {}, "optimizer.max_evals"
    ),
    "optimizer max_evals negative": (
        "gmm", {**PROBIT, "optimizer": {"max_evals": -5}}, {}, "optimizer.max_evals"
    ),
    "optimizer tol negative": ("gmm", {**PROBIT, "optimizer": {"tol": -1.0}}, {}, "optimizer.tol"),
    "optimizer tol NaN": (
        "gmm", {**PROBIT, "optimizer": {"tol": float("nan")}}, {}, "optimizer.tol"
    ),
    "optimizer tol infinite": (
        "gmm", {**QUANTILE_IV, "optimizer": {"tol": float("inf")}}, {}, "optimizer.tol"
    ),
    "dgp sigma_cell infinite": (*dgp_case(sigma_cell=float("inf")), {}, "sigma_cell"),
    "dgp sigma_unit infinite": (*dgp_case(sigma_unit=float("inf")), {}, "sigma_unit"),
    "dgp sigma_factors entry infinite": (
        *dgp_case(sigma_factors=[1.0, float("inf")]), {}, "sigma_factors"
    ),
    "dgp beta entry NaN": (
        *dgp_case(variant="probit", beta=[float("nan"), 1.0]), {}, "beta"
    ),
    "dgp beta three entries, additive": (*dgp_case(beta=[1.0, 2.0, 3.0]), {}, "beta"),
    "simulate beta NaN": ("simulate", ["--dgp", "probit", "--beta", "nan,1"], {}, "beta"),
    "simulate error_rho NaN, additive": (
        "simulate", ["--dgp", "additive", "--error-rho", "nan,0"], {}, "error_rho"
    ),
    "simulate beta overflows": (
        "simulate", ["--dgp", "probit", "--beta", "0,1e400"], {}, "beta"
    ),
    "simulate sigma_cell infinite": (
        "simulate", ["--dgp", "additive", "--sigma-cell", "inf"], {}, "sigma_cell"
    ),
    "simulate sigma_factors infinite": (
        "simulate", ["--dgp", "additive", "--sigma-factors", "1,inf"], {}, "sigma_factors"
    ),
}


@pytest.fixture(scope="module")
def probit_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "p.csv"
    argv = ["simulate", "--dgp", "probit", "--dims", "4,4", "--seed", "1", "-o", str(out)]
    assert main(argv) == 0
    return out


@pytest.mark.parametrize("case", list(CASES))
def test_malformed_config_exits_2_naming_the_field(
    case, probit_csv, tmp_path, monkeypatch, capsys
):
    command, doc, env, field = CASES[case]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    config = tmp_path / "config.json"
    write_json(config, doc)
    if command == "mc":
        argv = ["mc", "--config", config, "--out", tmp_path / "r"]
    elif command == "simulate":
        argv = ["simulate", "--dims", "4,4", "--seed", "1", *doc, "--out", tmp_path / "s.csv"]
    else:
        flags = ["--estimator", "gmm", "--model-config", config] if command == "gmm" else doc
        argv = ["estimate", "--input", probit_csv, "--dims", "4,4", *flags,
                "--out", tmp_path / "e.json"]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert message.startswith("error: ")
    assert field in message


@pytest.mark.parametrize("alpha", ["0", "1", "1.5", "-0.1", "nan"])
@pytest.mark.parametrize("command", ["estimate", "bootstrap"])
def test_alpha_outside_the_unit_interval_exits_2_writing_nothing(
    command, alpha, probit_csv, tmp_path, capsys
):
    argv = [command, "--input", probit_csv, "--dims", "4,4", "--alpha", alpha,
            "--out", tmp_path / "out"]
    if command == "bootstrap":
        argv += ["--b", "200", "--seed", "1"]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("error: alpha:")
    assert list(tmp_path.iterdir()) == []


def field_names(cls) -> set:
    return {f.name for f in fields(cls)}


def test_config_tables_name_exactly_the_dataclass_fields():
    assert set(cli._MC_FIELDS) == field_names(McConfig) - {"n_workers"}
    assert set(cli._DGP_FIELDS) == field_names(DgpSpec)
    assert set(cli._CELL_SIZE_FIELDS) == field_names(CellSizeLaw)
    # the multistart seed is --seed; the grid knobs are not part of the config
    assert set(cli._OPTIMIZER_FIELDS) == {"n_starts", "max_evals", "tol"}
    assert set(cli._OPTIMIZER_FIELDS) < field_names(OptimizerConfig)
    # each family's keys are its moment function's arguments but the shared bounds
    for moments, kinds in cli._MODEL_FAMILIES.values():
        assert set(kinds) == set(inspect.signature(moments).parameters) - {"bounds"}


def test_mc_without_sigma_factors_takes_one_per_dimension(tmp_path, capsys):
    config = tmp_path / "config.json"
    write_json(config, {**MC_BASE, "dgp": {"variant": "additive3"}, "dims": [3, 3, 3]})
    assert main(["mc", "--config", str(config), "--out", str(tmp_path / "r")]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["config"]["dgp"]["sigma_factors"] == [1.0, 1.0, 1.0]
    assert report["config"]["dims"] == [3, 3, 3]


@pytest.mark.parametrize("seed", [None, 9])
def test_estimate_prints_the_multistart_seed_it_uses(seed, probit_csv, tmp_path, monkeypatch,
                                                     capsys):
    used, real_fit = [], cli.fit

    def recording_fit(kind, sample, **options):
        used.append(options["config"].seed)
        return real_fit(kind, sample, **options)

    monkeypatch.setattr(cli, "fit", recording_fit)
    config = tmp_path / "model.json"
    write_json(config, PROBIT)
    argv = ["estimate", "--input", probit_csv, "--dims", "4,4", "--estimator", "gmm",
            "--model-config", config, "--out", tmp_path / "e.json"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 0
    assert capsys.readouterr().err.splitlines()[0] == f"seed: {used[0]}"
    assert used == [seed or 0]


# The estimator flags each estimator reads, written here rather than taken from
# cli so that the tests check its table; in bootstrap, --seed is the command's
# own flag, read for every estimator. MODEL stands for a file holding PROBIT.
MODEL = "<probit model config>"
READS = {
    "mean": [], "ratio": [], "ols": ["--outcome", "--regressors", "--no-intercept"],
    "quantile": ["--tau", "--coordinate"], "gmm": ["--model-config", "--seed"],
}
FLAG_ARGV = {
    "--outcome": ["--outcome", "1"], "--regressors": ["--regressors", "0"],
    "--no-intercept": ["--no-intercept"], "--tau": ["--tau", "0.25"],
    "--coordinate": ["--coordinate", "1"], "--model-config": ["--model-config", MODEL],
    "--seed": ["--seed", "3"],
}
BOOTSTRAP_EXTRA = ["--b", "40", "--seed", "1", "--workers", "2"]


def own_flags(command, estimator) -> list:
    """The argv of every estimator flag that ``estimator`` reads in ``command``."""
    reads = READS[estimator]
    if command == "bootstrap":
        reads = [name for name in reads if name != "--seed"]
    return [a for name in reads for a in FLAG_ARGV[name]]


# argv after the input (command, estimator flags) -> the flags the error must name
FOREIGN_FLAGS = [
    (["estimate", "--estimator", "ratio", "--tau", "7", "--coordinate", "9", "--regressors", "5",
      "--model-config", "nonexist.json"],
     ["--regressors", "--tau", "--coordinate", "--model-config"]),
    (["bootstrap", "--estimator", "mean", "--tau", "2", "--workers", "-3", "--b", "40"], ["--tau"]),
    (["estimate", "--estimator", "ratio", "--tau", "7"], ["--tau"]),
    (["estimate", "--tau", "0.5"], ["--tau"]),
    (["estimate", "--estimator", "quantile", "--no-intercept"], ["--no-intercept"]),
    (["estimate", "--estimator", "ols", "--outcome", "1", "--coordinate", "1"], ["--coordinate"]),
    (["bootstrap", "--estimator", "gmm", "--model-config", "m.json", "--outcome", "1",
      "--b", "40"], ["--outcome"]),
    (["estimate", "--estimator", "mean", "--seed", "3"], ["--seed"]),
    # every (estimator, flag it does not read) pair of both commands, beside
    # the flags the estimator does read
    *[([command, "--estimator", estimator, *own_flags(command, estimator), *FLAG_ARGV[name],
        *(BOOTSTRAP_EXTRA if command == "bootstrap" else [])], [name])
      for command in ("estimate", "bootstrap") for estimator in READS for name in FLAG_ARGV
      if name not in READS[estimator] and not (command == "bootstrap" and name == "--seed")],
]


@pytest.fixture(scope="module")
def probit_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "probit.json"
    write_json(path, PROBIT)
    return path


@pytest.mark.parametrize("argv,named", FOREIGN_FLAGS, ids=lambda v: " ".join(v))
def test_a_flag_the_estimator_does_not_read_exits_2_naming_it(
    argv, named, probit_csv, probit_model, tmp_path, capsys
):
    command, *flags = [probit_model if a == MODEL else a for a in argv]
    argv = [command, "--input", probit_csv, "--dims", "4,4", *flags, "--out", tmp_path / "out"]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    estimator = flags[flags.index("--estimator") + 1] if "--estimator" in flags else "ratio"
    assert err.splitlines()[-1] == (
        f"error: {', '.join(named)}: not read by --estimator {estimator}"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["estimate", "bootstrap"])
def test_the_flags_each_estimator_reads_are_accepted(command, probit_csv, probit_model, tmp_path):
    extra = BOOTSTRAP_EXTRA if command == "bootstrap" else []
    for i, estimator in enumerate(READS):
        flags = ["--estimator", estimator, *own_flags(command, estimator)]
        flags = [probit_model if a == MODEL else a for a in flags]
        argv = [command, "--input", probit_csv, "--dims", "4,4", *flags, *extra,
                "--out", tmp_path / f"out{i}"]
        assert main([str(a) for a in argv]) == 0, flags


def test_dims_contradicting_a_json_dataset_exit_2_naming_dims(tmp_path, capsys):
    data = tmp_path / "s.json"
    write_json(data, {"dims": [6, 6], "units": [{"cell": [1, 1], "y": [1.0]},
                                                {"cell": [6, 6], "y": [2.0]}]})
    argv = ["estimate", "--input", str(data), "--out", str(tmp_path / "e.json")]
    assert main([*argv, "--dims", "6,6"]) == 0
    capsys.readouterr()
    assert main([*argv, "--dims", "3,3"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: --dims: 3,3 contradicts the dims [6, 6] of {data}"
    )
