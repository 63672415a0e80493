"""CLI contract fuzz: ``main`` answers every documented flag and config
field, valid or not, with an exit code from the table in
``multiway.errors``.

Each example draws one argv for one command from its documented flags,
and for ``mc`` and ``--model-config`` one JSON document from the
documented fields. Values are valid ones mixed with edge values (0,
negative, 1.5, nan, inf, the empty string, unknown names) over tiny
fixture files (CSV, JSON, empty, binary, missing). Every run must:

- let no exception escape ``main`` except argparse's ``SystemExit(2)``;
- exit with 0, 2, 3, 4 or 5;
- print no traceback;
- leave no output file behind when it exits nonzero;
- when it exits 2, name what to fix in its last stderr line: a flag, a
  field of a config or dataset document, or a file the argv names.

The draws stay small: every lattice has at most 10^4 cells or more than
``MAX_CELLS`` (refused before allocation), worker counts are 1, 2 or
invalid, and ``--b``, ``bootstrap_b`` and ``replications`` are a few at
most. The examples are derandomized, so every run checks the same ones.
"""

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multiway.cli import main

EXIT_CODES = {0, 2, 3, 4, 5}
EDGE = ["0", "-1", "1.5", "nan", "inf", "", "unknown"]
# 20000 x 20000 is over MAX_CELLS; every other lattice drawn has at most 10^4 cells
BAD_DIMS = ["0,4", "-1,4", "1.5", "", "a", "20000,20000"]

FLAGS = {
    "--input", "--dims", "--seed", "--estimator", "--outcome", "--regressors", "--no-intercept",
    "--tau", "--coordinate", "--model-config", "--variance", "--alpha", "--adjustment", "--out",
    "--b", "--workers", "--config", "--dgp", "--sigma-factors", "--sigma-cell", "--sigma-unit",
    "--cell-sizes", "--beta", "--error-rho",
}
# The fields of the model, mc and dataset documents; "config" for the whole
# document; and the names the library gives the parameters behind flags
# (``b`` for --b, ``regressor_indices`` for --regressors, ...).
# A nested field is named by its dotted path, so only the top-level names
# are listed.
FIELDS = {
    "family", "outcome_index", "x_index", "tau", "x_indices", "z_indices", "bounds", "xi",
    "optimizer", "seed", "dgp", "variant", "sigma_factors", "sigma_cell", "sigma_unit",
    "cell_sizes", "beta", "error_rho", "dims", "replications", "alpha", "methods",
    "bootstrap_b", "estimator", "adjustment", "units", "config",
    "b", "regressor_indices", "coordinate", "variance", "MULTIWAY_WORKERS",
}


def names_what_to_fix(line: str, argv) -> bool:
    """Whether an error line names a flag anywhere, a file of ``argv``
    anywhere, or a field in its subject (the text before the first ": ")."""
    message = line.split("error: ", 1)[-1]
    if FLAGS & set(re.findall(r"--[a-z-]+", message)):
        return True
    if any(str(a) in message for a in argv if isinstance(a, Path)):
        return True
    subject, colon, _ = message.partition(": ")
    return bool(colon) and bool(FIELDS & set(re.split(r"[\s.,]+", subject)))


FUZZ = settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Fixture inputs by name; "missing.csv" and "missing.json" do not exist."""
    root = tmp_path_factory.mktemp("fuzz")
    probit = root / "probit.csv"
    argv = ["simulate", "--dgp", "probit", "--dims", "4,4", "--seed", "1", "-o", probit]
    assert main([str(a) for a in argv]) == 0
    rows = [line.split(",") for line in probit.read_text().splitlines()[1:]]
    units = [{"cell": [int(a), int(b)], "y": [float(y), float(x)]} for a, b, y, x in rows]
    (root / "probit.json").write_text(json.dumps({"dims": [4, 4], "units": units}))
    one_way = root / "one_way.csv"
    argv = ["simulate", "--dgp", "additive", "--dims", "3,1", "--seed", "2", "-o", one_way]
    assert main([str(a) for a in argv]) == 0
    (root / "non_finite.csv").write_text(
        "dim1,dim2,y1,y2\n1,1,1.0,0.5\n1,2,nan,1.0\n2,1,2.0,inf\n2,2,4.0,3.0\n"
    )
    (root / "empty.csv").write_text("")
    (root / "empty.json").write_text("")
    (root / "binary.csv").write_bytes(b"dim1,dim2,y1\n1,1,\xff\xfe\x00\x81\n")
    (root / "binary.json").write_bytes(b'{"dims": [2, 2], "units": "\xff\xfe"}')
    (root / "not_an_object.json").write_text("[1, 2]")
    return root


def run(argv, out_dir: Path) -> int:
    """Exit code of one ``main`` run, checked against the contract."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = main([str(a) for a in argv])
            except SystemExit as exc:  # argparse refusing a flag
                assert exc.code == 2
                code = 2
    text = err.getvalue()
    assert "Traceback" not in text, text
    assert code in EXIT_CODES, (code, text)
    if code == 2:
        assert names_what_to_fix(text.splitlines()[-1], argv), text
    if code != 0:
        assert not list(out_dir.iterdir()), (code, text)
    return code


def pick(valid, edge):
    """One of ``valid``, or one time in five one of ``edge``, so that most
    examples get past the first refusal."""
    return st.integers(0, 4).flatmap(lambda i: st.sampled_from(edge if i == 0 else valid))


def flag(name, *valid, edge=EDGE):
    """Half the time no ``name`` flag, otherwise the flag with a :func:`pick` value."""
    return st.one_of(st.just([]), pick(valid, edge).map(lambda v: [name, v]))


def argv_of(*parts):
    return st.tuples(*parts).map(lambda lists: [a for part in lists for a in part])


JSON_EDGE = [0, -1, 1.5, float("nan"), float("inf"), "", "unknown", True, None, [], {}]


def json_value(*valid):
    """A :func:`pick` of a valid value of a JSON field and an edge value of
    any JSON type."""
    return pick(valid, JSON_EDGE)


def document(fields: dict, required=()):
    """A JSON object holding the ``required`` and some other of ``fields``
    (name -> value strategy)."""
    return st.fixed_dictionaries(
        {name: fields[name] for name in required},
        optional={name: value for name, value in fields.items() if name not in required},
    )


# (--input, --dims): a dataset with its cluster counts, or a bad file or bad counts
INPUTS = pick(
    [("probit.csv", "4,4"), ("probit.json", None), ("one_way.csv", "3,1"),
     ("non_finite.csv", "2,2")],
    [*[(name, "4,4") for name in ("empty.csv", "empty.json", "binary.csv", "binary.json",
                                  "not_an_object.json", "missing.csv")],
     *[("probit.csv", dims) for dims in ["2,2", "2,2,2", "4", None, *BAD_DIMS]]],
)

ESTIMATOR_FLAGS = [
    flag("--estimator", "mean", "ratio", "ols", "quantile", "gmm"),
    flag("--outcome", "0", "1", "5"),
    flag("--regressors", "1", "0", "0,1", "1,1", "5"),
    st.sampled_from([[], ["--no-intercept"]]),
    flag("--tau", "0.5", "0.25"),
    flag("--coordinate", "0", "1", "5"),
]

# The values of each model-config key, and the keys each family reads beside
# family, bounds, xi and optimizer. A document holds only the keys of its
# family (of every family for an unknown one), as a key that its family does
# not read exits 2.
MODEL_VALUES = {
    "outcome_index": json_value(0, 1, 5),
    "x_index": json_value(0, 1, 5),
    "tau": json_value(0.5, 0.25),
    "x_indices": json_value([1], [0, 1], [5], ["1"], [-1]),
    "z_indices": json_value([1], [0, 1], [5], [1.5]),
    "bounds": json_value([[-5, 5], [-5, 5]], [[-10, 10]], [[1, 2], [3]], [[5, -5]], [["a", 1]]),
    "xi": json_value("identity", "two_step"),
    "optimizer": json_value({"n_starts": 2, "max_evals": 500}, {"seed": -1}, {"tol": -1.0},
                            {"max_evals": 0}, {"n_starts": 0}, {"tol": "x"}),
}
FAMILY_KEYS = {
    "probit": ["outcome_index", "x_index"],
    "quantile_iv": ["tau", "outcome_index", "x_indices", "z_indices"],
}
SHARED_KEYS = ["bounds", "xi", "optimizer"]


def model_config(family):
    """A document of ``family`` with some of its keys; ``family in list(...)``
    as an edge family may be an unhashable array or object."""
    keys = [*FAMILY_KEYS[family], *SHARED_KEYS] if family in list(FAMILY_KEYS) else MODEL_VALUES
    return document({key: MODEL_VALUES[key] for key in keys}).map(
        lambda doc: {"family": family, **doc}
    )


# A probit document known to fit the probit fixtures, drawn beside the
# generated ones so that gmm examples can exit 0 and write their outputs. Few
# derandomized draws pair it with the probit data and valid flags, so
# test_valid_probit_document_fits also runs it on probit.csv for both commands.
VALID_PROBIT = {"family": "probit", "outcome_index": 0, "x_index": 1}
MODEL_CONFIG = json_value("probit", "quantile_iv").flatmap(model_config)
MODEL_FILES = st.sampled_from(["missing.json", "binary.json", "empty.json", "not_an_object.json"])
# --model-config: the valid probit document or a generated one, or one time
# in five a bad file
MODELS = pick([st.just(VALID_PROBIT), MODEL_CONFIG], [MODEL_FILES]).flatmap(
    lambda strategy: strategy
)


@FUZZ
@given(
    dataset=INPUTS,
    flags=argv_of(
        *ESTIMATOR_FLAGS,
        flag("--seed", "1"),
        flag("--variance", "v1", "v2", "cgm", "v1,v2,cgm", "v3"),
        flag("--alpha", "0.05", "0.2"),
        flag("--adjustment", "unit", "cgm"),
    ),
    model=MODELS,
)
def test_estimate_contract(files, dataset, flags, model):
    check_command("estimate", files, dataset, flags, model, out_name="e.json")


@FUZZ
@given(
    dataset=INPUTS,
    flags=argv_of(
        *ESTIMATOR_FLAGS,
        flag("--b", "5", "10", edge=["0", "-1", "1", "1.5", ""]),
        flag("--alpha", "0.5", "0.2"),
        flag("--seed", "1"),
        flag("--workers", "1", "2"),
    ),
    model=MODELS,
)
def test_bootstrap_contract(files, dataset, flags, model):
    flags = [*flags, *([] if "--b" in flags else ["--b", "5"])]
    flags = [*flags, *([] if "--alpha" in flags else ["--alpha", "0.5"])]
    check_command("bootstrap", files, dataset, flags, model, out_name="boot")


@pytest.mark.parametrize(
    "command,extra,outputs",
    [
        ("estimate", [], ["r"]),
        ("bootstrap", ["--b", "5", "--alpha", "0.5"], ["r.ci.json", "r.replicates.csv"]),
    ],
)
def test_valid_probit_document_fits(files, command, extra, outputs):
    """The exit-0 side of the gmm contract: the valid probit document on
    probit.csv fits and writes every output of the command."""
    with tempfile.TemporaryDirectory(dir=files) as work:
        work = Path(work)
        (work / "model.json").write_text(json.dumps(VALID_PROBIT))
        out_dir = work / "out"
        out_dir.mkdir()
        argv = [command, "--input", files / "probit.csv", "--dims", "4,4", "--estimator", "gmm",
                "--model-config", work / "model.json", *extra, "--out", out_dir / "r"]
        assert run(argv, out_dir) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == outputs


def check_command(command, files, dataset, flags, model, out_name):
    dataset, dims = dataset
    with tempfile.TemporaryDirectory(dir=files) as work:
        work = Path(work)
        if isinstance(model, dict):
            (work / "model.json").write_text(json.dumps(model))
            model_path = work / "model.json"
        else:
            model_path = files / model
        out_dir = work / "out"
        out_dir.mkdir()
        argv = [command, "--input", files / dataset, *flags, "--out", out_dir / out_name]
        if dims is not None:
            argv += ["--dims", dims]
        if "gmm" in flags:
            argv += ["--model-config", model_path]
        run(argv, out_dir)


@FUZZ
@given(
    argv=argv_of(
        pick(
            [("additive", "4,4"), ("additive", "4"), ("additive", "3,1"),
             ("additive3", "2,2,2"), ("product", "4,4"), ("probit", "4,4")],
            [*[("additive", dims) for dims in BAD_DIMS],
             ("additive3", "4,4"), ("product", "4"), ("probit", "2,2,2"),
             *[(dgp, "4,4") for dgp in EDGE]],
        ).map(lambda dgp_dims: ["--dgp", dgp_dims[0], "--dims", dgp_dims[1]]),
        flag("--seed", "1", "0"),
        flag("--sigma-factors", "1,1", "1", "1,1,1", "0,0", "-1,1", "nan,1"),
        flag("--sigma-cell", "1", "0.5"),
        flag("--sigma-unit", "1", "0.5"),
        flag("--cell-sizes", "fixed:1", "fixed:2", "fixed:0", "poisson:1", "poisson:0",
             "poisson:1.5:linked",
             edge=["fixed:-1", "fixed:1.5", "fixed:abc", "fixed:", "fixed:1:2",
                   "fixed:1000000000000", "poisson:-1", "poisson:nan", "poisson:inf",
                   "poisson:1e30", "poisson:1:other", "poisson", *EDGE]),
        flag("--beta", "0,1", "1", "1,2,3", "nan,1"),
        flag("--error-rho", "0.25,0.25", "0.5,0.6", "-0.5,0.2", "nan,0.1", "0.1"),
    ),
)
def test_simulate_contract(files, argv):
    with tempfile.TemporaryDirectory(dir=files) as work:
        out_dir = Path(work)
        run(["simulate", *argv, "--out", out_dir / "d.csv"], out_dir)


MC_CONFIG = document({
    "dgp": document({
        "variant": json_value("additive", "product", "probit"),
        "sigma_factors": json_value([1.0, 1.0], [1.0], [-1.0, 1.0], ["a", 1]),
        "sigma_cell": json_value(1.0, 0.5),
        "sigma_unit": json_value(1.0, 0.5),
        "cell_sizes": document({
            "kind": json_value("fixed", "one_plus_poisson"),
            "n": json_value(1, 2, 2.5),
            "mu": json_value(1.0, 0.5),
            "factor_linked": json_value(True, False),
        }),
        "beta": json_value([0.0, 1.0], [1.0]),
        "error_rho": json_value([0.25, 0.25], [0.5, 0.6], [-0.5, 0.2]),
    }),
    "dims": pick([[4, 4], [3, 3]], [[2, 2, 2], [3], [0, 3], ["a", 3], [{}, 3], [20000, 20000],
                                    *JSON_EDGE]),
    "replications": json_value(1, 2),
    "alpha": json_value(0.05, 0.5),
    "methods": json_value(["wald-v1"], ["wald-v2", "wald-cgm"], ["boot-symabs"],
                          ["boot-percentile", "wald-v1"], ["unknown"], [{}]),
    "bootstrap_b": json_value(4, 10),
    "estimator": json_value("mean", "ratio", "median", "probit"),
    "seed": json_value(0, 7),
    "adjustment": json_value("unit", "cgm"),
}, required=("dgp", "dims", "replications"))


@FUZZ
@given(
    config=pick([MC_CONFIG], [MODEL_FILES]).flatmap(lambda strategy: strategy),
    workers=flag("--workers", "1", "2", edge=["0", "-1", "1.5", "", "unknown"]),
)
def test_mc_contract(files, config, workers):
    with tempfile.TemporaryDirectory(dir=files) as work:
        work = Path(work)
        config_path = files / config if isinstance(config, str) else work / "mc.json"
        if isinstance(config, dict):
            config_path.write_text(json.dumps(config))
        out_dir = work / "out"
        out_dir.mkdir()
        run(["mc", "--config", config_path, *workers, "--out", out_dir / "report"], out_dir)
