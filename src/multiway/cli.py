"""Command-line interface: simulate, estimate, bootstrap, mc.

Every run prints its effective seed to stderr, and two runs with the
same flags and seed produce byte-identical primary outputs regardless of
the worker count. A run exits 0 on success; an error of the package
exits with its ``exit_code`` from the one table in :mod:`multiway.errors`
(2 input or config, 3 degenerate design, 4 singular variance or design,
5 convergence failure), and an ``OSError`` on a named path exits 2. Any
other exception is a bug and exits with its traceback.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .bootstrap import min_replicates, percentile_ci, run_bootstrap, symmetric_abs_ci
from .data import Dimensions, check_dense_lattice, crossprod
from .dataio import SCHEMA_VERSION, read_dataset, write_dataset_csv, write_json
from .errors import ConfigError, InsufficientReplicatesError, MultiwayError
from .estimators import EcdfSpec, Fitted, LinearModelSpec, cell_columns, fit
from .gmm import OptimizerConfig, probit_score_moments, quantile_iv_moments
from .seeding import check_seed
from .simulation import CellSizeLaw, DgpSpec, McConfig, generate, run_coverage
from .variance import ADJUSTMENTS, check_alpha, sigma_subset, vhat1, vhat_cgm, wald_region

# Unused here, but the benchmark's span tracer (perfbench/spans.py) replaces
# these names in this module's namespace, so they must stay importable from it.
from .data import cell_sums  # noqa: F401
from .estimators import mean_estimate, ols_fit, ratio_cell_sums, ratio_estimate  # noqa: F401
from .gmm import gmm_fit  # noqa: F401
from .variance import vhat2  # noqa: F401

EXIT_OK = 0

WORKERS_ENV = "MULTIWAY_WORKERS"


def _parse_list(text: str, kind: type, flag: str) -> tuple:
    """The comma-separated ``kind`` values (int or float) of ``flag``'s ``text``."""
    try:
        return tuple(kind(v) for v in text.split(","))
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise ConfigError(f"{flag}: expected comma-separated {what}, got {text!r}") from None


def _parse_cell_sizes(text: str) -> CellSizeLaw:
    kind, _, rest = text.partition(":")
    number = rest.partition(":")[0]
    try:
        if kind == "fixed" and rest == number:
            law = {"kind": "fixed", "n": int(number)}
        elif kind == "poisson" and rest in (number, number + ":linked"):
            linked = rest != number
            law = {"kind": "one_plus_poisson", "mu": float(number), "factor_linked": linked}
        else:
            law = None
    except ValueError:
        law = None
    if law is None:
        raise ConfigError(
            "--cell-sizes: expected fixed:<n>, poisson:<mu> or poisson:<mu>:linked, "
            f"got {text!r}"
        )
    return CellSizeLaw(**law)


def _effective_seed(seed: int | None) -> int:
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2**63))
    check_seed(seed)
    print(f"seed: {seed}", file=sys.stderr)
    return int(seed)


def _workers(args) -> int:
    source, raw = "--workers", getattr(args, "workers", None)
    if raw is None:
        source, raw = WORKERS_ENV, os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"{source}: expected an integer, got {raw!r}") from None
    if workers < 1:
        raise ConfigError(f"{source}: need at least 1 worker process, got {workers}")
    return workers


_JSON_KINDS = {int: "an integer", float: "a number", str: "a string", bool: "a boolean",
               list: "a JSON array", dict: "a JSON object"}


def _expect(value, kind: type, path: str):
    """``value`` if it has the JSON type ``kind`` (float admits integers,
    only bool admits booleans); otherwise a ConfigError naming ``path``."""
    types = (int, float) if kind is float else kind
    if not isinstance(value, types) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{path}: expected {_JSON_KINDS[kind]}, got {type(value).__name__}")
    return value


def _expect_array(value, kind: type, path: str) -> list:
    """``value`` if it is a JSON array of ``kind`` entries; otherwise a
    ConfigError naming ``path``."""
    for item in _expect(value, list, path):
        _expect(item, kind, f"{path} entry")
    return value


def _fields(doc, path: str, kinds: dict, required=()) -> dict:
    """The keyword arguments that the JSON object ``doc`` (named ``path``,
    "config" or "model config" for a whole document) sets. ``kinds`` maps
    each known key to its JSON kind, ``[kind]`` for an array, which
    becomes a tuple; a key left out takes the default of the dataclass or
    function the arguments go to."""
    prefix = "" if path.endswith("config") else f"{path}."
    out = {}
    for key, value in _expect(doc, dict, path).items():
        kind = kinds.get(key)
        if kind is None:
            raise ConfigError(f"{path}: unknown key {key!r}; known keys: {', '.join(kinds)}")
        if isinstance(kind, list):
            out[key] = tuple(_expect_array(value, kind[0], prefix + key))
        else:
            out[key] = _expect(value, kind, prefix + key)
    for key in required:
        if key not in out:
            raise ConfigError(f"{prefix}{key}: missing")
    return out


def _read_config(path, what: str) -> dict:
    """The JSON object in the file ``path``; ``what`` names it in errors."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{what} {path}: {exc}") from None
    return _expect(doc, dict, what)


# ---------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------


def _dgp_spec(k: int, sigma_factors=None, **fields) -> DgpSpec:
    """A DgpSpec whose sigma_factors default to 1.0 in each of the ``k`` dimensions."""
    return DgpSpec(sigma_factors=(1.0,) * k if sigma_factors is None else sigma_factors, **fields)


def _dgp_from_args(args, k: int) -> DgpSpec:
    sigma_factors = None
    if args.sigma_factors:
        sigma_factors = _parse_list(args.sigma_factors, float, "--sigma-factors")
    return _dgp_spec(
        k,
        sigma_factors=sigma_factors,
        variant=args.dgp,
        sigma_cell=args.sigma_cell,
        sigma_unit=args.sigma_unit,
        cell_sizes=_parse_cell_sizes(args.cell_sizes),
        beta=_parse_list(args.beta, float, "--beta"),
        error_rho=_parse_list(args.error_rho, float, "--error-rho"),
    )


def cmd_simulate(args) -> int:
    dims = Dimensions(_parse_list(args.dims, int, "--dims"))
    seed = _effective_seed(args.seed)
    dgp = _dgp_from_args(args, dims.k)
    sample, theta0 = generate(dgp, dims, seed)
    out = Path(args.out)
    write_dataset_csv(out, sample)
    write_json(
        out.with_suffix(".truth.json"),
        {
            "schema_version": SCHEMA_VERSION,
            "theta0": theta0.tolist(),
            "dims": list(dims.counts),
            "n_units": sample.n_units,
            "seed": seed,
            "dgp": asdict(dgp),
        },
    )
    return EXIT_OK


# ---------------------------------------------------------------------
# estimator dispatch shared by estimate and bootstrap
# ---------------------------------------------------------------------


# The JSON kind of each key of a model config's optimizer, by OptimizerConfig field.
_OPTIMIZER_FIELDS = {"n_starts": int, "max_evals": int, "tol": float}
# Each family's moment function and the JSON kind of each key that sets one of
# its arguments; a key is required where the argument has no default.
_MODEL_FAMILIES = {
    "probit": (probit_score_moments, {"outcome_index": int, "x_index": int}),
    "quantile_iv": (
        quantile_iv_moments,
        {"tau": float, "outcome_index": int, "x_indices": [int], "z_indices": [int]},
    ),
}
# The keys every family reads.
_MODEL_FIELDS = {"family": str, "bounds": list, "xi": str, "optimizer": dict}


def _gmm_model_from_config(path):
    doc = _read_config(path, "model config")
    family = doc.get("family")
    if not isinstance(family, str) or family not in _MODEL_FAMILIES:
        raise ConfigError(f"model config family: unknown {family!r}")
    moments, kinds = _MODEL_FAMILIES[family]
    params = inspect.signature(moments).parameters
    required = [key for key in kinds if params[key].default is params[key].empty]
    fields = _fields(doc, "model config", {**kinds, **_MODEL_FIELDS}, required)
    del fields["family"]
    optimizer = _fields(fields.pop("optimizer", {}), "optimizer", _OPTIMIZER_FIELDS)
    xi = fields.pop("xi", "identity")
    if xi not in ("identity", "two_step"):
        raise ConfigError(f'xi: expected "identity" or "two_step", got {xi!r}')
    bounds = fields.pop("bounds", None) or None  # [] or no key: the model's default box
    return moments(bounds=bounds, **fields), optimizer, xi == "two_step"


def _gmm_options(args) -> dict:
    if not args.model_config:
        raise ConfigError("gmm estimation needs --model-config")
    model, optimizer, two_step = _gmm_model_from_config(args.model_config)
    config = OptimizerConfig(seed=args.seed, **optimizer)  # --seed is the multistart seed
    return {"model": model, "config": config, "two_step": two_step}


# Each estimator flag: the estimators that read it, its default, and its
# argparse settings, whose default of None tells a flag given from one left
# out. In `bootstrap`, --seed is the bootstrap's own seed for every estimator.
_ESTIMATOR_FLAGS = {
    "--outcome": (("ols",), 0, {"type": int, "help": "outcome coordinate (OLS)"}),
    "--regressors": (("ols",), "", {"help": "regressor coordinates, e.g. 1,2"}),
    "--no-intercept": (("ols",), False, {"action": "store_true", "default": None,
                                         "help": "drop the constant (OLS)"}),
    "--tau": (("quantile",), 0.5, {"type": float, "help": "quantile level"}),
    "--coordinate": (("quantile",), 0, {"type": int, "help": "coordinate for quantiles"}),
    "--model-config": (("gmm",), None, {"help": "JSON moment-model config (GMM)"}),
    "--seed": (("gmm",), 0, {"type": int, "help": "GMM multistart seed (default 0)"}),
}
# Each estimator's builder of estimators.fit options from its flags.
_FIT_OPTIONS = {
    "mean": lambda args: {},
    "ratio": lambda args: {},
    "ols": lambda args: {
        "spec": LinearModelSpec(
            outcome_index=args.outcome,
            regressor_indices=(
                _parse_list(args.regressors, int, "--regressors") if args.regressors else ()
            ),
            intercept=not args.no_intercept,
        )
    },
    "quantile": lambda args: {"spec": EcdfSpec(coordinate=args.coordinate), "tau": args.tau},
    "gmm": _gmm_options,
}


def _estimator_flags(args, own=()) -> None:
    """Give each estimator flag left out its default; a flag that
    ``--estimator`` does not read is a ConfigError naming it. ``own`` are
    the flags the command reads itself."""
    foreign = []
    for flag, (readers, default, _) in _ESTIMATOR_FLAGS.items():
        if flag in own:
            continue
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif args.estimator not in readers:
            foreign.append(flag)
    if foreign:
        raise ConfigError(f"{', '.join(foreign)}: not read by --estimator {args.estimator}")


def _fit(args, sample, command: str) -> Fitted:
    """Fit ``--estimator``; first refuse, before any per-cell array of the fit
    is allocated, a lattice on which it would keep more than the
    dense-lattice byte budget (``command`` "bootstrap" counts the hook's
    arrays too)."""
    options = _FIT_OPTIONS[args.estimator](args)
    columns = cell_columns(
        args.estimator, sample.obs_dim, command == "bootstrap",
        options.get("spec"), options.get("model"),
    )
    check_dense_lattice(sample.dims, columns, f"{command} --estimator {args.estimator}")
    return fit(args.estimator, sample, **options)


def _load_input(args):
    dims = Dimensions(_parse_list(args.dims, int, "--dims")) if args.dims else None
    sample = read_dataset(args.input, dims)
    if dims is not None and sample.dims != dims:
        raise ConfigError(
            f"--dims: {args.dims} contradicts the dims {list(sample.dims.counts)} of {args.input}"
        )
    return sample


# ---------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------


def _variance_kinds(text: str) -> list[str]:
    """The kinds of a ``--variance`` list; an unknown one is a ConfigError."""
    kinds = [k.strip() for k in text.split(",")] if text else []
    unknown = [k for k in kinds if k not in ("v1", "v2", "cgm")]
    if unknown:
        raise ConfigError(f"--variance: unknown kind {unknown[0]!r}; expected v1, v2 or cgm")
    return kinds


def _frobenius(matrix: np.ndarray) -> float:
    entries = matrix.reshape(-1)
    return math.sqrt(crossprod(entries, entries))


def cmd_estimate(args) -> int:
    _estimator_flags(args)
    check_alpha(args.alpha)
    kinds = None if args.variance is None else _variance_kinds(args.variance)
    print(f"seed: {args.seed}", file=sys.stderr)
    sample = _load_input(args)
    fitted = _fit(args, sample, "estimate")
    if kinds is None:
        kinds = ["v1"] if fitted.has_variance else []
    variances = {}
    regions = {}
    for vkind in kinds:
        est = fitted.variance(vkind, args.adjustment)
        variances[vkind] = est
        regions[vkind] = wald_region(fitted.theta, est, sample.dims, args.alpha)

    diagnostics = {k: v for k, v in fitted.meta.items() if isinstance(v, (int, float))}
    if (
        sample.dims.k == 2
        and args.adjustment == "unit"
        and {"v1", "cgm"} <= set(kinds)
        and fitted.scores is not None
    ):
        # two-way identity on the score scale:
        # vhat1 = vhat_cgm + c_min/pi_c^2 * sum_j D_j D_j'
        v1m = vhat1(fitted.scores).matrix
        cgm = vhat_cgm(fitted.scores).matrix
        correction = sample.dims.c_min * sigma_subset(fitted.scores, (0, 1))
        diagnostics["two_way_identity_residual"] = _frobenius(v1m - cgm - correction) / max(
            _frobenius(v1m), 1e-300
        )

    payload = {
        "schema_version": SCHEMA_VERSION,
        "estimator": fitted.kind,
        "theta": fitted.theta.tolist(),
        "alpha": args.alpha,
        "variance": {k: v.to_json_dict() for k, v in variances.items()},
        "wald": {k: r.to_json_dict() for k, r in regions.items()},
        "diagnostics": diagnostics,
    }
    write_json(args.out, payload)
    return EXIT_OK


# ---------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------


def cmd_bootstrap(args) -> int:
    _estimator_flags(args, own=("--seed",))
    need = min_replicates("percentile", args.alpha)
    if args.b < need:
        raise InsufficientReplicatesError(
            f"--b: {args.b} replicates cannot resolve --alpha {args.alpha}; need at least {need}"
        )
    sample = _load_input(args)
    seed = _effective_seed(args.seed)
    args.seed = seed  # the GMM warm-start fit shares the printed seed
    fitted = _fit(args, sample, "bootstrap")
    reps = run_bootstrap(fitted.hook, fitted.prepared, fitted.theta, args.b, seed)
    sym = symmetric_abs_ci(reps, args.alpha)
    per = percentile_ci(reps, args.alpha)
    out = Path(args.out)
    rep_path = out.parent / (out.name + ".replicates.csv")
    with open(rep_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["replicate"] + [f"theta_{r + 1}" for r in range(reps.n_params)])
        for idx, row in zip(reps.indices, reps.thetas):
            writer.writerow([int(idx)] + [repr(float(v)) for v in row])

    write_json(
        out.parent / (out.name + ".ci.json"),
        {
            "schema_version": SCHEMA_VERSION,
            "estimator": fitted.kind,
            "theta": fitted.theta.tolist(),
            "alpha": args.alpha,
            "b": args.b,
            "n_failed": reps.n_failed,
            "seed": seed,
            "symmetric_abs": sym.to_json_dict(),
            "percentile": per.to_json_dict(),
        },
    )
    return EXIT_OK


# ---------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------


# The JSON kind of each key of an mc config, its dgp and its cell sizes, by the
# McConfig, DgpSpec and CellSizeLaw field it sets (n_workers comes from --workers).
_MC_FIELDS = {"dgp": dict, "dims": [int], "replications": int, "alpha": float, "methods": [str],
              "bootstrap_b": int, "estimator": str, "seed": int, "adjustment": str}
_DGP_FIELDS = {"variant": str, "sigma_factors": [float], "sigma_cell": float,
               "sigma_unit": float, "cell_sizes": dict, "beta": [float], "error_rho": [float]}
_CELL_SIZE_FIELDS = {"kind": str, "n": int, "mu": float, "factor_linked": bool}


def _mc_config_from_doc(doc: dict, workers: int) -> McConfig:
    config = _fields(doc, "config", _MC_FIELDS, required=("dgp", "dims", "replications"))
    dims = Dimensions(config.pop("dims"))
    dgp = _fields(config.pop("dgp"), "dgp", _DGP_FIELDS)
    sizes = _fields(dgp.pop("cell_sizes", {}), "dgp.cell_sizes", _CELL_SIZE_FIELDS)
    dgp = _dgp_spec(dims.k, cell_sizes=CellSizeLaw(**sizes), **dgp)
    return McConfig(dgp=dgp, dims=dims, n_workers=workers, **config)


def cmd_mc(args) -> int:
    doc = _read_config(args.config, "config")
    config = _mc_config_from_doc(doc, _workers(args))
    print(f"seed: {config.seed}", file=sys.stderr)
    total = config.replications
    step = max(1, total // 20)

    def progress(done):
        if done % step == 0 or done == total:
            print(f"replication {done}/{total}", file=sys.stderr)

    report = run_coverage(config, progress=progress)
    out = Path(args.out)
    write_json(out.parent / (out.name + ".json"), report.to_json_dict())
    with open(out.parent / (out.name + ".csv"), "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(report.csv_rows())
    return EXIT_OK


# ---------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------


def _add_estimation_flags(p: argparse.ArgumentParser, own=()) -> None:
    """The flags that estimate and bootstrap share; ``own`` as in :func:`_estimator_flags`."""
    p.add_argument("--input", required=True)
    p.add_argument("--dims", help="cluster counts for CSV inputs")
    p.add_argument("--estimator", default="ratio", choices=list(_FIT_OPTIONS),
                   help="estimator kind")
    for flag, (_, _, settings) in _ESTIMATOR_FLAGS.items():
        if flag not in own:
            p.add_argument(flag, **settings)
    p.add_argument("--alpha", type=float, default=0.05)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiway",
        description="Cluster-robust inference under multiway clustering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--dgp", required=True, choices=["additive", "additive3", "product", "probit"])
    p.add_argument("--dims", required=True, help="cluster counts, e.g. 5,5")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--sigma-factors", default=None, help="per-dimension factor SDs")
    p.add_argument("--sigma-cell", type=float, default=1.0)
    p.add_argument("--sigma-unit", type=float, default=1.0)
    p.add_argument("--cell-sizes", default="fixed:1", help="fixed:<n> or poisson:<mu>[:linked]")
    p.add_argument("--beta", default="0,1", help="probit coefficients")
    p.add_argument("--error-rho", default="0.25,0.25", help="probit error factor shares")
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="point estimate with analytic variances")
    _add_estimation_flags(p)
    p.add_argument(
        "--variance",
        default=None,
        help="comma list from v1,v2,cgm (default v1 where the fit has an analytic "
        "variance; quantiles and nonsmooth GMM models have none)",
    )
    p.add_argument("--adjustment", default="unit", choices=ADJUSTMENTS)
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bootstrap", help="pigeonhole bootstrap confidence intervals")
    _add_estimation_flags(p, own=("--seed",))
    p.add_argument("--b", type=int, required=True, help="bootstrap replicates")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None, help="ignored; replicates run serially")
    p.add_argument("--out", "-o", required=True, help="output base path")
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("mc", help="Monte Carlo coverage experiment")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument(
        "--workers", type=int, default=None, help=f"processes (default ${WORKERS_ENV} or 1)"
    )
    p.add_argument("--out", "-o", required=True, help="output base path")
    p.set_defaults(func=cmd_mc)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MultiwayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a path the user named: an input error
        print(f"error: {exc}", file=sys.stderr)
        return MultiwayError.exit_code


if __name__ == "__main__":
    sys.exit(main())
