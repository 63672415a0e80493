"""Command-line interface: simulate, estimate, bootstrap, mc.

Every run prints its effective seed to stderr, and two runs with the
same flags and seed produce byte-identical primary outputs regardless of
the worker count. Exit codes: 0 success, 2 parse/config, 3 degenerate
design, 4 singular variance, 5 convergence failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .bootstrap import percentile_ci, run_bootstrap, symmetric_abs_ci
from .data import Dimensions
from .dataio import read_dataset, write_dataset_csv, write_json
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateDesignError,
    InsufficientReplicatesError,
    ModelError,
    MultiwayError,
    ParseError,
    SingularDesignError,
    SingularVarianceError,
    UnsupportedError,
)
from .estimators import EcdfSpec, Fitted, LinearModelSpec, fit
from .gmm import OptimizerConfig, probit_score_moments, quantile_iv_moments
from .simulation import CellSizeLaw, DgpSpec, McConfig, generate, run_coverage
from .variance import sigma_subset, vhat1, vhat_cgm, wald_region

# Unused here, but the benchmark's span tracer (perfbench/spans.py) replaces
# these names in this module's namespace, so they must stay importable from it.
from .data import cell_sums  # noqa: F401
from .estimators import mean_estimate, ols_fit, ratio_cell_sums, ratio_estimate  # noqa: F401
from .gmm import gmm_fit  # noqa: F401
from .variance import vhat2  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_SINGULAR = 4
EXIT_CONVERGENCE = 5

SCHEMA_VERSION = 1
WORKERS_ENV = "MULTIWAY_WORKERS"


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_cell_sizes(text: str) -> CellSizeLaw:
    parts = text.split(":")
    if parts[0] == "fixed" and len(parts) == 2:
        return CellSizeLaw(kind="fixed", n=int(parts[1]))
    if parts[0] == "poisson" and len(parts) in (2, 3):
        linked = len(parts) == 3 and parts[2] == "linked"
        return CellSizeLaw(kind="one_plus_poisson", mu=float(parts[1]), factor_linked=linked)
    raise ConfigError(
        f"cell sizes must be fixed:<n>, poisson:<mu> or poisson:<mu>:linked, got {text!r}"
    )


def _effective_seed(seed: int | None) -> int:
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2**63))
    print(f"seed: {seed}", file=sys.stderr)
    return int(seed)


def _workers(args) -> int:
    if getattr(args, "workers", None) is not None:
        return max(1, args.workers)
    return max(1, int(os.environ.get(WORKERS_ENV, "1")))


# ---------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------


def _dgp_from_args(args, k: int) -> DgpSpec:
    sigma_factors = (
        _parse_floats(args.sigma_factors) if args.sigma_factors else (1.0,) * k
    )
    return DgpSpec(
        variant=args.dgp,
        sigma_factors=sigma_factors,
        sigma_cell=args.sigma_cell,
        sigma_unit=args.sigma_unit,
        cell_sizes=_parse_cell_sizes(args.cell_sizes),
        beta=_parse_floats(args.beta),
        error_rho=_parse_floats(args.error_rho),
    )


def cmd_simulate(args) -> int:
    dims = Dimensions(_parse_ints(args.dims))
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


def _gmm_model_from_config(path):
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"model config: {exc}") from None
    family = doc.get("family")
    bounds = doc.get("bounds")
    try:
        if family == "quantile_iv":
            model = quantile_iv_moments(
                tau=doc["tau"],
                outcome_index=doc["outcome_index"],
                x_indices=doc["x_indices"],
                z_indices=doc["z_indices"],
                bounds=np.asarray(bounds) if bounds else None,
            )
        elif family == "probit":
            model = probit_score_moments(
                outcome_index=doc.get("outcome_index", 0),
                x_index=doc.get("x_index", 1),
                bounds=np.asarray(bounds) if bounds else None,
            )
        else:
            raise ConfigError(f"model config family: unknown {family!r}")
    except KeyError as exc:
        raise ConfigError(f"model config: missing field {exc}") from None
    opt = doc.get("optimizer", {})
    config = OptimizerConfig(
        n_starts=opt.get("n_starts", 5),
        max_evals=opt.get("max_evals", 10000),
        tol=opt.get("tol", 1e-9),
        seed=opt.get("seed", 0),
    )
    two_step = doc.get("xi", "identity") == "two_step"
    return model, config, two_step


def _gmm_options(args) -> dict:
    if not args.model_config:
        raise ConfigError("gmm estimation needs --model-config")
    model, config, two_step = _gmm_model_from_config(args.model_config)
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    return {"model": model, "config": config, "two_step": two_step}


# The flags each estimator reads, as estimators.fit options.
_FIT_OPTIONS = {
    "ols": lambda args: {
        "spec": LinearModelSpec(
            outcome_index=args.outcome,
            regressor_indices=_parse_ints(args.regressors) if args.regressors else (),
            intercept=args.intercept,
        )
    },
    "quantile": lambda args: {"spec": EcdfSpec(coordinate=args.coordinate), "tau": args.tau},
    "gmm": _gmm_options,
}


def _fit(args, sample) -> Fitted:
    options = _FIT_OPTIONS.get(args.estimator)
    return fit(args.estimator, sample, **(options(args) if options else {}))


def _load_input(args):
    dims = Dimensions(_parse_ints(args.dims)) if args.dims else None
    sample = read_dataset(args.input, dims)
    return sample


# ---------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------


def cmd_estimate(args) -> int:
    print(f"seed: {args.seed if args.seed is not None else 0}", file=sys.stderr)
    sample = _load_input(args)
    fitted = _fit(args, sample)
    if args.variance is None:
        args.variance = "" if fitted.kind == "quantile" else "v1"
    kinds = [k.strip() for k in args.variance.split(",")] if args.variance else []
    variances = {}
    regions = {}
    for vkind in kinds:
        est = fitted.variance(vkind, args.adjustment)
        variances[vkind] = est
        regions[vkind] = wald_region(fitted.theta, est, sample.dims, args.alpha)

    diagnostics = dict(fitted.meta)
    diagnostics["n_units"] = sample.n_units
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
        diagnostics["two_way_identity_residual"] = float(
            np.linalg.norm(v1m - cgm - correction)
            / max(np.linalg.norm(v1m), 1e-300)
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
    if args.b < 1.0 / args.alpha:
        raise InsufficientReplicatesError(
            f"b={args.b} cannot resolve alpha={args.alpha}; need b >= {1 / args.alpha:.0f}"
        )
    sample = _load_input(args)
    seed = _effective_seed(args.seed)
    args.seed = seed  # the GMM warm-start fit shares the printed seed
    fitted = _fit(args, sample)
    reps = run_bootstrap(
        fitted.hook, fitted.prepared, args.b, seed, n_workers=_workers(args)
    )
    out = Path(args.out)
    rep_path = out.parent / (out.name + ".replicates.csv")
    with open(rep_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["replicate"] + [f"theta_{r + 1}" for r in range(reps.n_params)])
        for idx, row in zip(reps.indices, reps.thetas):
            writer.writerow([int(idx)] + [repr(float(v)) for v in row])

    sym = symmetric_abs_ci(reps, args.alpha)
    per = percentile_ci(reps, args.alpha)
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


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"{path}{key}: missing")
    return doc[key]


def _mc_config_from_doc(doc: dict, workers: int) -> McConfig:
    dgp_doc = dict(_require(doc, "dgp", ""))
    sizes_doc = dgp_doc.pop("cell_sizes", None)
    cell_sizes = CellSizeLaw(**sizes_doc) if sizes_doc else CellSizeLaw()
    for key in ("sigma_factors", "beta", "error_rho"):
        if key in dgp_doc:
            dgp_doc[key] = tuple(dgp_doc[key])
    try:
        dgp = DgpSpec(cell_sizes=cell_sizes, **dgp_doc)
    except TypeError as exc:
        raise ConfigError(f"dgp: {exc}") from None
    return McConfig(
        dgp=dgp,
        dims=Dimensions(tuple(_require(doc, "dims", ""))),
        replications=_require(doc, "replications", ""),
        alpha=doc.get("alpha", 0.05),
        methods=tuple(doc.get("methods", ["wald-v1"])),
        bootstrap_b=doc.get("bootstrap_b", 0),
        estimator=doc.get("estimator", "ratio"),
        seed=doc.get("seed", 0),
        n_workers=workers,
        adjustment=doc.get("adjustment", "unit"),
    )


def cmd_mc(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: {exc}") from None
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


def _add_estimator_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--estimator",
        default="ratio",
        choices=["mean", "ratio", "ols", "quantile", "gmm"],
        help="estimator kind",
    )
    p.add_argument("--outcome", type=int, default=0, help="outcome coordinate (OLS)")
    p.add_argument("--regressors", default="", help="regressor coordinates, e.g. 1,2")
    p.add_argument(
        "--no-intercept", dest="intercept", action="store_false", help="drop the constant"
    )
    p.add_argument("--tau", type=float, default=0.5, help="quantile level")
    p.add_argument("--coordinate", type=int, default=0, help="coordinate for quantiles")
    p.add_argument("--model-config", default=None, help="JSON moment-model config (GMM)")


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
    p.add_argument("--input", required=True)
    p.add_argument("--dims", default=None, help="cluster counts for CSV inputs")
    p.add_argument("--seed", type=int, default=None, help="GMM multistart seed")
    _add_estimator_options(p)
    p.add_argument(
        "--variance",
        default=None,
        help="comma list from v1,v2,cgm (default v1; quantiles have none)",
    )
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--adjustment", default="unit", choices=["unit", "cgm"])
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bootstrap", help="pigeonhole bootstrap confidence intervals")
    p.add_argument("--input", required=True)
    p.add_argument("--dims", default=None)
    _add_estimator_options(p)
    p.add_argument("--b", type=int, required=True, help="bootstrap replicates")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", "-o", required=True, help="output base path")
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("mc", help="Monte Carlo coverage experiment")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", "-o", required=True, help="output base path")
    p.set_defaults(func=cmd_mc)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegenerateDesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (SingularVarianceError, SingularDesignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (
        ParseError,
        ConfigError,
        InsufficientReplicatesError,
        UnsupportedError,
        ModelError,
        MultiwayError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
