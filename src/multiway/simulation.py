"""Data-generating processes on exchangeable arrays and a coverage harness.

All generators build the array from independent per-margin factors plus
cell- and unit-level noise, so separate exchangeability and the
independence of cells sharing no cluster hold by construction. The
harness repeatedly generates data, forms the requested confidence
regions, and reports empirical coverage against the known truth.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np
from scipy import special

from .bootstrap import percentile_ci, run_bootstrap, symmetric_abs_ci
from .data import ClusteredSample, Dimensions
from .errors import ConfigError, MultiwayError, UnsupportedError
from .estimators import EcdfSpec, fit
from .gmm import probit_score_moments
from .seeding import TAG_BOOT, TAG_DATA, derive_seed
from .variance import vhat1, wald_region

# Unused here, but the benchmark's span tracer (perfbench/spans.py) replaces
# these names in this module's namespace, so they must stay importable from it.
from .data import cell_sums  # noqa: F401
from .estimators import mean_estimate, ratio_cell_sums, ratio_estimate  # noqa: F401
from .gmm import gmm_fit  # noqa: F401
from .variance import vhat2, vhat_cgm  # noqa: F401

__all__ = [
    "CellSizeLaw",
    "DgpSpec",
    "McConfig",
    "McReport",
    "MethodReport",
    "analytic_asymptotic_variance",
    "generate",
    "run_coverage",
    "true_theta",
]

VARIANTS = ("additive", "additive3", "product", "probit")
METHODS = ("wald-v1", "wald-v2", "wald-cgm", "boot-symabs", "boot-percentile")
# Each harness estimator as the estimators.fit call it makes.
_FIT_ARGS = {
    "mean": ("mean", {}),
    "ratio": ("ratio", {}),
    "median": ("quantile", {"spec": EcdfSpec(0), "tau": 0.5}),
    "probit": ("gmm", {"model": probit_score_moments(0, 1)}),
}
ESTIMATORS = tuple(_FIT_ARGS)


@dataclass(frozen=True)
class CellSizeLaw:
    """Fixed(n) cell sizes, or N_j = 1 + Poisson(mu), optionally with the
    Poisson rate tied to the first margin factor (cluster heterogeneity)."""

    kind: str = "fixed"
    n: int = 1
    mu: float = 0.0
    factor_linked: bool = False

    def __post_init__(self):
        if self.kind not in ("fixed", "one_plus_poisson"):
            raise ConfigError(f"cell_sizes.kind: unknown law {self.kind!r}")
        if self.kind == "fixed" and self.n < 0:
            raise ConfigError("cell_sizes.n must be >= 0")
        if self.mu < 0:
            raise ConfigError("cell_sizes.mu must be >= 0")


@dataclass(frozen=True)
class DgpSpec:
    """Which generator to run and its parameters.

    additive / additive3: unit values are the sum of one normal factor per
    dimension (sd sigma_factors[i]), a cell shock (sd sigma_cell) and a
    unit shock (sd sigma_unit). product: two-way degenerate design whose
    cell value is the product of centered uniform margin factors plus a
    cell shock; its asymptotic variance is exactly zero. probit: latent
    index beta0 + beta1 X + e with X and e both additive in margin
    factors, Var(e) = 1, outcome 1{index > 0}.
    """

    variant: str = "additive"
    sigma_factors: tuple[float, ...] = (1.0, 1.0)
    sigma_cell: float = 1.0
    sigma_unit: float = 1.0
    cell_sizes: CellSizeLaw = field(default_factory=CellSizeLaw)
    beta: tuple[float, float] = (0.0, 1.0)
    error_rho: tuple[float, float] = (0.25, 0.25)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant: unknown DGP {self.variant!r}")
        object.__setattr__(
            self, "sigma_factors", tuple(float(s) for s in self.sigma_factors)
        )
        if any(s < 0 for s in self.sigma_factors) or min(self.sigma_cell, self.sigma_unit) < 0:
            raise ConfigError("standard deviations must be >= 0")
        if self.variant == "probit" and sum(self.error_rho) >= 1.0:
            raise ConfigError("error_rho shares must sum to < 1")


def _check_dims(dgp: DgpSpec, dims: Dimensions) -> None:
    if dgp.variant in ("product", "probit") and dims.k != 2:
        raise ValueError(f"{dgp.variant} DGP requires two-way dims, got k={dims.k}")
    if dgp.variant == "additive3" and dims.k != 3:
        raise ValueError(f"additive3 DGP requires three-way dims, got k={dims.k}")
    if dgp.variant in ("additive", "additive3") and len(dgp.sigma_factors) != dims.k:
        raise ValueError(
            f"need {dims.k} factor standard deviations, got {len(dgp.sigma_factors)}"
        )


def _factor_grid(factors: Sequence[np.ndarray], dims: Dimensions) -> np.ndarray:
    """Broadcast per-dimension factor vectors to a flat per-cell sum."""
    total = np.zeros(dims.counts)
    for i, f in enumerate(factors):
        shape = [1] * dims.k
        shape[i] = dims.counts[i]
        total = total + f.reshape(shape)
    return total.reshape(-1)


def _draw_sizes(dgp: DgpSpec, dims: Dimensions, factor0: np.ndarray, rng) -> np.ndarray:
    law = dgp.cell_sizes
    if law.kind == "fixed":
        return np.full(dims.pi_c, law.n, dtype=np.int64)
    if law.factor_linked:
        shape = [1] * dims.k
        shape[0] = dims.counts[0]
        lam = law.mu * special.expit(
            np.broadcast_to(factor0.reshape(shape), dims.counts).reshape(-1)
        )
    else:
        lam = np.full(dims.pi_c, law.mu)
    return 1 + rng.poisson(lam)


def _sample_from_cells(dims, sizes, unit_values, obs) -> ClusteredSample:
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    values = np.column_stack(obs) if isinstance(obs, tuple) else unit_values[:, None]
    return ClusteredSample(dims, values, offsets)


def generate(dgp: DgpSpec, dims: Dimensions, seed: int) -> tuple[ClusteredSample, np.ndarray]:
    """Draw one sample; returns it with the variant's natural true parameter
    (the per-unit mean for additive/product, beta for probit).

    The draw order (per-dimension factors, cell shocks, cell sizes, unit
    shocks) is fixed, so a seed fully determines the sample.
    """
    _check_dims(dgp, dims)
    rng = np.random.default_rng(int(seed))

    if dgp.variant in ("additive", "additive3"):
        factors = [
            rng.normal(0.0, s, c) for s, c in zip(dgp.sigma_factors, dims.counts)
        ]
        base = _factor_grid(factors, dims) + rng.normal(0.0, dgp.sigma_cell, dims.pi_c)
        sizes = _draw_sizes(dgp, dims, factors[0], rng)
        total = int(sizes.sum())
        unit_values = np.repeat(base, sizes) + rng.normal(0.0, dgp.sigma_unit, total)
        sample = _sample_from_cells(dims, sizes, unit_values, None)
        return sample, np.array([_per_unit_mean(dgp)])

    if dgp.variant == "product":
        u = rng.uniform(size=dims.counts[0]) - 0.5
        v = rng.uniform(size=dims.counts[1]) - 0.5
        base = np.outer(u, v).reshape(-1) + rng.normal(0.0, dgp.sigma_cell, dims.pi_c)
        sizes = np.ones(dims.pi_c, dtype=np.int64)
        sample = _sample_from_cells(dims, sizes, base, None)
        return sample, np.array([0.0])

    # probit
    xf = [rng.normal(0.0, s, c) for s, c in zip(dgp.sigma_factors, dims.counts)]
    rho1, rho2 = dgp.error_rho
    ef = [
        rng.normal(0.0, math.sqrt(rho1), dims.counts[0]),
        rng.normal(0.0, math.sqrt(rho2), dims.counts[1]),
    ]
    x_base = _factor_grid(xf, dims)
    e_base = _factor_grid(ef, dims)
    sizes = _draw_sizes(dgp, dims, xf[0], rng)
    total = int(sizes.sum())
    x = np.repeat(x_base, sizes) + rng.normal(0.0, dgp.sigma_unit, total)
    e = np.repeat(e_base, sizes) + rng.normal(
        0.0, math.sqrt(1.0 - rho1 - rho2), total
    )
    y = (dgp.beta[0] + dgp.beta[1] * x + e > 0).astype(np.float64)
    sample = _sample_from_cells(dims, sizes, None, (y, x))
    return sample, np.asarray(dgp.beta, dtype=np.float64)


def _per_unit_mean(dgp: DgpSpec) -> float:
    """E(sum_l Y_l) / E(N) for the additive variants.

    Zero unless cell sizes are linked to the first factor, in which case
    the size-biased mean is a one-dimensional Gaussian integral.
    """
    law = dgp.cell_sizes
    if law.kind == "fixed" or not law.factor_linked:
        return 0.0
    s = dgp.sigma_factors[0]
    if s == 0 or law.mu == 0:
        return 0.0

    from scipy import integrate  # deferred: slow to import, needed only here

    def phi(a):
        return math.exp(-0.5 * (a / s) ** 2) / (s * math.sqrt(2 * math.pi))

    i0, _ = integrate.quad(lambda a: special.expit(a) * phi(a), -np.inf, np.inf)
    i1, _ = integrate.quad(lambda a: special.expit(a) * a * phi(a), -np.inf, np.inf)
    return law.mu * i1 / (1.0 + law.mu * i0)


def _mean_cell_size(dgp: DgpSpec) -> float:
    law = dgp.cell_sizes
    if law.kind == "fixed":
        return float(law.n)
    if not law.factor_linked:
        return 1.0 + law.mu
    s = dgp.sigma_factors[0]
    if s == 0:
        return 1.0 + law.mu * 0.5

    from scipy import integrate  # deferred: slow to import, needed only here

    def phi(a):
        return math.exp(-0.5 * (a / s) ** 2) / (s * math.sqrt(2 * math.pi))

    i0, _ = integrate.quad(lambda a: special.expit(a) * phi(a), -np.inf, np.inf)
    return 1.0 + law.mu * i0


def true_theta(dgp: DgpSpec, estimator: str) -> np.ndarray:
    """The estimand each harness estimator targets under the DGP."""
    if estimator == "probit":
        if dgp.variant != "probit":
            raise UnsupportedError("probit estimator needs the probit DGP")
        return np.asarray(dgp.beta, dtype=np.float64)
    if dgp.variant == "probit":
        raise UnsupportedError(f"{estimator} estimator undefined for the probit DGP")
    if dgp.variant == "product":
        return np.array([0.0])
    mu = _per_unit_mean(dgp)
    if estimator == "mean":
        return np.array([mu * _mean_cell_size(dgp)])
    if estimator == "ratio":
        return np.array([mu])
    if estimator == "median":
        if dgp.cell_sizes.factor_linked:
            raise UnsupportedError(
                "no closed-form median under factor-linked cell sizes"
            )
        return np.array([0.0])
    raise ConfigError(f"estimator: unknown kind {estimator!r}")


def analytic_asymptotic_variance(dgp: DgpSpec, dims: Dimensions) -> np.ndarray:
    """Closed-form sum_i (c_min/C_i) Cov(S_1, S_2_i) for additive DGPs with
    fixed cell sizes: Cov across cells sharing only cluster i is n^2 sigma_i^2."""
    if dgp.variant not in ("additive", "additive3"):
        raise UnsupportedError(f"no closed form for the {dgp.variant} DGP")
    if dgp.cell_sizes.kind != "fixed":
        raise UnsupportedError("closed form needs Fixed(n) cell sizes")
    _check_dims(dgp, dims)
    n = dgp.cell_sizes.n
    lam = dims.lambda_hats()
    value = float(sum(l * n**2 * s**2 for l, s in zip(lam, dgp.sigma_factors)))
    return np.array([[value]])


# ---------------------------------------------------------------------
# Coverage harness
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class McConfig:
    dgp: DgpSpec
    dims: Dimensions
    replications: int
    alpha: float = 0.05
    methods: tuple[str, ...] = ("wald-v1",)
    bootstrap_b: int = 0
    estimator: str = "ratio"
    seed: int = 0
    n_workers: int = 1
    adjustment: str = "unit"

    def __post_init__(self):
        if self.replications < 1:
            raise ConfigError("replications: must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha: must be in (0, 1)")
        object.__setattr__(self, "methods", tuple(self.methods))
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"methods: unknown method {m!r}")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"estimator: unknown kind {self.estimator!r}")
        needs_boot = any(m.startswith("boot") for m in self.methods)
        if needs_boot and self.bootstrap_b < 1.0 / self.alpha:
            raise ConfigError(
                f"bootstrap_b: need at least {math.ceil(1 / self.alpha)} replicates "
                f"for alpha={self.alpha}"
            )
        if self.estimator == "median" and any(
            m.startswith("wald") for m in self.methods
        ):
            raise ConfigError(
                "methods: quantiles have no analytic variance; "
                "use the bootstrap methods"
            )
        # fail early on estimator/DGP mismatches
        true_theta(self.dgp, self.estimator)


@dataclass(frozen=True)
class MethodReport:
    method: str
    coverage: float
    mc_se: float
    rejection_rate: float
    avg_length: float
    n_used: int
    n_failed: int

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class McReport:
    methods: tuple[MethodReport, ...]
    n_replications: int
    theta_mc_sd: list[float]
    mean_boot_se: list[float] | None
    near_zero_variance_count: int
    config_echo: dict

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "n_replications": self.n_replications,
            "theta_mc_sd": self.theta_mc_sd,
            "mean_boot_se": self.mean_boot_se,
            "near_zero_variance_count": self.near_zero_variance_count,
            "methods": [m.to_json_dict() for m in self.methods],
            "config": self.config_echo,
        }

    def csv_rows(self) -> list[list]:
        header = [
            "method",
            "coverage",
            "mc_se",
            "rejection_rate",
            "avg_length",
            "n_used",
            "n_failed",
        ]
        rows = [header]
        for m in self.methods:
            rows.append(
                [
                    m.method,
                    f"{m.coverage:.6f}",
                    f"{m.mc_se:.6f}",
                    f"{m.rejection_rate:.6f}",
                    f"{m.avg_length:.6g}",
                    m.n_used,
                    m.n_failed,
                ]
            )
        return rows


def _interval_length(intervals: np.ndarray) -> float:
    widths = intervals[:, 1] - intervals[:, 0]
    return float(widths.mean())


def _one_replication(config: McConfig, r: int) -> dict:
    theta0 = true_theta(config.dgp, config.estimator)
    sample, _ = generate(config.dgp, config.dims, derive_seed(config.seed, r, TAG_DATA))
    out: dict = {"covered": {}, "length": {}, "failed": {}}
    kind, options = _FIT_ARGS[config.estimator]
    try:
        fitted = fit(kind, sample, **options)
    except MultiwayError:
        for m in config.methods:
            out["failed"][m] = True
        out["theta"] = None
        return out
    theta, scores = fitted.theta, fitted.scores
    out["theta"] = theta.tolist()

    if scores is not None:
        v1 = vhat1(scores).matrix
        baseline = (
            config.dims.k
            * config.dims.c_min
            / config.dims.pi_c**2
            * float((scores.values**2).sum())
        )
        out["near_zero_variance"] = bool(np.trace(v1) <= 4.0 * baseline)

    for method in config.methods:
        if not method.startswith("wald"):
            continue
        try:
            v = fitted.variance(method.split("-", 1)[1], config.adjustment)
            region = wald_region(theta, v, config.dims, config.alpha)
        except MultiwayError:
            out["failed"][method] = True
            continue
        out["covered"][method] = bool(region.contains(theta0))
        out["length"][method] = _interval_length(region.intervals)

    if any(m.startswith("boot") for m in config.methods):
        try:
            reps = run_bootstrap(
                fitted.hook,
                fitted.prepared,
                config.bootstrap_b,
                derive_seed(config.seed, r, TAG_BOOT),
            )
            out["boot_se"] = reps.thetas.std(axis=0, ddof=1).tolist()
            if "boot-symabs" in config.methods:
                region = symmetric_abs_ci(reps, config.alpha)
                out["covered"]["boot-symabs"] = bool(region.contains(theta0))
                out["length"]["boot-symabs"] = 2.0 * region.radius
            if "boot-percentile" in config.methods:
                region = percentile_ci(reps, config.alpha)
                out["covered"]["boot-percentile"] = bool(region.contains(theta0))
                out["length"]["boot-percentile"] = _interval_length(region.intervals)
        except MultiwayError:
            for m in config.methods:
                if m.startswith("boot"):
                    out["failed"][m] = True
    return out


def run_coverage(config: McConfig, progress=None) -> McReport:
    """Run the full experiment; deterministic given (config, seed).

    Replications are independent streams of (seed, index), so any worker
    count produces the same report. ``progress`` (a callable taking the
    finished count) receives updates.
    """
    r_total = config.replications
    if config.n_workers > 1:
        with ProcessPoolExecutor(max_workers=config.n_workers) as pool:
            chunk = max(1, r_total // (config.n_workers * 8))
            results = []
            for i, res in enumerate(
                pool.map(_one_replication, [config] * r_total, range(r_total), chunksize=chunk)
            ):
                results.append(res)
                if progress:
                    progress(i + 1)
    else:
        results = []
        for r in range(r_total):
            results.append(_one_replication(config, r))
            if progress:
                progress(r + 1)

    methods = []
    for m in config.methods:
        covered = [res["covered"][m] for res in results if m in res["covered"]]
        lengths = [res["length"][m] for res in results if m in res["length"]]
        n_failed = sum(1 for res in results if res["failed"].get(m))
        n_used = len(covered)
        cov = float(np.mean(covered)) if covered else float("nan")
        mc_se = (
            math.sqrt(cov * (1 - cov) / n_used) if n_used and np.isfinite(cov) else float("nan")
        )
        methods.append(
            MethodReport(
                method=m,
                coverage=cov,
                mc_se=mc_se,
                rejection_rate=1.0 - cov if np.isfinite(cov) else float("nan"),
                avg_length=float(np.mean(lengths)) if lengths else float("nan"),
                n_used=n_used,
                n_failed=n_failed,
            )
        )

    thetas = np.array([res["theta"] for res in results if res["theta"] is not None])
    boot_ses = [res["boot_se"] for res in results if "boot_se" in res]
    return McReport(
        methods=tuple(methods),
        n_replications=r_total,
        theta_mc_sd=thetas.std(axis=0, ddof=1).tolist() if len(thetas) > 1 else [],
        mean_boot_se=np.mean(boot_ses, axis=0).tolist() if boot_ses else None,
        near_zero_variance_count=sum(
            1 for res in results if res.get("near_zero_variance")
        ),
        config_echo=_config_echo(config),
    )


def _config_echo(config: McConfig) -> dict:
    return {
        "dgp": asdict(config.dgp),
        "dims": list(config.dims.counts),
        "replications": config.replications,
        "alpha": config.alpha,
        "methods": list(config.methods),
        "bootstrap_b": config.bootstrap_b,
        "estimator": config.estimator,
        "seed": config.seed,
        "adjustment": config.adjustment,
    }
