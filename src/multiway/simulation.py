"""Data-generating processes on exchangeable arrays and a coverage harness.

All generators build the array from independent per-margin factors plus
cell- and unit-level noise, so separate exchangeability and the
independence of cells sharing no cluster hold by construction. The
harness repeatedly generates data, forms the requested confidence
regions, and reports empirical coverage against the known truth.

Linked cell sizes take expit in Python floats and their true value from
a trapezoid rule, so this module needs numpy only; the process pool of
``run_coverage`` is imported on first use.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import Sequence

import numpy as np

from .bootstrap import min_replicates, percentile_ci, run_bootstrap, symmetric_abs_ci
from .data import ClusteredSample, Dimensions, check_dense_lattice
from .dataio import SCHEMA_VERSION
from .errors import ConfigError, MultiwayError, UnsupportedError
from .estimators import EcdfSpec, fit
from .gmm import probit_score_moments
from .seeding import TAG_BOOT, TAG_DATA, check_seed, derive_seed
from .variance import ADJUSTMENTS, check_alpha, vhat1, wald_region

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
# The bootstrap interval behind each boot method.
_INTERVALS = {"boot-symabs": "symmetric-abs", "boot-percentile": "percentile"}
# Each harness estimator as the estimators.fit call it makes.
_FIT_ARGS = {
    "mean": ("mean", {}),
    "ratio": ("ratio", {}),
    "median": ("quantile", {"spec": EcdfSpec(0), "tau": 0.5}),
    "probit": ("gmm", {"model": probit_score_moments(0, 1)}),
}
ESTIMATORS = tuple(_FIT_ARGS)
# Largest (mean) cell size: one cell's units fill a 2 GiB float64 column.
MAX_CELL_SIZE = 2**28
# Largest expected number of units in one draw, for the same reason.
MAX_UNITS = 2**28


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
        # the cap also keeps mu inside the rates numpy's Poisson sampler takes
        if self.kind == "fixed" and not 0 <= self.n <= MAX_CELL_SIZE:
            raise ConfigError(f"cell_sizes.n: must be in [0, {MAX_CELL_SIZE}], got {self.n}")
        if not 0 <= self.mu <= MAX_CELL_SIZE:
            raise ConfigError(f"cell_sizes.mu: must be in [0, {MAX_CELL_SIZE}], got {self.mu}")


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
        for name in ("sigma_factors", "sigma_cell", "sigma_unit"):
            sd = getattr(self, name)
            if not np.all(np.isfinite(sd) & (np.asarray(sd) >= 0)):
                raise ConfigError(f"{name}: need finite standard deviations >= 0, got {sd}")
        if not np.all(np.isfinite(self.beta)):
            raise ConfigError(f"beta: coefficients must be finite, got {self.beta}")
        if len(self.beta) != 2 or len(self.error_rho) != 2:
            raise ConfigError("beta, error_rho: need two of each")
        if not all(r >= 0 for r in self.error_rho) or sum(self.error_rho) >= 1.0:
            raise ConfigError("error_rho: shares must be finite, >= 0 and sum to < 1")


def _check_dims(dgp: DgpSpec, dims: Dimensions) -> None:
    if dgp.variant in ("product", "probit") and dims.k != 2:
        raise ConfigError(f"dims: the {dgp.variant} DGP requires two-way dims, got k={dims.k}")
    if dgp.variant == "additive3" and dims.k != 3:
        raise ConfigError(f"dims: the additive3 DGP requires three-way dims, got k={dims.k}")
    if dgp.variant != "product" and len(dgp.sigma_factors) != dims.k:
        raise ConfigError(
            f"sigma_factors: need {dims.k} factor standard deviations, "
            f"got {len(dgp.sigma_factors)}"
        )


def _check_unit_count(dgp: DgpSpec, dims: Dimensions) -> None:
    """Refuse, before anything of length pi_c or n_units is allocated, a
    cell-size law whose expected unit count exceeds :data:`MAX_UNITS`."""
    law = dgp.cell_sizes
    if dgp.variant == "product":  # one unit per cell, whatever the law
        mean = 1
    elif law.kind == "fixed":
        mean = law.n
    else:  # 1 + Poisson(rate), and a factor-linked rate is at most mu
        mean = 1 + law.mu
    if dims.pi_c * mean > MAX_UNITS:
        raise ConfigError(
            f"cell_sizes: pi_c = {dims.pi_c} cells times a mean cell size of {mean:.15g} "
            f"is {dims.pi_c * mean:.15g} units, over the limit of {MAX_UNITS}"
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
        p = np.array([_expit(a) for a in factor0.tolist()]).reshape(shape)
        lam = law.mu * np.broadcast_to(p, dims.counts).reshape(-1)
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
    check_dense_lattice(dims)
    _check_dims(dgp, dims)
    _check_unit_count(dgp, dims)
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


def _expit(a: float) -> float:
    """1 / (1 + e^-a), with libm's ``exp`` on every CPU (0.0 where it overflows)."""
    try:
        return 1.0 / (1.0 + math.exp(-a))
    except OverflowError:
        return 0.0


def _a_expit_mean(s: float) -> float:
    """E[A expit(A)] for A ~ N(0, s^2).

    By Stein's identity it is s^2 E[expit'(A)], with expit'(a) =
    e^-|a| / (1 + e^-|a|)^2: no cancellation, so small s is exact too. The
    trapezoid rule with step 1/4 converges exponentially for this analytic,
    fast-decaying integrand (Trefethen & Weideman 2014): over z = a/s in
    [-40, 40] below s = 1, over a in [-45, 45] from there. Within 4e-16
    relative of mpmath for s from 1e-8 to 1e300.
    """
    def slope(a):
        e = math.exp(-abs(a))
        return e / (1.0 + e) ** 2

    h = 0.25
    if s < 1.0:
        total = math.fsum(slope(s * k * h) * math.exp(-0.5 * (k * h) ** 2)
                          for k in range(-160, 161))
        return h * total / math.sqrt(2 * math.pi) * s * s
    total = math.fsum(slope(k * h) * math.exp(-0.5 * (k * h / s) ** 2)
                      for k in range(-180, 181))
    return h * total / math.sqrt(2 * math.pi) * s


def _per_unit_mean(dgp: DgpSpec) -> float:
    """E(sum_l Y_l) / E(N) for the additive variants.

    Zero unless cell sizes are linked to the first factor A. Then N = 1 +
    Poisson(mu expit(A)) and the size-biased mean is mu E[A expit(A)] /
    (1 + mu / 2), since E[expit(A)] = 1/2 exactly: expit(a) + expit(-a) = 1
    and A is symmetric.
    """
    law = dgp.cell_sizes
    if law.kind == "fixed" or not law.factor_linked:
        return 0.0
    return law.mu * _a_expit_mean(dgp.sigma_factors[0]) / _mean_cell_size(dgp)


def _mean_cell_size(dgp: DgpSpec) -> float:
    law = dgp.cell_sizes
    if law.kind == "fixed":
        return float(law.n)
    return 1.0 + law.mu * (0.5 if law.factor_linked else 1.0)  # E[expit(A)] = 1/2


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
        check_alpha(self.alpha)
        check_seed(self.seed)
        object.__setattr__(self, "methods", tuple(self.methods))
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"methods: unknown method {m!r}")
            if self.methods.count(m) > 1:
                raise ConfigError(f"methods: {m!r} is listed twice")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"estimator: unknown kind {self.estimator!r}")
        if self.adjustment not in ADJUSTMENTS:
            raise ConfigError(f"adjustment: unknown preset {self.adjustment!r}")
        need = max(
            (min_replicates(_INTERVALS[m], self.alpha) for m in self.methods if m in _INTERVALS),
            default=0,
        )
        if self.bootstrap_b < need:
            raise ConfigError(
                f"bootstrap_b: need at least {need} replicates for alpha={self.alpha} "
                f"and methods {list(self.methods)}"
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


# The CSV format of each float column of the report; other columns print as they are.
_CSV_FORMATS = {
    "coverage": "{:.6f}",
    "mc_se": "{:.6f}",
    "rejection_rate": "{:.6f}",
    "avg_length": "{:.6g}",
}


@dataclass(frozen=True)
class McReport:
    """The coverage report; its fields are the JSON report's keys, in order."""

    n_replications: int
    theta_mc_sd: list[float]
    mean_boot_se: list[float] | None
    near_zero_variance_count: int
    methods: tuple[MethodReport, ...]
    config: dict

    def to_json_dict(self) -> dict:
        """The JSON report, with null for the NaN statistics of a method
        used in no replication: strict JSON has no NaN."""
        out = {"schema_version": SCHEMA_VERSION, **asdict(self)}
        for method in out["methods"]:
            for name in _CSV_FORMATS:
                if math.isnan(method[name]):
                    method[name] = None
        return out

    def csv_rows(self) -> list[list]:
        header = [f.name for f in fields(MethodReport)]
        return [header] + [
            [_CSV_FORMATS.get(name, "{}").format(getattr(m, name)) for name in header]
            for m in self.methods
        ]


def _interval_length(intervals: np.ndarray) -> float:
    widths = intervals[:, 1] - intervals[:, 0]
    return float(widths.mean())


def _outcome(method: str, fitted, reps, theta0: np.ndarray, config: McConfig):
    """(covered, length) of one method's region; a MultiwayError if it is refused."""
    if method == "boot-symabs":
        region = symmetric_abs_ci(reps, config.alpha)
        return bool(region.contains(theta0)), 2.0 * region.radius
    if method == "boot-percentile":
        region = percentile_ci(reps, config.alpha)
    else:
        v = fitted.variance(method.split("-", 1)[1], config.adjustment)
        region = wald_region(fitted.theta, v, config.dims, config.alpha)
    return bool(region.contains(theta0)), _interval_length(region.intervals)


def _one_replication(config: McConfig, r: int) -> dict:
    """Replication ``r``: ``outcomes`` holds one entry per method, (covered,
    length) or None when the fit, the variance, the bootstrap or that
    method's own interval raised a :class:`MultiwayError`. ``theta`` is None
    when the fit raised; ``boot_se`` and ``near_zero_variance`` are present
    only when computed.
    """
    theta0 = true_theta(config.dgp, config.estimator)
    sample, _ = generate(config.dgp, config.dims, derive_seed(config.seed, r, TAG_DATA))
    out: dict = {"theta": None, "outcomes": dict.fromkeys(config.methods)}
    kind, options = _FIT_ARGS[config.estimator]
    try:
        fitted = fit(kind, sample, **options)
    except MultiwayError:
        return out
    out["theta"] = fitted.theta.tolist()

    if fitted.scores is not None:
        v1 = vhat1(fitted.scores).matrix
        baseline = (
            config.dims.k
            * config.dims.c_min
            / config.dims.pi_c**2
            * float((fitted.scores.values**2).sum())
        )
        out["near_zero_variance"] = bool(np.trace(v1) <= 4.0 * baseline)

    reps = None
    if any(m.startswith("boot") for m in config.methods):
        boot_seed = derive_seed(config.seed, r, TAG_BOOT)
        try:
            reps = run_bootstrap(
                fitted.hook, fitted.prepared, fitted.theta, config.bootstrap_b, boot_seed
            )
            out["boot_se"] = reps.thetas.std(axis=0, ddof=1).tolist()
        except MultiwayError:
            pass

    for method in config.methods:
        if reps is None and method.startswith("boot"):
            continue
        try:
            out["outcomes"][method] = _outcome(method, fitted, reps, theta0, config)
        except MultiwayError:
            pass
    return out


def run_coverage(config: McConfig, progress=None) -> McReport:
    """Run the full experiment; deterministic given (config, seed).

    Replications are independent streams of (seed, index), so any worker
    count produces the same report: more than one worker only moves the
    calls of :func:`_one_replication` into a process pool. ``progress`` (a
    callable taking the finished count) receives updates. Each method
    counts a replication as used when its region was formed and as failed
    otherwise, so ``n_used + n_failed`` is ``replications``.
    """
    r_total = config.replications
    # a fork pool starts all its processes at once, so start no idle ones
    workers = min(config.n_workers, r_total)
    pool, run = nullcontext(), map
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # deferred: imports multiprocessing

        pool = ProcessPoolExecutor(max_workers=workers)
        run = partial(pool.map, chunksize=max(1, r_total // (workers * 8)))
    results = []
    with pool:
        for res in run(_one_replication, [config] * r_total, range(r_total)):
            results.append(res)
            if progress:
                progress(len(results))

    methods = []
    for m in config.methods:
        used = [res["outcomes"][m] for res in results if res["outcomes"][m] is not None]
        covered = [c for c, _ in used]
        lengths = [length for _, length in used]
        n_used = len(used)
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
                n_failed=r_total - n_used,
            )
        )

    thetas = np.array([res["theta"] for res in results if res["theta"] is not None])
    boot_ses = [res["boot_se"] for res in results if "boot_se" in res]
    return McReport(
        n_replications=r_total,
        theta_mc_sd=thetas.std(axis=0, ddof=1).tolist() if len(thetas) > 1 else [],
        mean_boot_se=np.mean(boot_ses, axis=0).tolist() if boot_ses else None,
        near_zero_variance_count=sum(
            1 for res in results if res.get("near_zero_variance")
        ),
        methods=tuple(methods),
        config=_config_echo(config),
    )


def _config_echo(config: McConfig) -> dict:
    """The config as its JSON document: every field but the worker count,
    which changes no number."""
    echo = asdict(config)
    del echo["n_workers"]
    echo["dims"] = list(config.dims.counts)
    return echo
