"""The golden-output manifest: a fixed list of CLI runs and how to replay them.

Each case is one ``multiway`` command run through ``cli.main`` in process.
Its primary outputs land in one output directory under names that start
with the case name, and its stderr (plus any Python warnings, one line
each) is kept as ``<case>.stderr``. ``expected/`` holds the committed
copy of that directory; ``tests/test_golden.py`` replays every case and
compares each file byte for byte, and ``update.py`` rewrites
``expected/`` and lists what moved.

The lattices are small so the whole manifest runs in a few seconds.
Inputs come from the ``sim-*`` cases, which therefore run first; the
JSON config documents below are written to a separate config directory
and are not outputs.

No output byte depends on OpenBLAS: every small matrix goes through
:mod:`multiway.smallmat` and every long sum of products through
:func:`multiway.data.row_sum`, whatever ``OPENBLAS_CORETYPE`` says. The
probit link's ``np.exp`` still differs in the last bit between numpy's
SIMD levels, so :func:`run_all` replays the whole manifest in one child
interpreter whose numpy dispatch is capped at X86_V3 (``PINNED_ENV``).
The expected files are the bytes of that level, and the host that runs
the manifest needs AVX2 (any x86-64-v3 CPU).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
# Environment of the child that replays the manifest; NPY_DISABLE_CPU_FEATURES
# is dropped, because numpy refuses it beside NPY_ENABLE_CPU_FEATURES.
PINNED_ENV = {"NPY_ENABLE_CPU_FEATURES": "X86_V3"}

PROBIT = {"family": "probit", "outcome_index": 0, "x_index": 1}
CONFIGS = {
    "probit": PROBIT,
    "probit-two-step": {**PROBIT, "xi": "two_step"},
    "quantile-iv": {
        "family": "quantile_iv",
        "tau": 0.5,
        "outcome_index": 1,
        "x_indices": [0],
        "z_indices": [0],
    },
    "mc-ratio": {
        "dgp": {"variant": "additive", "cell_sizes": {"kind": "one_plus_poisson", "mu": 1.0}},
        "dims": [6, 5],
        "replications": 6,
        "methods": ["wald-v1", "wald-v2", "wald-cgm", "boot-symabs", "boot-percentile"],
        "bootstrap_b": 40,
        "estimator": "ratio",
        "seed": 5,
    },
    "mc-probit": {
        "dgp": {"variant": "probit"},
        "dims": [8, 8],
        "replications": 4,
        "methods": ["wald-v1", "wald-cgm", "boot-symabs", "boot-percentile"],
        "bootstrap_b": 40,
        "estimator": "probit",
        "seed": 6,
    },
    "mc-median": {
        "dgp": {"variant": "additive"},
        "dims": [6, 5],
        "replications": 6,
        "methods": ["boot-symabs", "boot-percentile"],
        "bootstrap_b": 40,
        "estimator": "median",
        "seed": 7,
    },
    "mc-product": {
        "dgp": {"variant": "product"},
        "dims": [6, 5],
        "replications": 6,
        "methods": ["wald-v1", "wald-cgm", "boot-symabs"],
        "bootstrap_b": 40,
        "estimator": "mean",
        "seed": 8,
    },
}

# input name -> (simulate flags, --dims)
SIMULATIONS = {
    "additive": (["--dgp", "additive", "--cell-sizes", "poisson:2", "--seed", "1"], "8,7"),
    "additive3": (["--dgp", "additive3", "--seed", "2"], "4,3,3"),
    "probit": (["--dgp", "probit", "--cell-sizes", "poisson:2", "--seed", "3"], "10,9"),
    "linked": (["--dgp", "additive", "--cell-sizes", "poisson:2:linked", "--seed", "4"], "8,7"),
}

# estimator name -> (input, estimator flags); "{config}" is the config directory
ESTIMATORS = {
    "mean": ("additive", ["--estimator", "mean"]),
    "ratio": ("additive", ["--estimator", "ratio"]),
    "ratio-linked": ("linked", ["--estimator", "ratio"]),
    "mean3": ("additive3", ["--estimator", "mean"]),
    "ols": ("probit", ["--estimator", "ols", "--outcome", "1", "--regressors", "0"]),
    "quantile": ("additive", ["--estimator", "quantile", "--tau", "0.3"]),
    "gmm-probit": ("probit", ["--estimator", "gmm", "--model-config", "{config}/probit.json"]),
    "gmm-probit-two-step": (
        "probit", ["--estimator", "gmm", "--model-config", "{config}/probit-two-step.json"]
    ),
    "gmm-quantile-iv": (
        "probit", ["--estimator", "gmm", "--model-config", "{config}/quantile-iv.json"]
    ),
}
# (estimator, adjustment) pairs that `estimate` runs
ESTIMATES = [
    (name, adjustment)
    for name in ("mean", "ratio", "ols", "quantile", "gmm-probit")
    for adjustment in ("unit", "cgm")
] + [("ratio-linked", "unit"), ("mean3", "unit"), ("gmm-probit-two-step", "unit")]
# `estimate --variance` where it is not v1,v2,cgm (v2 of the probit
# pseudo-score is indefinite on this sample; quantiles have no variance)
VARIANCES = {"quantile": "", "gmm-probit": "v1,cgm", "gmm-probit-two-step": "v1,cgm"}
BOOTSTRAP_B = 49


def cases(out_dir: Path, config_dir: Path) -> list[tuple[str, list[str]]]:
    """(case name, argv) for every run of the manifest, inputs first."""
    out = []
    for name, (flags, dims) in SIMULATIONS.items():
        out.append((f"sim-{name}", ["simulate", *flags, "--dims", dims,
                                    "-o", str(out_dir / f"sim-{name}.csv")]))

    def data(name):
        source, flags = ESTIMATORS[name]
        dims = SIMULATIONS[source][1]
        return ["--input", str(out_dir / f"sim-{source}.csv"), "--dims", dims,
                *(flag.format(config=config_dir) for flag in flags)]

    for name, adjustment in ESTIMATES:
        case = f"estimate-{name}-{adjustment}"
        variance = ["--variance", VARIANCES.get(name, "v1,v2,cgm")]
        out.append((case, ["estimate", *data(name), *variance, "--adjustment", adjustment,
                           "-o", str(out_dir / f"{case}.json")]))
    for name in ESTIMATORS:
        case = f"bootstrap-{name}"
        out.append((case, ["bootstrap", *data(name), "--b", str(BOOTSTRAP_B), "--seed", "11",
                           "-o", str(out_dir / case)]))
    for name, workers in (("ratio", 1), ("ratio", 2), ("probit", 1), ("median", 1),
                          ("product", 1)):
        case = f"mc-{name}-w{workers}"
        out.append((case, ["mc", "--config", str(config_dir / f"mc-{name}.json"),
                           "--workers", str(workers), "-o", str(out_dir / case)]))
    return out


def run_case(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr text of one ``cli.main`` run; each Python
    warning is appended as one ``warning:`` line (category and message)."""
    from multiway.cli import main

    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    text = err.getvalue()
    for w in caught:
        text += f"warning: {w.category.__name__}: {w.message}\n"
    return code, text


def run_all(work: Path) -> tuple[Path, list[str]]:
    """Run the manifest under ``work`` in one child interpreter with the
    ``PINNED_ENV`` dispatch and the ``src/`` tree of this checkout; returns
    the output directory and the names of the cases that exited nonzero."""
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(HERE.parents[1] / "src"), str(HERE.parent), env.get("PYTHONPATH")])
    )
    child = subprocess.run(
        [sys.executable, "-m", "golden.cases", str(work)],
        env=env, capture_output=True, text=True, check=False,
    )
    if child.returncode != 0:
        raise RuntimeError(f"golden manifest child exited {child.returncode}:\n{child.stderr}")
    return work / "out", json.loads((work / "failed.json").read_text(encoding="utf-8"))


def _run_all_here(work: Path) -> None:
    """Run the manifest under ``work`` in this interpreter and write the
    names of the cases that exited nonzero to ``work/failed.json``."""
    out_dir, config_dir = work / "out", work / "config"
    out_dir.mkdir(parents=True)
    config_dir.mkdir(parents=True)
    for name, doc in CONFIGS.items():
        (config_dir / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    failed = []
    for case, argv in cases(out_dir, config_dir):
        code, text = run_case(argv)
        (out_dir / f"{case}.stderr").write_text(text, encoding="utf-8")
        if code != 0:
            failed.append(f"{case} (exit {code})")
    (work / "failed.json").write_text(json.dumps(failed), encoding="utf-8")


if __name__ == "__main__":
    _run_all_here(Path(sys.argv[1]))
