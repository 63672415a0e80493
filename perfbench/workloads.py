"""The four benchmark workloads and their output checks.

Each workload runs the public CLI entry point ``multiway.cli.main(argv)``
in-process. A round is the workload's timed command sequence; its inputs
are generated from the workload seed during set-up, so the program only
ever sees the generated files. README.md gives the reason for each
workload and what each layer metric is expected to move on it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from contextlib import redirect_stderr
from pathlib import Path
from time import perf_counter

import numpy as np

import multiway.cli
from multiway.bootstrap import draw_weights
from multiway.data import Dimensions
from multiway.dataio import read_dataset
from multiway.estimators import ratio_cell_sums, weighted_ratio
from multiway.seeding import stream_rng


def derive_seed(seed: int, purpose: str) -> int:
    """A per-purpose seed, a pure function of the workload seed."""
    digest = hashlib.sha256(f"{seed}/{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 2**31


def digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def call(argv) -> tuple[float, str | None]:
    """Run one CLI command; returns (wall seconds, error or None)."""
    err = io.StringIO()
    start = perf_counter()
    try:
        with redirect_stderr(err):
            code = multiway.cli.main([str(a) for a in argv])
    except Exception as exc:  # a crashing command is a failed operation
        return perf_counter() - start, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    if code != 0:
        return elapsed, f"exit code {code}: {err.getvalue().strip()[-300:]}"
    return elapsed, None


class Workload:
    """A round of CLI commands plus the checks on their outputs.

    ``commands`` is the round: (label, argv) pairs. ``make_inputs`` writes
    the generated inputs, ``prepare`` computes the expected outputs after
    the warm-up round, and ``check(label)`` returns an error message for a
    wrong output of the command just run, or None.
    """

    name = ""
    commands: list

    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir
        self.seed = seed
        self.reference: dict = {}  # output digests of the warm-up round

    def make_inputs(self) -> str | None:
        return None

    def prepare(self) -> None:
        raise NotImplementedError

    def check(self, label: str) -> str | None:
        raise NotImplementedError

    @property
    def items(self) -> int:
        """Work items in one round (units, replicates or replications)."""
        raise NotImplementedError


class Files200k(Workload):
    """simulate 200x200 poisson:4 (about 200k units), then estimate ratio v1,v2,cgm."""

    name = "files-200k"

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.csv = workdir / "data.csv"
        self.out = workdir / "estimate.json"
        self.commands = [
            ("simulate", ["simulate", "--dgp", "additive", "--dims", "200,200",
                          "--cell-sizes", "poisson:4", "--seed",
                          derive_seed(seed, "simulate"), "-o", self.csv]),
            ("estimate", ["estimate", "--input", self.csv, "--dims", "200,200",
                          "--estimator", "ratio", "--variance", "v1,v2,cgm",
                          "-o", self.out]),
        ]

    def _simulate_digest(self) -> str:
        return digest(self.csv, self.csv.with_suffix(".truth.json"))

    def prepare(self):
        self.reference["simulate"] = self._simulate_digest()
        truth = json.loads(self.csv.with_suffix(".truth.json").read_text())
        self.n_units = truth["n_units"]
        # Independent of the program's ingest: numpy parsing, unit-level
        # means, and margin sums by bincount over each coordinate.
        data = np.loadtxt(self.csv, delimiter=",", skiprows=1, ndmin=2)
        coords, y = data[:, :2].astype(np.int64) - 1, data[:, 2:]
        counts = (200, 200)
        pi_c, n = counts[0] * counts[1], y.shape[0]
        theta = y.mean(axis=0)
        centered = (y - theta) / (n / pi_c)
        v1 = np.zeros((y.shape[1], y.shape[1]))
        for axis, c in enumerate(counts):
            m = np.column_stack(
                [np.bincount(coords[:, axis], weights=col, minlength=c) for col in centered.T]
            )
            v1 += m.T @ m
        self.theta = theta
        self.theta_atol = 1e-12 * float(np.abs(y).mean())
        self.v1 = v1 * min(counts) / pi_c**2

    def check(self, label):
        if label == "simulate":
            if self._simulate_digest() != self.reference["simulate"]:
                return "simulate output differs from the warm-up's bytes"
            return None
        doc = json.loads(self.out.read_text())
        if not np.allclose(doc["theta"], self.theta, rtol=1e-12, atol=self.theta_atol):
            return f"theta {doc['theta']} != per-unit mean {self.theta.tolist()}"
        if not np.allclose(doc["variance"]["v1"]["matrix"], self.v1, rtol=1e-9, atol=0):
            return "vhat1 differs from the margin-sum reference"
        residual = doc["diagnostics"]["two_way_identity_residual"]
        if not residual < 1e-10:
            return f"two_way_identity_residual {residual} >= 1e-10"
        return None

    @property
    def items(self):
        return self.n_units


class BootRatio(Workload):
    """bootstrap ratio b=4999 on a 200x200 fixed:1 CSV (40k units)."""

    name = "boot-ratio-200x200"
    b = 4999

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.csv = workdir / "input.csv"
        self.base = workdir / "boot"
        self.boot_seed = derive_seed(seed, "bootstrap")
        self.commands = [
            ("bootstrap", ["bootstrap", "--input", self.csv, "--dims", "200,200",
                           "--estimator", "ratio", "--b", self.b,
                           "--seed", self.boot_seed, "-o", self.base]),
        ]

    def make_inputs(self):
        _, error = call(["simulate", "--dgp", "additive", "--dims", "200,200",
                         "--seed", derive_seed(self.seed, "simulate"), "-o", self.csv])
        return error

    def prepare(self):
        dims = Dimensions((200, 200))
        sums = ratio_cell_sums(read_dataset(self.csv, dims))
        self.expected = {
            idx: weighted_ratio(sums, draw_weights(dims, stream_rng(self.boot_seed, idx)))
            for idx in (0, self.b - 1)
        }

    def check(self, label):
        ci = json.loads(Path(f"{self.base}.ci.json").read_text())
        if ci["n_failed"] != 0 or ci["b"] != self.b:
            return f"n_failed={ci['n_failed']} b={ci['b']}"
        with open(f"{self.base}.replicates.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != self.b:
            return f"{len(rows)} replicate rows, expected {self.b}"
        for row in (rows[0], rows[-1]):
            idx = int(row[0])
            if idx not in self.expected or not np.allclose(
                [float(v) for v in row[1:]], self.expected[idx], rtol=1e-12, atol=0
            ):
                return f"replicate {idx} does not match weighted_ratio on its own draw"
        return None

    @property
    def items(self):
        return self.b


class McRatio(Workload):
    """mc: additive 20x20, one_plus_poisson mu=2, ratio, all five methods, B=199, R=200."""

    name = "mc-ratio-20x20"
    replications = 200
    methods = ["wald-v1", "wald-v2", "wald-cgm", "boot-symabs", "boot-percentile"]

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.config = workdir / "mc.json"
        self.base = workdir / "report"
        self.commands = [
            ("mc", ["mc", "--config", self.config, "--workers", "1", "-o", self.base]),
        ]

    def make_inputs(self):
        config = {
            "dgp": {
                "variant": "additive",
                "sigma_factors": [1.0, 1.0],
                "cell_sizes": {"kind": "one_plus_poisson", "mu": 2.0},
            },
            "dims": [20, 20],
            "replications": self.replications,
            "alpha": 0.05,
            "methods": self.methods,
            "bootstrap_b": 199,
            "estimator": "ratio",
            "seed": derive_seed(self.seed, "mc"),
        }
        self.config.write_text(json.dumps(config))
        return None

    def _digest(self):
        return digest(f"{self.base}.json", f"{self.base}.csv")

    def prepare(self):
        self.reference["mc"] = self._digest()

    def check(self, label):
        report = json.loads(Path(f"{self.base}.json").read_text())
        if [m["method"] for m in report["methods"]] != self.methods:
            return "report does not list the five methods"
        for m in report["methods"]:
            if m["n_used"] + m["n_failed"] != self.replications:
                return f"{m['method']}: n_used + n_failed != {self.replications}"
        if self._digest() != self.reference["mc"]:
            return "mc report differs from the warm-up's bytes"
        return None

    @property
    def items(self):
        return self.replications


class BootProbit(Workload):
    """bootstrap gmm probit b=199 on a 30x30 poisson:4 CSV (about 4.5k units)."""

    name = "boot-probit-30x30"
    b = 199

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.csv = workdir / "input.csv"
        self.model = workdir / "probit.json"
        self.base = workdir / "boot"
        self.commands = [
            ("bootstrap", ["bootstrap", "--input", self.csv, "--dims", "30,30",
                           "--estimator", "gmm", "--model-config", self.model,
                           "--b", self.b, "--seed", derive_seed(seed, "bootstrap"),
                           "-o", self.base]),
        ]

    def make_inputs(self):
        self.model.write_text(json.dumps({"family": "probit", "outcome_index": 0, "x_index": 1}))
        _, error = call(["simulate", "--dgp", "probit", "--dims", "30,30",
                         "--cell-sizes", "poisson:4",
                         "--seed", derive_seed(self.seed, "simulate"), "-o", self.csv])
        return error

    def _digest(self):
        return digest(f"{self.base}.replicates.csv")

    def prepare(self):
        self.reference["bootstrap"] = self._digest()

    def check(self, label):
        ci = json.loads(Path(f"{self.base}.ci.json").read_text())
        if ci["n_failed"] != 0:
            return f"{ci['n_failed']} failed replicates"
        if self._digest() != self.reference["bootstrap"]:
            return "replicates CSV differs from the warm-up's bytes"
        return None

    @property
    def items(self):
        return self.b


WORKLOADS = {w.name: w for w in (Files200k, BootRatio, McRatio, BootProbit)}
