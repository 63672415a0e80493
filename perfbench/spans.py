"""Span tracer for the traced benchmark run.

The program has no tracing of its own, so the benchmark wraps the public
names of each ``multiway`` module at the place where the caller looks them
up (a module global or a class attribute) for the duration of one traced
round, then puts the originals back. A span records its name, start, end
and the index of its parent span; spans stay in memory and are turned into
per-layer numbers after the round. Self time is a span's duration minus the
durations of its direct children (everything runs on one thread, so
children never overlap).

Functions called hundreds of thousands of times per round
(``Dimensions.flat_index``, ``MomentModel.moments``, ``gmm_jhat``,
``derive_seed``) get a counter instead of a span: their time stays in the
enclosing span's self time, and only the count is reported.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from time import perf_counter

import multiway.bootstrap
import multiway.cli
import multiway.data
import multiway.dataio
import multiway.estimators
import multiway.gmm
import multiway.simulation
from layers import LAYER_METRICS

# (owner, attribute, span name, kind). ``owner`` is where the caller looks
# the name up. Kinds: "span" times the call, "count" only counts it,
# "read"/"write" also add the size of the file named by the first argument,
# "boot" also wraps the estimator hook passed to run_bootstrap.
_cli, _sim = multiway.cli, multiway.simulation
WRAPS = [
    *[(_cli, f"cmd_{c}", "cli.cmd", "span") for c in ("simulate", "estimate", "bootstrap", "mc")],
    (_cli, "read_dataset", "dataio.read_dataset", "read"),
    (_cli, "write_dataset_csv", "dataio.write_dataset_csv", "write"),
    (_cli, "write_json", "dataio.write_json", "write"),
    (multiway.dataio, "load_sample", "data.load_sample", "span"),
    (multiway.data.Dimensions, "flat_index", "data.flat_index", "count"),
    *[(m, "cell_sums", "data.cell_sums", "span") for m in (_cli, _sim, multiway.estimators)],
    *[
        (m, name, "estimators.fit", "span")
        for m in (_cli, _sim)
        for name in ("mean_estimate", "ratio_estimate", "ratio_cell_sums")
    ],
    (_cli, "ols_fit", "estimators.fit", "span"),
    *[
        (m, name, f"variance.{name}", "span")
        for m in (_cli, _sim)
        for name in ("vhat1", "vhat2", "vhat_cgm", "wald_region")
    ],
    (multiway.gmm, "vhat1", "variance.vhat1", "span"),
    (_cli, "sigma_subset", "variance.sigma_subset", "span"),
    *[(m, "run_bootstrap", "bootstrap.run_bootstrap", "boot") for m in (_cli, _sim)],
    (multiway.bootstrap, "draw_weights", "bootstrap.draw_weights", "span"),
    (multiway.bootstrap.PigeonholeWeights, "cell_weights", "bootstrap.cell_weights", "span"),
    *[
        (m, name, "bootstrap.ci", "span")
        for m in (_cli, _sim)
        for name in ("symmetric_abs_ci", "percentile_ci")
    ],
    *[(m, "stream_rng", "seeding.stream_rng", "span") for m in (multiway.bootstrap, multiway.gmm)],
    (_sim, "derive_seed", "seeding.derive_seed", "count"),
    *[(m, "gmm_fit", "gmm.gmm_fit", "span") for m in (_cli, _sim)],
    (multiway.gmm.MomentModel, "moments", "gmm.moments", "count"),
    (multiway.gmm, "gmm_jhat", "gmm.gmm_jhat", "count"),
    *[(m, "generate", "simulation.generate", "span") for m in (_cli, _sim)],
    (_cli, "run_coverage", "simulation.run_coverage", "span"),
]


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []  # indices of the open spans
        self.counts = Counter()  # calls of count-only names
        self.in_hook = Counter()  # calls of count-only names inside gmm.hook
        self.bytes = Counter()  # "read" / "write" -> file bytes
        self.rows_read = 0
        self.replicates_failed = 0
        self._saved = []

    def _span(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        spans, stack, counts, in_hook = self.spans, self.stack, self.counts, self.in_hook

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if stack and spans[stack[-1]][0] == "gmm.hook":
                in_hook[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name, kind, fn):
        if kind == "count":
            return self._count(name, fn)
        if kind == "read":

            def on_read(args, sample):
                self.bytes["read"] += os.path.getsize(args[0])
                self.rows_read += sample.n_units

            return self._span(name, fn, on_read)
        if kind == "write":

            def on_write(args, _):
                self.bytes["write"] += os.path.getsize(args[0])

            return self._span(name, fn, on_write)
        if kind == "boot":

            def run_bootstrap(estimator, *args, **kwargs):
                layer = "gmm" if estimator.__module__ == "multiway.gmm" else "estimators"
                return fn(self._span(f"{layer}.hook", estimator), *args, **kwargs)

            def on_boot(_, reps):
                self.replicates_failed += reps.n_failed

            return self._span(name, run_bootstrap, on_boot)
        return self._span(name, fn)

    def install(self):
        for owner, attr, name, kind in WRAPS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, kind, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict:
        """Per-layer numbers of the round, keyed as in LAYER_METRICS."""
        dur = [end - start for _, start, end, _ in self.spans]
        self_s = list(dur)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                self_s[parent] -= dur[i]
        self_by, total_by, calls = Counter(), Counter(), Counter(self.counts)
        hook_durs = []
        for i, (name, _, _, _) in enumerate(self.spans):
            self_by[name] += self_s[i]
            total_by[name] += dur[i]
            calls[name] += 1
            if name == "gmm.hook":
                hook_durs.append(dur[i])

        out = {
            "cli.self_s": self_by["cli.cmd"],
            "dataio.read_rows_per_s": (
                self.rows_read / total_by["dataio.read_dataset"] if self.rows_read else 0.0
            ),
            "dataio.bytes_read": self.bytes["read"],
            "dataio.bytes_written": self.bytes["write"],
            "bootstrap.replicates_failed": self.replicates_failed,
            "gmm.hook.s_p95": _p95(hook_durs),
            "gmm.moments_per_replicate": (
                self.in_hook["gmm.moments"] / calls["gmm.hook"] if calls["gmm.hook"] else 0.0
            ),
            "simulation.run_coverage.self_s": self_by["simulation.run_coverage"],
        }
        for metric, _, _ in LAYER_METRICS:
            if metric in out:
                continue
            base, suffix = metric.rsplit(".", 1)
            out[metric] = calls[base] if suffix == "calls" else self_by[base]
        return out

    def dump(self, path) -> None:
        """Write the round's spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(
                    f'{{"name": "{name}", "start": {start!r}, "end": {end!r}, '
                    f'"parent": {parent}}}\n'
                )


def _p95(values) -> float:
    """Nearest-rank 95th percentile; 0.0 when nothing was timed."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(0.95 * len(ordered)), 1) - 1]
