"""Names, units and exactness of the per-layer metrics.

Kept apart from spans.py so that run.py can read them without importing
the program.
"""

# Per-layer metrics of one traced round: (name, unit, exact). ``exact``
# marks counts that repeat exactly for the same inputs; they are reported
# as counts, never as timings. README.md gives what each should move.
LAYER_METRICS = [
    ("cli.self_s", "s", False),
    ("dataio.read_dataset.s", "s", False),
    ("dataio.read_rows_per_s", "1/s", False),
    ("dataio.write_dataset_csv.s", "s", False),
    ("dataio.write_json.s", "s", False),
    ("dataio.bytes_read", "bytes", True),
    ("dataio.bytes_written", "bytes", True),
    ("data.load_sample.s", "s", False),
    ("data.flat_index.calls", "count", True),
    ("data.cell_sums.s", "s", False),
    ("data.cell_sums.calls", "count", True),
    ("estimators.fit.s", "s", False),
    ("estimators.hook.s", "s", False),
    ("estimators.hook.calls", "count", True),
    *[
        (f"variance.{v}.{suffix}", unit, exact)
        for v in ("vhat1", "vhat2", "vhat_cgm", "sigma_subset", "wald_region")
        for suffix, unit, exact in (("s", "s", False), ("calls", "count", True))
    ],
    ("bootstrap.run_bootstrap.s", "s", False),
    ("bootstrap.draw_weights.s", "s", False),
    ("bootstrap.draw_weights.calls", "count", True),
    ("bootstrap.cell_weights.s", "s", False),
    ("bootstrap.cell_weights.calls", "count", True),
    ("bootstrap.ci.s", "s", False),
    ("bootstrap.replicates_failed", "count", True),
    ("seeding.stream_rng.s", "s", False),
    ("seeding.stream_rng.calls", "count", True),
    ("seeding.derive_seed.calls", "count", True),
    ("gmm.gmm_fit.s", "s", False),
    ("gmm.hook.s", "s", False),
    ("gmm.hook.calls", "count", True),
    ("gmm.hook.s_p95", "s", False),
    ("gmm.moments.calls", "count", True),
    ("gmm.moments_per_replicate", "count", True),
    ("gmm.gmm_jhat.calls", "count", True),
    ("simulation.generate.s", "s", False),
    ("simulation.generate.calls", "count", True),
    ("simulation.run_coverage.self_s", "s", False),
]
