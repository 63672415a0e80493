"""One workload process: set up, then time rounds of CLI commands.

Started by run.py in a fresh interpreter with BLAS pinned to one thread.
It times ``import multiway.cli`` first, so nothing heavy is imported
before it. Set-up (the import, the generated inputs and one untimed
warm-up round) ends at the ``ready`` stamp, taken on the monotonic clock
that the parent also reads. Then it prepares the output checks and times
rounds until its budget would be exceeded, always at least one. With
tracing, rounds alternate untraced and traced, so one process gives both
the per-layer numbers and the tracing overhead. The result is one JSON
file.
"""

import argparse
import json
import sys
import time
from pathlib import Path

_t = time.monotonic()
import multiway.cli  # noqa: E402,F401

IMPORT_S = time.monotonic() - _t


def blas_facts() -> list:
    """Each loaded OpenBLAS library with the thread count it reports."""
    import ctypes

    libs = sorted({line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line})
    facts = []
    for path in libs:
        lib, threads = ctypes.CDLL(path), None
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = fn()
                break
        facts.append({"library": Path(path).name, "threads": threads})
    return facts


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds of timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None, help="write the last traced round's spans here")
    args = parser.parse_args()

    import resource

    import numpy
    import scipy

    from workloads import WORKLOADS, call

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](workdir, args.seed)
    result = {"import_s": IMPORT_S, "errors": [], "rounds": [], "layers": []}

    def guarded(fn, *args):
        """Run a check; output it cannot read is a failed check."""
        try:
            return fn(*args)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def finish(code):
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
        result["blas"] = blas_facts()
        Path(args.result).write_text(json.dumps(result))
        return code

    error = wl.make_inputs()
    for label, argv in wl.commands:  # the warm-up round
        if error is None:
            _, error = call(argv)
    result["ready"] = time.monotonic()
    if error is None:
        error = guarded(wl.prepare)
        for label, _ in wl.commands:
            error = error or guarded(wl.check, label)
    if error is not None:
        result["errors"].append(f"set-up: {error}")
        return finish(1)
    result["items"] = wl.items
    result["reference"] = wl.reference

    tracer = None
    if args.trace:
        from spans import Tracer

    def one_round(traced):
        nonlocal tracer
        times, failed = {}, 0
        if traced:
            tracer = Tracer()
            tracer.install()
        try:
            for label, argv in wl.commands:
                times[label], err = call(argv)
                err = err or guarded(wl.check, label)
                if err is not None:
                    failed += 1
                    result["errors"].append(f"{label}: {err}")
        finally:
            if traced:
                tracer.uninstall()
        result["rounds"].append(
            {"traced": traced, "cmds": times, "round_s": sum(times.values()), "failed": failed}
        )
        if traced:
            result["layers"].append(tracer.layer_metrics())

    # One untraced round (and a traced one when tracing) always runs; another
    # starts while at least half of its expected length fits the budget, so
    # the timed length averages out at the budget.
    kinds = [False, True] if args.trace else [False]
    start = time.monotonic()
    while True:
        for traced in kinds:
            one_round(traced)
        spent = time.monotonic() - start
        per_pass = spent / (len(result["rounds"]) / len(kinds))
        if spent + per_pass / 2 > args.budget:
            break
    if tracer is not None and args.spans:
        tracer.dump(args.spans)
    return finish(0)


if __name__ == "__main__":
    sys.exit(main())
