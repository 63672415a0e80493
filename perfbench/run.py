"""Benchmark of the multiway CLI: one workload, fixed seed, fixed run length.

Usage, from the repository root:

    python3 perfbench/run.py --workload files-200k --seed 1 --seconds 36 --trace 0

The workload runs in PROCESSES fresh interpreters one after another, each
with BLAS pinned to one thread and ``--workers`` left at 1 (the
single-threaded baseline). Each process sets up (import, generated inputs,
one warm-up round) and then times rounds for its share of ``--seconds``.
End-to-end metrics pool the untraced rounds of all processes; set-up time
is the median over the processes, import time the median over them and
the import-only interpreters started before each. With ``--trace 1`` rounds
alternate untraced and traced, and the per-layer metrics come from the
traced ones. The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. README.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LAYER_METRICS

HERE = Path(__file__).resolve().parent
PROCESSES = 3
# Fresh interpreters that only time ``import multiway.cli``, run before each
# workload process; with the workload processes' own imports they give
# import_s 3 * (1 + 2) samples, which narrows its median on a noisy host.
IMPORT_PROBES = 2
PROBE = "import time; t = time.monotonic(); import multiway.cli; print(time.monotonic() - t)"
WORKER_TIMEOUT_S = 150
WORKLOAD_NAMES = ("files-200k", "boot-ratio-200x200", "mc-ratio-20x20", "boot-probit-30x30")

# Per-command rates printed beside the end-to-end metrics:
# (workload, command) -> (name, unit).
COMMAND_RATES = {
    ("files-200k", "simulate"): ("simulate_units_per_s", "units/s"),
    ("files-200k", "estimate"): ("estimate_units_per_s", "units/s"),
    ("boot-ratio-200x200", "bootstrap"): ("bootstrap_reps_per_s", "replicates/s"),
    ("mc-ratio-20x20", "mc"): ("mc_reps_per_s", "replications/s"),
    ("boot-probit-30x30", "bootstrap"): ("bootstrap_reps_per_s", "replicates/s"),
}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def scipy_import_s(stderr_text: str) -> float:
    """Cumulative seconds of the outermost scipy imports in ``-X importtime`` output."""
    entries = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    # Children are printed before their parent: walk backwards so every
    # entry sees its ancestors first.
    total_us, ancestors = 0, []
    for depth, name, cumulative in reversed(entries):
        del ancestors[depth:]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a == "scipy" or a.startswith("scipy.") for a in ancestors):
            total_us += cumulative
        ancestors.append(name)
    return total_us / 1e6


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(Path.cwd() / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    env.pop("MULTIWAY_WORKERS", None)
    return env


def import_probe() -> float:
    """Seconds of ``import multiway.cli`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=pinned_env(), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S, check=True,
    )
    return float(out.stdout)


def run_process(args, index: int, workdir: Path, out_dir: Path) -> dict:
    """Start one workload process, wait for it, and return its result."""
    pdir = workdir / f"p{index}"
    pdir.mkdir(parents=True)
    result_path, stderr_path = pdir / "result.json", pdir / "stderr.txt"
    env = pinned_env()
    cmd = [sys.executable]
    if args.trace:
        cmd += ["-X", "importtime"]
    cmd += [
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--budget", str(args.seconds / PROCESSES),
        "--trace", str(args.trace),
        "--workdir", str(pdir / "files"),
        "--result", str(result_path),
    ]
    if args.trace and index == PROCESSES - 1:
        cmd += ["--spans", str(out_dir / f"{args.workload}.spans.jsonl")]
    spawned = time.monotonic()
    with open(stderr_path, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            if proc.poll() is None:  # timed out, or this process is being stopped
                proc.kill()
                proc.wait()
    stderr_text = stderr_path.read_text(encoding="utf-8", errors="replace")
    if not result_path.is_file():
        tail = "\n".join(stderr_text.splitlines()[-15:])
        raise RuntimeError(f"workload process {index} ended ({code}) without a result:\n{tail}")
    res = json.loads(result_path.read_text())
    res["exit_code"] = code
    res["setup_s"] = res["ready"] - spawned
    if args.trace:
        res["scipy_import_s"] = scipy_import_s(stderr_text)
    return res


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Stopping the benchmark also stops the workload process it waits for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "multiway" / "cli.py").is_file():
        print("error: run from the repository root; src/multiway/cli.py not found", file=sys.stderr)
        return 2
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = root / ".perfbench_out"
    if args.trace:
        out_dir.mkdir(exist_ok=True)
    procs, imports = [], []
    try:
        for i in range(PROCESSES):
            if not args.trace:
                imports += [import_probe() for _ in range(IMPORT_PROBES)]
            procs.append(run_process(args, i, workdir, out_dir))
            imports.append(procs[-1]["import_s"])
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [f"process {i}: {e}" for i, p in enumerate(procs) for e in p["errors"]]
    errors += [f"process {i}: exit code {p['exit_code']}" for i, p in enumerate(procs) if p["exit_code"] != 0]
    rounds = [r for p in procs for r in p["rounds"]]
    # A process whose set-up failed counts as one failed operation.
    setup_failures = sum(1 for p in procs if "items" not in p)
    attempted = sum(len(r["cmds"]) for r in rounds) + setup_failures
    failed = sum(r["failed"] for r in rounds) + setup_failures
    # Repeated runs must give the same bytes across processes too: a process
    # whose warm-up outputs differ from the first one's fails all its calls.
    ref = procs[0].get("reference")
    for i, p in enumerate(procs[1:], start=1):
        if p.get("reference") != ref:
            errors.append(f"process {i}: outputs differ from process 0")
            failed += sum(len(r["cmds"]) - r["failed"] for r in p["rounds"])

    plain = [r for r in rounds if not r["traced"]]
    items = procs[0].get("items", 0)
    extra = {}  # printed only: the per-command rates named in README.md
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        layers = [layer for p in procs for layer in p["layers"]]
        metrics = {}
        for name, unit, exact in LAYER_METRICS:
            values = [layer[name] for layer in layers]
            if exact:
                if len(set(values)) > 1:
                    errors.append(f"{name} did not repeat exactly: {sorted(set(values))}")
                value = values[0] if values else 0
                note = "exact count"
                if name == "gmm.moments_per_replicate":
                    note += f", base gmm.hook.calls={layers[0]['gmm.hook.calls'] if layers else 0}"
                elif name.startswith("dataio.bytes"):
                    note += ", computed from file sizes"
            else:
                value, note = float(median_or_zero(values)), "per round, median"
            metrics[name] = (value, unit, len(values), note)
        metrics["import.scipy_s"] = (
            median_or_zero([p["scipy_import_s"] for p in procs]), "s", len(procs),
            "cumulative scipy time in -X importtime, median of fresh interpreters",
        )
        untraced_s = median_or_zero([r["round_s"] for r in plain])
        traced_s = median_or_zero([r["round_s"] for r in traced])
        metrics["trace.overhead_frac"] = (
            traced_s / untraced_s - 1 if untraced_s else 0.0, "ratio", len(traced),
            f"traced round {traced_s:.4f} s vs untraced {untraced_s:.4f} s (medians)",
        )
    else:
        round_s = median_or_zero([r["round_s"] for r in plain])
        metrics = {
            "setup_s": (
                median_or_zero([p["setup_s"] for p in procs]), "s", len(procs),
                "median over fresh processes: import, inputs, warm-up round",
            ),
            "import_s": (
                median_or_zero(imports), "s", len(imports),
                "import multiway.cli, median over fresh interpreters",
            ),
            "items_per_s": (
                items / round_s if round_s else 0.0, "1/s", len(plain),
                f"{items} items per round / median round time {round_s:.4f} s",
            ),
            "peak_rss_mb": (
                median_or_zero([p["peak_rss_mb"] for p in procs]), "MB", len(procs),
                "peak RSS of the workload process, median",
            ),
        }
        for (workload, label), (name, unit) in COMMAND_RATES.items():
            if workload == args.workload:
                cmd_s = median_or_zero([r["cmds"][label] for r in plain])
                extra[name] = (items / cmd_s if cmd_s else 0.0, unit, len(plain), "per call, median")

    correct = not errors and failed == 0
    report(args, procs, {**metrics, **extra}, attempted, failed, errors)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v[0], "unit": v[1]} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


def report(args, procs, metrics, attempted, failed, errors) -> None:
    machine = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **procs[0].get("versions", {}),
        "blas": procs[0].get("blas"),
        "blas_env": "OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1",
        "multiway_workers": 1,
    }
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"machine {json.dumps(machine)}")
    for name, (value, unit, n, note) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:36s} {shown:>14s} {unit:13s} n={n:<4d} {note}")
    frac = failed / attempted if attempted else 1.0
    print(f"  {'failed_frac':36s} {frac:>14.6g} {'ratio':13s} n={attempted:<4d} failed / attempted calls")
    for e in errors[:20]:
        print(f"  ERROR {e}")


if __name__ == "__main__":
    sys.exit(main())
