"""Repository benchmark: one seeded workload per run, metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

A run sets the workload up several times (the median is ``setup_s``),
measures it for ``--seconds`` and checks its outputs.  With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1``
the window is split into an untraced and a traced half, and the last
line carries the per-layer metrics, including the tracing overhead and
the share of the traced half no traced layer accounts for.  The lines
before it are a human-readable report with the workload's own figures
and an environment stamp.  ``--workload all`` runs every workload in
turn, each in its own child process.  Metric names and units come from
``BENCHMARK.json`` at the repository root.

Everything a run writes goes to a private scratch directory inside the
checkout, removed at exit; the artifact cache never touches the user's
default cache directory.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH_PARENT = ROOT / ".perfbench_tmp"
WORKLOAD_NAMES = ("train", "layout", "serve", "sweep")

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _git_sha() -> str:
    """Commit of the checkout, read from ``.git`` when there is one."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def stamp() -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "REPRO_NN_DTYPE": os.environ.get("REPRO_NN_DTYPE", "float32 (default)"),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def peak_rss_mb(window) -> float:
    """Median over operations of this process's peak resident set during
    the operation, or the largest worker process, whichever is larger.

    The maximum over a whole run would be an extreme value: in ``train``
    one iteration peaks anywhere between 0.7 and 2 GB.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return max(statistics.median(window.op_peak_mb), children)


def reap_children(timeout: float = 30.0) -> None:
    """Wait for every worker process this run started to exit."""
    deadline = time.monotonic() + timeout
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
        if child.is_alive():
            child.terminate()
            child.join(5.0)


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    from speed import Stopwatch
    from tracing import Tracer
    from workloads import WORKLOADS

    scratch = SCRATCH_PARENT / f"{name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, scratch)
    try:
        setups = []
        watch = Stopwatch()
        for attempt in range(workload.setups):
            watch.resume()
            workload.setup()
            setups.append(watch.lap()[1])
            if attempt < workload.setups - 1:
                workload.teardown()
        try:
            if trace:
                window = workload.measure(seconds / 2)
                with Tracer() as tracer:
                    workload.install(tracer)
                    traced = workload.measure(seconds / 2)
            else:
                window = workload.measure(seconds)
            problems = list(workload.check())
        finally:
            workload.teardown()
    finally:
        reap_children()
        shutil.rmtree(scratch, ignore_errors=True)

    end_to_end = {"setup_s": statistics.median(setups), **workload.end_to_end(window)}
    attempted = window.attempted + (traced.attempted if trace else 0)
    failed = window.failed + (traced.failed if trace else 0)
    figures = {**workload.report(window),
               "setup_s": end_to_end["setup_s"],
               "peak_rss_mb": peak_rss_mb(window),
               "fail_rate": failed / max(1, attempted)}
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if trace:
        # A layer this workload does not run reads 0.
        values = dict.fromkeys(units, 0.0)
        values.update(workload.layers(tracer, traced))
        traced_rate = workload.end_to_end(traced)["work_per_s"]
        values["trace.overhead_pct"] = 100.0 * (end_to_end["work_per_s"] / traced_rate - 1.0)
        values["trace.residual_share"] = workload.residual_share(tracer, traced)
        values["peak_rss_mb"] = figures["peak_rss_mb"]
    else:
        values = end_to_end
    figures = {k: v for k, v in figures.items() if k not in units}
    lines = [f"{name}  {key:<28} {value:14.6g}" for key, value in figures.items()]
    lines += [f"{name}  {key:<28} {values[key]:14.6g} {unit}" for key, unit in units.items()]
    lines += [f"{name}  CHECK FAILED: {problem}" for problem in problems]
    return {
        "report": lines,
        "result": {"correct": not problems, "attempted": attempted, "failed": failed,
                   "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}},
    }


def run_all(args) -> int:
    """Every workload in its own child process; one combined summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"workload {name} exited with code {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # Isolation: a private artifact cache per run, inside the checkout.
    SCRATCH_PARENT.mkdir(exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(SCRATCH_PARENT / f"cache-{os.getpid()}")
    sys.path[:0] = [str(src), str(HERE)]
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), spec)
    finally:
        shutil.rmtree(os.environ["REPRO_CACHE_DIR"], ignore_errors=True)
        try:
            SCRATCH_PARENT.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} stamp={json.dumps(stamp())}")
    print("\n".join(outcome["report"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
