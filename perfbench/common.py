"""Paths, metric names, statistics and the environment record shared by the
benchmark's entry points."""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent  # the checkout being measured
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
SCRATCH = ROOT / ".perfbench"  # run outputs; ignored by git

# Workload name -> default seed (the seed of the paper's or the preset's run).
WORKLOADS = {"cnot_gate_train": 0, "lls_warm_start": 2, "lindblad_retrain": 0, "sweep_eval": 0}

# Every end-to-end metric a workload run reports, with its unit and direction.
# BENCHMARK.json bounds the steady ones; all are recorded and compared
# (see perfbench/README.md).
E2E_UNITS = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "step_ms_p50": ("ms", "lower"),
    "step_ms_tail": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "steps_run": ("count", "lower"),
    "final_fidelity": ("1", "higher"),
    "error_rate": ("ratio", "lower"),
}

# One BLAS thread and one sweep thread: the plain single-threaded baseline,
# and the steadiest setting on a small shared machine.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PINNCTL_THREADS": "1",
}

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default rule) of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest percentile of TAIL_LADDER with at least ten samples beyond it."""
    for q in TAIL_LADDER:
        if round(n * (100.0 - q) / 100.0, 6) >= 10:
            return q
    return 50.0


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def commit_id() -> str:
    """The checkout's commit, or 'unknown' outside a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    """Versions and thread settings of the current process (call after numpy import)."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "pinnctl_threads": os.environ.get("PINNCTL_THREADS", "default"),
        "seed": seed,
    }
