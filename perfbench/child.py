"""One workload in its own process: set up, run the timed region, check.

Started by run.py with the BLAS and sweep thread counts pinned in its
environment.  Usage:

    python3 perfbench/child.py WORKLOAD SEED SECONDS MODE RESULT_JSON

MODE is "setup" (stop once set-up is done), "run" (timed region with step
timestamps only) or "trace" (timed region with every pinnctl call spanned).
The result file holds the wall-clock time set-up ended, so the parent can
measure set-up from the moment it started this process, and the speed
probe's factor just after set-up, which turns that time into reference
seconds (see speed.py).
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import SCRATCH, SRC, environment  # noqa: E402

sys.path.insert(0, str(SRC))
import pinnctl  # noqa: E402

if Path(pinnctl.__file__).resolve().parent != SRC / "pinnctl":
    sys.exit(f"pinnctl imported from {pinnctl.__file__}, not from {SRC}")

import layers  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Patches, StepClock, Tracer  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402


def main(name: str, seed: int, seconds: float, mode: str, result_path: Path) -> None:
    workload = WORKLOADS[name](seed, seconds)
    t_ready, t_ready_perf = time.time(), time.perf_counter()
    probe = SpeedProbe()
    probe.bracket()
    ready = {"t_ready": t_ready, "setup_factor": probe.factor(t_ready_perf)}
    if mode == "setup":
        result_path.write_text(json.dumps(ready))
        return

    patches = Patches()
    tracer = None
    if mode == "trace":
        tracer = Tracer(layers.COUNTERS)
        tracer.install(patches)
    # the traced run probes only before and after its timed region, so no
    # probe time lands inside a pinnctl span
    clock = StepClock(probe if tracer is None else None)
    for module, fn, step_mode, keep in workload.markers:
        clock.mark(patches, module, fn, step_mode, keep)
    probe.bracket()
    t0 = time.perf_counter()
    workload.run(clock)
    t1 = time.perf_counter()
    # the peak of the timed work, not of the output checks below
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe.bracket()
    patches.restore()
    wall = t1 - t0 - probe.probe_seconds(t0, t1)

    checks = Checks()
    final_fidelity = float("nan")
    try:
        final_fidelity = workload.finish(clock, checks)
    except Exception as exc:  # reported as a failed check, the run still reports
        checks.add("finish", False, f"{type(exc).__name__}: {exc}")
    steps = clock.steps()
    result = {
        **ready,
        "wall_s": probe.reference_seconds(t0, t1),
        "wall_raw_s": wall,
        "step_s": [probe.reference_seconds(a, b) for a, b in steps],
        "step_raw_s": [b - a - probe.probe_seconds(a, b) for a, b in steps],
        "probe_s": [e - s for s, e in probe.spans],
        "final_fidelity": final_fidelity,
        "peak_rss_mb": peak_rss_mb,
        "peak_rss_checks_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": checks.items,
        "environment": environment(seed),
    }
    if tracer is not None:
        result["layers"] = layers.layer_metrics(tracer, len(steps), wall)
        result["layers"]["trace.overhead_s"] = len(tracer.names) * span_cost()
        spans = SCRATCH / "spans" / f"{name}-seed{seed}.tsv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(SCRATCH.parent))
    result_path.write_text(json.dumps(result))


def span_cost(calls: int = 50_000) -> float:
    """Seconds one traced call adds to an untraced one: the median over five
    batches of a wrapped no-op, each less the same batch of the bare no-op."""
    def noop():
        return None

    costs = []
    for _ in range(5):
        wrapped = Tracer().wrap("trace.noop", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return statistics.median(costs)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4], Path(sys.argv[5]))
