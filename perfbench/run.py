"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]

Each workload runs in a child process of its own (perfbench/child.py) with
one BLAS thread and PINNCTL_THREADS=1 set in the child's environment.  With
--trace 0 the set-up is measured in several fresh processes, before and
after the one that runs the timed region; with --trace 1 one traced child
runs and its per-layer metrics are printed.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
--record writes the full run record (all eight end-to-end metrics, checks,
environment, per-layer metrics) as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import (  # noqa: E402
    BENCH, E2E_UNITS, PINNED_ENV, ROOT, SCRATCH, SRC, WORKLOADS,
    benchmark_spec, commit_id, percentile, tail_percentile,
)

DEADLINE_S = 170.0  # every run, children included, ends within this
SETUP_BEFORE, SETUP_AFTER = 3, 3  # set-up-only processes around the run's own


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric that BENCHMARK.json does not list."""
    for suffix, unit in (("_s", "s"), (".ms", "ms/step"), (".calls", "count")):
        if name.endswith(suffix):
            return unit
    return "ratio"


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env.pop("PYTHONPATH", None)  # the child imports pinnctl from this checkout's src
    return env


def run_child(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    """Start one child, wait for it (killing it at the deadline) and return its result."""
    tmp = SCRATCH / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    result_path = tmp / f"result-{os.getpid()}-{workload}-{mode}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed), repr(seconds),
           mode, str(result_path)]
    t_spawn = time.time()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} {mode}: timed out") from None
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildFailed(f"{workload} {mode}: exit {proc.returncode}: {' | '.join(tail)}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    result["setup_raw_s"] = result["t_ready"] - t_spawn
    result["setup_s"] = result["setup_raw_s"] * result["setup_factor"]
    return result


def end_to_end(result: dict, setups: list[dict]) -> tuple[dict, dict]:
    """The eight end-to-end metrics of one untraced child result and the
    set-up results (timings in reference seconds, see speed.py), and the same
    timings in raw seconds."""
    steps, raw = result["step_s"], result["step_raw_s"]
    failed = sum(not c["ok"] for c in result["checks"])
    tail_q = tail_percentile(len(steps))
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "wall_s": result["wall_s"],
        "step_ms_p50": 1e3 * percentile(steps, 50.0),
        "step_ms_tail": 1e3 * percentile(steps, tail_q),
        "peak_rss_mb": result["peak_rss_mb"],
        "steps_run": len(steps),
        "final_fidelity": result["final_fidelity"],
        "error_rate": failed / (len(result["checks"]) + 1),
        "_tail_percentile": tail_q,
    }
    raw_metrics = {
        "setup_s": statistics.median(r["setup_raw_s"] for r in setups),
        "wall_s": result["wall_raw_s"],
        "step_ms_p50": 1e3 * percentile(raw, 50.0),
        "step_ms_tail": 1e3 * percentile(raw, tail_q),
        "probe_ms_p50": 1e3 * percentile(result["probe_s"], 50.0),
        "probes": len(result["probe_s"]),
        "peak_rss_checks_mb": result["peak_rss_checks_mb"],
    }
    return metrics, raw_metrics


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the children of one benchmark run; return the run record."""
    deadline = time.monotonic() + DEADLINE_S
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "commit": commit_id(), "checks": [], "children_failed": []}
    children = []
    try:
        if trace:
            main = run_child(workload, seed, seconds, "trace", deadline)
            children.append(main)
            record["per_layer"] = main["layers"]
            record["spans_file"] = main["spans_file"]
        else:
            # set-up processes spread over the run, so a slow spell of the
            # machine meets few of them
            modes = ["setup"] * SETUP_BEFORE + ["run"] + ["setup"] * SETUP_AFTER
            for mode in modes:
                children.append(run_child(workload, seed, seconds, mode, deadline))
            main = children[SETUP_BEFORE]
            record["setup_samples_s"] = [c["setup_s"] for c in children]
            record["metrics"], record["raw"] = end_to_end(main, children)
        record["environment"] = main["environment"]
    except ChildFailed as exc:
        record["children_failed"].append(str(exc))
    for child in children:
        record["checks"] += child.get("checks", [])  # set-up children check nothing
    record["attempted"] = len(record["checks"]) + len(children) + len(record["children_failed"])
    record["failed"] = sum(not c["ok"] for c in record["checks"]) + len(record["children_failed"])
    return record


def report(record: dict, per_layer: bool) -> dict:
    """Print every metric with its unit; return the result object of the
    last output line, which carries the metrics BENCHMARK.json names for
    this kind of run."""
    spec = benchmark_spec()
    bounded = {m["name"] for m in spec["end_to_end"]}
    metrics = {}
    for name, value in record.get("metrics", {}).items():
        if name.startswith("_"):
            continue
        unit = E2E_UNITS[name][0]
        label = f" (p{record['metrics']['_tail_percentile']:g})" if name == "step_ms_tail" else ""
        raw = record["raw"].get(name)
        raw = f"   raw {raw:.6g} {unit}" if raw is not None else ""
        print(f"{record['workload']:18s} {name:16s} {value:14.6g} {unit}{label}{raw}")
        if name in bounded and not per_layer:
            metrics[name] = {"value": value, "unit": unit}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, value in record.get("per_layer", {}).items():
        unit = units.get(name) or layer_unit(name)
        print(f"{record['workload']:18s} {name:40s} {value:14.6g} {unit}")
        if name in units:
            metrics[name] = {"value": value, "unit": unit}
    for check in record["checks"]:
        if not check["ok"]:
            print(f"FAILED check {check['name']}: {check['detail']}")
    for msg in record["children_failed"]:
        print(f"FAILED {msg}")
    declared = units if per_layer else bounded
    correct = record["failed"] == 0 and set(metrics) == set(declared) and all(
        math.isfinite(v["value"]) for v in metrics.values())
    return {"correct": correct, "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="write the full run record to this JSON file")
    args = parser.parse_args(argv)
    if not (SRC / "pinnctl" / "__init__.py").is_file():
        print(f"error: no pinnctl sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report(record, bool(args.trace))
    if args.record:
        Path(args.record).parent.mkdir(parents=True, exist_ok=True)
        Path(args.record).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
