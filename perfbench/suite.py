"""Run every workload and write one result set.

    python3 perfbench/suite.py [--runs N] [--trace] [--out FILE]

Each workload run is its own run.py process, and run.py starts the workload
in a child process of its own.  Run k of a workload uses seed default + k,
and every run measures BENCHMARK.json's run_seconds.
Prints every end-to-end metric with its unit per workload (median and
quartiles over the runs) and, with --trace, each workload's layer self-time
shares from one traced run at the default seed.  The result set (every run
record) goes to --out, by default .perfbench/results/<commit>-<time>.json;
compare two of them with perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import (  # noqa: E402
    BENCH, E2E_UNITS, ROOT, SCRATCH, WORKLOADS, benchmark_spec, commit_id, quartiles,
)
from tracing import LAYERS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    record_path = SCRATCH / "tmp" / f"suite-{workload}-{seed}-{int(trace)}.json"
    record_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(int(trace)), "--record", str(record_path)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if not record_path.exists():
        raise SystemExit(f"{workload} seed {seed}: no record (exit {proc.returncode})\n{proc.stderr}")
    record = json.loads(record_path.read_text())
    record_path.unlink()
    return record


def print_summary(runs: list[dict]) -> None:
    for workload in WORKLOADS:
        plain = [r for r in runs if r["workload"] == workload and not r["trace"] and "metrics" in r]
        if plain:
            print(f"\n{workload}  ({len(plain)} runs, seeds {[r['seed'] for r in plain]})")
            for name, (unit, better) in E2E_UNITS.items():
                q1, med, q3 = quartiles([r["metrics"][name] for r in plain])
                extra = ""
                if name == "step_ms_tail":
                    extra = f"  p{plain[0]['metrics']['_tail_percentile']:g}"
                print(f"  {name:16s} {med:12.6g} {unit:6s} [q1 {q1:.6g}, q3 {q3:.6g}]"
                      f"  {better} is better{extra}")
        for r in runs:
            if r["workload"] == workload and r["trace"] and "per_layer" in r:
                layers = r["per_layer"]
                shares = "  ".join(f"{layer} {layers[f'{layer}.share']:.1%}" for layer in LAYERS
                                   if layers[f"{layer}.calls"])
                print(f"  traced (seed {r['seed']}): {shares}; "
                      f"overhead {layers['trace.overhead_s']:.3f} s")
        failed = [c["name"] for r in runs if r["workload"] == workload for c in r["checks"]
                  if not c["ok"]] + [m for r in runs if r["workload"] == workload
                                     for m in r["children_failed"]]
        if failed:
            print(f"  FAILED: {failed}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", help="result set JSON file")
    args = parser.parse_args(argv)
    seconds = benchmark_spec()["run_seconds"]
    commit = commit_id()
    out = Path(args.out) if args.out else (
        SCRATCH / "results" / f"{commit[:12]}-{time.strftime('%Y%m%dT%H%M%S')}.json")
    runs = []
    for workload in WORKLOADS:
        seed0 = WORKLOADS[workload]
        for k in range(args.runs):
            runs.append(run_once(workload, seed0 + k, seconds, trace=False))
        if args.trace:
            runs.append(run_once(workload, seed0, seconds, trace=True))
    print_summary(runs)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"commit": commit, "seconds": seconds, "runs": runs}, indent=1))
    print(f"\nwrote {out}")
    return 0 if all(r["failed"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
