"""Record the reference values the workloads check their outputs against.

    python3 perfbench/references.py

Writes perfbench/references.json.  Values are taken with the thread counts
the benchmark pins (one BLAS thread), through the same workload code:

- sweep_eval: every CSV value of one pass on the default seed, which uses
  the Criterion 6 deviation grid;
- lindblad_retrain: the training fidelity every 10 steps of the full
  400-step retrain of each (noise kind, gamma) pair.  Each retrain is also
  checked against its committed artifact under tests/artifacts/, and the
  largest parameter difference is printed.

Re-record only when a change alters the arithmetic on purpose, and say so.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import BENCH, PINNED_ENV, SRC  # noqa: E402

os.environ.update(PINNED_ENV)  # before numpy is imported
sys.path.insert(0, str(SRC))

from tracing import Patches, StepClock  # noqa: E402
from workloads import NOISE_PAIRS, Checks, LindbladRetrain, SweepEval, _read_sweep  # noqa: E402

EVERY = 10


def run_marked(workload) -> StepClock:
    patches, clock = Patches(), StepClock()
    for module, fn, mode, keep in workload.markers:
        clock.mark(patches, module, fn, mode, keep)
    try:
        workload.run(clock)
    finally:
        patches.restore()
    return clock


def sweep_references() -> dict:
    sweep = SweepEval(seed=0, seconds=SweepEval.seconds_per_pass)
    run_marked(sweep)
    out = {}
    for name in sweep.commands("0"):
        axis, fids = _read_sweep(sweep.out / f"0-{name}.csv")
        out[name] = {"axis": axis, "fidelity": fids}
    sweep.finish(None, Checks())
    return out


def lindblad_references() -> dict:
    out = {}
    for seed in range(len(NOISE_PAIRS)):
        retrain = LindbladRetrain(seed=seed, seconds=LindbladRetrain.max_steps)
        clock = run_marked(retrain)
        fids = clock.results["optimizer.loss_and_gradient"]
        out[retrain.key] = {"every": EVERY, "fidelity": fids[::EVERY]}
        retrain.reference = out[retrain.key]
        checks = Checks()
        retrain.finish(clock, checks)
        for c in checks.items:
            print(retrain.key, c["name"], "ok" if c["ok"] else "FAILED", c["detail"], flush=True)
    return out


def main() -> None:
    refs = {"sweep_eval": sweep_references(), "lindblad_retrain": lindblad_references()}
    (BENCH / "references.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
