"""Fast checks of the benchmark's own machinery (no workload is run)."""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import ROOT, percentile, quartiles, tail_percentile  # noqa: E402
from compare import verdict  # noqa: E402
from tracing import LAYERS, Patches, StepClock, Tracer  # noqa: E402

import pinnctl.objectives  # noqa: E402
import pinnctl.propagation  # noqa: E402
from pinnctl.network import PulseTable  # noqa: E402
from pinnctl.spins import PRESETS  # noqa: E402
from pinnctl.targets import cnot_objective  # noqa: E402


def test_percentiles_match_numpy_and_statistics():
    xs = [5.0, 1.0, 3.0, 2.0, 8.0, 13.0, 21.0]
    for q in (0, 25, 50, 90, 99.9, 100):
        assert percentile(xs, q) == pytest.approx(np.percentile(xs, q))
    assert quartiles(xs) == tuple(statistics.quantiles(xs, n=4))
    assert tail_percentile(10000) == 99.9
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(12) == 50.0


def test_tracer_spans_every_binding_and_restores():
    table = PulseTable(0.004, np.random.default_rng(0).normal(0, 300, size=(8, 2, 2)))
    objective = cnot_objective()
    original = pinnctl.objectives.segment_unitaries
    tracer, patches = Tracer(), Patches()
    tracer.install(patches)
    try:
        # objectives binds the propagation functions by name: both are wrapped
        assert pinnctl.objectives.segment_unitaries is pinnctl.propagation.segment_unitaries
        assert pinnctl.objectives.segment_unitaries is not original
        pinnctl.objectives.pulse_table_gradient(PRESETS["defm"], table, objective)
    finally:
        patches.restore()
    assert pinnctl.objectives.segment_unitaries is original
    names = set(tracer.names)
    assert {"objectives.pulse_table_gradient", "propagation.segment_unitaries",
            "propagation.prefix_products", "spins.control_operator_stack"} <= names
    own = tracer.self_times()
    top = [i for i, p in enumerate(tracer.parent) if p < 0]
    assert top == [0]
    assert sum(own) == pytest.approx(tracer.end[0] - tracer.start[0], rel=1e-9, abs=1e-12)
    assert min(own) >= -1e-9


def test_layer_metrics_count_and_zero_missing_functions():
    import layers

    table = PulseTable(0.004, np.zeros((16, 2, 2)))
    objective = cnot_objective()
    tracer, patches = Tracer(layers.COUNTERS), Patches()
    tracer.install(patches)
    try:
        for _ in range(3):
            pinnctl.objectives.pulse_table_gradient(PRESETS["defm"], table, objective)
    finally:
        patches.restore()
    wall = max(tracer.end) - tracer.start[0]
    m = layers.layer_metrics(tracer, steps=3, wall=wall)
    assert m["objectives.gradients_per_step"] == 1.0
    assert m["propagation.segments_per_step"] == 16.0
    assert m["spins.builds_per_step"] == 3.0
    assert m["propagation.segment_lindblad_maps.ms"] == 0.0
    assert m["grape.iterations"] == 0 and m["analysis.points"] == 0
    assert sum(m[f"{layer}.self_s"] for layer in LAYERS) <= wall + 1e-9
    declared = {d["name"] for d in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared <= set(m) | {"trace.overhead_s"}


def test_step_clock_intervals_and_calls():
    clock, patches = StepClock(), Patches()
    clock.mark(patches, "propagation", "segment_unitaries", "interval", keep=lambda r: r[0].shape)
    clock.mark(patches, "objectives", "gate_fidelity", "call")
    h = np.zeros((4, 4, 4))
    try:
        for _ in range(3):
            pinnctl.propagation.segment_unitaries(h, 1e-3)
        pinnctl.objectives.gate_fidelity(np.eye(4), np.eye(4))
    finally:
        patches.restore()
    assert len(clock.steps()) == 2 + 1
    assert clock.results["propagation.segment_unitaries"] == [(4, 4)] * 3


def test_reference_seconds_scale_and_drop_probe_time():
    from speed import NOMINAL_S, SpeedProbe

    probe = SpeedProbe()
    slow = 2 * NOMINAL_S  # the machine runs at half the reference speed
    probe.spans = [(0.0, slow), (1.0, 1.0 + slow), (2.0, 2.0 + slow)]
    assert probe.probe_seconds(0.1, 1.9) == pytest.approx(slow)
    assert probe.reference_seconds(0.1, 1.9) == pytest.approx((1.8 - slow) / 2)


def test_step_blocks_are_steps():
    clock = StepClock()
    with clock.step("pass"):
        pass
    with clock.step("pass"):
        pass
    assert len(clock.steps()) == 2


def test_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    pairs = list(zip(base, [b * 0.8 for b in base]))
    assert verdict(base, [p[1] for p in pairs], pairs, "lower", 0.1)[0] == "improved"
    assert verdict(base, [b * 1.01 for b in base], [], "lower", 0.1)[0] == "no worse"
    assert verdict(base, [b * 1.3 for b in base], [], "lower", 0.1)[0] == "regressed"
    wide = [5.0, 15.0, 8.0, 12.0, 10.0]
    assert verdict(wide, [b * 1.05 for b in wide], [], "lower", 0.1)[0] == "unresolved"
    assert verdict([0.99] * 3, [0.99] * 3, [], "higher", None)[0] == "same"


def test_a_child_past_its_deadline_is_killed_and_counted():
    import run

    with pytest.raises(run.ChildFailed, match="timed out"):
        run.run_child("lindblad_retrain", 0, 15.0, "run", time.monotonic() + 1.0)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_eval", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
