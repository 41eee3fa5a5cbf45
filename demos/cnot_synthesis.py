"""Narrative walk-through: synthesize a CNOT pulse on the two-channel preset.

Trains the (1,40,40,4) control network of the `defm-cnot` recipe against the
CNOT gate objective, then samples the network to a pulse table, reports the
spectrum, and shows how the fidelity of the discretized pulse saturates with
segment count.

Run from the repo root:  python3 demos/cnot_synthesis.py
"""

from pinnctl import (
    PRESETS,
    cnot_objective,
    discretization_sweep,
    evaluate_fidelity,
    pulse_spectrum,
    sample_pulse,
)
from pinnctl.cli import RUN_PRESETS, synthesize

system = PRESETS["defm"]
objective = cnot_objective()

print("training (up to 3 seeds, stops at the first to reach 0.99)...")
record, _ = synthesize(RUN_PRESETS["defm-cnot"])
params = record.final_params
print(f"converged={record.converged} after {record.iterations[-1][0]} iterations")

fid = evaluate_fidelity(system, params, objective, n_fine=4096)
print(f"normalized gate fidelity on the fine grid: {fid:.6f}")

table = sample_pulse(params, 128)
spec = pulse_spectrum(table)
for c, width in enumerate(spec.energy_bandwidth_99):
    print(f"channel {c + 1}: 99% energy bandwidth {width:.1f} Hz")

print("\nsegment count vs infidelity:")
sweep = discretization_sweep(params, system, objective, [2**k for k in range(0, 16, 3)])
for n, f in zip(sweep.axis_values, sweep.fidelity):
    print(f"  n = {n:5d}   1 - F = {1 - f:.2e}")
