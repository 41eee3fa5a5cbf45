"""Narrative walk-through: training with dissipation in the loop.

Retrains the singlet-order sequence at increasing collapse rates gamma
(local, i.e. independent per-spin dephasing-like operators, and global,
i.e. collective operators), starting each rate from the noiseless
solution, then compares amplitude-miscalibration robustness of the
noiseless pulse against one trained at small gamma.

Each retrain is the tcp-lls-noisy preset, the recipe the acceptance suite
uses: 400 Adam steps (a fixed budget) from the noiseless network, which is
saved to a temporary directory and named as the run's `network`.

This is the slowest demo (Lindblad-space training); expect minutes.

Run from the repo root:  python3 demos/noise_robustness.py
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from pinnctl import (
    PRESETS,
    amplitude_error_sweep,
    lls_objective,
    noise_operators,
    noise_sweep,
    robust_width,
    save_params,
)
from pinnctl.cli import RUN_PRESETS, synthesize

system = PRESETS["tcp"]
objective = lls_objective()
gammas = [0.0, 0.02, 0.04, 0.06, 0.07]

print("noiseless training (the tcp-lls recipe)...")
clean_params = synthesize(RUN_PRESETS["tcp-lls"])[0].final_params

results = {}
with tempfile.TemporaryDirectory() as tmp:
    clean_path = str(Path(tmp) / "clean.json")
    save_params(clean_params, clean_path)
    for kind in ("local", "global"):
        params_by_gamma = {0.0: clean_params}
        for g in gammas[1:]:
            print(f"retraining at gamma={g} ({kind})...")
            rec, _ = synthesize({**RUN_PRESETS["tcp-lls-noisy"], "network": clean_path,
                                 "noise": {"kind": kind, "gamma": g}})
            params_by_gamma[g] = rec.final_params
        sweep = noise_sweep(params_by_gamma, system, objective, gammas, kind)
        results[kind] = (params_by_gamma, sweep)
        print(f"{kind}: " + "  ".join(
            f"F({g})={f:.4f}" for g, f in zip(gammas, sweep.fidelity)))

devs = list(np.round(np.arange(-0.2, 0.2001, 0.02), 4))
local_params, _ = results["local"]
clean_sweep = amplitude_error_sweep(clean_params, system, objective, devs)
noisy_obj = replace(objective, noise=noise_operators(system, "local", 0.02))
robust_sweep = amplitude_error_sweep(
    local_params[0.02], system, noisy_obj, devs
)
print(f"\n0.95-peak robustness width, gamma=0 pulse:    "
      f"{robust_width(clean_sweep):.3f} (du/u)")
print(f"0.95-peak robustness width, gamma=0.02 pulse: "
      f"{robust_width(robust_sweep):.3f} (du/u)")
