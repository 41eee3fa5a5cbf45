"""Narrative walk-through: training with dissipation in the loop.

Retrains the singlet-order sequence at increasing collapse rates gamma
(local, i.e. independent per-spin dephasing-like operators, and global,
i.e. collective operators), warm-starting each rate from the noiseless
solution, then compares amplitude-miscalibration robustness of the
noiseless pulse against one trained at small gamma.

This is the slowest demo (Lindblad-space training); expect minutes.

Run from the repo root:  python3 demos/noise_robustness.py
"""

from dataclasses import replace

import numpy as np

from pinnctl import (
    OptimizerConfig,
    PRESETS,
    amplitude_error_sweep,
    lls_objective,
    noise_operators,
    noise_sweep,
    robust_width,
    train,
)
from pinnctl.cli import RUN_PRESETS, synthesize

system = PRESETS["tcp"]
objective = lls_objective()
gammas = [0.0, 0.02, 0.04, 0.06, 0.07]

print("noiseless training (the tcp-lls recipe)...")
clean_params = synthesize(RUN_PRESETS["tcp-lls"])[0].final_params

noisy_config = OptimizerConfig(
    learning_rate=3e-3, f_threshold=1.0, max_iters=500, n_fine=512, substep_tol=0.05
)

results = {}
for kind in ("local", "global"):
    params_by_gamma = {0.0: clean_params}
    for g in gammas[1:]:
        print(f"retraining at gamma={g} ({kind})...")
        noisy_obj = replace(objective, noise=noise_operators(system, kind, g))
        rec = train(clean_params, system, noisy_obj, noisy_config)
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
