"""Piecewise-constant baseline: Adam ascent on the per-segment amplitudes.

Shares the propagator, the fidelity code and the ascent loop
(``optimizer.ascend``) with network training; the only difference is that the
optimization variables are the table entries themselves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .network import NetworkParams, PulseTable, init_params
from .objectives import ObjectiveSpec, pulse_table_gradient
from .optimizer import AscentConfig, ascend, fit_network_to_table
from .spins import SpinSystem


@dataclass(frozen=True)
class GrapeConfig(AscentConfig):
    """The ascent settings (a larger default step) plus the table and its bound."""

    learning_rate: float = 1e2
    n_segments: int = 128  # 2**7
    amp_limit: float = 2.0 * np.pi * 1000.0  # rad/s
    clip_rule: str = "clip"  # "clip" | "penalty"
    init_rule: str = "random"  # "random" | "zero"
    init_fraction: float = 0.05

    def __post_init__(self):
        super().__post_init__()
        if self.n_segments < 1:
            raise ValueError("n_segments must be >= 1")
        if not self.amp_limit > 0:
            raise ValueError("amp_limit must be positive")
        if self.clip_rule not in ("clip", "penalty"):
            raise ValueError(f"unknown clip rule {self.clip_rule!r}")
        if self.init_rule not in ("random", "zero"):
            raise ValueError(f"unknown init rule {self.init_rule!r}")


@dataclass
class GrapeRecord:
    iterations: list[tuple[int, float, float]]
    final_table: PulseTable
    converged: bool
    config: GrapeConfig
    wall_time_s: float = 0.0

    @property
    def final_fidelity(self) -> float:
        return self.iterations[-1][1]


def _penalty_grad(amps: np.ndarray, limit: float) -> tuple[float, np.ndarray]:
    # quartic wall outside +-limit
    over = np.clip(np.abs(amps) - limit, 0.0, None) / limit
    value = float(np.sum(over**4))
    grad = 4.0 * over**3 * np.sign(amps) / limit
    return value, grad


def grape_train(
    system: SpinSystem,
    objective: ObjectiveSpec,
    duration: float,
    config: GrapeConfig,
) -> tuple[PulseTable, GrapeRecord]:
    """Optimize an n_segments x 2M amplitude table with exact gradients."""
    t0 = time.monotonic()
    n, m2 = config.n_segments, 2 * system.n_channels
    rng = np.random.default_rng(config.seed)
    if config.init_rule == "random":
        amps = rng.normal(0.0, config.init_fraction * config.amp_limit, size=(n, m2))
    else:
        amps = np.zeros((n, m2))

    def score(arrays):
        table = PulseTable(duration, arrays[0].reshape(n, -1, 2))
        fid, grad = pulse_table_gradient(system, table, objective)
        if config.clip_rule == "penalty":
            pen, pen_grad = _penalty_grad(arrays[0], config.amp_limit)
            return fid - pen, [grad - pen_grad]
        return fid, [grad]

    def clip(arrays):
        return [np.clip(arrays[0], -config.amp_limit, config.amp_limit)]

    (amps,), rows, converged, _ = ascend(
        score, [amps], config, project=clip if config.clip_rule == "clip" else None
    )
    table = PulseTable(duration, amps.reshape(n, -1, 2))
    return table, GrapeRecord(rows, table, converged, config, time.monotonic() - t0)


def grape_warm_start(
    system: SpinSystem,
    objective: ObjectiveSpec,
    layer_sizes,
    amp_scale: float,
    duration: float,
    config: GrapeConfig,
    *,
    seed: int = 0,
    fit_samples: int = 256,
    fit_learning_rate: float = 1e-2,
    fit_iters: int = 12000,
) -> tuple[NetworkParams, GrapeRecord]:
    """Segment-wise solve, then fit the network to the resulting pulse.

    Some objectives are poorly trainable for the network from a random start
    (trajectory-shaped state transfers in particular: the run either stalls
    at low fidelity or converges through the wrong transfer route and cannot
    leave it).  The same objective is well conditioned segment-wise, so this
    solves it with the table optimizer first and regresses the network onto
    the solution; a short network fine-tune from the fitted point stays in
    the table's basin.  The GRAPE amplitude limit must sit strictly below
    amp_scale so the tanh output layer can represent the table.
    """
    if config.amp_limit >= amp_scale:
        raise ValueError("GRAPE amp_limit must be below the network amp_scale")
    table, record = grape_train(system, objective, duration, config)
    params0 = init_params(layer_sizes, amp_scale, duration, seed)
    fitted = fit_network_to_table(
        params0,
        table,
        n_samples=fit_samples,
        learning_rate=fit_learning_rate,
        n_iters=fit_iters,
    )
    return fitted, record
