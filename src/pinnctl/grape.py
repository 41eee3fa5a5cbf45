"""Piecewise-constant baseline: Adam ascent on the per-segment amplitudes.

Shares the propagator, the fidelity code and the ascent loop
(``optimizer.ascend``) with network training; the only difference is that the
optimization variables are the table entries themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import PulseTable
from .objectives import ObjectiveSpec, pulse_table_gradient
from .optimizer import AscentConfig, RunRecord, _require_count, ascend
from .spins import SpinSystem


@dataclass(frozen=True)
class GrapeConfig(AscentConfig):
    """The ascent settings (a larger default step) plus the table and its bound."""

    learning_rate: float = 1e2
    n_segments: int = 128  # 2**7
    amp_limit: float = 2.0 * np.pi * 1000.0  # rad/s

    def __post_init__(self):
        super().__post_init__()
        _require_count("n_segments", self.n_segments)
        if not self.amp_limit > 0:
            raise ValueError("amp_limit must be positive")


def grape_train(
    system: SpinSystem,
    objective: ObjectiveSpec,
    duration: float,
    config: GrapeConfig,
) -> tuple[PulseTable, RunRecord]:
    """Optimize an n_segments x 2M amplitude table with exact gradients, clipped
    to +-amp_limit after every update, from a seeded N(0, 0.05 amp_limit) draw.
    Returns the table and the ascent's run record."""
    n, m2 = config.n_segments, 2 * system.n_channels
    amps = np.random.default_rng(config.seed).normal(0.0, 0.05 * config.amp_limit, size=(n, m2))

    def score(arrays):
        table = PulseTable(duration, arrays[0].reshape(n, -1, 2))
        fid, grad = pulse_table_gradient(system, table, objective)
        return fid, [grad]

    def clip(arrays):
        return [np.clip(arrays[0], -config.amp_limit, config.amp_limit)]

    (amps,), record = ascend(score, [amps], config, project=clip)
    return PulseTable(duration, amps.reshape(n, -1, 2)), record
