"""Adam ascent: the one loop (``ascend``), and network training,
multi-start and the least-squares table fit built on it.  The GRAPE baseline
(grape.py) runs the same loop on pulse table entries.  Every ascent returns
one run record: the trajectory, the settings and the wall time, plus the
trained network for network training; the network itself is the run's
product (``network.save_params``).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .network import (
    NetworkParams,
    PulseTable,
    backprop_pulse,
    forward_batch,
    init_params,
    params_to_dict,
    segment_times,
)
from .objectives import ObjectiveSpec, loss_and_gradient
from .propagation import DEFAULT_N_FINE, DEFAULT_SUBSTEP_TOL, _check_substep_tol, _workspace
from .spins import SpinSystem

DIVERGENCE_WINDOW = 100
# Adam moment decay rates and denominator guard (the standard values)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# step size of the least-squares table fit
FIT_LEARNING_RATE = 1e-2


class DivergenceError(RuntimeError):
    pass


def _require_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class AscentConfig:
    """Settings of one Adam ascent: step size, stopping and logging."""

    learning_rate: float = 1e-3
    f_threshold: float = 0.99
    max_iters: int = 20000
    seed: int = 0
    log_every: int = 1

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:  # NaN-safe
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate!r}")
        if not 0 < self.f_threshold <= 1:
            raise ValueError(f"f_threshold must be in (0, 1], got {self.f_threshold!r}")
        _require_count("max_iters", self.max_iters)
        _require_count("log_every", self.log_every)


@dataclass(frozen=True)
class OptimizerConfig(AscentConfig):
    """Network training: the ascent settings plus the propagation grid and substep tolerance."""

    n_fine: int = DEFAULT_N_FINE
    substep_tol: float = DEFAULT_SUBSTEP_TOL

    def __post_init__(self):
        super().__post_init__()
        _require_count("n_fine", self.n_fine)
        _check_substep_tol(self.substep_tol)


class AdamState:
    """First/second moment accumulators over a list of arrays.

    Each moment is one flat vector, so an update is one pass over every
    element.
    """

    def __init__(self, shapes_like: list[np.ndarray]):
        self.step = 0
        sizes = [np.size(a) for a in shapes_like]
        self._layout = [(slice(end - n, end), np.shape(a))
                        for a, n, end in zip(shapes_like, sizes, np.cumsum(sizes))]
        self._m, self._v = np.zeros((2, sum(sizes)))

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        return [flat[part].reshape(shape) for part, shape in self._layout]

    def update(self, grads: list[np.ndarray], lr: float):
        """Return the parameter increments for one ascent step along `grads`.

        The moments are kept for the descent gradient -grads: the sign is taken
        once, on the concatenated vector.
        """
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        self.step += 1
        g = np.concatenate(grads, axis=None)
        np.negative(g, out=g)
        # in place, rounded exactly as b1 * m + (1 - b1) * g and b2 * v + (1 - b2) * g * g
        self._m *= b1
        self._m += (1 - b1) * g
        self._v *= b2
        self._v += (1 - b2) * g * g
        m_hat = self._m / (1 - b1**self.step)
        v_hat = self._v / (1 - b2**self.step)
        return self._views(-lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))


@dataclass
class RunRecord:
    """One ascent: its trajectory, the settings used and its wall time; network
    training adds the trained network."""

    iterations: list[tuple[int, float, float]]  # (iter, fidelity, grad 2-norm)
    converged: bool
    config: AscentConfig
    wall_time_s: float
    final_params: NetworkParams | None = None
    context: dict = field(default_factory=dict)

    @property
    def final_fidelity(self) -> float:
        return self.iterations[-1][1]

    @property
    def n_iters(self) -> int:
        return self.iterations[-1][0]


def _grad_norm(*groups) -> float:
    """2-norm of gradient arrays, the squares summed group by group."""
    return float(np.sqrt(sum(sum(float(np.sum(g * g)) for g in group) for group in groups)))


@_workspace()  # one per call: the dissipative gradient reuses its buffers every step
def ascend(score, arrays: list[np.ndarray], config: AscentConfig, *, project=None,
           norm=_grad_norm):
    """Maximise score(arrays) -> (value, gradients) with Adam until the value
    reaches config.f_threshold or after config.max_iters updates.

    ``project`` maps the arrays after every update.  Returns the final arrays
    and a RunRecord of the (iteration, value, norm(gradients)) rows, the
    converged flag, the config and the wall time.
    Raises FloatingPointError on a non-finite value, and DivergenceError after
    DIVERGENCE_WINDOW consecutive updates below the initial value - 0.5.
    """
    t0 = time.monotonic()
    state = AdamState(arrays)
    value, grads = score(arrays)
    initial = value
    rows = [(0, value, norm(grads))]
    converged = value >= config.f_threshold
    below = 0
    it = 0
    while not converged and it < config.max_iters:
        it += 1
        deltas = state.update(grads, config.learning_rate)
        arrays = [a + d for a, d in zip(arrays, deltas)]
        if project is not None:
            arrays = project(arrays)
        value, grads = score(arrays)
        if not math.isfinite(value):
            raise FloatingPointError(f"non-finite score at iteration {it}")
        converged = value >= config.f_threshold
        if converged or it % config.log_every == 0:
            rows.append((it, value, norm(grads)))
        if value < initial - 0.5:
            below += 1
            if below >= DIVERGENCE_WINDOW:
                raise DivergenceError(f"score stuck below initial-0.5 for {DIVERGENCE_WINDOW} "
                                      f"iterations (iteration {it}, score {value:.6f})")
        else:
            below = 0
    if rows[-1][0] != it:
        rows.append((it, value, norm(grads)))
    return arrays, RunRecord(rows, converged, config, time.monotonic() - t0)


def _with_arrays(params: NetworkParams, arrays: list[np.ndarray]) -> NetworkParams:
    nw = len(params.weights)
    return replace(params, weights=tuple(arrays[:nw]), biases=tuple(arrays[nw:]))


def train(
    params0: NetworkParams,
    system: SpinSystem,
    objective: ObjectiveSpec,
    config: OptimizerConfig,
) -> RunRecord:
    """Ascend fidelity with Adam until f_threshold or max_iters."""
    nw = len(params0.weights)

    def score(arrays):
        params = _with_arrays(params0, arrays)
        fid, (gw, gb) = loss_and_gradient(params, system, objective, config.n_fine,
                                          substep_tol=config.substep_tol)
        return fid, [*gw, *gb]

    arrays, record = ascend(
        score, [*params0.weights, *params0.biases], config,
        norm=lambda grads: _grad_norm(grads[:nw], grads[nw:]),
    )
    record.final_params = _with_arrays(params0, arrays)
    return record


def fit_network_to_table(
    params0: NetworkParams,
    table: PulseTable,
    *,
    n_samples: int = 256,
    n_iters: int = 12000,
) -> NetworkParams:
    """Least-squares fit of the network to a piecewise-constant pulse.

    Minimizes the mean squared amplitude error against the table held as a
    staircase, sampled on a dense midpoint grid.  This is a supervised warm
    start: the physics never enters, so it is cheap, and the fitted network
    starts inside the basin of the table's transfer route.
    """
    if abs(params0.time_scale - table.duration) > 1e-12 * table.duration:
        raise ValueError("network time_scale and table duration differ")
    if params0.n_channels != table.n_channels:
        raise ValueError("network and table channel counts differ")
    t = segment_times(table.duration, n_samples)
    seg = np.minimum(
        (t / table.duration * table.n_segments).astype(int), table.n_segments - 1
    )
    target = table.flat_amplitudes()[seg]
    if np.any(np.abs(target) >= params0.amp_scale):
        raise ValueError("table amplitudes exceed the network amp_scale bound")

    def score(arrays):
        params = _with_arrays(params0, arrays)
        tape = []
        err = forward_batch(params, t, tape) - target
        gw, gb = backprop_pulse(params, t, (-2.0 / err.size) * err, tape)
        return -float(np.vdot(err, err)) / err.size, [*gw, *gb]

    # -MSE <= 0 never reaches a threshold in (0, 1]: exactly n_iters updates
    config = AscentConfig(learning_rate=FIT_LEARNING_RATE, f_threshold=1.0, max_iters=n_iters,
                          log_every=n_iters)
    arrays = ascend(score, [*params0.weights, *params0.biases], config)[0]
    return _with_arrays(params0, arrays)


def multi_start(
    system: SpinSystem,
    objective: ObjectiveSpec,
    layer_sizes,
    amp_scale: float,
    time_scale: float,
    config: OptimizerConfig,
    n_starts: int = 1,
    *,
    input_gain: float = 1.0,
) -> RunRecord:
    """Train from seeds seed..seed+n-1, stopping at the first run that reaches
    the fidelity threshold; otherwise the best final fidelity wins, ties by
    lower seed.
    """
    _require_count("n_starts", n_starts)
    best: RunRecord | None = None
    for k in range(n_starts):
        seed = config.seed + k
        params0 = init_params(layer_sizes, amp_scale, time_scale, seed, input_gain=input_gain)
        record = train(params0, system, objective, replace(config, seed=seed))
        record.context["seed"] = seed
        if best is None or record.final_fidelity > best.final_fidelity:
            best = record
        if record.converged:
            break
    return best


def run_record_to_dict(record: RunRecord) -> dict:
    params = record.final_params
    return {
        "iterations": [[int(i), f, g] for i, f, g in record.iterations],
        "final_params": None if params is None else params_to_dict(params),
        "converged": record.converged,
        "config": asdict(record.config),
        "context": record.context,
        "metadata": {"wall_time_s": record.wall_time_s},
    }


def save_run_record(record: RunRecord, path) -> None:
    with open(path, "w") as fh:
        json.dump(run_record_to_dict(record), fh)

