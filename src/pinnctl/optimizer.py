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

from .checks import integer, real
from .network import (
    NetworkParams,
    PulseTable,
    backprop_pulse,
    forward_batch,
    params_to_dict,
    segment_times,
)
from .objectives import ObjectiveSpec, loss_and_gradient
from .propagation import DEFAULT_N_FINE, DEFAULT_SUBSTEP_TOL, _check_substep_tol
from .spins import SpinSystem
from .workspace import _workspace

DIVERGENCE_WINDOW = 100
# Adam moment decay rates and denominator guard (the standard values)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# step size of the least-squares table fit
FIT_LEARNING_RATE = 1e-2


class DivergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class AscentConfig:
    """Settings of one Adam ascent: step size, stopping and logging."""

    learning_rate: float = 1e-3
    f_threshold: float = 0.99
    max_iters: int = 20000
    seed: int = 0
    log_every: int = 1

    def __post_init__(self):
        real("learning_rate", self.learning_rate, "positive and finite")
        real("f_threshold", self.f_threshold, "in (0, 1]")
        integer("max_iters", self.max_iters, 1)
        integer("seed", self.seed, 0)
        integer("log_every", self.log_every, 1)


@dataclass(frozen=True)
class OptimizerConfig(AscentConfig):
    """Network training: the ascent settings plus the propagation grid and substep tolerance."""

    n_fine: int = DEFAULT_N_FINE
    substep_tol: float = DEFAULT_SUBSTEP_TOL

    def __post_init__(self):
        super().__post_init__()
        integer("n_fine", self.n_fine, 1)
        _check_substep_tol(self.substep_tol)


class AdamState:
    """First/second moment accumulators shaped like one parameter array, and two
    more that an update computes in, so an update is one pass over every element."""

    def __init__(self, like: np.ndarray):
        self.step = 0
        self._m, self._v, self._inc, self._den = np.zeros((4, *np.shape(like)))

    def update(self, grad: np.ndarray, lr: float) -> np.ndarray:
        """Return the parameter increment for one ascent step along `grad`, until the next update.

        The moments are kept for the descent gradient -grad.
        """
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        inc, den = self._inc, self._den
        self.step += 1
        # in place, rounded exactly as b1 * m + (1 - b1) * -grad and b2 * v + (1 - b2) * grad * grad
        self._m *= b1
        self._m -= np.multiply(1 - b1, grad, out=inc)
        self._v *= b2
        self._v += np.multiply(np.multiply(1 - b2, grad, out=den), grad, out=den)
        # -lr * m_hat / (sqrt(v_hat) + eps)
        np.multiply(-lr, np.divide(self._m, 1 - b1**self.step, out=inc), out=inc)
        np.sqrt(np.divide(self._v, 1 - b2**self.step, out=den), out=den)
        return np.divide(inc, np.add(den, ADAM_EPS, out=den), out=inc)


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


@_workspace()  # one per call: the unitary and dissipative gradients reuse its buffers every step
def ascend(score, x: np.ndarray, config: AscentConfig, *, project=None):
    """Maximise score(x) -> (value, gradient shaped like x) with Adam until the
    value reaches config.f_threshold or after config.max_iters updates.

    ``project`` maps x after every update.  Returns the final x and a RunRecord of the
    (iteration, value, gradient 2-norm) rows, the converged flag, the config and the wall time.
    Raises FloatingPointError on a non-finite value or gradient 2-norm, and DivergenceError
    after DIVERGENCE_WINDOW consecutive updates below the initial value - 0.5.
    """
    t0 = time.monotonic()
    x = np.array(x, dtype=float)  # the one copy, stepped in place
    state = AdamState(x)
    value, grad = score(x)

    def row(it):
        with np.errstate(over="ignore"):  # past the float range the norm is inf, reported below
            norm = float(np.sqrt(np.sum(grad * grad)))
        if not math.isfinite(norm):
            raise FloatingPointError(f"gradient 2-norm is {norm} at iteration {it} "
                                     f"(largest component {np.max(np.abs(grad)):.3g})")
        return (it, value, norm)

    initial = value
    rows = [row(0)]
    converged = value >= config.f_threshold
    below = 0
    it = 0
    while not converged and it < config.max_iters:
        it += 1
        x += state.update(grad, config.learning_rate)
        if project is not None:
            x = project(x)
        value, grad = score(x)
        if not math.isfinite(value):
            raise FloatingPointError(f"non-finite score at iteration {it}")
        converged = value >= config.f_threshold
        if converged or it % config.log_every == 0:
            rows.append(row(it))
        if value < initial - 0.5:
            below += 1
            if below >= DIVERGENCE_WINDOW:
                raise DivergenceError(f"score stuck below initial-0.5 for {DIVERGENCE_WINDOW} "
                                      f"iterations (iteration {it}, score {value:.6f})")
        else:
            below = 0
    if rows[-1][0] != it:
        rows.append(row(it))
    return x.copy(), RunRecord(rows, converged, config, time.monotonic() - t0)


def train(
    params0: NetworkParams,
    system: SpinSystem,
    objective: ObjectiveSpec,
    config: OptimizerConfig,
) -> RunRecord:
    """Ascend fidelity with Adam until f_threshold or max_iters."""

    def score(x):
        fid, grads = loss_and_gradient(params0.with_vector(x), system, objective, config.n_fine,
                                       substep_tol=config.substep_tol)
        return fid, NetworkParams.flatten(*grads)

    x, record = ascend(score, params0.vector(), config)
    record.final_params = params0.with_vector(x)
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
    staircase, sampled on a dense midpoint grid, max(n_samples, n_segments)
    points, so that every segment counts.  This is a supervised warm start: the
    physics never enters, so it is cheap, and the fitted network starts inside
    the basin of the table's transfer route.
    """
    integer("n_samples", n_samples, 1)
    integer("n_iters", n_iters, 1)
    if abs(params0.time_scale - table.duration) > 1e-12 * table.duration:
        raise ValueError("network time_scale and table duration differ")
    if params0.n_channels != table.n_channels:
        raise ValueError("network and table channel counts differ")
    t = segment_times(table.duration, max(n_samples, table.n_segments))
    seg = np.minimum(
        (t / table.duration * table.n_segments).astype(int), table.n_segments - 1
    )
    target = table.flat_amplitudes()[seg]
    if np.any(np.abs(target) >= params0.amp_scale):
        raise ValueError("table amplitudes exceed the network amp_scale bound")

    def score(x):
        params, tape = params0.with_vector(x), []
        err = forward_batch(params, t, tape) - target
        grads = backprop_pulse(params, (-2.0 / err.size) * err, tape)
        return -float(np.vdot(err, err)) / err.size, NetworkParams.flatten(*grads)

    # -MSE <= 0 never reaches a threshold in (0, 1]: exactly n_iters updates
    config = AscentConfig(learning_rate=FIT_LEARNING_RATE, f_threshold=1.0, max_iters=n_iters,
                          log_every=n_iters)
    return params0.with_vector(ascend(score, params0.vector(), config)[0])


def multi_start(init, system: SpinSystem, objective: ObjectiveSpec, config: OptimizerConfig,
                n_starts: int = 1) -> RunRecord:
    """Train the network init(seed) from seeds seed..seed+n-1, stopping at the
    first run that reaches the fidelity threshold; otherwise the best final
    fidelity wins, ties by lower seed.  init is any start, such as a network
    loaded or fitted for the first seed; each record's context names its seed.
    """
    integer("n_starts", n_starts, 1)
    best: RunRecord | None = None
    for seed in range(config.seed, config.seed + n_starts):
        record = train(init(seed), system, objective, replace(config, seed=seed))
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

